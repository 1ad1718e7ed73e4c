"""Static guard against dead code in ``src/logsig``: a module-level import the
module never uses, a module-level private function, class or assignment
that nothing in the package references outside its own statement, a local
name a function stores and never reads, or a dataclass field that nothing
reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logsig"


def parse_all(paths):
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(paths)}


MODULES = parse_all(PACKAGE.glob("*.py"))


def names_read(nodes):
    """Bare names and attribute names anywhere under ``nodes``."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
    return out


def exported(tree):
    """The strings listed in a module-level ``__all__``."""
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)):
            return {ast.literal_eval(e) for e in stmt.value.elts}
    return set()


def test_package_modules_found():
    assert {"__init__.py", "arith.py", "construct.py", "perm.py"} <= set(MODULES)


def test_no_unused_module_level_imports():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":  # its imports are the package's public names
            continue
        imports = [s for s in tree.body if isinstance(s, (ast.Import, ast.ImportFrom))]
        used = names_read(s for s in tree.body if s not in imports) | exported(tree)
        for stmt in imports:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append("%s: %s" % (name, bound))
    assert unused == []


def defined_names(stmt):
    """The names a module-level statement defines or assigns."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_no_unreferenced_private_definitions():
    reads = [(s, names_read([s])) for t in MODULES.values() for s in t.body]
    unreferenced = []
    for name, tree in MODULES.items():
        for stmt in tree.body:
            for d in defined_names(stmt):
                if not d.startswith("_") or d.startswith("__"):
                    continue
                if not any(d in r for s, r in reads if s is not stmt):
                    unreferenced.append("%s: %s" % (name, d))
    assert unreferenced == []


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def own_scope(func):
    """The nodes of ``func``'s body outside any function or class nested in it."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def test_no_unread_local_names():
    # a name starting with "_" is unread on purpose; a nested function may
    # read its enclosing function's names
    unread = []
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = list(own_scope(func))
            declared = {n for s in body if isinstance(s, (ast.Global, ast.Nonlocal))
                        for n in s.names}
            stored = {n.id for n in body
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            loaded = {n.id for n in ast.walk(func)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += ["%s: %s: %s" % (name, func.name, local)
                       for local in sorted(stored - loaded - declared)
                       if not local.startswith("_")]
    assert unread == []


def is_dataclass(cls):
    for d in cls.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    # a field counts as read where some code loads it as an attribute
    trees = (list(MODULES.values()) + list(parse_all(ROOT.glob("tests/*.py")).values())
             + list(parse_all(ROOT.glob("perfbench/*.py")).values()))
    read = {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = []
    for name, tree in MODULES.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and is_dataclass(cls)):
                continue
            unread += ["%s: %s.%s" % (name, cls.name, stmt.target.id) for stmt in cls.body
                       if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read]
    assert unread == []
