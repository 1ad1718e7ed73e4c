"""Static guard against dead code in ``src/logsig``: a module-level import the
module never uses, or a module-level private function or class that nothing
in the package references outside its own body."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "logsig"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


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


def test_no_unreferenced_private_definitions():
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unreferenced = []
    for name, tree in MODULES.items():
        for stmt in tree.body:
            if not (isinstance(stmt, defs) and stmt.name.startswith("_")
                    and not stmt.name.startswith("__")):
                continue
            elsewhere = [s for t in MODULES.values() for s in t.body if s is not stmt]
            if stmt.name not in names_read(elsewhere):
                unreferenced.append("%s: %s" % (name, stmt.name))
    assert unreferenced == []
