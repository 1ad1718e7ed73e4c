"""Spans around calls into the public functions of each ``logsig`` layer.

The tracer times the library from outside: :meth:`Tracer.install` replaces
each listed function, in every ``logsig`` module that holds a reference to it,
by a wrapper that records a span, so nested calls such as
``refine_ls -> refine_block`` or ``encrypt -> reconstruct/factorize_tame`` are
caught too.  :meth:`Tracer.uninstall` puts the originals back.  Spans (name,
label, parent, start, end, plus a count taken from the result) are kept in
flat arrays in memory; every one is written out at the end of a run.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter


def _group_level(chain, level, *_a, **_k):
    return "%s.L%d" % (chain.name, level)


def _chain_group(_ls, chain, *_a, **_k):
    return chain.name


def _ls_case(ls, *_a, **_k):
    return "%s.%s" % (ls.group, ls.provenance.tag)


def _ls_group(_g, ls, *_a, **_k):
    return ls.group


# (span name, defining module, attribute, labeler, count taken from the result)
LAYERS = (
    ("catalog.load_verified_chain", "logsig.catalog", "load_verified_chain", None, None),
    ("catalog.check_claim_arithmetic", "logsig.catalog", "check_claim_arithmetic", None, None),
    ("chain.build_chain", "logsig.chain", "build_chain", None, None),
    ("construct.chain_ls", "logsig.construct", "chain_ls", None, None),
    ("construct.refine_ls", "logsig.construct", "refine_ls", _chain_group, None),
    ("construct.refine_block", "logsig.construct", "refine_block", _group_level,
     lambda r: int(r is not None)),
    ("signature.verify_structural", "logsig.signature", "verify_structural", None, None),
    ("signature.verify_exhaustive", "logsig.signature", "verify_exhaustive", _ls_case,
     lambda r: r.products_checked),
    ("signature.dumps_ls", "logsig.signature", "dumps_ls", None, None),
    ("signature.loads_ls", "logsig.signature", "loads_ls", None, None),
    ("factorize.tame_indexer", "logsig.factorize", "TameIndexer", None, None),
    ("factorize.factorize_tame", "logsig.factorize", "factorize_tame", None, None),
    ("factorize.reconstruct", "logsig.factorize", "reconstruct", None, None),
    ("factorize.factorize_generic", "logsig.factorize", "factorize_generic", _ls_group, None),
    ("pgm.keygen", "logsig.pgm", "keygen", None, None),
    ("pgm.encrypt", "logsig.pgm", "encrypt", None, None),
    ("pgm.decrypt", "logsig.pgm", "decrypt", None, None),
)


class Tracer:
    """Span recorder.  One instance per run; not thread-safe."""

    def __init__(self):
        self.keys: list[tuple[str, str]] = []
        self._key_id: dict[tuple[str, str], int] = {}
        self.key = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.count = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def begin(self, name: str, label: str = "") -> int:
        k = (name, label)
        kid = self._key_id.get(k)
        if kid is None:
            kid = self._key_id[k] = len(self.keys)
            self.keys.append(k)
        idx = len(self.start)
        self.key.append(kid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.child.append(0.0)
        self.count.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int, count: int = 0) -> None:
        t = perf_counter()
        self.end[idx] = t
        self.count[idx] = count
        self._stack.pop()
        p = self.parent[idx]
        if p >= 0:
            self.child[p] += t - self.start[idx]

    def _wrap(self, fn, name, labeler, counter):
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            idx = begin(name, labeler(*args, **kwargs) if labeler else "")
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                finish(idx, counter(result) if counter and result is not None else 0)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every listed function wherever a ``logsig`` module holds it."""
        if self._patched:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "logsig" or n.startswith("logsig."))]
        for name, modname, attr, labeler, counter in LAYERS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(original, name, labeler, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def self_time(self, idx: int) -> float:
        return self.end[idx] - self.start[idx] - self.child[idx]

    def write(self, path) -> None:
        """Write every span to ``path`` as gzip-compressed CSV, one row per
        span in the order the spans began, so ``parent`` is the 0-based row
        of the parent span (-1 for none); times are seconds from the first
        span.  Rows are streamed, so the table is never held as text."""
        t0 = self.start[0] if len(self) else 0.0
        names = ["%s[%s]" % k if k[1] else k[0] for k in self.keys]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,parent,start_s,end_s,count\n")
            fh.writelines("%s,%d,%.7f,%.7f,%d\n" % (names[k], p, s - t0, e - t0, c)
                          for k, p, s, e, c in zip(self.key, self.parent, self.start,
                                                   self.end, self.count))
