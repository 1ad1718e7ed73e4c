"""Time the exhaustive oracle on a fixed list of checks.

Run from the root of a source checkout:

    python3 tools/oracle_cases.py                       # every case
    python3 tools/oracle_cases.py "M11 refined" "C1000 cyclic"
    python3 tools/oracle_cases.py --src ../other/src    # another checkout's library

For each case it prints the verdict, the median time of ``REPEAT`` calls
of ``verify_exhaustive``, the products per second that gives (the product
count over the median), the tracemalloc peak of one more call, in bytes
per product, the median time of ``REPEAT`` calls of the membership check
that both oracles and the tame index run first (``_member_fault``), the
median time of ``REPEAT`` calls of ``build_chain`` on the case's
generators, the file format's median time of ``REPEAT`` calls of
``loads_ls(dumps_ls(ls))``, refinement's median time of ``REPEAT`` calls
of ``refine_ls`` on the chain signature at the default cap (for the
refined cases; ``n/a`` in the other rows), the structural oracle's
verdict with the median time of ``REPEAT`` calls of ``verify_structural``
(``n/a`` when it raises, as it does for a signature that is neither
chain nor refined and has no runs), and the per-element layers: the
median over ``REPEAT`` passes of the microseconds per element of
``factorize_tame`` on ``ELEMENTS`` seeded members (``n/a`` where no tame
index builds), of ``factorize_generic`` on the same members with the
signature's provenance stripped to ``manual`` (a member with no
factorization is timed like the others; ``n/a`` where the budget refuses
the signature) and of ``reconstruct`` on ``ELEMENTS`` seeded digit tuples.
So the oracle, membership, chain, file format, refinement, structural and
per-element layers of a checkout are seen side by side.  Each layer's
inputs are built before it is timed.  To compare two checkouts, run the
script against each in turn, more than once and alternating, on an
otherwise idle machine: only figures taken side by side compare.
Standard library only; an unknown case name exits 2 and lists the cases.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import statistics
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEAT = 21     # timed calls per case
ELEMENTS = 200  # seeded members per pass of the per-element layers


def _tampered_m22(lib):
    # the last block-0 entry becomes b0[1] * b1[1], repeating the products
    # of digits (1, 1, 0, 0, 0); the first collision is at 423,361.  The
    # file keeps its chain tag, so the structural oracle fails it
    chain = lib.load_verified_chain("M22")
    ls = lib.chain_ls(chain)
    b0 = list(ls.blocks[0])
    b0[-1] = ls.blocks[0][1] * ls.blocks[1][1]
    return lib.LogSignature(degree=ls.degree, blocks=(tuple(b0),) + ls.blocks[1:],
                            provenance=ls.provenance), chain


def _tail_tampered_m12(lib):
    # the last entry of the last block becomes b3[1] * b4[1], so the tail's
    # one group repeats the product of digits (0, 0, 0, 1, 1); the first
    # collision is at 10, in the first head's chunk; the tag is kept too
    chain = lib.load_verified_chain("M12")
    ls = lib.chain_ls(chain)
    last = list(ls.blocks[4])
    last[-1] = ls.blocks[3][1] * ls.blocks[4][1]
    return lib.LogSignature(degree=ls.degree, blocks=ls.blocks[:4] + (tuple(last),),
                            provenance=ls.provenance), chain


def _c1000_cyclic(lib):
    chain = lib.load_verified_chain("C1000")
    gen = next(g for g in chain.generators.gens if g.order() == 1000)
    return lib.mls_cyclic(lib.CyclicSetSpec(gen, 1000)), chain


def _built(method, name):
    def build(lib):
        chain = lib.load_verified_chain(name)
        return getattr(lib, method)(chain), chain
    return build


# name -> (build(lib) -> (signature, chain), budget; None for the default)
CASES = {
    "M22 chain": (_built("chain_ls", "M22"), None),
    "M22 tampered": (_tampered_m22, None),
    "M12 tail-tampered": (_tail_tampered_m12, None),
    "M12 refined": (_built("build_mls", "M12"), None),
    "M11 refined": (_built("build_mls", "M11"), None),
    "A10 chain": (_built("chain_ls", "A10"), None),
    "S10 chain": (_built("chain_ls", "S10"), None),
    "C1000 cyclic": (_c1000_cyclic, None),
    "D300 chain": (_built("chain_ls", "D300"), None),
    "D300 solvable": (_built("build_mls", "D300"), None),
    "M24 chain": (_built("chain_ls", "M24"), 10 ** 9),
}


def measure(lib, name: str) -> dict:
    build, budget = CASES[name]
    ls, chain = build(lib)
    kwargs = {} if budget is None else {"budget": budget}
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        report = lib.verify_exhaustive(ls, chain, **kwargs)
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        lib.verify_exhaustive(ls, chain, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    median = statistics.median(times)
    members = _median_ms(lib.signature._member_fault, ls, chain)
    builds = _median_ms(lib.build_chain, chain.generators)
    codec = _median_ms(lambda: lib.loads_ls(lib.dumps_ls(ls)))
    refine = None
    if ls.provenance.tag == "refined":
        refine = _median_ms(lib.refine_ls, lib.chain_ls(chain), chain)
    structural, calls = "n/a", []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        try:
            structural = "pass" if lib.verify_structural(ls, chain).ok else "fail"
        except ValueError:
            pass
        calls.append(time.perf_counter() - t0)
    tame_us, generic_us, reconstruct_us = per_element(lib, name, ls, chain)
    return {"ok": report.ok, "checked": report.products_checked,
            "products": chain.order, "median_ms": median * 1e3,
            "products_per_s": chain.order / median,
            "bytes_per_product": peak / chain.order,
            "member_ms": members, "chain_ms": builds, "codec_ms": codec,
            "refine_ms": refine,
            "structural": structural,
            "structural_ms": statistics.median(calls) * 1e3,
            "tame_us": tame_us, "generic_us": generic_us,
            "reconstruct_us": reconstruct_us}


def _median_ms(fn, *args) -> float:
    """The median milliseconds of ``REPEAT`` calls of ``fn(*args)``."""
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _us_per_element(fn, args) -> float:
    passes = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        passes.append(time.perf_counter() - t0)
    return statistics.median(passes) / len(args) * 1e6


def per_element(lib, name: str, ls, chain):
    """Microseconds per element of ``factorize_tame`` (None where no tame
    index builds), of ``factorize_generic`` on the manual copy of ``ls``
    (None where the budget refuses it) and of ``reconstruct``."""
    rng = random.Random(name)
    members = [chain.element_at(rng.randrange(chain.order)) for _ in range(ELEMENTS)]
    digits = [tuple(rng.randrange(len(b)) for b in ls.blocks) for _ in range(ELEMENTS)]
    try:
        indexer = lib.TameIndexer(ls, chain)
    except ValueError:
        tame = None
    else:
        tame = _us_per_element(lib.factorize_tame, [(g, indexer) for g in members])
    manual = dataclasses.replace(ls, provenance=lib.Provenance("manual"))

    def generic(g):
        try:
            lib.factorize_generic(g, manual)
        except lib.FactorizationError:
            pass
    try:
        generic(members[0])  # builds the index, or meets the budget
    except ValueError:
        generic_us = None
    else:
        generic_us = _us_per_element(generic, [(g,) for g in members])
    return tame, generic_us, _us_per_element(lib.reconstruct, [(ls, d) for d in digits])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cases", nargs="*", metavar="CASE",
                        help="case names (default: all)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory that holds the logsig package")
    args = parser.parse_args(argv)
    unknown = [c for c in args.cases if c not in CASES]
    if unknown:
        print("error: unknown case %r; the cases are: %s"
              % (unknown[0], ", ".join(CASES)), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(args.src))
    import logsig

    print(("%-17s %-16s %12s %10s %14s %10s %10s %10s %9s %9s %10s %13s %8s %10s"
           " %14s") % (
        "case", "verdict", "products", "median_ms", "products/s", "B/product",
        "member_ms", "chain_ms", "codec_ms", "refine_ms", "structural",
        "structural_ms", "tame_us", "generic_us", "reconstruct_us"))
    for name in args.cases or CASES:
        row = measure(logsig, name)
        verdict = "pass" if row["ok"] else "fail at %d" % row["checked"]
        refine, tame, generic = ("n/a" if row[k] is None else f % row[k] for k, f in (
            ("refine_ms", "%.3f"), ("tame_us", "%.2f"), ("generic_us", "%.2f")))
        print(("%-17s %-16s %12d %10.3f %14.4g %10.3f %10.3f %10.3f %9.3f %9s %10s"
               " %13.3f %8s %10s %14.2f") % (
            name, verdict, row["products"], row["median_ms"],
            row["products_per_s"], row["bytes_per_product"], row["member_ms"],
            row["chain_ms"], row["codec_ms"], refine, row["structural"],
            row["structural_ms"], tame, generic, row["reconstruct_us"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
