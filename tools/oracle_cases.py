"""Time the exhaustive oracle on a fixed list of checks.

Run from the root of a source checkout:

    python3 tools/oracle_cases.py                       # every case
    python3 tools/oracle_cases.py "M11 refined" "C1000 cyclic"
    python3 tools/oracle_cases.py --src ../other/src    # another checkout's library

For each case it prints the verdict, the median time of ``REPEAT`` calls
of ``verify_exhaustive``, the products per second that gives (the product
count over the median) and the tracemalloc peak of one more call, in bytes
per product.  Signatures and chains are built before any timing.  To compare
two checkouts, run the script against each in turn, more than once and
alternating, on an otherwise idle machine: only figures taken side by side
compare.  Standard library only; an unknown case name exits 2 and lists the
cases.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEAT = 21     # timed calls per case


def _tampered_m22(lib):
    # the last block-0 entry becomes b0[1] * b1[1], repeating the products
    # of digits (1, 1, 0, 0, 0); the first collision is at 423,361
    chain = lib.load_verified_chain("M22")
    ls = lib.chain_ls(chain)
    b0 = list(ls.blocks[0])
    b0[-1] = ls.blocks[0][1] * ls.blocks[1][1]
    return lib.LogSignature(degree=ls.degree, blocks=(tuple(b0),) + ls.blocks[1:]), chain


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
    return {"ok": report.ok, "checked": report.products_checked,
            "products": chain.order, "median_ms": median * 1e3,
            "products_per_s": chain.order / median,
            "bytes_per_product": peak / chain.order}


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

    print("%-14s %-16s %12s %10s %14s %10s" % (
        "case", "verdict", "products", "median_ms", "products/s", "B/product"))
    for name in args.cases or CASES:
        row = measure(logsig, name)
        verdict = "pass" if row["ok"] else "fail at %d" % row["checked"]
        print("%-14s %-16s %12d %10.3f %14.4g %10.3f" % (
            name, verdict, row["products"], row["median_ms"],
            row["products_per_s"], row["bytes_per_product"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
