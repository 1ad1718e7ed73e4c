"""Smoke check of the benchmark at a tiny size.

Runs every workload untraced and traced with the ``TINY`` sizes and zero
measuring seconds, and checks that each run passes its output checks and
prints exactly the metrics ``BENCHMARK.json`` names, with their units.  Then
it breaks the library on purpose, once per kind of check (a wrong PGM
encrypt, an exhaustive oracle that accepts everything), and checks that the
benchmark exits non-zero and reports ``correct: false``.

    python3 perfbench/smoke.py

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run as bench

sys.path.insert(0, bench.SRC)


def _run(workload: str, trace: int) -> tuple[int, dict]:
    import workloads
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = bench.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                           "--trace", str(trace)], sizes=workloads.TINY)
    return code, json.loads(buf.getvalue().splitlines()[-1])


@contextlib.contextmanager
def _patched(module, name, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


def main() -> int:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} != bench.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if declared[1] != bench.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")

    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result = _run(w["name"], trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            print("%-10s trace %d: exit %d, %d/%d checks failed, %d metrics"
                  % (w["name"], trace, code, result["failed"], result["attempted"], len(got)))
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append("%s trace %d: run failed" % (w["name"], trace))
            if got != declared[trace]:
                problems.append("%s trace %d: metrics differ from BENCHMARK.json: %s"
                                % (w["name"], trace,
                                   sorted(set(got).symmetric_difference(declared[trace]))))

    import logsig.pgm
    import logsig.signature
    from logsig.signature import VerificationReport
    faults = (
        ("lookup", logsig.pgm, "encrypt",
         lambda key, m: (m + 1) % key.message_space),
        ("verify", logsig.signature, "verify_exhaustive",
         lambda ls, chain, budget=0: VerificationReport(
             ok=True, method="exhaustive", products_checked=ls.product_count())),
    )
    for workload, module, name, broken in faults:
        with _patched(module, name, broken):
            code, result = _run(workload, 0)
        print("%-10s broken %s: exit %d, %d/%d checks failed"
              % (workload, name, code, result["failed"], result["attempted"]))
        if code == 0 or result["correct"] or not result["failed"]:
            problems.append("%s: a broken %s went unnoticed" % (workload, name))

    for p in problems:
        print("FAIL: %s" % p)
    print("smoke: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
