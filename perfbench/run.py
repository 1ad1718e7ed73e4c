"""Benchmark of the ``logsig`` library: one workload, one seed, one run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it measures the end-to-end metrics untraced, scaled to a
reference machine speed that a calibration loop measures during the run;
with ``--trace 1`` it traces calls into every layer and reports per-layer
metrics, unscaled.
It prints a readable report, then, as the last line of standard output, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
report (environment, every metric with its sample count, per-kind latencies)
is also written to ``.perfbench_out/``, with the span table of a traced run.
Exit code: 0 when every output check passed, 1 when one failed, 2 when the
library cannot be found or the arguments are wrong.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback

import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# calibration-loop time that the end-to-end times are scaled to
REFERENCE_S = 0.060
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# name -> (unit, better); every workload reports all of them
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_us": ("us", "lower"),
    "op_p99_us": ("us", "lower"),
    "products_per_s": ("1/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
    "length_ratio": ("ratio", "lower"),
}

# per-layer metrics every workload reports (each workload's set-up reaches
# every layer listed here); the report adds the rest of the breakdown
PER_LAYER = {
    "catalog.load_verified_chain_s": "s",
    "catalog.check_claim_arithmetic_s": "s",
    "chain.build_chain_s": "s",
    "construct.chain_ls_s": "s",
    "construct.refine_ls_s.M11": "s",
    "construct.refine_ls_s.M12": "s",
    "construct.refine_block_s.M11.L1": "s",
    "construct.refine_block_s.M11.L2": "s",
    "construct.refine_block_s.M11.L3": "s",
    "construct.refine_block_s.M12.L0": "s",
    "construct.refine_block_s.M12.L2": "s",
    "construct.refine_block_s.M12.L3": "s",
    "construct.refine_block_s.M12.L4": "s",
    "construct.refine_block.calls": "count",
    "construct.refine_block.found": "count",
    "signature.verify_structural_s": "s",
    "signature.verify_exhaustive_s.M11.refined": "s",
    "signature.verify_exhaustive_s.M12.refined": "s",
    "signature.verify_exhaustive.products": "count",
    "signature.verify_exhaustive.products_per_s": "1/s",
    "signature.verify_exhaustive.bytes_per_product": "B",
    "signature.dumps_ls_s": "s",
    "signature.loads_ls_s": "s",
    "factorize.tame_indexer_s": "s",
    "factorize.factorize_tame_us.p50": "us",
    "factorize.factorize_tame_us.p99": "us",
    "factorize.reconstruct_us.p50": "us",
    "factorize.reconstruct_us.p99": "us",
    "factorize.factorize_generic_us.M11.p50": "us",
    "factorize.factorize_generic_us.M11.p99": "us",
    "factorize.factorize_generic_us.M12.p50": "us",
    "factorize.factorize_generic_us.M12.p99": "us",
    "pgm.keygen_s": "s",
    "pgm.encrypt_us.p50": "us",
    "pgm.encrypt_us.p99": "us",
    "pgm.decrypt_us.p50": "us",
    "pgm.decrypt_us.p99": "us",
    "trace.overhead_pct": "%",
}

# layers whose calls are per element: reported as self-time percentiles in
# microseconds; every other layer as mean self seconds per call
PER_ELEMENT = frozenset({"factorize.factorize_tame", "factorize.reconstruct",
                         "factorize.factorize_generic", "pgm.encrypt", "pgm.decrypt"})
LAYER_NAMES = frozenset(t[0] for t in tracer.LAYERS) | {"cli.pipeline"}


def pct(sorted_values, q: float):
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    return sorted_values[min(n - 1, max(0, -(-n * q // 100) - 1))]


def environment(args) -> dict:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
    except OSError:
        head = "unknown"
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "logsig")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "commit": head,
        "src_sha256": digest.hexdigest()[:16],
    }


def speed_factors(run) -> list[float]:
    """Per phase (set-up or pass), REFERENCE_S over the median time of the
    calibration loop in it: above 1 when the machine ran slower than the
    reference, so that factor times a measured time is the reference-speed
    time."""
    return [REFERENCE_S / statistics.median(c) for c in run.calibration]


def _sum_of_medians(run, prefix: str, k: list[float]) -> float:
    return sum(statistics.median(sec * k[ph] for ph, sec in v)
               for name, v in run.steps.items() if name.startswith(prefix))


def _rate(run, prefix: str, k: list[float]) -> float:
    """Work per second over the steps named ``prefix*``: the work one
    instance of each step does, over the sum of their median times."""
    names = [name for name in run.steps if name.startswith(prefix)]
    return sum(run.step_count[name] for name in names) / _sum_of_medians(run, prefix, k)


def end_to_end(run, k: list[float]) -> dict:
    """The end-to-end metrics, each time scaled by the speed factor ``k`` of
    the phase it was taken in (all ones for the raw figures)."""
    per_pass = [(k[ph], sorted(p)) for ph, p in run.pass_ns]
    return {
        "setup_s": _sum_of_medians(run, "setup.", k),
        "wall_s": _sum_of_medians(run, "pass.", k),
        "ops_per_s": _rate(run, "ops.", k),
        "op_p50_us": statistics.median(f * pct(p, 50) for f, p in per_pass) / 1e3,
        "op_p99_us": statistics.median(f * pct(p, 99) for f, p in per_pass) / 1e3,
        "products_per_s": _rate(run, "exhaustive.", k),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "length_ratio": sum(n for n, _ in run.lengths) / sum(b for _, b in run.lengths),
    }


def run_summary(run) -> dict:
    """What the report adds to the end-to-end metrics."""
    kinds = {}
    for kind, values in sorted(run.op_ns.items()):
        v = sorted(values)
        kinds[kind] = {"n": len(v), "p50_us": pct(v, 50) / 1e3, "p99_us": pct(v, 99) / 1e3}
    return {"excess_length": sum(n - b for n, b in run.lengths), "op_kinds": kinds,
            "raw_metrics": end_to_end(run, [1.0] * len(run.calibration)),
            "ops_per_pass": [len(p) for _, p in run.pass_ns]}


def per_layer(run, passes) -> tuple[dict, dict]:
    """Per-layer metrics from the span table: self time per call (mean
    seconds, or percentiles in microseconds for per-element layers), counts
    per traced pass, exhaustive throughput, and the tracing overhead from
    pass times scaled to the reference speed."""
    tr = run.tracer
    n = len(tr)
    root = [0] * n
    for i in range(n):
        p = tr.parent[i]
        root[i] = i if p < 0 else root[p]
    in_pass = [tr.keys[tr.key[root[i]]][0].startswith("pass.") for i in range(n)]
    traced_passes = sum(1 for t, _ in passes if t)

    by_key: dict[tuple[str, str], list[float]] = {}
    for i in range(n):
        by_key.setdefault(tr.keys[tr.key[i]], []).append(tr.self_time(i))
    groups: dict[str, list[float]] = {}
    for (name, label), values in by_key.items():
        if name.startswith(("pass.", "setup.")):
            continue
        groups.setdefault(name, []).extend(values)
        if label:
            groups[name + "." + label] = values

    metrics: dict[str, float] = {}
    calls: dict[str, int] = {}
    for key, values in groups.items():
        layer = next(name for name in (key, key.rsplit(".", 1)[0], key.rsplit(".", 2)[0])
                     if name in PER_ELEMENT or name in LAYER_NAMES)
        suffix = key[len(layer):]
        if layer in PER_ELEMENT:
            v = sorted(values)
            for q in (50, 99):
                metrics["%s_us%s.p%d" % (layer, suffix, q)] = pct(v, q) * 1e6
        else:
            metrics["%s_s%s" % (layer, suffix)] = statistics.fmean(values)
        calls[key] = len(values)

    def per_pass(layer, value):
        return sum(value(i) for i in range(n)
                   if in_pass[i] and tr.keys[tr.key[i]][0] == layer) / traced_passes

    exh = [i for i in range(n) if tr.keys[tr.key[i]][0] == "signature.verify_exhaustive"]
    k = speed_factors(run)
    scaled = [(t, sec * k[ph]) for (t, sec), (ph, _) in zip(passes, run.pass_ns)]
    plain = [sec for t, sec in scaled if not t]
    traced = [sec for t, sec in scaled if t]
    metrics.update({
        "construct.refine_block.calls": per_pass("construct.refine_block", lambda i: 1),
        "construct.refine_block.found": per_pass("construct.refine_block", tr.count.__getitem__),
        "signature.verify_exhaustive.products":
            per_pass("signature.verify_exhaustive", tr.count.__getitem__),
        "signature.verify_exhaustive.products_per_s":
            sum(tr.count[i] for i in exh) / sum(tr.end[i] - tr.start[i] for i in exh),
        "signature.verify_exhaustive.bytes_per_product": run.bytes_per_product,
        "trace.overhead_pct": (statistics.median(traced) / statistics.median(plain) - 1) * 100,
    })
    extra = {"calls": calls, "spans": n, "untraced_pass_s": plain, "traced_pass_s": traced}
    return metrics, extra


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    if name in PER_LAYER:
        return PER_LAYER[name]
    return "us" if "_us" in name else "s"


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "logsig", "__init__.py")):
        print("error: no logsig sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import logsig
    if os.path.dirname(os.path.abspath(logsig.__file__)) != os.path.join(SRC, "logsig"):
        print("error: imported logsig from %s, not from %s" % (logsig.__file__, SRC),
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    env = environment(args)
    sizes = sizes or workloads.FULL
    env["sizes"] = {
        "setups": sizes.setups,
        "caps": {g: cap if cap is not None else "default" for g, cap in sizes.construct},
        "lookup_mix": dict(workloads.LOOKUP_MIX),
    }
    run = workloads.Run(args.seed, sizes, tracer.Tracer() if args.trace else None)
    try:
        os.makedirs(OUT, exist_ok=True)
        passes = workloads.run_workload(run, args.workload, args.seconds, OUT)
        if args.trace:
            metrics, extra = per_layer(run, passes)
            wanted = PER_LAYER
        else:
            metrics, extra = end_to_end(run, speed_factors(run)), run_summary(run)
            wanted = END_TO_END
    except Exception:
        traceback.print_exc()
        run.expect(False, "the run raised")
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 1

    env["op_counts"] = {k: len(v) for k, v in sorted(run.op_ns.items())}
    calibration = [c for phase in run.calibration for c in phase]
    env["calibration_s"] = statistics.median(calibration)
    env["calibration_first_s"] = run.calibration[0][0]
    env["calibration_n"] = len(calibration)
    extra["speed_factors"] = speed_factors(run)
    extra["steps"] = {k: {"n": len(v), "median_s": statistics.median(s for _, s in v),
                          "samples": v}
                      for k, v in sorted(run.steps.items())}
    report = {"environment": env, "attempted": run.attempted, "failed": run.failed,
              "fail_ratio": run.failed / run.attempted, "failures": run.failures,
              "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in sorted(metrics.items())},
              **extra}
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    if run.tracer is not None:
        run.tracer.write(stem + "-spans.csv.gz")

    for k, v in sorted(env.items()):
        print("# %s: %s" % (k, v))
    print("# attempted %d, failed %d, fail_ratio %g" % (run.attempted, run.failed,
                                                        report["fail_ratio"]))
    for line in run.failures:
        print("# FAILED: %s" % line)
    if not args.trace:
        print("# excess_length: %d" % extra["excess_length"])
        for kind, q in extra["op_kinds"].items():
            print("# op %s: n %d, p50 %.2f us, p99 %.2f us (raw)"
                  % (kind, q["n"], q["p50_us"], q["p99_us"]))
        for k, v in extra["raw_metrics"].items():
            print("# raw %s: %.6g %s" % (k, v, _unit(k)))
    for k, v in report["metrics"].items():
        print("%-48s %16.6g %s%s" % (k, v["value"], v["unit"], "" if k in wanted else "  (report)"))
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print("# missing metrics: %s" % ", ".join(missing), file=sys.stderr)
    correct = run.failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": metrics[k], "unit": _unit(k)}
                                  for k in wanted if k in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
