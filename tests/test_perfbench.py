"""The benchmark harness in ``perfbench/`` names library functions by module
and attribute and checks the library's outputs; a rename in ``logsig``, or a
change that breaks one of those checks, must fail here, not only in the smoke
run (``python3 perfbench/smoke.py``, about 30 s)."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tracer_layers_resolve():
    # tracer.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for span, module, attribute, *_ in tracer.LAYERS:
        target = getattr(importlib.import_module(module), attribute, None)
        assert callable(target), span


def test_smoke_patch_targets_exist():
    # smoke.py replaces these to check that the benchmark notices a fault
    for module, attribute in (("logsig.pgm", "encrypt"),
                              ("logsig.signature", "verify_exhaustive")):
        assert callable(getattr(importlib.import_module(module), attribute, None))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_output_checks_pass_at_tiny_size(monkeypatch, tmp_path, capsys, workload):
    # the benchmark's own output checks, at the size perfbench/smoke.py runs
    monkeypatch.syspath_prepend(str(TRACER.parent))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0"],
                    sizes=workloads.TINY)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and result["correct"] is True, result
