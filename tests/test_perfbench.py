"""The benchmark harness in ``perfbench/`` names library functions by module
and attribute; a rename in ``logsig`` must fail here, not only in the smoke
run (``python3 perfbench/smoke.py``, about 30 s)."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
