"""The benchmark's traced runs wrap package functions by module and name.

`perfbench/tracer.py` is loaded by path and left as it is; every function it
names must still exist, or `perfbench/run.py --trace 1` breaks.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for modname, func, _, _ in tracer.TARGETS:
        fn = getattr(importlib.import_module(modname), func, None)
        assert callable(fn), f"{modname}.{func}"
