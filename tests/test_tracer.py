"""The benchmark's span tracer (``perfbench/tracer.py``) patches package
functions by name, so renaming or deleting one of them must fail here and
not only in ``perfbench/run.py --smoke``."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    found = tracer.resolve()
    assert set(found) == {f"{mod}.{qual}" for mod, qual in tracer.TARGETS}
