"""The benchmark's tracer must resolve every traced function by name.

`perfbench/tracing.py` looks each entry of `TARGETS` up with `getattr` when
a `Tracer` is constructed, so renaming or deleting a traced library
function fails here rather than in a traced benchmark run.
"""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def test_tracer_resolves_every_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    assert len(tracer._wrappers) == len(tracing.TARGETS)
