"""The benchmark's span tracer resolves every function it wraps, so a
rename in otbayes fails here and not only in a traced benchmark run."""

import pathlib
import sys

import otbayes  # noqa: F401  (the tracer patches the modules already loaded)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def test_tracer_resolves_every_target():
    tracer = tracing.Tracer()
    assert tracer.names == [name for name, *_ in tracing.TARGETS]
    patched = {id(original) for _, _, original, _ in tracer._patches}
    assert len(patched) == len(tracing.TARGETS)
