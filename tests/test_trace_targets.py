"""The benchmark's view of otbayes: its span tracer resolves every
function it wraps, every ``ob.<name>`` its workloads use exists, every
workload's inputs build and one round of each passes its checks at seed
1, so a rename, a broken set-up or a wrong result fails here and not only
in a benchmark run."""

import functools
import pathlib
import re
import sys

import pytest

import otbayes  # noqa: F401  (the tracer patches the modules already loaded)

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_resolves_every_target():
    tracer = tracing.Tracer()
    assert tracer.names == [name for name, *_ in tracing.TARGETS]
    patched = {id(original) for _, _, original, _ in tracer._patches}
    assert len(patched) == len(tracing.TARGETS)


def test_every_name_the_workloads_use_resolves():
    names = set(re.findall(r"\bob\.([\w.]+)", (PERFBENCH / "workloads.py").read_text()))
    assert names
    for name in sorted(names):
        functools.reduce(getattr, name.split("."), otbayes)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_builds_its_inputs(name):
    workloads.WORKLOADS[name](1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_of_every_workload_passes_its_checks(name):
    workload = workloads.WORKLOADS[name](1)
    rnd = workloads.Round()
    workload.check(rnd, workload.run(rnd))
    assert rnd.errors == []
    assert rnd.problems == []
