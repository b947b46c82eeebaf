"""The benchmark's traced run keeps its count identities.

``perfbench/run.py --trace 1`` fails an op whose per-layer counts drift from
what its workload expects.  Running op 0 of every workload here
under the same tracer makes a change that breaks those identities fail the
suite as well.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["pair_min", "sweep", "verify", "oracle"])
def test_traced_op_passes_the_benchmark_cross_check(name):
    tracer_module = _load("tracer")
    workload = _load("workloads").WORKLOADS[name](2)
    spec = workload.spec(0)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        out = workload.run(spec)
    finally:
        tracer.uninstall()
    assert workload.check(spec, out) is None
    assert tracer_module.cross_check(tracer.take(), workload.expected_calls(spec)) == []
