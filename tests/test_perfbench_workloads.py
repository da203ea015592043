"""The benchmark's in-process workloads must run on the current API.

``perfbench/workloads.py`` calls dflab's public functions with the arguments
the benchmark measures. Running one input of every class here, through the
workload's own oracle, makes a signature change to one of those functions
fail the test suite instead of the benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # the module's dataclass resolves its annotations through sys.modules
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_first_input_of_every_class_passes_its_oracle(workloads, tmp_path):
    built = [workloads.cube(1, 2), workloads.compose(1), workloads.dense_io(1, tmp_path)]
    for workload in built:
        for cls, inputs in workload.pools.items():
            result = workload.run(cls, inputs[0])
            assert workload.check(cls, inputs[0], result) is None, (workload.name, cls)
