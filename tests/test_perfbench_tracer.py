"""The benchmark's tracer must find every function it records.

``perfbench/tracer.py`` wraps the functions named in its ``LAYERS`` table and
raises when one was renamed or moved. Installing it here makes such a
refactor fail the test suite instead of the benchmark run. Its self-check,
run on one input of every class of each workload, also fails the suite when a
change stops calling a function that a workload must exercise.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def home_functions(layers):
    out = {}
    for name in layers:
        module_name, fn_name = name.split(".")
        out[name] = getattr(importlib.import_module(f"dflab.{module_name}"), fn_name)
    return out


def test_tracer_installs_on_every_layer_and_uninstalls():
    tracer_module = load_tracer()
    before = home_functions(tracer_module.LAYERS)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        wrapped = home_functions(tracer_module.LAYERS)
        for name, fn in before.items():
            assert wrapped[name] is not fn, name
            assert wrapped[name].__wrapped__ is fn, name
    finally:
        tracer.uninstall()
    assert home_functions(tracer_module.LAYERS) == before


def load_workloads():
    name = "perfbench_workloads_traced"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # the module's dataclass resolves its annotations through sys.modules
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_every_must_fire_function_fires_on_its_workload(tmp_path):
    tracer_module = load_tracer()
    workloads = load_workloads()
    built = [workloads.cube(1, 2), workloads.compose(1), workloads.dense_io(1, tmp_path)]
    for workload in built:
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            for cls, inputs in workload.pools.items():
                result = workload.run(cls, inputs[0])
                tracer.active = False
                assert workload.check(cls, inputs[0], result) is None, (workload.name, cls)
                tracer.active = True
        finally:
            tracer.uninstall()
        assert tracer_module.self_check(tracer.spans, workload.name) == []
