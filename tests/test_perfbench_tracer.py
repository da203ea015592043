"""The benchmark's tracer must find every function it records.

``perfbench/tracer.py`` wraps the functions named in its ``LAYERS`` table and
raises when one was renamed or moved. Installing it here makes such a
refactor fail the test suite instead of the benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
