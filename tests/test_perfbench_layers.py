"""The traced layers of perfbench/tracer.py exist in the package.

``Tracer.install`` looks up every function named in ``LAYERS`` on its
``singlink`` module, so a function moved or renamed there breaks
``perfbench/run.py --trace 1`` with an AttributeError.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_layer_is_a_package_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{name}"
        for module, names in tracer.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"singlink.{module}"), name, None))
    ]
    assert not missing
    assert tracer.LAYERS
