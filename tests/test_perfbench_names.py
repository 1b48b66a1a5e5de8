"""The benchmark's tracer wraps program functions by name; every name it
wraps must still exist, or ``perfbench/run.py --trace 1`` fails to install."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    wrapped = load_tracer().WRAPPED
    assert wrapped
    for module_name, path, _layer in wrapped:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{module_name}.{path}: no attribute {attr!r}"
            owner = getattr(owner, attr)
        assert callable(owner), f"{module_name}.{path} is not callable"
