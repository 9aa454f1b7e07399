"""The benchmark's layer trace rebinds nakai_forge functions by name; a
deletion or rename in the package must not silently break it."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    layertrace = _layertrace()
    for module_name in layertrace.MODULES:
        importlib.import_module(f"nakai_forge.{module_name}")
    for name, (module_name, path) in layertrace.TARGETS.items():
        owner = importlib.import_module(f"nakai_forge.{module_name}")
        head, _, method = path.partition(".")
        assert hasattr(owner, head), f"{name}: nakai_forge.{module_name}.{head} is gone"
        if method:
            assert method in vars(getattr(owner, head)), f"{name}: method {path} is gone"
        else:
            assert callable(getattr(owner, head)), f"{name}: {path} is not callable"
