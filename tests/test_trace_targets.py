"""The benchmark's layer trace rebinds nakai_forge functions by name, and
its child and workload generator call nakai_forge by name; a deletion or
rename in the package must not silently break it."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"


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


def _benchmark_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for each nakai_forge name the file imports with
    ``from nakai_forge... import``, or reads as an attribute of ``api``,
    the name child.py gives the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nakai_forge"):
            names.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "api":
            names.add(("nakai_forge", node.attr))
    return names


def test_every_name_the_benchmark_calls_resolves():
    child = _benchmark_names(PERFBENCH / "child.py")
    workloads = _benchmark_names(PERFBENCH / "workloads.py")
    # the scan must see the calls it guards, or it would guard nothing
    assert {("nakai_forge", name) for name in (
        "parse_poly", "build_witness", "write_certificate", "read_certificate", "certificate_failures",
    )} <= child
    assert {module for module, _ in workloads} >= {
        "nakai_forge.exprio", "nakai_forge.groebner", "nakai_forge.poly",
    }
    for module_name, name in sorted(child | workloads):
        owner = importlib.import_module(module_name)
        assert callable(getattr(owner, name, None)), f"{module_name}.{name} is gone"
