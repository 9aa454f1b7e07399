"""Outside-in layer trace for the witness/verify benchmark.

The tracer rebinds public functions of the ``nakai_forge`` layers in the
benchmark process only: every module attribute that holds the original
function object, or the method on its class, is replaced by a wrapper that
records a span.  No file of the program changes.

A span is ``[name, start, end, parent, input_id]`` with ``parent`` the
index of the enclosing span (-1 for a root).  Spans are kept in memory in
start order and written out when the run ends.  The program is
single-threaded, so child spans never overlap one another and a span's
self time is its duration minus the summed durations of its children.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

# name -> (module, attribute path); the first path component is a module
# attribute, a dotted remainder names a method on that class.
TARGETS = {
    "groebner.buchberger": ("groebner", "buchberger"),
    "groebner.lift": ("groebner", "GroebnerBasis.lift"),
    "groebner.normal_form": ("groebner", "GroebnerBasis.normal_form"),
    "groebner.reduce_by_basis": ("groebner", "reduce_by_basis"),
    "groebner.s_polynomial": ("groebner", "s_polynomial"),
    "exprio.parse_poly": ("exprio", "parse_poly"),
    "exprio.format_poly": ("exprio", "format_poly"),
    "derivations.build_candidate_tuple": ("derivations", "build_candidate_tuple"),
    "derivations.symmetrize": ("derivations", "symmetrize"),
    "derivations.lift_to_diff2": ("derivations", "lift_to_diff2"),
    "derivations.principal_cofactor": ("derivations", "principal_cofactor"),
    "derivations.replay_ledger": ("derivations", "replay_ledger"),
    "derivations.theta2_extract": ("derivations", "theta2_extract"),
    "derivations.DiffOp2.apply": ("derivations", "DiffOp2.apply"),
    "derivations.Derivation1.apply": ("derivations", "Derivation1.apply"),
    "minors.hessian": ("minors", "hessian"),
    "minors.algebraic_cofactor": ("minors", "algebraic_cofactor"),
    "minors.determinant": ("minors", "determinant"),
    "poly.mul": ("poly", "Polynomial.__mul__"),
    "poly.add": ("poly", "Polynomial.__add__"),
    "poly.sub": ("poly", "Polynomial.__sub__"),
    "poly.substitute": ("poly", "Polynomial.substitute_variables"),
    "pipeline.generic_slice_search": ("pipeline", "generic_slice_search"),
    "pipeline.saito_check": ("pipeline", "saito_check"),
}

MODULES = ("poly", "exprio", "minors", "groebner", "derivations", "pipeline")


class Tracer:
    """Records spans around the rebound functions and the root calls."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.input_id = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.input_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name (used for the root spans)."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ---------------------------------------------------

    def install(self, hooks=None) -> None:
        """Rebind every target in every nakai_forge module that holds it.

        ``hooks`` maps a span name to ``hook(args, result)``, called after
        the span closes so that its cost stays out of the span.
        """
        hooks = hooks or {}
        modules = [importlib.import_module("nakai_forge")] + [
            importlib.import_module(f"nakai_forge.{m}") for m in MODULES
        ]
        for name, (module_name, path) in TARGETS.items():
            owner = importlib.import_module(f"nakai_forge.{module_name}")
            head, _, method = path.partition(".")
            if method:
                cls = getattr(owner, head)
                self._set(cls, method, self._wrap(name, cls.__dict__[method], hooks.get(name)))
                continue
            original = getattr(owner, head)
            traced = self._wrap(name, original, hooks.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, traced)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent, input id."""
        with open(path, "w", encoding="utf-8") as out:
            for rec in self.spans:
                out.write(json.dumps(rec))
                out.write("\n")


# -- analysis -----------------------------------------------------------


def child_time(spans: list[list]) -> list[float]:
    """Summed duration of each span's direct children."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return covered


def outermost_time(spans: list[list], names, under=None) -> tuple[float, int]:
    """Total duration and count of spans named in ``names`` that have no
    ancestor also named in ``names`` (so recursion is not double counted).
    With ``under`` given, only spans below a root of that name count."""
    names = frozenset(names)
    inside = [False] * len(spans)
    root = [""] * len(spans)
    total, calls = 0.0, 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        root[i] = root[parent] if parent >= 0 else name
        hit = name in names
        if hit:
            calls += 1
            if not (parent >= 0 and inside[parent]) and (under is None or root[i] == under):
                total += end - start
        inside[i] = hit or (parent >= 0 and inside[parent])
    return total, calls


def self_time_by_layer(spans: list[list]) -> dict[str, float]:
    """Self time summed per layer; the layer is the span name's first part."""
    covered = child_time(spans)
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name.partition(".")[0]] += (end - start) - covered[i]
    return out


def coverage(spans: list[list], root_name: str) -> float:
    """Share of the time of roots called root_name spent inside child spans."""
    covered = child_time(spans)
    total = inner = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0 and name == root_name:
            total += end - start
            inner += covered[i]
    return inner / total if total else 0.0
