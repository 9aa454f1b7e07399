"""Every annotation in the package names something that exists: a type
alias used in a signature but never defined would only surface when a tool
resolves the hints."""

import importlib
import inspect
import pkgutil
import typing

import nakai_forge


def _annotated_objects():
    """(qualified name, object) for every class, method and function that a
    nakai_forge module defines at its top level or in a class body."""
    for info in pkgutil.iter_modules(nakai_forge.__path__):
        module = importlib.import_module(f"nakai_forge.{info.name}")
        for name, obj in vars(module).items():
            if not (inspect.isclass(obj) or inspect.isfunction(obj)) or obj.__module__ != module.__name__:
                continue
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # staticmethod, classmethod
                    if isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_every_type_hint_resolves():
    failures = []
    for name, obj in _annotated_objects():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            failures.append(f"{name}: {exc}")
    assert failures == []
