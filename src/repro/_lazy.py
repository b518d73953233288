"""One PEP 562 package face: a package's names import when first touched.

A face maps each submodule to the names it re-exports, as one
space-separated string (``"name=attr"`` re-exports ``attr`` as ``name``)::

    __getattr__, __dir__ = lazy_face(__name__, {"simulator": "NoCSimulator"})

so ``import repro.network`` imports no submodule, and ``repro.network.
NoCSimulator`` imports :mod:`repro.network.simulator` once and caches the
object (the defining module's own) in the package.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_face(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``'s face."""
    where = {}
    for module, names in exports.items():
        for token in names.split():
            name, _, attr = token.partition("=")
            where[name] = (f"{package}.{module}", attr or name)

    def __getattr__(name: str) -> Any:
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module, attr = where[name]
        value = getattr(importlib.import_module(module), attr)
        setattr(sys.modules[package], name, value)  # runs once per name
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
