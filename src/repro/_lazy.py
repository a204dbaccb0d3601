"""Lazy package exports: a public name is imported on first access (PEP 562).

Each ``repro`` package keeps one table mapping its public names to the module
that defines them, and builds its ``__getattr__``, ``__dir__`` and
``__all__`` from it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "OptRRConfig": ".config",
        "GenerationSnapshot": "repro.emoo.driver",
    })

Importing the package (or any submodule of it) then runs no other layer's
code: ``from repro.core import OptRRConfig`` imports ``repro.core.config``
alone, and ``optrr <subcommand> --help`` never loads numpy.  A resolved name
is cached on the package, so later accesses are plain attribute lookups.
Module names starting with ``.`` are relative to the package.

This module imports only the standard library.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` exporting ``table``."""

    def __getattr__(name: str) -> Any:
        try:
            module_name = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module_name, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__, list(table)
