"""The (B, n, n) hot kernels behind one seam: a single :class:`ArrayKernels`.

Every hot-path call site looks its kernel up on the one instance at call
time (``active_backend().evaluate_stack(...)``), which is what lets the
trace seam wrap the kernels and the equivalence suites substitute the frozen
``oracles`` references without touching the callers.  See
:mod:`repro.backend.kernels` for the kernels and their contracts.
"""

from __future__ import annotations

from repro.exceptions import BackendError


def active_backend() -> "ArrayKernels":
    """The kernel instance every hot-path call site dispatches to."""
    return _KERNELS


def backend_names() -> list[str]:
    """Names :func:`get_backend` accepts (the single instance's name)."""
    return [_KERNELS.name]


def get_backend(name: str) -> "ArrayKernels":
    """The kernel instance, looked up by its name (``"numpy"``)."""
    if name != _KERNELS.name:
        raise BackendError(f"unknown backend {name!r}; the only one is {_KERNELS.name!r}")
    return _KERNELS


# Imported after the accessors: the kernels import repro.metrics, whose
# import chain reaches call sites that import active_backend from this
# partially initialised package.
from repro.backend.kernels import ArrayKernels  # noqa: E402

_KERNELS = ArrayKernels()

__all__ = ["ArrayKernels", "active_backend", "backend_names", "get_backend"]
