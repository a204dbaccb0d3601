"""RL006 — backend-seam discipline.

The (B, n, n) hot kernels live behind one seam (:mod:`repro.backend`):
callers look a kernel up on the single instance returned by
``active_backend()`` and invoke it, so the equivalence suite — which checks
that instance against the frozen ``oracles`` references bit for bit — is the
single place where numerical behaviour is pinned down, and the trace seam
and the tests can wrap or substitute a kernel without touching the callers.
That guarantee collapses as soon as a seam-owned module grows a *private*
linear-algebra path next to the kernel: no equivalence test covers it, and
it can drift from the kernel unnoticed.

This rule therefore bans, inside the seam-owned modules only:

* direct ``np.linalg.*`` / ``numpy.linalg.*`` use — batched inversion
  belongs to the ``batched_safe_inverses`` kernel;
* ``scipy`` imports — scipy is not a dependency, and pairwise distances
  belong to the ``pairwise_distances`` kernel (whose in-order numpy
  accumulation matches ``pdist`` bit for bit without it);
* importing the inversion helpers (``safe_inverse``,
  ``batched_safe_inverses``) straight from :mod:`repro.utils.linalg`,
  which bypasses the kernel dispatch (the classification helpers such as
  ``DEFAULT_CONDITION_LIMIT`` remain importable — they are configuration,
  not kernels).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lintkit.model import ProjectContext, SourceFile, Violation
from repro.lintkit.registry import Rule, register
from repro.lintkit.rules.rng import _dotted

#: The seam-owned modules: every (B, n, n) hot-kernel call site.  The rule
#: deliberately scopes to these exact files — ``repro.utils.linalg`` and the
#: kernel package itself legitimately contain the direct implementations.
SEAM_OWNED_FILES = (
    "src/repro/metrics/evaluation.py",
    "src/repro/emoo/density.py",
    "src/repro/core/operators.py",
    "src/repro/rr/randomize.py",
)

#: Dotted prefixes that resolve to the numpy.linalg namespace in this repo.
_NP_LINALG_PREFIXES = ("np.linalg", "numpy.linalg")

#: Names in repro.utils.linalg whose direct import bypasses the
#: ``batched_safe_inverses`` kernel dispatch.
BANNED_LINALG_IMPORTS = frozenset({"safe_inverse", "batched_safe_inverses"})


@register
class BackendSeamRule(Rule):
    rule_id = "RL006"
    name = "backend-seam-discipline"
    description = (
        "seam-owned hot-kernel modules must call the kernels of "
        "repro.backend.active_backend(); direct np.linalg use, scipy imports "
        "and direct inversion-helper imports are banned there"
    )
    scopes = SEAM_OWNED_FILES

    def check_file(
        self, source: SourceFile, project: ProjectContext
    ) -> Iterable[Violation]:
        suffix = (
            "; call the kernel on repro.backend.active_backend() so the "
            "equivalence suite covers every numerical path"
        )
        violations: list[Violation] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Attribute):
                dotted = _dotted(node.value)
                if dotted in _NP_LINALG_PREFIXES:
                    violations.append(
                        self.violation(
                            source,
                            node,
                            f"direct `{dotted}.{node.attr}` in a seam-owned "
                            f"module{suffix}",
                        )
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "scipy" or alias.name.startswith("scipy."):
                        violations.append(
                            self.violation(
                                source,
                                node,
                                f"`import {alias.name}` in a seam-owned "
                                f"module: scipy is not a dependency{suffix}",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "scipy" or module.startswith("scipy."):
                    violations.append(
                        self.violation(
                            source,
                            node,
                            f"`from {module} import ...` in a seam-owned "
                            f"module: scipy is not a dependency{suffix}",
                        )
                    )
                elif module == "repro.utils.linalg":
                    for alias in node.names:
                        if alias.name in BANNED_LINALG_IMPORTS:
                            violations.append(
                                self.violation(
                                    source,
                                    node,
                                    f"`from repro.utils.linalg import "
                                    f"{alias.name}` bypasses the backend's "
                                    f"batched_safe_inverses kernel{suffix}",
                                )
                            )
        return violations
