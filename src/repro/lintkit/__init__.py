"""repro-lint: AST invariant analyzer for the reproduction's contracts.

The repo's production claims rest on invariants that used to be enforced
only dynamically (and expensively): seeded-Generator-only randomness,
wall-clock isolation, bit-identical kill/resume, complete cache keys, and
order-stable optimizer hot paths.  This package checks their static halves
at lint time — rule ids, the pragma syntax and the baseline workflow are
documented in ``docs/invariants.md``.

Entry points: ``tools/lint_repro.py`` and ``optrr lint``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Baseline": ".baseline",
    "ProjectContext": ".model",
    "Rule": ".registry",
    "SourceFile": ".model",
    "Violation": ".model",
    "all_rules": ".registry",
    "collect_files": ".runner",
    "load_baseline": ".baseline",
    "main": ".runner",
    "register": ".registry",
    "run_rules": ".runner",
    "write_baseline": ".baseline",
})
