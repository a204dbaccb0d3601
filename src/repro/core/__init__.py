"""OptRR core: the paper's SPEA2-based search for optimal RR matrices.

This package turns the generic EMOO engine (:mod:`repro.emoo`) into the
paper's algorithm: ``(P, n, n)`` RR-matrix stacks are the genomes, privacy
(Eq. 8) and utility (Theorem 6) are the two objectives, the variation
operators respect the column-stochastic constraint, a repair step enforces
the worst-case bound ``delta`` (Eq. 9), and an unbounded-cost *optimal set*
Ω keeps every good matrix evicted from the bounded archive.  The optimizer
runs SPEA2's generation step through the
:class:`~repro.emoo.problem.Problem` interface and adds Ω around it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "DEFAULT_CHECKPOINT_EVERY": "repro.emoo.driver",
    "GenerationSnapshot": "repro.emoo.driver",
    "OptRRConfig": ".config",
    "OptRROptimizer": ".optimizer",
    "OptimalSet": ".archive",
    "OptimizationDriver": "repro.emoo.driver",
    "OptimizationResult": ".result",
    "SteppableOptimization": "repro.emoo.driver",
    "checkpoint_scope": "repro.emoo.driver",
    "ParetoPoint": ".result",
    "RRMatrixProblem": ".problem",
    "brute_force_front": ".bruteforce",
    "column_crossover_batch": ".operators",
    "enforce_privacy_bound_batch": ".operators",
    "proportional_column_mutation_batch": ".operators",
    "rr_matrix_combinations": ".search_space",
})
