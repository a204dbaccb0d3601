"""Evolutionary multi-objective optimization (EMOO) substrate.

A generic implementation of SPEA2 (the algorithm the paper builds on),
together with the NSGA-II and weighted-sum baselines used by the ablation
benchmarks, Pareto dominance utilities and front-quality indicators.

The package is problem-agnostic: a problem creates, evaluates, varies and
repairs whole genome stacks through the :class:`~repro.emoo.problem.Problem`
interface, and the algorithms only slice those stacks by index.
``repro.core`` instantiates it with ``(P, n, n)`` RR-matrix stacks, and its
OptRR optimizer runs SPEA2's own generation step
(:func:`~repro.emoo.spea2.spea2_generation`) plus the Ω optimal set.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Deadline": ".termination",
    "FidelitySchedule": ".fidelity",
    "FidelityScheduler": ".fidelity",
    "GenerationSnapshot": ".driver",
    "GenerationState": ".termination",
    "HypervolumeStagnation": ".termination",
    "MaxGenerations": ".termination",
    "OptimizationDriver": ".driver",
    "SteppableOptimization": ".driver",
    "checkpoint_scope": ".driver",
    "NSGA2": ".nsga2",
    "NSGA2Settings": ".nsga2",
    "Population": ".population",
    "Problem": ".problem",
    "SPEA2": ".spea2",
    "SPEA2Settings": ".spea2",
    "StagnationTermination": ".termination",
    "TerminationCriterion": ".termination",
    "WeightedSumGA": ".weighted_sum",
    "WeightedSumSettings": ".weighted_sum",
    "binary_tournament_indices": ".selection",
    "coverage": ".indicators",
    "crowding_distances_from_objectives": ".nsga2",
    "dominance_matrix_from_arrays": ".dominance",
    "environmental_selection_indices": ".selection",
    "epsilon_indicator": ".indicators",
    "hypervolume_2d": ".indicators",
    "kth_nearest_distances": ".density",
    "non_dominated": ".dominance",
    "pairwise_distances": ".density",
    "pareto_ranks_from_arrays": ".dominance",
    "spea2_density": ".density",
    "spea2_fitness_from_arrays": ".fitness",
    "spread_2d": ".indicators",
    "truncate_indices": ".selection",
})
