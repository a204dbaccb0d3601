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

from repro.emoo.dominance import (
    dominance_matrix_from_arrays,
    non_dominated,
    pareto_ranks_from_arrays,
)
from repro.emoo.fitness import spea2_fitness_from_arrays
from repro.emoo.density import kth_nearest_distances, pairwise_distances, spea2_density
from repro.emoo.population import Population
from repro.emoo.selection import (
    binary_tournament_indices,
    environmental_selection_indices,
    truncate_indices,
)
from repro.emoo.problem import Problem
from repro.emoo.termination import (
    Deadline,
    GenerationState,
    HypervolumeStagnation,
    MaxGenerations,
    StagnationTermination,
    TerminationCriterion,
)
# The driver must load before the algorithms built on it (spea2/nsga2).
from repro.emoo.driver import (
    GenerationSnapshot,
    OptimizationDriver,
    SteppableOptimization,
    checkpoint_scope,
)
from repro.emoo.fidelity import FidelitySchedule, FidelityScheduler
from repro.emoo.spea2 import SPEA2, SPEA2Settings
from repro.emoo.nsga2 import NSGA2, NSGA2Settings, crowding_distances_from_objectives
from repro.emoo.weighted_sum import WeightedSumGA, WeightedSumSettings
from repro.emoo.indicators import (
    coverage,
    epsilon_indicator,
    hypervolume_2d,
    spread_2d,
)

__all__ = [
    "Deadline",
    "FidelitySchedule",
    "FidelityScheduler",
    "GenerationSnapshot",
    "GenerationState",
    "HypervolumeStagnation",
    "MaxGenerations",
    "OptimizationDriver",
    "SteppableOptimization",
    "checkpoint_scope",
    "NSGA2",
    "NSGA2Settings",
    "Population",
    "Problem",
    "SPEA2",
    "SPEA2Settings",
    "StagnationTermination",
    "TerminationCriterion",
    "WeightedSumGA",
    "WeightedSumSettings",
    "binary_tournament_indices",
    "coverage",
    "crowding_distances_from_objectives",
    "dominance_matrix_from_arrays",
    "environmental_selection_indices",
    "epsilon_indicator",
    "hypervolume_2d",
    "kth_nearest_distances",
    "non_dominated",
    "pairwise_distances",
    "pareto_ranks_from_arrays",
    "spea2_density",
    "spea2_fitness_from_arrays",
    "spread_2d",
    "truncate_indices",
]
