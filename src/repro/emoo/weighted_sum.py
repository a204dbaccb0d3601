"""Weighted-sum single-objective GA baseline.

Section V of the paper argues that collapsing privacy and utility into one
scalar fitness is problematic: a single weighting cannot produce a spread of
trade-offs, and weighted sums cannot reach concave regions of the Pareto
front.  This module implements that naive approach — a plain generational GA
optimising ``w * f1 + (1 - w) * f2`` for a sweep of weights — so the ablation
benchmark can show how much narrower its front is than SPEA2's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.emoo.dominance import non_dominated
from repro.emoo.population import Population
from repro.emoo.problem import Problem, make_offspring
from repro.exceptions import OptimizationError
from repro.types import SeedLike, as_rng
from repro.utils.validation import check_in_unit_interval, check_positive_int


@dataclass(frozen=True)
class WeightedSumSettings:
    """Hyper-parameters of the weighted-sum GA baseline."""

    population_size: int = 50
    n_generations: int = 50
    n_weights: int = 11
    crossover_rate: float = 0.9
    mutation_rate: float = 0.3
    elite_fraction: float = 0.1

    def __post_init__(self) -> None:
        check_positive_int(self.population_size, "population_size")
        check_positive_int(self.n_generations, "n_generations")
        check_positive_int(self.n_weights, "n_weights")
        check_in_unit_interval(self.crossover_rate, "crossover_rate")
        check_in_unit_interval(self.mutation_rate, "mutation_rate")
        check_in_unit_interval(self.elite_fraction, "elite_fraction")


@dataclass
class WeightedSumResult:
    """Outcome of the weighted-sum sweep: the best row found per weight
    (one row per weight, in sweep order), plus the non-dominated subset of
    those."""

    best_per_weight: Population
    front: Population
    n_evaluations: int


def _scalar_fitness(
    objectives: np.ndarray, feasible: np.ndarray, weight: float, scales: np.ndarray
) -> np.ndarray:
    """Weighted sum of normalised objectives, one value per row (infeasible
    rows are pushed behind every feasible one)."""
    normalised = objectives / scales
    values = weight * normalised[:, 0] + (1.0 - weight) * normalised[:, 1]
    return np.where(feasible, values, values + 1e6)


@dataclass
class WeightedSumGA:
    """Single-objective GA run once per weight in a uniform weight sweep."""

    problem: Problem
    settings: WeightedSumSettings = field(default_factory=WeightedSumSettings)
    seed: SeedLike = None

    def run(self) -> WeightedSumResult:
        """Run the weight sweep and return the per-weight winners.

        Each generation keeps the elite rows, fills the rest with binary
        tournament winners on the scalarised fitness (all tournaments drawn
        in one step) passed through the shared batched variation
        (:func:`~repro.emoo.problem.make_offspring`), and re-evaluates the
        whole stack at once.
        """
        if self.problem.n_objectives != 2:
            raise OptimizationError("the weighted-sum baseline only supports two objectives")
        problem = self.problem
        rng = as_rng(self.seed)
        settings = self.settings
        weights = np.linspace(0.0, 1.0, settings.n_weights)
        n_elite = max(1, int(settings.elite_fraction * settings.population_size))
        n_children = settings.population_size - n_elite
        best_rows: list[Population] = []
        # A common objective scale, estimated from a random sample, keeps the
        # two objectives comparable inside the scalarisation.
        sample = problem.initial_population(settings.population_size, rng)
        n_evaluations = sample.size
        scales = np.maximum(np.abs(sample.objectives).max(axis=0), 1e-12)
        for weight in weights:
            population = sample
            for _ in range(settings.n_generations):
                fitness = _scalar_fitness(
                    population.objectives, population.feasible, weight, scales
                )
                elites = population.genomes[np.argsort(fitness, kind="stable")[:n_elite]]
                contenders = rng.integers(0, population.size, size=(n_children, 2))
                first, second = contenders[:, 0], contenders[:, 1]
                winners = np.where(fitness[first] <= fitness[second], first, second)
                stack = elites
                if n_children:
                    children = make_offspring(
                        problem,
                        population.genomes[winners],
                        rng,
                        crossover_rate=settings.crossover_rate,
                        mutation_rate=settings.mutation_rate,
                    )
                    stack = np.concatenate([elites, children])
                population = problem.evaluate_population(stack)
                n_evaluations += population.size
            fitness = _scalar_fitness(population.objectives, population.feasible, weight, scales)
            best_rows.append(population.take(np.array([np.argmin(fitness)])))
        best_per_weight = Population.concat(*best_rows)
        front = non_dominated(best_per_weight)
        return WeightedSumResult(
            best_per_weight=best_per_weight, front=front, n_evaluations=n_evaluations
        )
