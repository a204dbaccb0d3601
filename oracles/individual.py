"""The per-candidate ``Individual`` and its list helpers.

An :class:`Individual` wraps one genome together with its objective vector
(minimisation convention), an optional feasibility flag, and the bookkeeping
fields (fitness, density, rank) written by the algorithms.  The engine in
``repro`` works on structure-of-arrays populations only; the frozen list
forms (:mod:`oracles.emoo`, :mod:`oracles.archive`,
:mod:`oracles.optrr_loop`) and their tests still speak ``list[Individual]``,
converted from populations by :func:`population_to_individuals`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.emoo.dominance import dominance_matrix_from_arrays
from repro.emoo.population import Population
from repro.exceptions import OptimizationError


@dataclass
class Individual:
    """One candidate solution.

    Parameters
    ----------
    genome:
        The problem-specific representation (e.g. an ``RRMatrix``).
    objectives:
        Objective vector; every algorithm in this package *minimises* every
        component.
    feasible:
        Whether the candidate satisfies the problem's constraints.  Feasible
        individuals always dominate infeasible ones (constrained dominance).
    metadata:
        Free-form problem data (e.g. the raw privacy/utility values before
        sign flips).
    """

    genome: Any
    objectives: np.ndarray
    feasible: bool = True
    metadata: dict = field(default_factory=dict)

    # Algorithm bookkeeping, written during fitness assignment / sorting.
    fitness: float = field(default=float("nan"), compare=False)
    strength: int = field(default=0, compare=False)
    density: float = field(default=0.0, compare=False)
    rank: int = field(default=-1, compare=False)
    crowding: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        objectives = np.asarray(self.objectives, dtype=np.float64)
        if objectives.ndim != 1 or objectives.size == 0:
            raise OptimizationError(
                f"objectives must be a non-empty vector, got shape {objectives.shape}"
            )
        if np.any(np.isnan(objectives)):
            raise OptimizationError("objectives must not contain NaN")
        self.objectives = objectives

    @property
    def n_objectives(self) -> int:
        """Number of objectives."""
        return int(self.objectives.size)

    def copy(self) -> "Individual":
        """Return a shallow copy with fresh bookkeeping fields."""
        return Individual(
            genome=self.genome,
            objectives=self.objectives.copy(),
            feasible=self.feasible,
            metadata=dict(self.metadata),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        objs = ", ".join(f"{value:.4g}" for value in self.objectives)
        tag = "" if self.feasible else ", infeasible"
        return f"Individual(objectives=[{objs}]{tag})"


def objectives_array(population: list[Individual]) -> np.ndarray:
    """Stack the objective vectors of ``population`` into a 2-D array."""
    if not population:
        return np.empty((0, 0))
    return np.vstack([individual.objectives for individual in population])


def non_dominated(population: list[Individual]) -> list[Individual]:
    """Return the non-dominated subset of ``population``."""
    if not population:
        return []
    feasible = np.array([individual.feasible for individual in population], dtype=bool)
    dominated = dominance_matrix_from_arrays(objectives_array(population), feasible).any(axis=0)
    return [individual for individual, flag in zip(population, dominated) if not flag]


def population_to_individuals(
    population: Population, genome_builder: Callable[[np.ndarray], Any] | None = None
) -> list[Individual]:
    """Materialise every population row as an :class:`Individual` view:
    ``genome_builder`` wraps each genome row, metadata becomes plain Python
    scalars, and a stamped fitness is carried over."""
    individuals = []
    for index in range(population.size):
        genome = population.genomes[index]
        individual = Individual(
            genome=genome if genome_builder is None else genome_builder(genome),
            objectives=population.objectives[index].copy(),
            feasible=bool(population.feasible[index]),
            metadata={key: column[index].item() for key, column in population.metadata.items()},
        )
        if not np.isnan(population.fitness[index]):
            individual.fitness = float(population.fitness[index])
        individuals.append(individual)
    return individuals
