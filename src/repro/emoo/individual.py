"""The per-candidate view at the EMOO result boundary.

An :class:`Individual` wraps one genome together with its objective vector
(minimisation convention), an optional feasibility flag, and the bookkeeping
fields (fitness, density, rank) written by the algorithms.  The generation
loops work on structure-of-arrays populations; individuals are materialised
for results, callbacks and the Ω optimal set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

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
