"""The problem interface consumed by the EMOO algorithms.

A problem speaks whole populations: it creates and evaluates ``(P, ...)``
genome stacks into structure-of-arrays
:class:`~repro.emoo.population.Population` objects (objectives in the
minimisation convention), and varies paired parent stacks with batched
crossover, mutation and repair operators.  The algorithms only slice stacks
by index, so the same engine optimises RR matrices (``(P, n, n)`` stacks in
``repro.core``) and any other fixed-shape numeric representation.

:func:`make_offspring` composes those operators into the one variation step
every engine shares (SPEA2, OptRR, NSGA-II and the weighted-sum GA).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.emoo.population import Population


class Problem(ABC):
    """A multi-objective optimization problem over genome stacks."""

    #: Number of objectives (all minimised).
    n_objectives: int = 2

    @abstractmethod
    def initial_population(
        self,
        size: int,
        rng: np.random.Generator,
        *,
        fidelity: float | np.ndarray | None = None,
    ) -> Population:
        """Create, repair and evaluate ``size`` random genomes."""

    @abstractmethod
    def evaluate_population(
        self,
        stack: np.ndarray,
        *,
        fidelity: float | np.ndarray | None = None,
    ) -> Population:
        """Evaluate a ``(B, ...)`` genome stack into a population (objectives
        minimised; ``feasible`` false for constraint violations).

        ``fidelity`` requests reduced-fidelity evaluation (a scalar or
        per-row column in ``(0, 1]``, see :mod:`repro.emoo.fidelity`).
        Problems with a fidelity axis add a ``fidelity`` metadata column when
        it is given; problems without one must reject any non-``None``
        value.
        """

    @abstractmethod
    def crossover_stack(
        self, first: np.ndarray, second: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Two child stacks from two paired parent stacks."""

    @abstractmethod
    def mutate_stack(self, stack: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """A mutated copy of ``stack`` (one mutation per row)."""

    def repair_stack(self, stack: np.ndarray) -> np.ndarray:
        """Repair a stack after variation (default: no repair)."""
        return stack

    def fingerprint_document(self) -> dict[str, Any]:
        """JSON-compatible identity of this problem, hashed into checkpoint
        workload fingerprints so a checkpoint can never silently resume into
        a different problem.

        The default only identifies the class — problems with workload
        parameters (priors, record counts, bounds) should override this and
        include them, as :class:`repro.core.problem.RRMatrixProblem` does.
        """
        return {"problem": type(self).__name__}


def make_offspring(
    problem: Problem,
    parents: np.ndarray,
    rng: np.random.Generator,
    *,
    crossover_rate: float,
    mutation_rate: float,
) -> np.ndarray:
    """Crossover, mutation and repair of a mating-selected parent stack.

    Consecutive parents are paired (an odd last parent pairs with the
    first); each pair crosses with probability ``crossover_rate`` (one mask
    draw for all pairs, then one :meth:`Problem.crossover_stack` call),
    uncrossed pairs are copied, each child mutates with probability
    ``mutation_rate`` (one mask draw, one :meth:`Problem.mutate_stack`
    call), and the whole stack is repaired at once.  Returns as many
    children as there are parents.
    """
    n_parents = parents.shape[0]
    first_index = np.arange(0, n_parents, 2)
    first = parents[first_index]
    second = parents[(first_index + 1) % n_parents]
    crossed = rng.random(size=first.shape[0]) < crossover_rate
    child_a = first.copy()
    child_b = second.copy()
    if crossed.any():
        cross_a, cross_b = problem.crossover_stack(first[crossed], second[crossed], rng)
        child_a[crossed] = cross_a
        child_b[crossed] = cross_b
    children = np.empty((2 * first.shape[0], *parents.shape[1:]))
    children[0::2] = child_a
    children[1::2] = child_b
    children = children[:n_parents]
    mutated = rng.random(size=children.shape[0]) < mutation_rate
    if mutated.any():
        children[mutated] = problem.mutate_stack(children[mutated], rng)
    return problem.repair_stack(children)
