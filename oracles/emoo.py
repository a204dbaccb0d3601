"""``Individual``-list forms of the EMOO primitives.

The engine in ``repro.emoo`` works on objective arrays and index arrays
only.  The frozen OptRR loop (:mod:`oracles.optrr_loop`) and the equivalence
suites still speak ``list[Individual]``: these are the list views they use,
plus the pairwise :func:`dominates` predicate and Deb's fast non-dominated
sort (:func:`pareto_ranks_reference`), the loop-based ground truth of the
vectorized front peel.
"""

from __future__ import annotations

import numpy as np

from repro.emoo.density import pairwise_distances
from repro.emoo.dominance import dominance_matrix_from_arrays, pareto_ranks_from_arrays
from repro.emoo.fitness import spea2_fitness_from_arrays
from repro.emoo.selection import (
    binary_tournament_indices,
    environmental_selection_indices,
    truncate_indices,
)
from repro.exceptions import OptimizationError
from repro.types import SeedLike, as_rng
from repro.utils.validation import check_positive_int

from oracles.individual import Individual, objectives_array


def dominates(first: Individual, second: Individual) -> bool:
    """Whether ``first`` Pareto-dominates ``second``.

    ``first`` dominates ``second`` when it is no worse in every objective and
    strictly better in at least one, with feasibility taking precedence.
    """
    if first.feasible and not second.feasible:
        return True
    if second.feasible and not first.feasible:
        return False
    a, b = first.objectives, second.objectives
    return bool(np.all(a <= b) and np.any(a < b))


def _feasibility(population: list[Individual]) -> np.ndarray:
    return np.array([individual.feasible for individual in population], dtype=bool)


def dominance_matrix(population: list[Individual]) -> np.ndarray:
    """Constrained dominance matrix of ``population`` (``D[i, j]``: ``i``
    dominates ``j``)."""
    if not population:
        return np.zeros((0, 0), dtype=bool)
    return dominance_matrix_from_arrays(
        objectives_array(population), _feasibility(population)
    )


def pareto_ranks(population: list[Individual]) -> np.ndarray:
    """Non-dominated sorting ranks; also writes each individual's ``rank``."""
    if not population:
        return np.full(0, -1, dtype=np.int64)
    ranks = pareto_ranks_from_arrays(objectives_array(population), _feasibility(population))
    for individual, rank in zip(population, ranks):
        individual.rank = int(rank)
    return ranks


def pareto_ranks_reference(population: list[Individual]) -> np.ndarray:
    """Reference loop implementation of non-dominated sorting (Deb's fast
    non-dominated sort with explicit domination counts).

    Kept as the ground truth the vectorized :func:`pareto_ranks` is tested
    against; does *not* write ranks back onto the individuals.
    """
    size = len(population)
    ranks = np.full(size, -1, dtype=np.int64)
    if size == 0:
        return ranks
    matrix = dominance_matrix(population)
    domination_counts = matrix.sum(axis=0).astype(np.int64)
    dominated_sets = [np.flatnonzero(matrix[index]) for index in range(size)]
    current_front = list(np.flatnonzero(domination_counts == 0))
    front_index = 0
    remaining = size
    while current_front:
        next_front: list[int] = []
        for index in current_front:
            ranks[index] = front_index
            remaining -= 1
            for dominated_index in dominated_sets[index]:
                domination_counts[dominated_index] -= 1
                if domination_counts[dominated_index] == 0:
                    next_front.append(int(dominated_index))
        current_front = next_front
        front_index += 1
    assert remaining == 0, "non-dominated sorting failed to rank every individual"
    return ranks


def assign_spea2_fitness(population: list[Individual], k: int = 1) -> np.ndarray:
    """Assign SPEA2 strength, density and fitness in place; returns the
    fitness array."""
    if not population:
        return np.zeros(0)
    strengths, densities, fitness = spea2_fitness_from_arrays(
        objectives_array(population), _feasibility(population), k
    )
    for index, individual in enumerate(population):
        individual.strength = int(strengths[index])
        individual.density = float(densities[index])
        individual.fitness = float(fitness[index])
    return fitness


def environmental_selection(
    union: list[Individual], archive_size: int, *, density_k: int = 1
) -> list[Individual]:
    """Assign SPEA2 fitness to ``union`` and select the next archive."""
    check_positive_int(archive_size, "archive_size")
    if not union:
        raise OptimizationError("environmental selection needs a non-empty union")
    fitness = assign_spea2_fitness(union, density_k)
    indices = environmental_selection_indices(
        fitness, archive_size, objectives=objectives_array(union)
    )
    return [union[index] for index in indices]


def truncate_archive(archive: list[Individual], target_size: int) -> list[Individual]:
    """SPEA2 archive truncation of a list (survivors in original order)."""
    check_positive_int(target_size, "target_size")
    if len(archive) <= target_size:
        return list(archive)
    keep = truncate_indices(pairwise_distances(objectives_array(archive)), target_size)
    return [archive[index] for index in keep]


def binary_tournament(
    pool: list[Individual], n_selections: int, seed: SeedLike = None
) -> list[Individual]:
    """Binary tournaments on the individuals' assigned fitness (lower wins)."""
    check_positive_int(n_selections, "n_selections")
    if not pool:
        raise OptimizationError("mating selection needs a non-empty pool")
    fitness = np.array([individual.fitness for individual in pool])
    winners = binary_tournament_indices(fitness, n_selections, as_rng(seed))
    return [pool[index] for index in winners]
