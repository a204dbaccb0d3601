"""Brute-force / grid-search baseline for tiny domains.

The paper's Fact 1 shows exhaustive search is hopeless for realistic domain
sizes, but for ``n = 2`` or ``n = 3`` with a coarse grid it is perfectly
feasible — and extremely useful for validating the evolutionary optimizer:
the OptRR front should be close to the exhaustive front on such instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.result import OptimizationResult
from repro.core.search_space import brute_force_is_feasible, rr_matrix_combinations
from repro.data.distribution import CategoricalDistribution
from repro.emoo.dominance import non_dominated
from repro.emoo.population import Population
from repro.exceptions import OptimizationError
from repro.metrics.evaluation import MatrixEvaluator
from repro.utils.validation import check_positive_int

#: Matrices evaluated per :meth:`MatrixEvaluator.evaluate_batch` call: large
#: enough to amortise the per-call overhead, small enough to bound the
#: ``(B, n, n)`` working set.
CHUNK_SIZE = 4096


def _grid_columns(n_categories: int, d: int) -> np.ndarray:
    """All probability columns whose entries are multiples of ``1/d``, one
    per row of the returned ``(C, n)`` array."""
    return np.array(list(_compositions(d, n_categories)), dtype=np.float64) / d


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways of writing ``total`` as an ordered sum of ``parts``
    non-negative integers."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@dataclass(frozen=True)
class BruteForceReport:
    """Outcome of a brute-force sweep.

    Attributes
    ----------
    result:
        The Pareto front found by exhaustive enumeration, packaged like an
        optimizer result.
    n_enumerated:
        Number of matrices enumerated.
    n_feasible:
        Number of matrices that satisfied the bound and were invertible.
    """

    result: OptimizationResult
    n_enumerated: int
    n_feasible: int


def brute_force_front(
    prior: CategoricalDistribution | np.ndarray,
    n_records: int,
    *,
    d: int = 10,
    delta: float | None = None,
    budget: int = 2_000_000,
) -> BruteForceReport:
    """Exhaustively enumerate discretised RR matrices and return the exact
    Pareto front.

    Parameters
    ----------
    prior:
        Original data distribution.
    n_records:
        Record count for the closed-form utility.
    d:
        Grid resolution: entries are multiples of ``1/d``.
    delta:
        Optional worst-case privacy bound.
    budget:
        Safety limit on the number of matrices enumerated; exceeding it raises
        :class:`OptimizationError` (use the evolutionary optimizer instead).
    """
    if not isinstance(prior, CategoricalDistribution):
        prior = CategoricalDistribution(np.asarray(prior, dtype=np.float64))
    check_positive_int(d, "d")
    n = prior.n_categories
    if not brute_force_is_feasible(n, d, budget=budget):
        raise OptimizationError(
            f"brute force over n={n}, d={d} needs "
            f"{rr_matrix_combinations(n, d):.3e} evaluations, which exceeds the "
            f"budget of {budget}"
        )
    evaluator = MatrixEvaluator(prior, n_records, delta)
    columns = _grid_columns(n, d)
    grid_shape = (len(columns),) * n
    n_enumerated = len(columns) ** n
    n_feasible = 0
    # Running front in enumeration order; each chunk's feasible rows are
    # merged into it and dominated rows dropped (dominance is transitive, so
    # this equals the front of all feasible matrices).
    front: Population | None = None
    for start in range(0, n_enumerated, CHUNK_SIZE):
        flat = np.arange(start, min(start + CHUNK_SIZE, n_enumerated))
        # selection[b, j] is the grid column used as column j of matrix b,
        # with the last column varying fastest (itertools.product order).
        selection = np.stack(np.unravel_index(flat, grid_shape), axis=1)
        stack = np.swapaxes(columns[selection], 1, 2)
        evaluation = evaluator.evaluate_batch(stack)
        keep = np.flatnonzero(evaluation.feasible)
        n_feasible += keep.size
        privacy, utility = evaluation.privacy[keep], evaluation.utility[keep]
        chunk = Population(
            genomes=stack[keep],
            objectives=np.stack([-privacy, utility], axis=1),
            feasible=np.ones(keep.size, dtype=bool),
            metadata={
                "privacy": privacy,
                "utility": utility,
                "max_posterior": evaluation.max_posterior[keep],
            },
        )
        front = non_dominated(chunk if front is None else Population.concat(front, chunk))
    assert front is not None  # the grid always has at least one matrix
    result = OptimizationResult.from_populations(front, n_evaluations=n_enumerated)
    return BruteForceReport(result=result, n_enumerated=n_enumerated, n_feasible=n_feasible)
