"""Tests for the brute-force baseline (repro.core.bruteforce)."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from repro.core.bruteforce import _grid_columns, brute_force_front
from repro.core.config import OptRRConfig
from repro.core.optimizer import OptRROptimizer
from repro.core.search_space import rr_matrix_combinations
from repro.data.distribution import CategoricalDistribution
from repro.data.synthetic import normal_distribution
from repro.emoo.dominance import non_dominated_objectives
from repro.exceptions import OptimizationError
from repro.metrics.evaluation import MatrixEvaluator
from repro.rr.matrix import RRMatrix

from oracles.rr import evaluate_scalar


def per_matrix_front(prior, n_records, d, delta=None):
    """The specification: one validated matrix and one scalar evaluation per
    grid point, then the non-dominated feasible points."""
    evaluator = MatrixEvaluator(prior, n_records, delta)
    columns = _grid_columns(prior.n_categories, d)
    points = []
    for selection in product(range(len(columns)), repeat=prior.n_categories):
        matrix = RRMatrix(np.column_stack([columns[index] for index in selection]))
        evaluation = evaluate_scalar(evaluator, matrix)
        if evaluation.feasible:
            points.append((matrix, evaluation))
    objectives = np.array([(-e.privacy, e.utility) for _, e in points])
    front = non_dominated_objectives(objectives)
    kept = [
        (e.privacy, e.utility, e.max_posterior, matrix.probabilities.tobytes())
        for (matrix, e), row in zip(points, objectives)
        if any(np.array_equal(row, member) for member in front)
    ]
    return sorted(kept), len(points)


@pytest.fixture
def binary_prior() -> CategoricalDistribution:
    return CategoricalDistribution(np.array([0.65, 0.35]))


class TestBruteForce:
    def test_enumerates_the_whole_grid(self, binary_prior):
        report = brute_force_front(binary_prior, 1000, d=6)
        assert report.n_enumerated == rr_matrix_combinations(2, 6)
        assert report.n_feasible <= report.n_enumerated
        assert len(report.result) > 0

    def test_front_is_mutually_nondominated(self, binary_prior):
        report = brute_force_front(binary_prior, 1000, d=8)
        points = list(report.result)
        for a in points:
            for b in points:
                if a is b:
                    continue
                assert not (
                    a.privacy >= b.privacy
                    and a.utility <= b.utility
                    and (a.privacy > b.privacy or a.utility < b.utility)
                )

    def test_respects_delta_bound(self, binary_prior):
        report = brute_force_front(binary_prior, 1000, d=6, delta=0.8)
        for point in report.result:
            assert point.max_posterior <= 0.8 + 1e-9

    @pytest.mark.parametrize(
        "prior, d, delta",
        [
            (CategoricalDistribution(np.array([0.65, 0.35])), 10, None),
            (normal_distribution(3), 4, None),
            (normal_distribution(3), 4, 0.8),
        ],
    )
    def test_matches_per_matrix_scalar_loop(self, prior, d, delta):
        """The chunked stack evaluation reproduces the per-matrix loop over
        the scalar specification: same front points, bit for bit."""
        report = brute_force_front(prior, 1000, d=d, delta=delta)
        expected, n_feasible = per_matrix_front(prior, 1000, d, delta)
        assert report.n_feasible == n_feasible
        assert sorted(
            (p.privacy, p.utility, p.max_posterior, p.matrix.probabilities.tobytes())
            for p in report.result.points
        ) == expected

    def test_budget_guard(self, binary_prior):
        with pytest.raises(OptimizationError, match="budget"):
            brute_force_front(binary_prior, 1000, d=200, budget=100)

    def test_optimizer_front_is_close_to_exhaustive_front(self, binary_prior):
        """Validation of the evolutionary search: on a tiny domain its front
        should come close to the exhaustive grid-search front."""
        n_records = 1000
        exhaustive = brute_force_front(binary_prior, n_records, d=10)
        config = OptRRConfig(
            population_size=20, archive_size=20, n_generations=60, seed=2
        )
        optimized = OptRROptimizer(binary_prior, n_records, config).run()
        # For a set of probe privacy levels, the optimizer's best utility
        # should be within a small factor of the exhaustive optimum.
        exhaustive_privacies = exhaustive.result.privacy_values()
        probes = np.linspace(exhaustive_privacies.min(), exhaustive_privacies.max() * 0.95, 5)
        for privacy in probes:
            best_exhaustive = min(
                point.utility for point in exhaustive.result if point.privacy >= privacy
            )
            candidates = [
                point.utility for point in optimized if point.privacy >= privacy
            ]
            assert candidates, f"optimizer found no matrix with privacy >= {privacy}"
            assert min(candidates) <= best_exhaustive * 1.5 + 1e-9
