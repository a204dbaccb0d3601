"""Tests for the NSGA-II baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.emoo.nsga2 import NSGA2, NSGA2Settings, crowding_distances_from_objectives
from repro.emoo.termination import MaxGenerations
from tests.emoo.conftest import make_individual

from oracles.individual import objectives_array


class TestCrowdingDistance:
    def test_extremes_get_infinity(self):
        front = [
            make_individual([0.0, 1.0]),
            make_individual([0.5, 0.5]),
            make_individual([1.0, 0.0]),
        ]
        distances = crowding_distances_from_objectives(objectives_array(front))
        assert distances[0] == np.inf and distances[2] == np.inf
        assert np.isfinite(distances[1])

    def test_isolated_point_has_larger_distance(self):
        front = [
            make_individual([0.0, 1.0]),
            make_individual([0.05, 0.9]),
            make_individual([0.1, 0.85]),
            make_individual([1.0, 0.0]),
        ]
        distances = crowding_distances_from_objectives(objectives_array(front))
        # The interior point next to the isolated extreme is less crowded than
        # the interior point in the dense cluster.
        assert distances[2] > distances[1]

    def test_empty_front(self):
        assert crowding_distances_from_objectives(np.empty((0, 2))).size == 0


class TestNSGA2Run:
    def test_finds_the_analytic_front(self, sphere_problem):
        algorithm = NSGA2(
            sphere_problem,
            NSGA2Settings(population_size=24),
            termination=MaxGenerations(40),
            seed=4,
        )
        result = algorithm.run()
        assert len(result.front) > 5
        for f1, f2 in result.front.objectives:
            assert np.sqrt(f1) + np.sqrt(f2) == pytest.approx(1.0, abs=0.05)

    def test_population_size_is_maintained(self, sphere_problem):
        result = NSGA2(
            sphere_problem, NSGA2Settings(population_size=16), termination=MaxGenerations(10), seed=0
        ).run()
        assert len(result.population) == 16

    def test_reproducible_with_seed(self, sphere_problem):
        settings = NSGA2Settings(population_size=12)
        first = NSGA2(sphere_problem, settings, termination=MaxGenerations(6), seed=9).run()
        second = NSGA2(sphere_problem, settings, termination=MaxGenerations(6), seed=9).run()
        assert sorted(map(tuple, first.front.objectives.tolist())) == sorted(
            map(tuple, second.front.objectives.tolist())
        )
