"""Tests for the generic SPEA2 engine on an analytic problem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.emoo.spea2 import SPEA2, SPEA2Settings
from repro.emoo.termination import MaxGenerations
from repro.exceptions import ValidationError


class TestSettings:
    def test_defaults_are_valid(self):
        settings = SPEA2Settings()
        assert settings.population_size > 0

    def test_rejects_bad_rates(self):
        with pytest.raises(ValidationError):
            SPEA2Settings(crossover_rate=1.5)
        with pytest.raises(ValidationError):
            SPEA2Settings(population_size=0)


class TestSPEA2Run:
    def test_finds_the_analytic_front(self, sphere_problem):
        algorithm = SPEA2(
            sphere_problem,
            SPEA2Settings(population_size=24, archive_size=24),
            termination=MaxGenerations(40),
            seed=3,
        )
        result = algorithm.run()
        assert result.n_generations == 40
        assert len(result.front) > 5
        # Every front member should be near the true Pareto set x in [0, 1],
        # i.e. sqrt(f1) + sqrt(f2) ~= 1.
        for f1, f2 in result.front.objectives:
            assert np.sqrt(f1) + np.sqrt(f2) == pytest.approx(1.0, abs=0.05)

    def test_front_spreads_over_the_tradeoff(self, sphere_problem):
        algorithm = SPEA2(
            sphere_problem,
            SPEA2Settings(population_size=30, archive_size=30),
            termination=MaxGenerations(40),
            seed=5,
        )
        result = algorithm.run()
        xs = sorted(result.front.metadata["x"])
        assert xs[0] < 0.2
        assert xs[-1] > 0.8

    def test_archive_respects_size_limit(self, sphere_problem):
        settings = SPEA2Settings(population_size=20, archive_size=10)
        result = SPEA2(sphere_problem, settings, termination=MaxGenerations(10), seed=0).run()
        assert len(result.archive) <= 10

    def test_reproducible_with_seed(self, sphere_problem):
        settings = SPEA2Settings(population_size=12, archive_size=12)
        first = SPEA2(sphere_problem, settings, termination=MaxGenerations(8), seed=11).run()
        second = SPEA2(sphere_problem, settings, termination=MaxGenerations(8), seed=11).run()
        first_front = sorted(map(tuple, first.front.objectives.tolist()))
        second_front = sorted(map(tuple, second.front.objectives.tolist()))
        assert first_front == second_front

    def test_generation_callback_invoked(self, sphere_problem):
        calls = []
        SPEA2(
            sphere_problem,
            SPEA2Settings(population_size=10, archive_size=10),
            termination=MaxGenerations(5),
            seed=1,
        ).run(on_generation=lambda generation, archive: calls.append((generation, len(archive))))
        assert [call[0] for call in calls] == list(range(5))
        assert all(size > 0 for _, size in calls)

    def test_evaluation_count_accounting(self, sphere_problem):
        settings = SPEA2Settings(population_size=10, archive_size=10)
        result = SPEA2(sphere_problem, settings, termination=MaxGenerations(6), seed=2).run()
        # Initial population + one offspring population per generation.
        assert result.n_evaluations == 10 + 6 * 10
