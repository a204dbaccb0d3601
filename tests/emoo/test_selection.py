"""Tests for repro.emoo.selection (environmental + mating selection)."""

from __future__ import annotations

import pytest

from repro.exceptions import OptimizationError
from tests.emoo.conftest import make_individual

from oracles.emoo import (
    assign_spea2_fitness,
    binary_tournament,
    environmental_selection,
    truncate_archive,
)


class TestEnvironmentalSelection:
    def test_keeps_all_nondominated_when_they_fit(self):
        union = [
            make_individual([0.0, 1.0]),
            make_individual([0.5, 0.5]),
            make_individual([1.0, 0.0]),
            make_individual([2.0, 2.0]),  # dominated
        ]
        archive = environmental_selection(union, archive_size=3)
        objectives = {tuple(ind.objectives) for ind in archive}
        assert (2.0, 2.0) not in objectives
        assert len(archive) == 3

    def test_fills_with_best_dominated_when_underfull(self):
        union = [
            make_individual([0.0, 0.0]),   # the only non-dominated point
            make_individual([1.0, 1.0]),
            make_individual([3.0, 3.0]),
        ]
        archive = environmental_selection(union, archive_size=2)
        assert len(archive) == 2
        objectives = {tuple(ind.objectives) for ind in archive}
        assert (0.0, 0.0) in objectives
        assert (1.0, 1.0) in objectives  # the better dominated point

    def test_truncates_when_overfull_and_keeps_extremes(self):
        # Ten non-dominated points on a line; truncation should keep a spread
        # including both extremes.
        union = [make_individual([i / 9.0, 1.0 - i / 9.0]) for i in range(10)]
        archive = environmental_selection(union, archive_size=4)
        assert len(archive) == 4
        objectives = sorted(tuple(ind.objectives) for ind in archive)
        assert objectives[0] == (0.0, 1.0)
        assert objectives[-1] == (1.0, 0.0)

    def test_exact_fit_returns_front(self):
        union = [
            make_individual([0.0, 1.0]),
            make_individual([1.0, 0.0]),
            make_individual([2.0, 2.0]),
        ]
        archive = environmental_selection(union, archive_size=2)
        assert {tuple(ind.objectives) for ind in archive} == {(0.0, 1.0), (1.0, 0.0)}

    def test_empty_union_raises(self):
        with pytest.raises(OptimizationError):
            environmental_selection([], archive_size=3)


class TestTruncateArchive:
    def test_no_truncation_needed(self):
        archive = [make_individual([0.0, 1.0]), make_individual([1.0, 0.0])]
        assert truncate_archive(archive, 5) == archive

    def test_removes_most_crowded_first(self):
        archive = [
            make_individual([0.0, 1.0]),
            make_individual([0.01, 0.99]),  # nearly duplicates the first
            make_individual([1.0, 0.0]),
        ]
        survivors = truncate_archive(archive, 2)
        objectives = {tuple(ind.objectives) for ind in survivors}
        assert (1.0, 0.0) in objectives
        # Exactly one of the two crowded points survives.
        assert len(objectives & {(0.0, 1.0), (0.01, 0.99)}) == 1


class TestBinaryTournament:
    def test_prefers_lower_fitness(self, rng):
        good = make_individual([0.0, 0.0])
        bad = make_individual([1.0, 1.0])
        pool = [good, bad]
        assign_spea2_fitness(pool)
        winners = binary_tournament(pool, 200, seed=rng)
        n_good = sum(1 for winner in winners if winner is good)
        assert n_good > 150  # good wins every mixed tournament

    def test_returns_requested_count(self, rng):
        pool = [make_individual([float(i), float(-i)]) for i in range(4)]
        assign_spea2_fitness(pool)
        assert len(binary_tournament(pool, 7, seed=rng)) == 7

    def test_empty_pool_raises(self):
        with pytest.raises(OptimizationError):
            binary_tournament([], 3)
