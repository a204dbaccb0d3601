"""Tests for the ``Individual`` list form (oracles.individual)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import OptimizationError

from oracles.individual import Individual, objectives_array


class TestIndividual:
    def test_basic_construction(self):
        individual = Individual(genome="g", objectives=np.array([1.0, 2.0]))
        assert individual.n_objectives == 2
        assert individual.feasible

    def test_rejects_nan_objectives(self):
        with pytest.raises(OptimizationError):
            Individual(genome=None, objectives=np.array([np.nan, 1.0]))

    def test_rejects_empty_objectives(self):
        with pytest.raises(OptimizationError):
            Individual(genome=None, objectives=np.array([]))

    def test_rejects_matrix_objectives(self):
        with pytest.raises(OptimizationError):
            Individual(genome=None, objectives=np.eye(2))

    def test_copy_resets_bookkeeping(self):
        individual = Individual(genome="g", objectives=np.array([1.0, 2.0]), metadata={"k": 1})
        individual.fitness = 3.0
        individual.rank = 2
        clone = individual.copy()
        assert np.isnan(clone.fitness)
        assert clone.rank == -1
        assert clone.metadata == {"k": 1}
        assert clone.metadata is not individual.metadata

    def test_copy_preserves_feasibility(self):
        individual = Individual(genome=None, objectives=np.array([1.0]), feasible=False)
        assert not individual.copy().feasible


class TestObjectivesArray:
    def test_stacks_objectives(self):
        population = [
            Individual(genome=None, objectives=np.array([1.0, 2.0])),
            Individual(genome=None, objectives=np.array([3.0, 4.0])),
        ]
        array = objectives_array(population)
        np.testing.assert_allclose(array, [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_population(self):
        assert objectives_array([]).size == 0
