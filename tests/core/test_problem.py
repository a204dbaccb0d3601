"""Tests for the RR-matrix EMOO problem (repro.core.problem)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import RRMatrixProblem
from repro.metrics.privacy import max_posterior
from repro.rr.matrix import RRMatrix
from repro.rr.schemes import warner_matrix


def stack_of(*matrices: RRMatrix) -> np.ndarray:
    return np.stack([matrix.probabilities for matrix in matrices])


def assert_column_stochastic(stack: np.ndarray) -> None:
    assert np.all(stack >= -1e-12)
    np.testing.assert_allclose(stack.sum(axis=1), 1.0, atol=1e-9)


class TestEvaluation:
    def test_objectives_are_minimisation_form(self, small_prior):
        problem = RRMatrixProblem(small_prior, n_records=1000)
        population = problem.evaluate_population(stack_of(warner_matrix(4, 0.6)))
        assert population.objectives[0, 0] == pytest.approx(-population.metadata["privacy"][0])
        assert population.objectives[0, 1] == pytest.approx(population.metadata["utility"][0])
        assert population.feasible[0]

    def test_singular_matrix_gets_finite_penalty_objective(self, small_prior):
        problem = RRMatrixProblem(small_prior, n_records=1000)
        population = problem.evaluate_population(stack_of(RRMatrix.uniform(4)))
        assert np.isfinite(population.objectives).all()
        assert not population.feasible[0]
        assert population.metadata["utility"][0] == np.inf

    def test_bound_violations_marked_infeasible(self, small_prior):
        problem = RRMatrixProblem(small_prior, n_records=1000, delta=0.6)
        population = problem.evaluate_population(stack_of(RRMatrix.identity(4)))
        assert not population.feasible[0]

    def test_evaluation_counter(self, small_prior):
        problem = RRMatrixProblem(small_prior, n_records=1000)
        problem.evaluate_population(stack_of(warner_matrix(4, 0.4)))
        problem.evaluate_population(stack_of(warner_matrix(4, 0.6), warner_matrix(4, 0.8)))
        assert problem.n_evaluations == 3

    def test_accepts_raw_probability_vector(self):
        problem = RRMatrixProblem(np.array([0.5, 0.5]), n_records=100)
        assert problem.n_categories == 2


class TestGenomeGeneration:
    def test_random_genomes_are_valid_and_respect_bound(self, small_prior, rng):
        problem = RRMatrixProblem(small_prior, n_records=1000, delta=0.7)
        population = problem.initial_population(10, rng)
        assert population.genomes.shape == (10, 4, 4)
        assert_column_stochastic(population.genomes)
        for genome in population.genomes:
            assert max_posterior(RRMatrix(genome), small_prior.probabilities) <= 0.7 + 1e-6

    def test_initial_population_spans_privacy(self, small_prior, rng):
        problem = RRMatrixProblem(small_prior, n_records=1000)
        privacies = problem.initial_population(30, rng).metadata["privacy"]
        assert privacies.max() - privacies.min() > 0.1


class TestVariation:
    def test_crossover_produces_valid_children(self, small_prior, rng):
        problem = RRMatrixProblem(small_prior, n_records=1000)
        parents = problem.initial_population(6, rng).genomes
        child_a, child_b = problem.crossover_stack(parents[:3], parents[3:], rng)
        for children in (child_a, child_b):
            assert children.shape == (3, 4, 4)
            assert_column_stochastic(children)

    def test_mutation_produces_valid_genome(self, small_prior, rng):
        problem = RRMatrixProblem(small_prior, n_records=1000)
        mutated = problem.mutate_stack(problem.initial_population(3, rng).genomes, rng)
        assert mutated.shape == (3, 4, 4)
        assert_column_stochastic(mutated)

    def test_repair_without_delta_is_identity(self, small_prior):
        problem = RRMatrixProblem(small_prior, n_records=1000)
        stack = stack_of(warner_matrix(4, 0.9))
        assert problem.repair_stack(stack) is stack

    def test_repair_with_delta_enforces_bound(self, small_prior):
        problem = RRMatrixProblem(small_prior, n_records=1000, delta=0.65)
        repaired = problem.repair_stack(stack_of(RRMatrix.identity(4), warner_matrix(4, 0.9)))
        for matrix in repaired:
            assert max_posterior(RRMatrix(matrix), small_prior.probabilities) <= 0.65 + 1e-6
