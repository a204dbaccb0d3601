"""Tests for the optimal set Ω (repro.core.archive)."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.archive import OptimalSet
from repro.emoo.population import Population
from repro.exceptions import OptimizationError
from repro.rr.schemes import warner_matrix

from oracles.archive import SequentialOptimalSet
from oracles.individual import population_to_individuals
from oracles.optrr_loop import _refresh_from_optimal_set


def make_member(privacy: float, utility: float, feasible: bool = True) -> Population:
    """A one-row population carrying ``privacy``/``utility`` metadata."""
    return Population(
        genomes=warner_matrix(4, 0.5).probabilities[None].copy(),
        objectives=np.array([[-privacy, utility]]),
        feasible=np.array([feasible]),
        metadata={"privacy": np.array([privacy]), "utility": np.array([utility])},
    )


def offer(omega: OptimalSet, member: Population) -> bool:
    return omega.offer_population(member) == 1


class TestSlotting:
    def test_slot_of_uses_floor(self):
        omega = OptimalSet(size=10)
        slots = omega.slots_of(np.array([0.0, 0.15, 0.99, 1.0]))
        assert slots.tolist() == [0, 1, 9, 9]  # 1.0 is clamped into the last slot

    def test_slot_of_rejects_nan(self):
        with pytest.raises(OptimizationError):
            OptimalSet(10).slots_of(np.array([float("nan")]))


class TestOffer:
    def test_accepts_first_member_of_a_slot(self):
        omega = OptimalSet(100)
        assert offer(omega, make_member(0.42, 1e-4))
        assert omega.n_occupied == 1
        assert omega.n_updates == 1

    def test_better_utility_replaces_occupant(self):
        omega = OptimalSet(100)
        offer(omega, make_member(0.42, 1e-4))
        assert offer(omega, make_member(0.421, 5e-5))  # same slot, lower MSE
        assert omega.n_occupied == 1
        assert omega.members().metadata["utility"][0] == pytest.approx(5e-5)

    def test_worse_utility_is_rejected(self):
        omega = OptimalSet(100)
        offer(omega, make_member(0.42, 1e-4))
        assert not offer(omega, make_member(0.423, 2e-4))
        assert omega.n_updates == 1

    def test_different_slots_coexist(self):
        omega = OptimalSet(100)
        offer(omega, make_member(0.1, 1e-4))
        offer(omega, make_member(0.9, 1e-6))
        assert omega.n_occupied == 2

    def test_infeasible_members_are_ignored(self):
        omega = OptimalSet(100)
        assert not offer(omega, make_member(0.5, 1e-4, feasible=False))
        assert omega.n_occupied == 0

    def test_members_without_metadata_raise(self):
        omega = OptimalSet(10)
        population = Population(
            genomes=np.zeros((1, 2, 2)), objectives=np.zeros((1, 2)), feasible=np.ones(1)
        )
        with pytest.raises(OptimizationError, match="metadata"):
            omega.offer_population(population)

    def test_mismatched_metadata_columns_raise(self):
        omega = OptimalSet(10)
        offer(omega, make_member(0.3, 1e-4))
        member = make_member(0.6, 1e-4)
        member.metadata["max_posterior"] = np.array([0.5])
        with pytest.raises(OptimizationError, match="metadata columns"):
            omega.offer_population(member)

    def test_offer_many_counts_updates(self):
        omega = OptimalSet(100)
        members = Population.concat(
            make_member(0.1, 1e-4), make_member(0.2, 1e-4), make_member(0.1, 2e-4)
        )
        assert omega.offer_population(members) == 2

    def test_infinite_utility_is_rejected(self):
        omega = OptimalSet(10)
        assert not offer(omega, make_member(0.3, float("inf")))

    def test_stored_member_is_a_copy(self):
        omega = OptimalSet(100)
        member = make_member(0.33, 1e-4)
        offer(omega, member)
        member.metadata["utility"][0] = 999.0
        member.genomes[0] = 0.0
        stored = omega.members()
        assert stored.metadata["utility"][0] == pytest.approx(1e-4)
        assert stored.genomes[0].sum() == pytest.approx(4.0)


class TestViews:
    def test_members_ordered_by_privacy_slot(self):
        omega = OptimalSet(100)
        offer(omega, make_member(0.8, 1e-6))
        offer(omega, make_member(0.2, 1e-4))
        privacies = omega.members().metadata["privacy"].tolist()
        assert privacies == sorted(privacies)

    def test_pareto_members_removes_dominated_slots(self):
        omega = OptimalSet(100)
        offer(omega, make_member(0.2, 1e-4))
        offer(omega, make_member(0.5, 5e-5))   # dominates the first (more privacy, less MSE)
        front = omega.pareto_members()
        assert len(front) == 1
        assert front.metadata["privacy"][0] == pytest.approx(0.5)

    def test_len_and_iter(self):
        omega = OptimalSet(50)
        assert len(omega) == 0 and len(omega.members()) == 0
        offer(omega, make_member(0.3, 1e-4))
        assert len(omega) == 1
        assert len(omega.members()) == 1


class TestOfferPopulation:
    """Vectorized population offers must make the same accept/reject
    decisions (and update counts) as offering the rows sequentially."""

    @staticmethod
    def _random_population(rng, size):
        privacy = rng.uniform(0.0, 1.0, size)
        utility = rng.uniform(1e-6, 1e-3, size)
        # A few infeasible and a few non-finite-utility rows.
        feasible = rng.random(size) > 0.2
        utility[rng.random(size) < 0.1] = np.inf
        return Population(
            genomes=rng.random((size, 3, 3)),
            objectives=np.stack([-privacy, utility], axis=1),
            feasible=feasible,
            metadata={
                "privacy": privacy,
                "utility": utility,
                "max_posterior": rng.uniform(0.0, 1.0, size),
                "invertible": np.ones(size, dtype=bool),
            },
        )

    def test_matches_sequential_offers(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            vectorized = OptimalSet(40)
            sequential = SequentialOptimalSet(40)
            for _ in range(3):  # several batches so occupied slots interact
                population = self._random_population(rng, 30)
                accepted_vec = vectorized.offer_population(population)
                accepted_seq = sequential.offer_many(population_to_individuals(population))
                assert accepted_vec == accepted_seq
            assert vectorized.n_updates == sequential.n_updates
            assert vectorized.n_occupied == sequential.n_occupied
            members = vectorized.members()
            for row, theirs in enumerate(sequential.members()):
                assert members.metadata["utility"][row] == theirs.metadata["utility"]
                assert members.metadata["privacy"][row] == theirs.metadata["privacy"]

    def test_duplicate_slot_candidates_in_one_batch(self):
        """Two same-slot candidates in one batch: only the better one lands,
        exactly like sequential offers."""
        privacy = np.array([0.505, 0.505, 0.505])
        utility = np.array([3e-4, 1e-4, 2e-4])
        population = Population(
            genomes=np.arange(12.0).reshape(3, 2, 2),
            objectives=np.stack([-privacy, utility], axis=1),
            feasible=np.ones(3, dtype=bool),
            metadata={"privacy": privacy, "utility": utility},
        )
        omega = OptimalSet(10)
        accepted = omega.offer_population(population)
        # Sequential semantics: 3e-4 lands, then 1e-4 replaces it, 2e-4 loses.
        assert accepted == 2
        assert omega.n_occupied == 1
        assert omega.members().metadata["utility"][0] == 1e-4
        assert omega.members().genomes[0].tobytes() == population.genomes[1].tobytes()

    def test_slots_of_matches_scalar_slot_of(self):
        omega = OptimalSet(17)
        privacy = np.array([0.0, 1.0, 0.5, 0.999999, 1e-9])
        vector = omega.slots_of(privacy)
        sequential = SequentialOptimalSet(17)
        assert [int(v) for v in vector] == [sequential.slot_of(float(p)) for p in privacy]

    def test_slots_of_rejects_non_finite(self):
        with pytest.raises(OptimizationError):
            OptimalSet(10).slots_of(np.array([0.5, np.nan]))


#: Privacy values that land exactly on slot boundaries or range ends.
EDGE_PRIVACY = [0.0, 1.0, 0.25, 0.5, 1e-12, 1.0 - 1e-12]
#: A small utility pool, so ties between rows are common.
UTILITY_POOL = [1e-4, 2e-4, 3e-4, np.inf, -np.inf]


@st.composite
def batches(draw):
    """A random population with duplicate slots, utility ties, infeasible
    rows, ±inf utilities and privacy exactly 0 or 1."""
    rows = draw(st.integers(1, 12))
    privacy = draw(st.lists(
        st.one_of(st.sampled_from(EDGE_PRIVACY), st.floats(0.0, 1.0)),
        min_size=rows, max_size=rows,
    ))
    utility = draw(st.lists(
        st.one_of(st.sampled_from(UTILITY_POOL), st.floats(1e-6, 1e-3)),
        min_size=rows, max_size=rows,
    ))
    feasible = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    privacy, utility = np.array(privacy), np.array(utility)
    return Population(
        genomes=rng.random((rows, 2, 2)),
        objectives=np.stack([-privacy, utility], axis=1),
        feasible=np.array(feasible),
        metadata={
            "privacy": privacy,
            "utility": utility,
            "max_posterior": rng.random(rows),
            "invertible": rng.random(rows) < 0.9,
        },
    )


def assert_matches_oracle(omega: OptimalSet, oracle: SequentialOptimalSet) -> None:
    """Same occupied slots, slot utilities, update count and row bytes."""
    assert omega.n_updates == oracle.n_updates
    assert omega.slot_utilities().tobytes() == oracle.slot_utilities().tobytes()
    occupied = [slot for slot in range(oracle.size) if oracle.best_for_slot(slot) is not None]
    assert np.flatnonzero(np.isfinite(omega.slot_utilities())).tolist() == occupied
    members = omega.members()
    expected = oracle.members()
    assert members.size == len(expected)
    for row, individual in enumerate(expected):
        assert members.genomes[row].tobytes() == np.asarray(individual.genome).tobytes()
        assert members.objectives[row].tobytes() == individual.objectives.tobytes()
        assert bool(members.feasible[row]) is individual.feasible
        assert set(members.metadata) == set(individual.metadata)
        for key, column in members.metadata.items():
            value = np.asarray(individual.metadata[key], dtype=column.dtype)
            assert column[row].tobytes() == value.tobytes()


class TestAgainstSequentialOracle:
    """The columnar Ω against the frozen one-``Individual``-per-slot Ω."""

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(1, 12), data=st.data())
    def test_offers_refresh_and_round_trip_match(self, size, data):
        omega = OptimalSet(size)
        oracle = SequentialOptimalSet(size)
        for _ in range(data.draw(st.integers(1, 4))):
            population = data.draw(batches())
            accepted = omega.offer_population(population)
            assert accepted == oracle.offer_many(population_to_individuals(population))
            assert_matches_oracle(omega, oracle)

        # Back-injection into a fresh population with stamped fitness.
        target = data.draw(batches())
        target.set_fitness(np.arange(target.size, dtype=np.float64), generation=3)
        individuals = population_to_individuals(target)
        omega.refresh(target)
        _refresh_from_optimal_set(individuals, oracle, reuse_archive_fitness=True)
        for row, individual in enumerate(individuals):
            assert target.genomes[row].tobytes() == np.asarray(individual.genome).tobytes()
            assert target.objectives[row].tobytes() == individual.objectives.tobytes()
            assert bool(target.feasible[row]) is individual.feasible
            for key, column in target.metadata.items():
                value = np.asarray(individual.metadata[key], dtype=column.dtype)
                assert column[row].tobytes() == value.tobytes()
            assert target.fitness[row] == individual.fitness
        assert target.fitness_generation == 3

        document = json.loads(json.dumps(omega.state_document()))
        restored = OptimalSet(size)
        restored.restore_state(document)
        assert_matches_oracle(restored, oracle)
        assert restored.state_document() == document
