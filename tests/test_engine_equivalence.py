"""Equivalence of the array-native generation engine and the list-based loop.

The structure-of-arrays engine (PR 4) must not change what the optimizer
computes — only how fast.  Three layers of evidence:

* **Trajectory** — fixed-seed end-to-end runs of the array-native
  :class:`~repro.core.optimizer.OptRROptimizer` reproduce the frozen
  list-based loop (:mod:`oracles.optrr_loop`) bit-for-bit, fronts, Ω and
  matrices included, when the reference applies the same fitness-reuse fix
  (``reuse_archive_fitness=True``).  The RNG stream is untouched by the
  refactor, so this holds exactly, not approximately.
* **Documented divergence** — the *only* intentional semantic change is that
  mating selection reuses the union fitness environmental selection just
  assigned instead of re-running SPEA2 fitness assignment on the archive
  alone (the canonical SPEA2 reading; see ``docs/architecture.md``).  The
  pre-PR behaviour remains available as ``reuse_archive_fitness=False``.
* **Components** — Hypothesis property tests assert the incremental
  truncation and the index-native environmental selection match the pre-PR
  reference implementations on arbitrary (duplicate-heavy) populations.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import active_backend
from repro.core.config import OptRRConfig
from repro.core.optimizer import OptRROptimizer
from repro.core.problem import RRMatrixProblem
from repro.data.synthetic import normal_distribution
from repro.emoo.nsga2 import NSGA2, NSGA2Settings
from repro.emoo.spea2 import SPEA2, SPEA2Settings
from repro.emoo.termination import MaxGenerations
from repro.emoo.selection import binary_tournament_indices
from tests.emoo.conftest import make_individual

from oracles.emoo import binary_tournament, environmental_selection, truncate_archive
from oracles.kernels import (
    reference_batched_safe_inverses,
    reference_evaluate_stack,
    reference_pairwise_distances,
    reference_repair_stack,
)
from oracles.optrr_loop import (
    reference_environmental_selection,
    reference_optrr_run,
    reference_truncate_archive,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Objective values drawn from a tiny grid so exact duplicates (the hard
#: truncation case: zero-distance clusters) appear constantly.
coordinate = st.integers(min_value=0, max_value=4).map(lambda v: v / 4.0)
point = st.tuples(coordinate, coordinate)
point_sets = st.lists(point, min_size=2, max_size=24)


def _config(**overrides) -> OptRRConfig:
    base = dict(
        population_size=16,
        archive_size=16,
        n_generations=20,
        delta=0.8,
        baseline_seeds=101,
        seed=11,
    )
    base.update(overrides)
    return OptRRConfig(**base)


def _points(result) -> np.ndarray:
    return np.array([(p.privacy, p.utility) for p in result.points])


def _omega(result) -> np.ndarray:
    return np.array([(p.privacy, p.utility) for p in result.optimal_set_points])


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("seed", [0, 11, 202])
    def test_front_and_omega_bit_for_bit(self, seed):
        """Same seed, same trajectory: fronts and Ω spectra are identical
        arrays, not approximately equal ones."""
        prior = normal_distribution(8)
        config = _config(seed=seed)
        array_result = OptRROptimizer(prior, 5_000, config).run()
        reference = reference_optrr_run(
            prior, 5_000, config, reuse_archive_fitness=True
        )
        assert np.array_equal(_points(array_result), _points(reference))
        assert np.array_equal(_omega(array_result), _omega(reference))
        assert array_result.n_evaluations == reference.n_evaluations
        assert array_result.n_generations == reference.n_generations

    def test_front_matrices_bit_for_bit(self):
        """The recovered RR matrices themselves match, entry for entry."""
        prior = normal_distribution(6)
        config = _config(n_generations=12)
        array_result = OptRROptimizer(prior, 5_000, config).run()
        reference = reference_optrr_run(
            prior, 5_000, config, reuse_archive_fitness=True
        )
        assert len(array_result.points) == len(reference.points)
        for ours, theirs in zip(array_result.points, reference.points):
            assert np.array_equal(ours.matrix.probabilities, theirs.matrix.probabilities)

    def test_no_delta_configuration(self):
        """Equivalence also holds without a privacy bound (no repair step)."""
        prior = normal_distribution(6)
        config = _config(delta=None, n_generations=10)
        array_result = OptRROptimizer(prior, 5_000, config).run()
        reference = reference_optrr_run(
            prior, 5_000, config, reuse_archive_fitness=True
        )
        assert np.array_equal(_points(array_result), _points(reference))

    def test_documented_divergence_from_pre_pr_loop(self):
        """With the redundant archive fitness re-assignment restored
        (``reuse_archive_fitness=False``), the reference reproduces the
        pre-PR trajectory — same budget, same determinism, but a different
        (non-canonical) mating-selection fitness.  This is the one documented
        semantic change of the array engine."""
        prior = normal_distribution(8)
        config = _config()
        pre_pr = reference_optrr_run(prior, 5_000, config)
        again = reference_optrr_run(prior, 5_000, config)
        assert np.array_equal(_points(pre_pr), _points(again))  # still deterministic
        array_result = OptRROptimizer(prior, 5_000, config).run()
        assert array_result.n_evaluations == pre_pr.n_evaluations
        assert len(array_result.points) > 0 and len(pre_pr.points) > 0


class TestTruncationEquivalence:
    @SETTINGS
    @given(points=point_sets, data=st.data())
    def test_incremental_truncation_matches_reference(self, points, data):
        """The incremental truncation (bulk duplicate phase + maintained
        nearest-neighbour state) removes exactly the same individuals in the
        same implicit order as the per-removal full re-sort."""
        target = data.draw(st.integers(min_value=1, max_value=len(points)))
        archive = [make_individual(list(p)) for p in points]
        fast = truncate_archive(archive, target)
        slow = reference_truncate_archive(archive, target)
        assert len(fast) == len(slow)
        assert all(ours is theirs for ours, theirs in zip(fast, slow))

    @SETTINGS
    @given(points=point_sets, data=st.data())
    def test_environmental_selection_matches_reference(self, points, data):
        """Index-native environmental selection (shared distance matrix,
        truncation included) selects the same individuals in the same order
        as the pre-PR list implementation."""
        archive_size = data.draw(st.integers(min_value=1, max_value=len(points) + 2))
        union_fast = [make_individual(list(p)) for p in points]
        union_slow = [make_individual(list(p)) for p in points]
        fast = environmental_selection(union_fast, archive_size)
        slow = reference_environmental_selection(union_slow, archive_size)
        fast_positions = [
            next(k for k, u in enumerate(union_fast) if u is chosen) for chosen in fast
        ]
        slow_positions = [
            next(k for k, u in enumerate(union_slow) if u is chosen) for chosen in slow
        ]
        assert fast_positions == slow_positions
        # The wrapper writes the same fitness values back.
        assert np.allclose(
            [i.fitness for i in union_fast], [i.fitness for i in union_slow]
        )

    def test_duplicate_heavy_truncation_keeps_exact_reference_order(self):
        """Regression: a population dominated by duplicate clusters (the Ω
        re-injection pattern) goes through the bulk-removal fast path and
        must still match the reference removal-by-removal."""
        rng = np.random.default_rng(5)
        base = rng.random((6, 2))
        points = np.vstack([base[rng.integers(0, 6)] for _ in range(40)])
        archive = [make_individual(list(p)) for p in points]
        for target in (1, 3, 5, 7, 12, 30):
            fast = truncate_archive(archive, target)
            slow = reference_truncate_archive(archive, target)
            assert all(ours is theirs for ours, theirs in zip(fast, slow))


class TestBackendTrajectoryEquivalence:
    """The production kernels may differ from the frozen references in how
    they compute, never in what: a fixed-seed short run of each engine
    (OptRR, SPEA2, NSGA-II) with the kernel instance's ``evaluate_stack``,
    ``batched_safe_inverses``, ``pairwise_distances`` and ``repair_stack``
    replaced by the :mod:`oracles.kernels` references must equal the
    unpatched run:

    * the final RNG bit-generator state is *identical* — kernels are
      RNG-free, so no kernel can reorder or add draws;
    * the evaluation budget is identical;
    * the resulting front is identical, bit for bit.
    """

    @staticmethod
    def _run(engine: str):
        if engine == "optrr":
            optimizer = OptRROptimizer(
                normal_distribution(8), 5_000, _config(n_generations=10)
            )
            driver = optimizer.driver()
            result = optimizer.run_driver(driver)
            front = _points(result)
        else:
            problem = RRMatrixProblem(normal_distribution(6), 4_000, delta=0.85)
            if engine == "spea2":
                algorithm = SPEA2(
                    problem,
                    SPEA2Settings(population_size=8, archive_size=8),
                    termination=MaxGenerations(6),
                    seed=3,
                )
            else:
                algorithm = NSGA2(
                    problem,
                    NSGA2Settings(population_size=8),
                    termination=MaxGenerations(6),
                    seed=3,
                )
            driver = algorithm.driver()
            for _ in driver.steps():
                pass
            result = driver.result()
            front = np.array(sorted(map(tuple, result.front.objectives.tolist())))
        return front, result.n_evaluations, driver.rng.bit_generator.state

    @pytest.mark.parametrize("engine", ["optrr", "spea2", "nsga2"])
    def test_trajectory_matches_numpy_reference(self, engine, monkeypatch):
        production = self._run(engine)
        kernels = active_backend()
        calls: Counter = Counter()

        def counted(name, reference):
            def kernel(*args, **kwargs):
                calls[name] += 1
                return reference(*args, **kwargs)

            return kernel

        for name, reference in (
            ("evaluate_stack", reference_evaluate_stack),
            ("batched_safe_inverses", reference_batched_safe_inverses),
            ("pairwise_distances", reference_pairwise_distances),
            ("repair_stack", reference_repair_stack),
        ):
            monkeypatch.setattr(kernels, name, counted(name, reference))
        front, evaluations, rng_state = self._run(engine)
        assert calls["evaluate_stack"] > 0
        assert calls["repair_stack"] > 0
        if engine != "nsga2":  # NSGA-II ranks by crowding, not distances
            assert calls["pairwise_distances"] > 0
        expected_front, expected_evaluations, expected_rng_state = production
        assert rng_state == expected_rng_state
        assert evaluations == expected_evaluations
        assert front.shape == expected_front.shape
        np.testing.assert_array_equal(front, expected_front)


class TestMatingSelectionEquivalence:
    def test_tournament_wrapper_matches_index_function(self):
        pool = [make_individual([float(i), float(-i)]) for i in range(6)]
        for index, individual in enumerate(pool):
            individual.fitness = float(index % 3)
        fitness = np.array([individual.fitness for individual in pool])
        winners_list = binary_tournament(pool, 40, seed=np.random.default_rng(9))
        winners_index = binary_tournament_indices(
            fitness, 40, np.random.default_rng(9)
        )
        positions = [
            next(k for k, candidate in enumerate(pool) if candidate is winner)
            for winner in winners_list
        ]
        assert positions == [int(index) for index in winners_index]
