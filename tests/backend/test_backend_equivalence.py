"""Kernel equivalence suite: the single kernel instance vs the frozen oracles.

Every kernel of :func:`repro.backend.active_backend` is run next to its
executable specification in the root ``oracles`` package:

* ``evaluate_stack``, ``batched_safe_inverses``, ``pairwise_distances`` and
  ``repair_stack`` against :mod:`oracles.kernels` (posterior tensor,
  slogdet-screened subset inversion, pure-Python in-order distance sums,
  per-pass posterior-tensor repair) — bit for bit;
* ``disguise_codes`` against the frozen ``(n, N)`` broadcast — bit for bit;
* ``crossover_columns`` against the scalar column crossover — bit for bit;
* ``mutate_stack`` and ``repair_stack`` against the scalar Section V-F/V-G
  operators, fed the same random draws, within ``atol=1e-12``: the scalar
  specification orders its floating-point operations differently (the same
  tolerance as ``tests/test_batch_equivalence.py``).

Inputs are Hypothesis-drawn, including singular and duplicated-column stack
members, the near-singular 1-norm classification band from
``tests/utils/test_linalg.py``, saturated mutation targets and uniforms
planted on CDF boundaries.

The tests that predate the single instance keep their ``[numpy]`` and
``[numpy-fused]`` ids: they run on the kernel sets of both former backends
(see ``LINEAGES``), and the evaluation and inverse kernels are held to the
oracle applied one matrix at a time, so neither set is compared with itself.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import ArrayKernels, active_backend
from repro.backend.kernels import INVERSE_BLOCK_ROWS
from repro.data.synthetic import normal_distribution
from repro.rr.matrix import RRMatrix
from repro.rr.schemes import warner_stack
from repro.utils.linalg import DEFAULT_CONDITION_LIMIT

from oracles.kernels import (
    reference_batched_safe_inverses,
    reference_evaluate_stack,
    reference_pairwise_distances,
    reference_repair_stack,
)
from oracles.rr import (
    broadcast_disguise_reference,
    column_crossover,
    enforce_privacy_bound,
    proportional_column_mutation,
)

#: Absolute tolerance for the kernels whose scalar specification orders its
#: arithmetic differently (mutation and bound repair).
SCALAR_ATOL = 1e-12

KERNELS = active_backend()


def _former_numpy_kernels() -> ArrayKernels:
    """The kernel set of the former ``numpy`` backend: a fresh instance with
    its posterior-tensor evaluation, slogdet-screened inverses and
    posterior-tensor repair, now the ``oracles.kernels`` references, put back
    in their place."""
    kernels = ArrayKernels()
    kernels.evaluate_stack = reference_evaluate_stack
    kernels.batched_safe_inverses = reference_batched_safe_inverses
    kernels.repair_stack = reference_repair_stack
    return kernels


#: The kernel sets of the two former backends, both still in the tree, under
#: their old test ids: ``numpy-fused`` became the production instance, and
#: ``numpy`` differs from it only in the evaluation, inverse and repair
#: kernels it left to the oracles.  The sets share the other four kernels.
LINEAGES = pytest.mark.parametrize(
    "kernels",
    [
        pytest.param(_former_numpy_kernels(), id="numpy"),
        pytest.param(KERNELS, id="numpy-fused"),
    ],
)

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(0, 2**32 - 1)


def _stochastic_stack(
    seed: int, batch: int, n: int, *, include_singular: bool = False
) -> np.ndarray:
    """A random column-stochastic ``(batch, n, n)`` stack; optionally with a
    uniform (singular) member and a duplicated-column member mixed in.

    C-contiguous, as the seam contract requires (callers canonicalise via
    ``check_matrix_stack``; BLAS rounding depends on operand layout)."""
    rng = np.random.default_rng(seed)
    stack = np.ascontiguousarray(
        rng.dirichlet(np.ones(n), size=(batch, n)).transpose(0, 2, 1)
    )
    if include_singular and batch >= 1:
        stack[0] = 1.0 / n
    if include_singular and batch >= 2:
        stack[1][:, n - 1] = stack[1][:, 0]
    return stack


def _validated(stack: np.ndarray) -> np.ndarray:
    """The stack as the scalar operators see it (``RRMatrix`` validation)."""
    return np.stack([RRMatrix(matrix).probabilities for matrix in stack])


def _prior(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).dirichlet(np.ones(n) * 2.0)


def _near_singular_stochastic(t: float) -> np.ndarray:
    """Same construction as ``tests/utils/test_linalg.py``: column-stochastic
    3x3 whose second column is a ``t``-blend away from the first."""
    base = np.array([0.5, 0.3, 0.2])
    other = np.array([0.2, 0.5, 0.3])
    matrix = np.column_stack([base, (1 - t) * base + t * other, [0.1, 0.1, 0.8]])
    return matrix / matrix.sum(axis=0)


#: Blend scan straddling the 1-norm condition-limit classification boundary.
BAND_BLENDS = np.geomspace(1e-13, 1e-10, 60)


def _band_stack(blends=BAND_BLENDS) -> np.ndarray:
    return np.stack([_near_singular_stochastic(float(t)) for t in blends])


def _mixed_singular_stack() -> np.ndarray:
    """Invertible 4x4 matrices with one exactly singular (uniform) row of the
    stack in the middle: the whole-stack inverse raises, so the kernel takes
    its slogdet-screened fallback."""
    stack = np.ascontiguousarray(0.6 * np.eye(4)[None] + 0.1 * np.ones((5, 4, 4)))
    stack[1] = np.ascontiguousarray(_stochastic_stack(3, 1, 4)[0])
    stack[2] = 0.25
    return stack


def _one_matrix_at_a_time(reference, stack, *args, **kwargs):
    """``reference`` run on each matrix as a stack of one, its output columns
    concatenated.  A matrix's results may not depend on its batch: one
    singular row sends the whole-stack inverse down the slogdet fallback."""
    rows = [
        reference(stack[index : index + 1], *args, **kwargs)
        for index in range(stack.shape[0])
    ]
    return tuple(np.concatenate(column) for column in zip(*rows))


def _assert_columns_equal(actual, expected) -> None:
    assert len(actual) == len(expected)
    for actual_column, expected_column in zip(actual, expected):
        assert actual_column.shape == expected_column.shape
        np.testing.assert_array_equal(actual_column, expected_column)


def _evaluate_both(stack, prior, n_records=10_000):
    kwargs = dict(condition_limit=DEFAULT_CONDITION_LIMIT)
    return (
        KERNELS.evaluate_stack(stack, prior, n_records, **kwargs),
        reference_evaluate_stack(stack, prior, n_records, **kwargs),
    )


def _invert_both(stack):
    kwargs = dict(condition_limit=DEFAULT_CONDITION_LIMIT)
    return (
        KERNELS.batched_safe_inverses(stack, **kwargs),
        reference_batched_safe_inverses(stack, **kwargs),
    )


class TestEvaluateStack:
    @LINEAGES
    @pytest.mark.parametrize("include_singular", [False, True])
    @given(seed=seeds, batch=st.integers(1, 8), n=st.integers(2, 6))
    @SETTINGS
    def test_matches_reference(self, kernels, include_singular, seed, batch, n):
        stack = _stochastic_stack(seed, batch, n, include_singular=include_singular)
        prior = _prior(seed + 1, n)
        kwargs = dict(condition_limit=DEFAULT_CONDITION_LIMIT)
        _assert_columns_equal(
            kernels.evaluate_stack(stack, prior, 10_000, **kwargs),
            _one_matrix_at_a_time(
                reference_evaluate_stack, stack, prior, 10_000, **kwargs
            ),
        )

    @given(
        blends=st.lists(st.floats(1e-13, 1e-10), min_size=1, max_size=12),
        seed=seeds,
    )
    @SETTINGS
    def test_matches_reference_in_the_near_singular_band(self, blends, seed):
        stack = np.concatenate([_band_stack(blends), _stochastic_stack(seed, 3, 3)])
        _assert_columns_equal(*_evaluate_both(stack, np.array([0.5, 0.3, 0.2])))

    @LINEAGES
    def test_empty_stack(self, kernels):
        stack = np.empty((0, 2, 2))
        prior = np.array([0.5, 0.5])
        kwargs = dict(condition_limit=DEFAULT_CONDITION_LIMIT)
        actual = kernels.evaluate_stack(stack, prior, 100, **kwargs)
        assert [column.shape for column in actual] == [(0,)] * 4
        assert actual[3].dtype == bool
        _assert_columns_equal(
            actual, reference_evaluate_stack(stack, prior, 100, **kwargs)
        )

    def test_near_singular_band_classification(self):
        # Inside the classification band the invertibility decision is the
        # whole ballgame: the kernel must agree with the reference on every
        # matrix of the scan, and the scored columns must match too.
        actual, expected = _evaluate_both(_band_stack(), np.array([0.5, 0.3, 0.2]))
        invertible = actual[3]
        assert not invertible.all() and invertible.any()
        _assert_columns_equal(actual, expected)

    def test_mixed_stack_with_one_singular_row(self):
        stack = _mixed_singular_stack()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(stack)
        actual, expected = _evaluate_both(stack, np.array([0.4, 0.3, 0.2, 0.1]))
        np.testing.assert_array_equal(actual[3], [True, True, False, True, True])
        assert np.isinf(actual[1][2]) and np.isfinite(actual[1][[0, 1, 3, 4]]).all()
        _assert_columns_equal(actual, expected)


class TestBatchedSafeInverses:
    @LINEAGES
    @given(seed=seeds, batch=st.integers(1, 8), n=st.integers(2, 6))
    @SETTINGS
    def test_matches_reference(self, kernels, seed, batch, n):
        stack = _stochastic_stack(seed, batch, n, include_singular=True)
        kwargs = dict(condition_limit=DEFAULT_CONDITION_LIMIT)
        _assert_columns_equal(
            kernels.batched_safe_inverses(stack, **kwargs),
            _one_matrix_at_a_time(reference_batched_safe_inverses, stack, **kwargs),
        )

    @given(seed=seeds, batch=st.integers(1, 8), n=st.integers(2, 6))
    @SETTINGS
    def test_matches_reference_without_singular_rows(self, seed, batch, n):
        # The whole-stack inverse succeeds here, so this is the fast path.
        _assert_columns_equal(*_invert_both(_stochastic_stack(seed, batch, n)))

    @LINEAGES
    def test_near_singular_band(self, kernels):
        stack = _band_stack()
        kwargs = dict(condition_limit=DEFAULT_CONDITION_LIMIT)
        actual = kernels.batched_safe_inverses(stack, **kwargs)
        assert not actual[1].all() and actual[1].any()
        _assert_columns_equal(
            actual,
            _one_matrix_at_a_time(reference_batched_safe_inverses, stack, **kwargs),
        )

    def test_mixed_stack_with_one_singular_row(self):
        actual, expected = _invert_both(_mixed_singular_stack())
        np.testing.assert_array_equal(actual[1], [True, True, False, True, True])
        np.testing.assert_array_equal(actual[0][2], np.zeros((4, 4)))
        _assert_columns_equal(actual, expected)

    @LINEAGES
    def test_empty_stack(self, kernels):
        inverses, invertible = kernels.batched_safe_inverses(
            np.empty((0, 3, 3)), condition_limit=DEFAULT_CONDITION_LIMIT
        )
        assert inverses.shape == (0, 3, 3)
        assert invertible.size == 0


def _singular_positions(batch: int, where: str) -> list[int]:
    return {
        "none": [],
        "first": [0],
        "middle": [batch // 2],
        "last": [batch - 1],
        "several": sorted({0, batch // 3, batch // 2, batch - 1}),
        "all": list(range(batch)),
    }[where]


class TestBlockedInverses:
    """The kernel inverts in blocks of ``INVERSE_BLOCK_ROWS`` rows, so a
    singular row sends only its own block down the screened path.  Masks and
    inverses must equal the unblocked computation: the oracle's screened
    inversion of the whole stack in one call."""

    @pytest.mark.parametrize("where", ["none", "first", "middle", "last", "several", "all"])
    @pytest.mark.parametrize(
        "batch", [1, INVERSE_BLOCK_ROWS - 1, INVERSE_BLOCK_ROWS, INVERSE_BLOCK_ROWS + 1, 300]
    )
    def test_matches_unblocked_inversion(self, batch, where):
        stack = _stochastic_stack(batch, batch, 4)
        singular = _singular_positions(batch, where)
        stack[singular] = 0.25
        actual, expected = _invert_both(stack)
        _assert_columns_equal(actual, expected)
        assert not actual[1][singular].any()
        np.testing.assert_array_equal(actual[0][singular], 0.0)
        healthy = np.setdiff1d(np.arange(batch), singular)
        assert actual[1][healthy].all()

    def test_healthy_blocks_skip_the_screened_path(self, monkeypatch):
        # One singular row in the second of three blocks: only that block is
        # screened by slogdet, and only its rows.
        stack = _stochastic_stack(7, 3 * INVERSE_BLOCK_ROWS, 3)
        stack[INVERSE_BLOCK_ROWS + 5] = 1.0 / 3
        screened_rows = []
        slogdet = np.linalg.slogdet

        def counting_slogdet(block):
            screened_rows.append(block.shape[0])
            return slogdet(block)

        monkeypatch.setattr(np.linalg, "slogdet", counting_slogdet)
        actual = KERNELS.batched_safe_inverses(
            stack, condition_limit=DEFAULT_CONDITION_LIMIT
        )
        monkeypatch.undo()
        assert screened_rows == [INVERSE_BLOCK_ROWS]
        _assert_columns_equal(actual, _invert_both(stack)[1])


#: Coordinate magnitudes spanning the objective scales the optimizer meets:
#: tiny utilities, unit-scale privacies and the 1e6 singular-matrix penalty.
MAGNITUDES = (1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e6)


class TestPairwiseDistances:
    @LINEAGES
    @given(
        seed=seeds,
        count=st.integers(0, 12),
        dimensions=st.sampled_from([1, 2, 3, 5]),
    )
    @SETTINGS
    def test_matches_reference(self, kernels, seed, count, dimensions):
        rng = np.random.default_rng(seed)
        scales = rng.choice(MAGNITUDES, size=(count, dimensions))
        points = rng.uniform(-5.0, 5.0, (count, dimensions)) * scales
        if count >= 2:
            points[1] = points[0]  # coincident rows: exact-zero distances
        if count >= 3:
            points[2, -1] = 1e6  # a row carrying the singular penalty
        np.testing.assert_array_equal(
            kernels.pairwise_distances(points), reference_pairwise_distances(points)
        )

    @pytest.mark.parametrize("dimensions", [1, 2, 3, 5])
    @pytest.mark.parametrize("count", [0, 1])
    def test_degenerate_point_counts(self, count, dimensions):
        points = np.full((count, dimensions), 0.5)
        actual = KERNELS.pairwise_distances(points)
        assert actual.shape == (count, count)
        np.testing.assert_array_equal(actual, reference_pairwise_distances(points))


class TestCrossoverColumns:
    @LINEAGES
    @given(seed=seeds, pairs=st.integers(1, 8), n=st.integers(2, 6))
    @SETTINGS
    def test_matches_reference(self, kernels, seed, pairs, n):
        first = _validated(_stochastic_stack(seed, pairs, n))
        second = _validated(_stochastic_stack(seed + 1, pairs, n))
        pair_seeds = [seed + 2 + pair for pair in range(pairs)]
        # The scalar operator draws its cut as integers(1, n); replay it.
        cuts = np.array(
            [np.random.default_rng(s).integers(1, n) for s in pair_seeds]
        )
        child_a, child_b = kernels.crossover_columns(first, second, cuts)
        for pair, pair_seed in enumerate(pair_seeds):
            expected_a, expected_b = column_crossover(
                RRMatrix(first[pair]), RRMatrix(second[pair]),
                np.random.default_rng(pair_seed),
            )
            np.testing.assert_array_equal(child_a[pair], expected_a.probabilities)
            np.testing.assert_array_equal(child_b[pair], expected_b.probabilities)


class TestMutateStack:
    @LINEAGES
    @given(
        seed=seeds,
        batch=st.integers(1, 8),
        n=st.integers(2, 6),
        scale=st.sampled_from([0.05, 0.3, 1.0]),
    )
    @SETTINGS
    def test_matches_reference(self, kernels, seed, batch, n, scale):
        stack = _stochastic_stack(seed, batch, n)
        matrix_seeds = [seed + 3 + index for index in range(batch)]
        # Replay the scalar operator's draws (column, element, magnitude,
        # direction) so both sides mutate the same cell by the same amount.
        draws = []
        for matrix_seed in matrix_seeds:
            generator = np.random.default_rng(matrix_seed)
            draws.append((
                int(generator.integers(0, n)),
                int(generator.integers(0, n)),
                float(generator.uniform(0.0, scale)),
                bool(generator.integers(0, 2)),
            ))
        column_indices, element_indices, magnitudes, add = (
            np.array(values) for values in zip(*draws)
        )
        # Saturate one target element (a one-hot column) so the flip rule of
        # the mutation is exercised, not just the easy path.
        one_hot = np.zeros(n)
        one_hot[element_indices[0]] = 1.0
        stack[0][:, column_indices[0]] = one_hot
        stack = _validated(stack)
        mutated = kernels.mutate_stack(
            stack, column_indices, element_indices, magnitudes, add
        )
        for index, matrix_seed in enumerate(matrix_seeds):
            expected = proportional_column_mutation(
                RRMatrix(stack[index]), np.random.default_rng(matrix_seed), scale=scale
            )
            np.testing.assert_allclose(
                mutated[index], expected.probabilities, rtol=0.0, atol=SCALAR_ATOL
            )


class TestRepairStack:
    @LINEAGES
    @given(
        seed=seeds,
        batch=st.integers(1, 6),
        n=st.integers(2, 5),
        delta=st.sampled_from([0.5, 0.8, 0.999]),
    )
    @SETTINGS
    def test_matches_reference(self, kernels, seed, batch, n, delta):
        # Diagonally-biased stacks: high posteriors, so the repair actually
        # iterates instead of exiting on the first bound check.
        noise = _stochastic_stack(seed, batch, n)
        stack = 0.7 * np.eye(n)[None, :, :] + 0.3 * noise
        stack = _validated(stack / stack.sum(axis=1, keepdims=True))
        prior = _prior(seed + 1, n)
        repaired = kernels.repair_stack(
            stack, prior, delta, max_passes=5, tolerance=1e-9
        )
        for index in range(batch):
            expected = enforce_privacy_bound(
                RRMatrix(stack[index]), prior, delta, max_passes=5, tolerance=1e-9
            )
            np.testing.assert_allclose(
                repaired[index], expected.probabilities, rtol=0.0, atol=SCALAR_ATOL
            )


def _repair_both(stack, prior, delta, max_passes):
    """Production and reference repair of the same stack, checked bit for
    bit (and the input left untouched)."""
    before = stack.tobytes()
    kwargs = dict(max_passes=max_passes, tolerance=1e-9)
    actual = KERNELS.repair_stack(stack, prior, delta, **kwargs)
    expected = reference_repair_stack(stack, prior, delta, **kwargs)
    assert stack.tobytes() == before
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()
    return actual


def _thin_prior(seed: int, n: int, floor: float) -> np.ndarray:
    """A random prior with one category at ``floor`` (0 or below the
    kernel's 1e-12 epsilon): a worst cell there freezes its matrix."""
    prior = _prior(seed, n)
    prior[seed % n] = floor
    return prior / prior.sum()


REPAIR_DELTAS = st.sampled_from([0.5, 0.8, 0.999])
REPAIR_PASSES = st.sampled_from([1, 50])


class TestRepairStackBitExact:
    """``repair_stack`` against the frozen posterior-tensor repair, bit for
    bit: Warner families with their extreme members, diagonally biased
    stacks, priors with vanishing categories, posterior ties, both pass
    limits and an empty stack."""

    @given(
        n=st.sampled_from([2, 3, 10, 64]),
        count=st.integers(0, 24),
        normal=st.booleans(),
        seed=seeds,
        delta=REPAIR_DELTAS,
        max_passes=REPAIR_PASSES,
    )
    @SETTINGS
    def test_warner_families(self, n, count, normal, seed, delta, max_passes):
        retention = np.concatenate([np.linspace(0.0, 1.0, count), [0.0, 1.0 / n, 1.0]])
        stack = warner_stack(n, retention)
        prior = normal_distribution(n).probabilities if normal else _prior(seed, n)
        _repair_both(stack, prior, delta, max_passes)

    @given(
        seed=seeds,
        batch=st.integers(1, 12),
        n=st.sampled_from([2, 3, 5, 10, 64]),
        delta=REPAIR_DELTAS,
        max_passes=REPAIR_PASSES,
        floor=st.sampled_from([None, 0.0, 1e-13]),
    )
    @SETTINGS
    def test_diagonally_biased_stacks(self, seed, batch, n, delta, max_passes, floor):
        noise = _stochastic_stack(seed, batch, n)
        stack = 0.7 * np.eye(n)[None, :, :] + 0.3 * noise
        stack = np.ascontiguousarray(stack / stack.sum(axis=1, keepdims=True))
        prior = _prior(seed + 1, n) if floor is None else _thin_prior(seed, n, floor)
        _repair_both(stack, prior, delta, max_passes)

    @pytest.mark.parametrize("max_passes", [1, 50])
    @pytest.mark.parametrize("n", [2, 4, 10])
    def test_posterior_ties(self, n, max_passes):
        """The identity under a uniform prior has posterior 1 on every
        diagonal cell: the worst cell is the flat argmax's first tie."""
        stack = np.stack([np.eye(n), np.eye(n), warner_stack(n, [0.9])[0]])
        _repair_both(stack, np.full(n, 1.0 / n), 0.5, max_passes)

    def test_worst_cell_is_the_first_posterior_not_the_larger_joint(self):
        """Report 0 gets two joint values one ulp apart whose posteriors
        round to the same double: the tensor's flat argmax takes the first
        of the tied posteriors, not the column of the larger joint."""
        a = 0.37275799012781363
        matrix = np.empty((3, 3))
        matrix[0] = [a, np.nextafter(a, 1.0), 0.09871574255511353]
        matrix[1] = (1.0 - matrix[0]) * [0.4838417388101407, 0.48806397636728277,
                                         0.44429479162828067]
        matrix[2] = 1.0 - matrix[0] - matrix[1]
        prior = np.full(3, 1.0 / 3.0)
        joint = matrix * prior
        posterior = joint[0] / joint[0].sum()
        assert joint[0, 0] < joint[0, 1] and posterior[0] == posterior[1]
        _repair_both(matrix[None], prior, 0.4, 1)
        _repair_both(matrix[None], prior, 0.4, 50)

    @pytest.mark.parametrize(
        "prior",
        [[1e-13, 0.3, 0.2, 0.2, 0.2, 0.1], [0.0, 0.3, 0.2, 0.2, 0.2, 0.1],
         [0.6, 0.1, 0.1, 0.1, 0.05, 0.05]],
        ids=["thin-category", "zero-category", "prior-above-delta"],
    )
    def test_rows_leaving_the_working_set(self, prior):
        """Every third matrix reports 0 only for an original 0, so its
        posterior there is 1: with a thin prior category that cell cannot be
        relaxed and the matrix freezes at its scored state while the rest
        keep repairing.  A prior above delta (Theorem 5) keeps every matrix
        in the working set until the pass limit."""
        prior = np.asarray(prior) / np.sum(prior)
        stack = warner_stack(prior.size, np.linspace(0.0, 1.0, 41))
        stack[::3, 0, :] = 0.0
        stack[::3, :, 0] = 0.0
        stack[::3, 0, 0] = 1.0
        stack = np.ascontiguousarray(stack / stack.sum(axis=1, keepdims=True))
        _repair_both(stack, prior, 0.5, 50)

    @pytest.mark.parametrize("n", [3, 64])
    def test_empty_stack(self, n):
        repaired = _repair_both(np.zeros((0, n, n)), np.full(n, 1.0 / n), 0.8, 50)
        assert repaired.shape == (0, n, n)


def _disguise_inputs(seed: int, n: int, count: int, *, adversarial: bool = True):
    """A stochastic matrix plus codes/uniforms, with the adversarial cases
    planted: a zero-probability-prefix column (its CDF repeats exact values)
    and uniforms that land exactly on CDF boundaries."""
    rng = np.random.default_rng(seed)
    probabilities = _stochastic_stack(seed, 1, n)[0]
    codes = rng.integers(0, n, size=count)
    uniforms = rng.random(count)
    if adversarial and count:
        # Column 0 starts with zero probability: cdf[0, 0] == 0.0 exactly.
        probabilities[:, 0] = 0.0
        probabilities[n - 1, 0] = 1.0
        codes[0] = 0
        cdf = np.cumsum(probabilities, axis=0)
        cdf[-1, :] = 1.0
        # Plant uniforms exactly on CDF boundaries (including the 0.0 and
        # clamped 1.0 edges) — the strict/non-strict comparison choice is
        # exactly what these inputs catch.
        planted = min(count, n)
        uniforms[:planted] = cdf[rng.integers(0, n, size=planted), codes[:planted]]
    return probabilities, codes, uniforms


class TestDisguiseCodes:
    @given(seed=seeds, n=st.integers(2, 12), count=st.integers(0, 400))
    @SETTINGS
    def test_matches_reference_and_frozen_broadcast(self, seed, n, count):
        probabilities, codes, uniforms = _disguise_inputs(seed, n, count)
        actual = KERNELS.disguise_codes(probabilities, codes, uniforms)
        # The frozen (n, N) broadcast is the kernel's executable
        # specification.
        np.testing.assert_array_equal(
            actual, broadcast_disguise_reference(probabilities, codes, uniforms)
        )
        assert actual.dtype == np.int64
        if count:
            assert actual.min() >= 0 and actual.max() < n

    @LINEAGES
    @pytest.mark.parametrize("n", [2, 100])
    def test_extreme_domain_sizes(self, kernels, n):
        probabilities, codes, uniforms = _disguise_inputs(7, n, 5_000)
        np.testing.assert_array_equal(
            kernels.disguise_codes(probabilities, codes, uniforms),
            broadcast_disguise_reference(probabilities, codes, uniforms),
        )

    @LINEAGES
    def test_identity_matrix_is_noop(self, kernels):
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 6, size=1_000)
        uniforms = rng.random(codes.size)
        disguised = kernels.disguise_codes(np.eye(6), codes, uniforms)
        np.testing.assert_array_equal(disguised, codes)
