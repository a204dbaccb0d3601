"""Cross-backend equivalence suite: every registered backend vs ``numpy``.

Each kernel of every backend in the registry is run on identical inputs next
to the ``numpy`` reference implementation and compared according to the
exactness the backend declares (:attr:`repro.backend.base.ArrayBackend.
exactness`):

* ``"bit-exact"`` kernels must match ``np.array_equal`` — bit for bit;
* ``"tolerance"`` kernels must match ``np.testing.assert_allclose`` with
  ``rtol=EQUIVALENCE_RTOL`` (= 1e-9) and ``atol=1e-12`` (a small absolute
  floor for outputs that are mathematically zero but reached through a
  different summation order);
* boolean outputs (invertibility masks) must always match exactly,
  regardless of the declared exactness — backends may not reclassify.

Inputs are generated from hypothesis-drawn seeds/shapes, including singular
and duplicated-column stack members, saturated mutation targets, and the
near-singular 1-norm classification band regime from
``tests/utils/test_linalg.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import registry
from repro.backend.base import EQUIVALENCE_RTOL, KERNELS
from repro.backend.numpy_backend import NumpyBackend
from repro.utils.linalg import DEFAULT_CONDITION_LIMIT

from oracles.rr import broadcast_disguise_reference

#: Absolute floor applied alongside ``EQUIVALENCE_RTOL`` for ``"tolerance"``
#: kernels (see the module docstring).
EQUIVALENCE_ATOL = 1e-12

#: A fresh reference instance — deliberately not the registered singleton, so
#: the comparison cannot be short-circuited by object identity.
REFERENCE = NumpyBackend()

BACKENDS = registry.backend_names()

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


def _band_stack() -> np.ndarray:
    return np.stack([_near_singular_stochastic(float(t)) for t in BAND_BLENDS])


def _assert_kernel_matches(backend, kernel: str, actual, expected) -> None:
    """Compare one kernel output against the reference according to the
    backend's declared exactness (masks are always exact)."""
    declared = backend.exactness[kernel]
    assert declared in ("bit-exact", "tolerance")
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    if expected.dtype == bool or declared == "bit-exact":
        np.testing.assert_array_equal(actual, expected)
    else:
        np.testing.assert_allclose(
            actual, expected, rtol=EQUIVALENCE_RTOL, atol=EQUIVALENCE_ATOL
        )


@pytest.mark.parametrize("name", BACKENDS)
class TestProtocolMetadata:
    def test_registered_under_its_own_name(self, name):
        assert registry.get_backend(name).name == name

    def test_declares_every_kernel(self, name):
        backend = registry.get_backend(name)
        assert set(backend.exactness) == set(KERNELS)
        assert all(
            value in ("bit-exact", "tolerance")
            for value in backend.exactness.values()
        )


def test_numba_backend_registered_or_skipped():
    """Registry self-test: numba is either usable or cleanly unavailable."""
    if "numba" not in registry.backend_names():
        assert "numba" in registry.known_backend_names()
        with pytest.raises(registry.BackendUnavailableError, match="pip install numba"):
            registry.get_backend("numba")
        pytest.skip("numba backend not available in this environment")
    assert registry.get_backend("numba").name == "numba"


@pytest.mark.parametrize("name", BACKENDS)
class TestEvaluateStack:
    @pytest.mark.parametrize("cheap", [False, True])
    @given(seed=seeds, batch=st.integers(1, 8), n=st.integers(2, 6))
    @SETTINGS
    def test_matches_reference(self, name, cheap, seed, batch, n):
        backend = registry.get_backend(name)
        stack = _stochastic_stack(seed, batch, n, include_singular=True)
        prior = _prior(seed + 1, n)
        kwargs = dict(
            condition_limit=DEFAULT_CONDITION_LIMIT, cheap_posterior_bound=cheap
        )
        privacy, utility, worst, invertible = backend.evaluate_stack(
            stack, prior, 10_000, **kwargs
        )
        expected = REFERENCE.evaluate_stack(stack, prior, 10_000, **kwargs)
        np.testing.assert_array_equal(invertible, expected[3])
        _assert_kernel_matches(backend, "evaluate_stack", privacy, expected[0])
        _assert_kernel_matches(backend, "evaluate_stack", utility, expected[1])
        _assert_kernel_matches(backend, "evaluate_stack", worst, expected[2])

    def test_empty_stack(self, name):
        backend = registry.get_backend(name)
        kwargs = dict(
            condition_limit=DEFAULT_CONDITION_LIMIT, cheap_posterior_bound=False
        )
        prior = np.array([0.5, 0.5])
        results = backend.evaluate_stack(np.empty((0, 2, 2)), prior, 100, **kwargs)
        expected = REFERENCE.evaluate_stack(np.empty((0, 2, 2)), prior, 100, **kwargs)
        for actual_column, expected_column in zip(results, expected):
            np.testing.assert_array_equal(actual_column, expected_column)

    def test_near_singular_band_classification(self, name):
        # Inside the classification band the invertibility decision is the
        # whole ballgame: every backend must agree with the reference on
        # every matrix of the scan, and the scored columns must match too.
        backend = registry.get_backend(name)
        stack = _band_stack()
        prior = np.array([0.5, 0.3, 0.2])
        kwargs = dict(
            condition_limit=DEFAULT_CONDITION_LIMIT, cheap_posterior_bound=True
        )
        privacy, utility, worst, invertible = backend.evaluate_stack(
            stack, prior, 10_000, **kwargs
        )
        expected = REFERENCE.evaluate_stack(stack, prior, 10_000, **kwargs)
        np.testing.assert_array_equal(invertible, expected[3])
        assert not invertible.all() and invertible.any()
        _assert_kernel_matches(backend, "evaluate_stack", privacy, expected[0])
        _assert_kernel_matches(backend, "evaluate_stack", utility, expected[1])
        _assert_kernel_matches(backend, "evaluate_stack", worst, expected[2])


@pytest.mark.parametrize("name", BACKENDS)
class TestBatchedSafeInverses:
    @given(seed=seeds, batch=st.integers(1, 8), n=st.integers(2, 6))
    @SETTINGS
    def test_matches_reference(self, name, seed, batch, n):
        backend = registry.get_backend(name)
        stack = _stochastic_stack(seed, batch, n, include_singular=True)
        inverses, invertible = backend.batched_safe_inverses(
            stack, condition_limit=DEFAULT_CONDITION_LIMIT
        )
        expected_inverses, expected_invertible = REFERENCE.batched_safe_inverses(
            stack, condition_limit=DEFAULT_CONDITION_LIMIT
        )
        np.testing.assert_array_equal(invertible, expected_invertible)
        _assert_kernel_matches(
            backend, "batched_safe_inverses", inverses, expected_inverses
        )

    def test_near_singular_band(self, name):
        backend = registry.get_backend(name)
        stack = _band_stack()
        inverses, invertible = backend.batched_safe_inverses(
            stack, condition_limit=DEFAULT_CONDITION_LIMIT
        )
        expected_inverses, expected_invertible = REFERENCE.batched_safe_inverses(
            stack, condition_limit=DEFAULT_CONDITION_LIMIT
        )
        np.testing.assert_array_equal(invertible, expected_invertible)
        assert not invertible.all() and invertible.any()
        _assert_kernel_matches(
            backend, "batched_safe_inverses", inverses, expected_inverses
        )

    def test_empty_stack(self, name):
        backend = registry.get_backend(name)
        inverses, invertible = backend.batched_safe_inverses(
            np.empty((0, 3, 3)), condition_limit=DEFAULT_CONDITION_LIMIT
        )
        assert inverses.shape == (0, 3, 3)
        assert invertible.size == 0


@pytest.mark.parametrize("name", BACKENDS)
class TestPairwiseDistances:
    @given(seed=seeds, count=st.integers(0, 12), dimensions=st.integers(1, 5))
    @SETTINGS
    def test_matches_reference(self, name, seed, count, dimensions):
        backend = registry.get_backend(name)
        points = np.random.default_rng(seed).uniform(-5.0, 5.0, (count, dimensions))
        if count >= 2:
            points[1] = points[0]  # coincident rows: exact-zero distances
        _assert_kernel_matches(
            backend,
            "pairwise_distances",
            backend.pairwise_distances(points),
            REFERENCE.pairwise_distances(points),
        )


@pytest.mark.parametrize("name", BACKENDS)
class TestCrossoverColumns:
    @given(seed=seeds, pairs=st.integers(1, 8), n=st.integers(2, 6))
    @SETTINGS
    def test_matches_reference(self, name, seed, pairs, n):
        backend = registry.get_backend(name)
        first = _stochastic_stack(seed, pairs, n)
        second = _stochastic_stack(seed + 1, pairs, n)
        cuts = np.random.default_rng(seed + 2).integers(1, n, size=pairs)
        child_a, child_b = backend.crossover_columns(first, second, cuts)
        expected_a, expected_b = REFERENCE.crossover_columns(first, second, cuts)
        _assert_kernel_matches(backend, "crossover_columns", child_a, expected_a)
        _assert_kernel_matches(backend, "crossover_columns", child_b, expected_b)


@pytest.mark.parametrize("name", BACKENDS)
class TestMutateStack:
    @given(seed=seeds, batch=st.integers(1, 8), n=st.integers(2, 6))
    @SETTINGS
    def test_matches_reference(self, name, seed, batch, n):
        backend = registry.get_backend(name)
        stack = _stochastic_stack(seed, batch, n)
        rng = np.random.default_rng(seed + 3)
        column_indices = rng.integers(0, n, size=batch)
        element_indices = rng.integers(0, n, size=batch)
        magnitudes = rng.uniform(0.0, 0.3, size=batch)
        add = rng.integers(0, 2, size=batch).astype(bool)
        # Saturate one target element (a one-hot column) so the flip rule of
        # the reference mutation is exercised, not just the easy path.
        one_hot = np.zeros(n)
        one_hot[element_indices[0]] = 1.0
        stack[0][:, column_indices[0]] = one_hot
        _assert_kernel_matches(
            backend,
            "mutate_stack",
            backend.mutate_stack(stack, column_indices, element_indices, magnitudes, add),
            REFERENCE.mutate_stack(stack, column_indices, element_indices, magnitudes, add),
        )


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


@pytest.mark.parametrize("name", BACKENDS)
class TestDisguiseCodes:
    @given(seed=seeds, n=st.integers(2, 12), count=st.integers(0, 400))
    @SETTINGS
    def test_matches_reference_and_frozen_broadcast(self, name, seed, n, count):
        backend = registry.get_backend(name)
        probabilities, codes, uniforms = _disguise_inputs(seed, n, count)
        actual = backend.disguise_codes(probabilities, codes, uniforms)
        _assert_kernel_matches(
            backend,
            "disguise_codes",
            actual,
            REFERENCE.disguise_codes(probabilities, codes, uniforms),
        )
        # The frozen (n, N) broadcast is the kernel's executable
        # specification: every backend must reproduce it at its declared
        # exactness ("bit-exact" for all current backends).
        _assert_kernel_matches(
            backend,
            "disguise_codes",
            actual,
            broadcast_disguise_reference(probabilities, codes, uniforms),
        )
        assert actual.dtype == np.int64
        if count:
            assert actual.min() >= 0 and actual.max() < n

    @pytest.mark.parametrize("n", [2, 100])
    def test_extreme_domain_sizes(self, name, n):
        backend = registry.get_backend(name)
        probabilities, codes, uniforms = _disguise_inputs(7, n, 5_000)
        _assert_kernel_matches(
            backend,
            "disguise_codes",
            backend.disguise_codes(probabilities, codes, uniforms),
            broadcast_disguise_reference(probabilities, codes, uniforms),
        )

    def test_identity_matrix_is_noop(self, name):
        backend = registry.get_backend(name)
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 6, size=1_000)
        uniforms = rng.random(codes.size)
        disguised = backend.disguise_codes(np.eye(6), codes, uniforms)
        np.testing.assert_array_equal(disguised, codes)


@pytest.mark.parametrize("name", BACKENDS)
class TestRepairStack:
    @given(
        seed=seeds,
        batch=st.integers(1, 6),
        n=st.integers(2, 5),
        delta=st.sampled_from([0.5, 0.8, 0.999]),
    )
    @SETTINGS
    def test_matches_reference(self, name, seed, batch, n, delta):
        backend = registry.get_backend(name)
        # Diagonally-biased stacks: high posteriors, so the repair actually
        # iterates instead of exiting on the first bound check.
        noise = _stochastic_stack(seed, batch, n)
        stack = 0.7 * np.eye(n)[None, :, :] + 0.3 * noise
        stack = stack / stack.sum(axis=1, keepdims=True)
        prior = _prior(seed + 1, n)
        kwargs = dict(max_passes=5, tolerance=1e-9)
        _assert_kernel_matches(
            backend,
            "repair_stack",
            backend.repair_stack(stack, prior, delta, **kwargs),
            REFERENCE.repair_stack(stack, prior, delta, **kwargs),
        )
