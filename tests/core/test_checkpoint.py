"""Property tests for the checkpoint serialization layer.

Everything a checkpoint stores must restore *bit-for-bit*: raw float arrays
(including ``inf``, ``nan`` payloads and ``-0.0``), structure-of-arrays
populations, optimal-set state and the NumPy bit-generator state.  Hypothesis
drives the shapes and values; equality is asserted on the raw bytes, not on
approximate comparisons.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.cli import main
from repro.core.archive import OptimalSet
from repro.emoo.driver import population_from_document, population_to_document
from repro.core.problem import RRMatrixProblem
from repro.data.synthetic import normal_distribution
from repro.emoo.population import Population
from repro.exceptions import OptimizationError, ValidationError
from repro.utils.arrays import decode_array, encode_array


def json_round_trip(document):
    """Checkpoint documents travel through compact JSON on disk; every
    round-trip property must survive the text encoding too."""
    return json.loads(json.dumps(document))


class TestArrayCodec:
    @given(
        npst.arrays(
            dtype=np.float64,
            shape=npst.array_shapes(min_dims=1, max_dims=3, max_side=6),
            elements=st.floats(
                allow_nan=True, allow_infinity=True, width=64, allow_subnormal=True
            ),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_float_arrays_round_trip_bitwise(self, array):
        restored = decode_array(json_round_trip(encode_array(array)))
        assert restored.dtype == array.dtype
        assert restored.shape == array.shape
        assert restored.tobytes() == array.tobytes()  # bitwise, nan payloads included

    @given(
        npst.arrays(
            dtype=st.sampled_from([np.bool_, np.int64, np.intp]),
            shape=npst.array_shapes(min_dims=1, max_dims=2, max_side=8),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_integer_and_bool_arrays_round_trip(self, array):
        restored = decode_array(json_round_trip(encode_array(array)))
        assert restored.dtype == array.dtype
        np.testing.assert_array_equal(restored, array)

    def test_restored_arrays_are_writable(self):
        restored = decode_array(encode_array(np.arange(4.0)))
        restored[0] = -1.0  # must not raise (frombuffer views are read-only)

    def test_negative_zero_survives(self):
        array = np.array([-0.0, 0.0])
        restored = decode_array(json_round_trip(encode_array(array)))
        assert np.signbit(restored[0]) and not np.signbit(restored[1])

    def test_object_arrays_are_rejected(self):
        with pytest.raises(ValidationError, match="genome codec"):
            encode_array(np.array([object()], dtype=object))

    def test_truncated_payload_is_rejected(self):
        document = encode_array(np.arange(4.0))
        document["shape"] = [8]
        with pytest.raises(ValidationError, match="bytes"):
            decode_array(document)


def rr_populations():
    """Strategy: RR-style array-native populations with realistic columns."""

    @st.composite
    def build(draw):
        size = draw(st.integers(min_value=1, max_value=8))
        n = draw(st.integers(min_value=2, max_value=5))
        finite = st.floats(
            allow_nan=False, allow_infinity=False, width=64, min_value=-1e6, max_value=1e6
        )
        genomes = draw(
            npst.arrays(np.float64, (size, n, n), elements=finite)
        )
        objectives = draw(npst.arrays(np.float64, (size, 2), elements=finite))
        feasible = draw(npst.arrays(np.bool_, (size,)))
        utility = draw(
            npst.arrays(
                np.float64,
                (size,),
                elements=st.floats(allow_nan=False, width=64, min_value=0, max_value=1e9),
            )
        )
        population = Population(
            genomes=genomes,
            objectives=objectives,
            feasible=feasible,
            metadata={
                "privacy": draw(npst.arrays(np.float64, (size,), elements=finite)),
                "utility": utility,
                "invertible": draw(npst.arrays(np.bool_, (size,))),
            },
        )
        if draw(st.booleans()):
            population.set_fitness(
                draw(npst.arrays(np.float64, (size,), elements=finite)),
                draw(st.integers(min_value=0, max_value=100)),
            )
        return population

    return build()


class TestPopulationRoundTrip:
    @given(rr_populations())
    @settings(max_examples=40, deadline=None)
    def test_array_native_population_round_trips(self, population):
        document = json_round_trip(population_to_document(population))
        restored = population_from_document(document)
        assert restored.genomes.tobytes() == population.genomes.tobytes()
        assert restored.objectives.tobytes() == population.objectives.tobytes()
        np.testing.assert_array_equal(restored.feasible, population.feasible)
        assert set(restored.metadata) == set(population.metadata)
        for key in population.metadata:
            assert restored.metadata[key].tobytes() == population.metadata[key].tobytes()
            assert restored.metadata[key].dtype == population.metadata[key].dtype
        assert restored.fitness.tobytes() == population.fitness.tobytes()
        assert restored.fitness_generation == population.fitness_generation

    @pytest.mark.parametrize("layout", ["individuals", "columns", None])
    def test_unknown_layout_is_rejected(self, layout):
        """Only the ``arrays`` layout restores; the retired per-individual
        layout fails closed like any other unknown one."""
        document = population_to_document(
            Population(
                genomes=np.zeros((1, 2, 2)),
                objectives=np.zeros((1, 2)),
                feasible=np.ones(1, dtype=bool),
            )
        )
        document["layout"] = layout
        with pytest.raises(ValidationError, match="unknown population layout"):
            population_from_document(document)


class TestOptimalSetRoundTrip:
    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=2, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_optimal_set_round_trips(self, seed, n):
        """Fill Ω with real evaluated matrices, round-trip, compare slots."""
        problem = RRMatrixProblem(normal_distribution(n), 4000)
        rng = np.random.default_rng(seed)
        population = problem.initial_population(12, rng)
        optimal_set = OptimalSet(size=64)
        optimal_set.offer_population(population)
        document = json_round_trip(optimal_set.state_document())
        restored = OptimalSet(size=64)
        restored.restore_state(document)
        assert restored.n_updates == optimal_set.n_updates
        assert restored.n_occupied == optimal_set.n_occupied
        assert restored.slot_utilities().tobytes() == optimal_set.slot_utilities().tobytes()
        original, rebuilt = optimal_set.members(), restored.members()
        assert rebuilt.genomes.tobytes() == original.genomes.tobytes()
        assert rebuilt.objectives.tobytes() == original.objectives.tobytes()
        assert rebuilt.feasible.tobytes() == original.feasible.tobytes()
        assert set(rebuilt.metadata) == set(original.metadata)
        for key, column in original.metadata.items():
            assert rebuilt.metadata[key].dtype == column.dtype
            assert rebuilt.metadata[key].tobytes() == column.tobytes()

    def test_size_mismatch_is_rejected(self):
        document = OptimalSet(size=8).state_document()
        with pytest.raises(OptimizationError, match="slots"):
            OptimalSet(size=16).restore_state(document)


#: Checkpoints of one small run (n=4, P=10, |Ω|=100) written by the
#: list-based Ω: after generation 2 in the column layout, and after a
#: resume to generation 4, where new members got ``__rows__`` metadata.
LEGACY_CHECKPOINTS = Path(__file__).parent / "data"
#: sha256 of the result document both resume to at ``--generations 8`` (the
#: uninterrupted 8-generation result of the same run).
LEGACY_RESULT_SHA256 = "cfc92861f2964a8852d1fa9f3b15eeac45d0a4ea765fded82aca52e647666d83"


class TestLegacyCheckpoints:
    @pytest.mark.parametrize("name", ["checkpoint_columns.json", "checkpoint_rows.json"])
    def test_resumes_to_the_recorded_result(self, tmp_path, capsys, name):
        checkpoint = tmp_path / name  # resuming writes back to the checkpoint
        shutil.copyfile(LEGACY_CHECKPOINTS / name, checkpoint)
        output = tmp_path / "result.json"
        assert main(
            ["optimize", "--resume", str(checkpoint), "--generations", "8",
             "--output", str(output)]
        ) == 0
        assert hashlib.sha256(output.read_bytes()).hexdigest() == LEGACY_RESULT_SHA256
        omega = json.loads(checkpoint.read_text(encoding="utf-8"))["state"]["optimal_set"]
        assert all("column" in entry for entry in omega["metadata"].values())

    def test_both_layouts_resume_to_the_same_checkpoint(self, tmp_path, capsys):
        """The ``__rows__`` reader restores the same columns (dtypes
        included) as the column reader: both runs end in equal checkpoints."""
        documents = []
        for name in ("checkpoint_columns.json", "checkpoint_rows.json"):
            checkpoint = tmp_path / name
            shutil.copyfile(LEGACY_CHECKPOINTS / name, checkpoint)
            assert main(["optimize", "--resume", str(checkpoint), "--generations", "8"]) == 0
            document = json.loads(checkpoint.read_text(encoding="utf-8"))
            document.pop("elapsed_seconds")
            documents.append(document)
        assert documents[0] == documents[1]

    def test_unknown_metadata_layout_is_usage_error(self, tmp_path, capsys):
        document = json.loads(
            (LEGACY_CHECKPOINTS / "checkpoint_columns.json").read_text(encoding="utf-8")
        )
        metadata = document["state"]["optimal_set"]["metadata"]
        metadata["utility"] = {"values": decode_array(metadata["utility"]["column"]).tolist()}
        checkpoint = tmp_path / "ck.json"
        checkpoint.write_text(json.dumps(document), encoding="utf-8")
        assert main(["optimize", "--resume", str(checkpoint), "--generations", "4"]) == 2
        error = capsys.readouterr().err
        assert "metadata layout" in error
        assert "Traceback" not in error


class TestRngStateRoundTrip:
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_bit_generator_state_round_trips(self, seed, burn):
        from repro.emoo.driver import _restore_rng_state, _rng_state_document

        rng = np.random.default_rng(seed)
        rng.random(burn)  # advance to an arbitrary mid-stream state
        document = json_round_trip(_rng_state_document(rng))
        expected = rng.random(128)
        fresh = np.random.default_rng(0)
        _restore_rng_state(fresh, document)
        np.testing.assert_array_equal(fresh.random(128), expected)

    def test_restore_into_wrong_bit_generator(self):
        from repro.emoo.driver import _restore_rng_state

        rng = np.random.Generator(np.random.MT19937(0))
        document = {"bit_generator": "PCG64", "state": {"state": 1, "inc": 2}}
        with pytest.raises(ValidationError, match="RNG state"):
            _restore_rng_state(rng, document)
