"""Tests for repro.rr.streaming — the streaming RR runtime.

The load-bearing invariants:

* chunked disguise output is **bit-identical** to one-shot
  ``randomize_codes`` for every chunk size, ragged tails included;
* the searchsorted disguise path equals the frozen broadcast reference
  (``oracles.rr``) on whatever the mechanism actually draws;
* accumulator/disguiser/estimator state survives a kill/restore round-trip
  through plain JSON with bit-identical continuations;
* warm-started online estimates converge to the batch estimate.
"""

from __future__ import annotations

import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import DataError, EstimationError, ValidationError
from repro.rr.estimation import IterativeEstimator, estimate_distribution
from repro.rr.matrix import RRMatrix, random_rr_matrix
from repro.rr.randomize import RandomizedResponse
from repro.rr.schemes import uniform_perturbation_matrix, warner_matrix
from repro.rr import streaming
from repro.rr.streaming import (
    CodeWriter,
    CountAccumulator,
    OnlineEstimator,
    StreamingDisguiser,
    Utf8CodeStream,
    iter_chunks,
    iter_code_chunks,
)

from oracles.rr import (
    CodeWriterReference,
    broadcast_disguise_reference,
    iter_code_chunks_reference,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestIterChunks:
    def test_covers_input_with_ragged_tail(self):
        codes = np.arange(10)
        chunks = list(iter_chunks(codes, 4))
        assert [chunk.size for chunk in chunks] == [4, 4, 2]
        np.testing.assert_array_equal(np.concatenate(chunks), codes)

    def test_chunks_are_views(self):
        codes = np.arange(10)
        chunk = next(iter_chunks(codes, 4))
        assert chunk.base is codes

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ValidationError):
            list(iter_chunks(np.arange(3), 0))


#: Tokens of the code-stream equivalence suite: what ``int()`` accepts
#: (signs, underscores, non-ASCII digits, int64 extremes), what it rejects,
#: and integers outside int64.
VALID_TOKENS = ("0", "3", "17", "+5", "-2", "1_0", "\u0663", "007",
                "9223372036854775807", "-9223372036854775808")
INVALID_TOKENS = ("1.0", "x", "2**63", "0x1", "_1")
OVERFLOW_TOKENS = ("9223372036854775808", "-9223372036854775809", "99999999999999999999")
SEPARATORS = (" ", "  ", "\t", "\n", "\r\n", "\n\n", " \n\t ", "\x0b")


@st.composite
def code_streams(draw):
    """Token lists and the text they are spread over; most are all-valid."""
    pool = st.sampled_from(VALID_TOKENS)
    if draw(st.integers(0, 3)) == 0:
        pool = st.sampled_from(VALID_TOKENS + INVALID_TOKENS + OVERFLOW_TOKENS)
    tokens = draw(st.lists(pool, max_size=40))
    separators = draw(
        st.lists(st.sampled_from(SEPARATORS), min_size=len(tokens), max_size=len(tokens))
    )
    text = draw(st.sampled_from(("", "\n", " ")))
    text += "".join(token + separator for token, separator in zip(tokens, separators))
    if tokens and draw(st.booleans()):
        text = text.rstrip()  # no final newline
    return tokens, text


def _read_outcome(reader, text: str, chunk_size: int):
    """``(chunks, error)`` of reading ``text``; ``error`` is the DataError
    message, the OverflowError type, or None."""
    chunks = []
    try:
        for chunk in reader(io.StringIO(text), chunk_size):
            assert chunk.dtype == np.int64
            chunks.append(chunk.tolist())
    except DataError as exc:
        return chunks, str(exc)
    except OverflowError:
        return chunks, OverflowError
    return chunks, None


class TestCodeStreams:
    """The array code-stream reader/writer against the frozen per-token
    reader and per-code writer (``oracles.rr``)."""

    @settings(max_examples=300, deadline=None)
    @given(stream=code_streams(), data=st.data())
    def test_reader_matches_per_token_reference(self, stream, data):
        tokens, text = stream
        chunk_size = data.draw(st.integers(1, len(tokens) + 2))
        batch_chars = data.draw(st.sampled_from((1, 2, 5, streaming.CODE_BATCH_CHARS)))
        with mock.patch.object(streaming, "CODE_BATCH_CHARS", batch_chars):
            chunks, error = _read_outcome(iter_code_chunks, text, chunk_size)
        expected_chunks, expected_error = _read_outcome(
            iter_code_chunks_reference, text, chunk_size
        )
        assert chunks == expected_chunks
        if expected_error is OverflowError:
            # The reference's defect: it accepts the token and dies converting
            # its chunk.  The array reader names the first such token instead.
            first = next(token for token in tokens if token in OVERFLOW_TOKENS)
            assert error == f"input code {first!r} is out of the 64-bit integer range"
        else:
            assert error == expected_error

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 120),
        count=st.integers(1, 500),
        chunk_size=st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_writer_matches_per_code_reference(self, n, count, chunk_size, seed):
        codes = np.random.default_rng(seed).integers(0, n, size=count)
        streams = io.StringIO(), io.StringIO()
        writers = CodeWriter(streams[0], n), CodeWriterReference(streams[1], n)
        for chunk in iter_chunks(codes, chunk_size):
            for writer in writers:
                writer.write(chunk)
        assert streams[0].getvalue() == streams[1].getvalue()

    @settings(max_examples=200, deadline=None)
    @given(stream=code_streams(), data=st.data())
    def test_utf8_byte_stream_reads_like_text(self, stream, data):
        """Valid UTF-8 bytes through :class:`Utf8CodeStream` give the chunks
        and errors of the decoded text, however the batches split
        multi-byte characters."""
        tokens, text = stream
        chunk_size = data.draw(st.integers(1, len(tokens) + 2))
        batch_chars = data.draw(st.sampled_from((1, 2, 5, streaming.CODE_BATCH_CHARS)))

        def from_bytes(text_stream, size):
            binary = io.BytesIO(text_stream.getvalue().encode("utf-8"))
            return iter_code_chunks(Utf8CodeStream(binary), size)

        with mock.patch.object(streaming, "CODE_BATCH_CHARS", batch_chars):
            assert _read_outcome(from_bytes, text, chunk_size) == _read_outcome(
                iter_code_chunks, text, chunk_size
            )

    @pytest.mark.parametrize(
        "data, offset",
        [(b"\xff1 2", 0), (b"1 2\n3 \xe2\x82", 6), (b"1 \xe2\x82\xff 2", 2), (b"1" * 70_000 + b"\x80", 70_000)],
    )
    def test_invalid_utf8_names_its_byte_offset(self, data, offset):
        with pytest.raises(DataError, match=f"byte 0x[0-9a-f]{{2}} at offset {offset} "):
            list(iter_code_chunks(Utf8CodeStream(io.BytesIO(data)), 4))
        # Line iteration (the per-token reference reader) fails alike.
        with pytest.raises(DataError, match=f"byte 0x[0-9a-f]{{2}} at offset {offset} "):
            list(Utf8CodeStream(io.BytesIO(data)))

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ValidationError):
            list(iter_code_chunks(io.StringIO("1 2"), 0))

    def test_line_longer_than_a_batch_is_read_whole(self):
        text = " ".join(["12"] * 50_000)  # one line, ~150k characters
        chunks = list(iter_code_chunks(io.StringIO(text), 30_000))
        assert [chunk.size for chunk in chunks] == [30_000, 20_000]


class TestStreamingDisguiser:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 10),
        count=st.integers(1, 500),
        chunk_size=st.integers(1, 600),
    )
    @SETTINGS
    def test_chunked_equals_one_shot_bit_identical(self, seed, n, count, chunk_size):
        matrix = random_rr_matrix(n, seed=seed % 1_000)
        codes = np.random.default_rng(seed).integers(0, n, size=count)
        one_shot = RandomizedResponse(matrix).randomize_codes(codes, seed=seed)
        disguiser = StreamingDisguiser(matrix, seed=seed)
        streamed = np.concatenate(
            [disguiser.disguise_chunk(chunk) for chunk in iter_chunks(codes, chunk_size)]
        )
        np.testing.assert_array_equal(streamed, one_shot)
        assert disguiser.records_seen == count

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10))
    @SETTINGS
    def test_one_shot_equals_frozen_broadcast_reference(self, seed, n):
        # The mechanism's searchsorted path must equal the frozen (n, N)
        # broadcast on the exact uniforms the same seed draws.
        matrix = random_rr_matrix(n, seed=seed % 1_000)
        codes = np.random.default_rng(seed).integers(0, n, size=257)
        disguised = RandomizedResponse(matrix).randomize_codes(codes, seed=seed)
        uniforms = np.random.default_rng(seed).random(codes.size)
        expected = broadcast_disguise_reference(matrix.probabilities, codes, uniforms)
        np.testing.assert_array_equal(disguised, expected)

    def test_state_round_trip_is_bit_identical(self):
        matrix = warner_matrix(6, 0.7)
        codes = np.random.default_rng(3).integers(0, 6, size=4_000)
        chunks = list(iter_chunks(codes, 512))
        uninterrupted = StreamingDisguiser(matrix, seed=17)
        expected = [uninterrupted.disguise_chunk(chunk) for chunk in chunks]
        live = StreamingDisguiser(matrix, seed=17)
        for chunk in chunks[:3]:
            live.disguise_chunk(chunk)
        document = json.loads(json.dumps(live.state_document()))
        restored = StreamingDisguiser(matrix, seed=0)  # wrong seed on purpose
        restored.restore_state(document)
        assert restored.records_seen == live.records_seen
        for index, chunk in enumerate(chunks[3:], start=3):
            np.testing.assert_array_equal(
                restored.disguise_chunk(chunk), expected[index]
            )

    def test_restore_rejects_wrong_schema(self):
        disguiser = StreamingDisguiser(warner_matrix(3, 0.5), seed=0)
        with pytest.raises(ValidationError, match="schema"):
            disguiser.restore_state({"schema": "bogus-v9"})

    def test_rejects_out_of_domain_chunk(self):
        disguiser = StreamingDisguiser(RRMatrix.identity(3), seed=0)
        with pytest.raises(DataError):
            disguiser.disguise_chunk(np.array([0, 7]))


class TestCountAccumulator:
    def test_counts_match_bincount(self):
        accumulator = CountAccumulator(5)
        codes = np.random.default_rng(0).integers(0, 5, size=1_000)
        for chunk in iter_chunks(codes, 123):
            accumulator.update(chunk)
        np.testing.assert_array_equal(
            accumulator.counts, np.bincount(codes, minlength=5)
        )
        assert accumulator.n_records == 1_000

    def test_counts_property_is_a_copy(self):
        accumulator = CountAccumulator(3)
        accumulator.update(np.array([0, 1, 2]))
        snapshot = accumulator.counts
        snapshot[0] = 99
        assert accumulator.counts[0] == 1

    def test_state_survives_json_round_trip(self):
        accumulator = CountAccumulator(4)
        accumulator.update(np.array([0, 1, 1, 3]))
        document = json.loads(json.dumps(accumulator.state_document()))
        restored = CountAccumulator(4)
        restored.restore_state(document)
        np.testing.assert_array_equal(restored.counts, accumulator.counts)
        assert restored.n_records == accumulator.n_records

    def test_restore_rejects_wrong_length(self):
        accumulator = CountAccumulator(4)
        accumulator.update(np.array([0, 1]))
        document = accumulator.state_document()
        with pytest.raises(ValidationError, match="shape"):
            CountAccumulator(5).restore_state(document)

    def test_rejects_out_of_domain_codes(self):
        with pytest.raises(DataError):
            CountAccumulator(3).update(np.array([-1]))


class TestOnlineEstimator:
    def test_rejects_unknown_method(self):
        with pytest.raises(EstimationError, match="unknown estimation method"):
            OnlineEstimator(warner_matrix(3, 0.6), method="bogus")

    def test_current_estimate_requires_data(self):
        with pytest.raises(EstimationError, match="no records"):
            OnlineEstimator(warner_matrix(3, 0.6)).current_estimate()

    def test_inversion_matches_batch_exactly(self):
        # The inversion estimate is a pure function of the accumulated
        # counts, so the final online estimate equals the batch estimate bit
        # for bit.
        matrix = warner_matrix(5, 0.7)
        disguised = RandomizedResponse(matrix).randomize_codes(
            np.random.default_rng(1).integers(0, 5, size=20_000), seed=2
        )
        online = OnlineEstimator(matrix, method="inversion")
        for chunk in iter_chunks(disguised, 1_777):
            estimate = online.update(chunk)
        batch = estimate_distribution(disguised, matrix, method="inversion")
        np.testing.assert_array_equal(estimate.probabilities, batch.probabilities)
        np.testing.assert_array_equal(
            estimate.raw_probabilities, batch.raw_probabilities
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        chunk_size=st.integers(500, 4_000),
    )
    @SETTINGS
    def test_warm_started_iterative_converges_to_batch(self, seed, n, chunk_size):
        matrix = uniform_perturbation_matrix(n, 0.5)
        codes = np.random.default_rng(seed).integers(0, n, size=12_000)
        disguised = RandomizedResponse(matrix).randomize_codes(codes, seed=seed)
        online = OnlineEstimator(matrix, method="iterative")
        for chunk in iter_chunks(disguised, chunk_size):
            estimate = online.update(chunk)
        batch = estimate_distribution(disguised, matrix, method="iterative")
        assert estimate.converged and batch.converged
        # Both runs reach the same fixed point of the full-count update map,
        # each stopping within the 1e-9 L1 tolerance of it.
        np.testing.assert_allclose(
            estimate.probabilities, batch.probabilities, atol=1e-6
        )

    def test_warm_start_saves_iterations(self):
        matrix = uniform_perturbation_matrix(8, 0.4)
        disguised = RandomizedResponse(matrix).randomize_codes(
            np.random.default_rng(5).integers(0, 8, size=20_000), seed=6
        )
        warm = OnlineEstimator(matrix, method="iterative")
        for chunk in iter_chunks(disguised, 2_000):
            warm.update(chunk)
        diagnostics = warm.diagnostics
        assert [entry["chunk_index"] for entry in diagnostics] == list(range(10))
        assert all(entry["converged"] for entry in diagnostics)
        # Every warm-started refresh needs fewer iterations than the cold
        # first chunk.
        cold_iterations = diagnostics[0]["n_iterations"]
        assert all(
            entry["n_iterations"] < cold_iterations for entry in diagnostics[1:]
        )

    def test_kill_restore_round_trip_bit_identical_estimates(self):
        matrix = uniform_perturbation_matrix(6, 0.5)
        codes = np.random.default_rng(9).integers(0, 6, size=9_000)
        chunks = list(iter_chunks(codes, 1_000))

        def run(prefix_restore_at: int | None):
            disguiser = StreamingDisguiser(matrix, seed=21)
            online = OnlineEstimator(matrix, method="iterative")
            estimate = None
            for index, chunk in enumerate(chunks):
                if index == prefix_restore_at:
                    # Simulate a kill: serialize to JSON text, rebuild both
                    # objects from scratch, restore.
                    state = json.loads(
                        json.dumps(
                            {
                                "disguiser": disguiser.state_document(),
                                "estimator": online.state_document(),
                            }
                        )
                    )
                    disguiser = StreamingDisguiser(matrix, seed=0)
                    disguiser.restore_state(state["disguiser"])
                    online = OnlineEstimator(matrix, method="iterative")
                    online.restore_state(state["estimator"])
                estimate = online.update(disguiser.disguise_chunk(chunk))
            return estimate

        uninterrupted = run(None)
        resumed = run(5)
        np.testing.assert_array_equal(
            resumed.probabilities, uninterrupted.probabilities
        )
        np.testing.assert_array_equal(
            resumed.raw_probabilities, uninterrupted.raw_probabilities
        )
        assert resumed.n_iterations == uninterrupted.n_iterations

    def test_restore_rejects_method_mismatch(self):
        matrix = warner_matrix(3, 0.6)
        online = OnlineEstimator(matrix, method="inversion")
        online.update(np.array([0, 1, 2]))
        document = online.state_document()
        with pytest.raises(ValidationError, match="method"):
            OnlineEstimator(matrix, method="iterative").restore_state(document)

    def test_estimator_options_are_forwarded(self):
        matrix = uniform_perturbation_matrix(4, 0.5)
        online = OnlineEstimator(matrix, method="iterative", max_iterations=3)
        estimate = online.update(np.array([0, 1, 2, 3] * 50))
        assert estimate.n_iterations <= 3


class TestIterativeEstimatorWorkspaces:
    def test_shared_final_copy_is_detached_from_workspaces(self):
        # The estimate must not alias estimator-internal buffers: two calls
        # return independent arrays.
        matrix = uniform_perturbation_matrix(4, 0.5)
        estimator = IterativeEstimator()
        counts = np.array([40.0, 30.0, 20.0, 10.0])
        first = estimator.estimate(counts, matrix)
        second = estimator.estimate(counts + 1.0, matrix)
        assert first.probabilities is not second.probabilities
        assert not np.array_equal(first.probabilities, second.probabilities)

    def test_impossible_report_rows_still_zeroed(self):
        # A report row with zero probability everywhere must contribute
        # exactly zero weight (the np.where semantics the workspace version
        # must preserve).
        probabilities = np.array(
            [
                [0.0, 0.0, 0.0],
                [0.6, 0.7, 0.2],
                [0.4, 0.3, 0.8],
            ]
        )
        matrix = RRMatrix(probabilities)
        estimate = IterativeEstimator().estimate(
            np.array([0.0, 60.0, 40.0]), matrix
        )
        assert estimate.converged
        assert estimate.probabilities.sum() == pytest.approx(1.0)
