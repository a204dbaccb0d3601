"""Streaming RR runtime: bounded-memory disguise and online reconstruction.

This module is the paper's deployment story (Section III) as a streaming
pipeline — the first slice of the ROADMAP's ``optrr serve``:

* :class:`StreamingDisguiser` disguises integer codes chunk by chunk.  Its
  single seeded generator draws each chunk's uniforms **sequentially**, and
  the disguise kernel is elementwise per record, so the concatenation of the
  chunked outputs is bit-identical to one-shot
  :meth:`~repro.rr.randomize.RandomizedResponse.randomize_codes` with the
  same seed — for every chunking, ragged tails included.
* :class:`CountAccumulator` keeps running per-category counts of the
  disguised stream in O(n) memory, with a ``state_document`` /
  ``restore_state`` codec riding the checkpoint array encoding so a killed
  stream restarts warm and bit-identically.
* :class:`OnlineEstimator` re-estimates the original distribution after each
  chunk from the accumulated counts (inversion or iterative method).  The
  iterative fixed point is warm-started from the previous chunk's estimate,
  which converges in a handful of iterations once the counts stabilise, and
  per-chunk convergence diagnostics are kept for reporting.

All state round-trips through plain-JSON documents, so the kill/resume
invariant of the optimizer (resume == uninterrupted, bit for bit) extends to
the streaming runtime.
"""

from __future__ import annotations

import codecs
from typing import Any, BinaryIO, Callable, Iterator, TextIO

import numpy as np

from repro.exceptions import DataError, EstimationError, ValidationError
from repro.rr.estimation import (
    DistributionEstimate,
    InversionEstimator,
    IterativeEstimator,
)
from repro.rr.matrix import RRMatrix
from repro.rr.randomize import RandomizedResponse, check_codes
from repro.types import SeedLike, as_rng
from repro.utils.arrays import decode_array, encode_array
from repro.utils.validation import check_positive_int

#: Schema tags of the streaming state documents (bumped on layout changes).
DISGUISER_STATE_SCHEMA = "streaming-disguiser-v1"
ACCUMULATOR_STATE_SCHEMA = "count-accumulator-v1"
ESTIMATOR_STATE_SCHEMA = "online-estimator-v1"


def iter_chunks(codes: np.ndarray, chunk_size: int) -> Iterator[np.ndarray]:
    """Yield successive ``chunk_size`` views of a 1-D code array.

    The final chunk is ragged when ``chunk_size`` does not divide the length.
    Views, not copies: chunking adds no memory over the input itself.
    """
    check_positive_int(chunk_size, "chunk_size")
    codes = np.asarray(codes)
    for start in range(0, codes.size, chunk_size):
        yield codes[start : start + chunk_size]


#: Characters of text :func:`iter_code_chunks` reads per batch (bytes,
#: through :class:`Utf8CodeStream`), before completing the batch's last line.
CODE_BATCH_CHARS = 1 << 16

_INT64 = np.iinfo(np.int64)


def iter_code_chunks(stream: TextIO, chunk_size: int) -> Iterator[np.ndarray]:
    """Parse whitespace-separated integer codes from a text stream into
    successive ``chunk_size`` int64 arrays (the last one ragged).

    Text is read in bounded batches completed to a whole line, so no token
    straddles a batch; the batches' tokens are re-chunked to exactly
    ``chunk_size`` and each chunk is converted by one array call.  Memory
    stays bounded by one chunk plus one batch of tokens.

    Codes are whatever ``int()`` accepts (``+5``, ``1_0``, non-ASCII
    digits).  The first token of a chunk that is not an integer, or failing
    that the first one outside int64, raises
    :class:`~repro.exceptions.DataError` naming it; the chunks before it
    have been yielded by then.
    """
    check_positive_int(chunk_size, "chunk_size")
    tokens: list[str] = []
    while batch := stream.read(CODE_BATCH_CHARS):
        if not batch.endswith("\n"):
            batch += stream.readline()
        tokens += batch.split()
        start = 0
        while len(tokens) - start >= chunk_size:
            yield _parse_codes(tokens[start : start + chunk_size])
            start += chunk_size
        del tokens[:start]
    if tokens:
        yield _parse_codes(tokens)


class Utf8CodeStream:
    """Strict UTF-8 text view of a binary code stream, for
    :func:`iter_code_chunks`.

    Bytes that are not UTF-8 raise :class:`~repro.exceptions.DataError`
    naming their byte offset in the stream, where a text-mode file would
    raise ``UnicodeDecodeError`` (or, with ``surrogateescape``, pass
    through as unparsable tokens).  Valid input decodes to the same text.
    """

    def __init__(self, binary: BinaryIO) -> None:
        self._binary = binary
        self._decoder = codecs.getincrementaldecoder("utf-8")()
        self._offset = 0  # bytes handed to the decoder so far

    def read(self, size: int = -1) -> str:
        """Decode the next ``size`` bytes."""
        return self._decode_next(lambda: self._binary.read(size))

    def readline(self) -> str:
        return self._decode_next(self._binary.readline)

    def __iter__(self) -> Iterator[str]:
        return iter(self.readline, "")

    def _decode_next(self, read: Callable[[], bytes]) -> str:
        # Bytes ending inside a character decode to "": read on, so that
        # only the end of the stream reads as "".
        while True:
            data = read()
            pending = self._decoder.getstate()[0]
            try:
                text = self._decoder.decode(data, final=not data)
            except UnicodeDecodeError as exc:
                offset = self._offset - len(pending) + exc.start
                raise DataError(
                    f"input is not UTF-8 text: byte {exc.object[exc.start]:#04x} at "
                    f"offset {offset} ({exc.reason})"
                ) from exc
            self._offset += len(data)
            if text or not data:
                return text


def _parse_codes(tokens: list[str]) -> np.ndarray:
    try:
        return np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        pass
    # Error path only: rescan token by token for the message.
    values = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError as exc:
            raise DataError(f"input code {token!r} is not an integer") from exc
    for token, value in zip(tokens, values):
        if not _INT64.min <= value <= _INT64.max:
            raise DataError(f"input code {token!r} is out of the 64-bit integer range")
    return np.array(values, dtype=np.int64)


class CodeWriter:
    """Write codes of a ``[0, n_categories)`` domain to a text stream, one
    per line — the text ``"\\n".join(map(str, codes)) + "\\n"`` — by one
    gather over precomputed per-code lines and one join per chunk."""

    def __init__(self, stream: TextIO, n_categories: int) -> None:
        self._stream = stream
        self._lines = np.array([f"{code}\n" for code in range(n_categories)], dtype=object)

    def write(self, codes: np.ndarray) -> None:
        self._stream.write("".join(self._lines[codes].tolist()))


def _plain_state(value: Any) -> Any:
    """Recursively convert numpy scalars in a bit-generator state dict to
    native Python types (exact: Python ints are arbitrary precision)."""
    if isinstance(value, dict):
        return {key: _plain_state(entry) for key, entry in value.items()}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):  # pragma: no cover - PCG64 state is ints
        return float(value)
    return value


def _check_schema(schema: Any, expected: str, owner: str) -> None:
    if schema != expected:
        raise ValidationError(
            f"cannot restore {owner} state: schema {schema!r} != {expected!r}"
        )


class StreamingDisguiser:
    """Chunked RR disguise, bit-identical to the one-shot mechanism.

    Parameters
    ----------
    matrix:
        The RR matrix to disguise with.
    seed:
        Seed of the single internal generator.  Feeding the stream in chunks
        of any size reproduces ``RandomizedResponse(matrix)
        .randomize_codes(all_codes, seed=seed)`` exactly, because successive
        ``rng.random(c_k)`` draws on one generator concatenate bit-identically
        to one ``rng.random(sum c_k)`` draw.
    """

    def __init__(self, matrix: RRMatrix, seed: SeedLike = None) -> None:
        self._mechanism = RandomizedResponse(matrix)
        self._rng = as_rng(seed)
        self._records_seen = 0

    @property
    def matrix(self) -> RRMatrix:
        return self._mechanism.matrix

    @property
    def n_categories(self) -> int:
        return self._mechanism.n_categories

    @property
    def records_seen(self) -> int:
        """Total records disguised so far."""
        return self._records_seen

    def disguise_chunk(self, codes: np.ndarray) -> np.ndarray:
        """Disguise the next chunk of the stream."""
        # Passing the live generator as the seed advances it sequentially —
        # the mechanism draws exactly `codes.size` uniforms per chunk.
        disguised = self._mechanism.randomize_codes(codes, seed=self._rng)
        self._records_seen += disguised.size
        return disguised

    def state_document(self) -> dict[str, Any]:
        """JSON-compatible snapshot for a warm restart."""
        return {
            "schema": DISGUISER_STATE_SCHEMA,
            "rng_state": _plain_state(self._rng.bit_generator.state),
            "records_seen": int(self._records_seen),
        }

    def restore_state(self, document: dict[str, Any]) -> None:
        """Restore a :meth:`state_document` snapshot (bit-exact resume)."""
        _check_schema(document.get("schema"), DISGUISER_STATE_SCHEMA, "StreamingDisguiser")
        try:
            self._rng.bit_generator.state = document["rng_state"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"cannot restore RNG state: {exc}") from exc
        self._records_seen = int(document["records_seen"])


class CountAccumulator:
    """Running per-category counts of a disguised code stream.

    O(n) memory regardless of stream length; the counts ride the checkpoint
    array codec so a killed stream resumes with bit-identical totals.
    """

    def __init__(self, n_categories: int) -> None:
        check_positive_int(n_categories, "n_categories")
        self._n_categories = int(n_categories)
        self._counts = np.zeros(self._n_categories, dtype=np.int64)
        self._n_records = 0

    @property
    def n_categories(self) -> int:
        return self._n_categories

    @property
    def n_records(self) -> int:
        """Total records accumulated so far."""
        return self._n_records

    @property
    def counts(self) -> np.ndarray:
        """Copy of the current per-category counts (int64)."""
        return self._counts.copy()

    def update(self, codes: np.ndarray) -> None:
        """Accumulate one chunk of disguised codes."""
        codes = check_codes(codes, self._n_categories)
        self._counts += np.bincount(codes, minlength=self._n_categories)
        self._n_records += codes.size

    def state_document(self) -> dict[str, Any]:
        """JSON-compatible snapshot (counts via the checkpoint array codec)."""
        return {
            "schema": ACCUMULATOR_STATE_SCHEMA,
            "counts": encode_array(self._counts),
            "n_records": int(self._n_records),
        }

    def restore_state(self, document: dict[str, Any]) -> None:
        """Restore a :meth:`state_document` snapshot (bit-exact resume)."""
        _check_schema(document.get("schema"), ACCUMULATOR_STATE_SCHEMA, "CountAccumulator")
        counts = decode_array(document["counts"])
        if counts.shape != (self._n_categories,):
            raise ValidationError(
                f"cannot restore CountAccumulator state: counts shape "
                f"{counts.shape} != ({self._n_categories},)"
            )
        self._counts = counts.astype(np.int64, copy=False)
        self._n_records = int(document["n_records"])


#: Estimation methods the online estimator understands.
_ONLINE_METHODS = ("inversion", "iterative")


class OnlineEstimator:
    """Incremental distribution reconstruction over accumulated counts.

    After each chunk the estimate is recomputed from the *running* counts —
    O(n) state, never the stream itself.  With ``method="iterative"`` the
    Bayes fixed point is warm-started from the previous chunk's estimate:
    once the empirical disguised distribution stabilises, each refresh needs
    only a few iterations instead of restarting from uniform.  Per-chunk
    convergence diagnostics (iterations used, converged flag) are kept in
    :attr:`diagnostics`.
    """

    def __init__(self, matrix: RRMatrix, method: str = "inversion", **options) -> None:
        if method not in _ONLINE_METHODS:
            raise EstimationError(
                f"unknown estimation method {method!r}; "
                f"accepted: {', '.join(map(repr, _ONLINE_METHODS))}"
            )
        self._matrix = matrix
        self._method = method
        if method == "inversion":
            self._estimator: InversionEstimator | IterativeEstimator = (
                InversionEstimator(**options)
            )
        else:
            self._estimator = IterativeEstimator(**options)
        self._accumulator = CountAccumulator(matrix.n_categories)
        self._warm_start: np.ndarray | None = None
        self._diagnostics: list[dict[str, Any]] = []

    @property
    def method(self) -> str:
        return self._method

    @property
    def matrix(self) -> RRMatrix:
        return self._matrix

    @property
    def n_records(self) -> int:
        """Total disguised records folded into the estimate so far."""
        return self._accumulator.n_records

    @property
    def counts(self) -> np.ndarray:
        """Copy of the accumulated per-category counts."""
        return self._accumulator.counts

    @property
    def diagnostics(self) -> tuple[dict[str, Any], ...]:
        """Per-chunk convergence diagnostics, oldest first."""
        return tuple(dict(entry) for entry in self._diagnostics)

    def update(self, disguised_codes: np.ndarray) -> DistributionEstimate:
        """Fold one chunk of disguised codes in and return the new estimate."""
        self._accumulator.update(disguised_codes)
        estimate = self._estimate()
        self._diagnostics.append(
            {
                "chunk_index": len(self._diagnostics),
                "chunk_records": int(np.asarray(disguised_codes).size),
                "total_records": self._accumulator.n_records,
                "n_iterations": estimate.n_iterations,
                "converged": bool(estimate.converged),
            }
        )
        return estimate

    def current_estimate(self) -> DistributionEstimate:
        """Re-estimate from the accumulated counts without new data."""
        if self._accumulator.n_records == 0:
            raise EstimationError("no records accumulated yet")
        return self._estimate()

    def _estimate(self) -> DistributionEstimate:
        counts = self._accumulator.counts.astype(np.float64)
        if isinstance(self._estimator, IterativeEstimator):
            estimate = self._estimator.estimate(
                counts, self._matrix, initial=self._warm_start
            )
            # Warm-start the next refresh from this fixed point.
            self._warm_start = estimate.probabilities.copy()
        else:
            estimate = self._estimator.estimate(counts, self._matrix)
        return estimate

    def state_document(self) -> dict[str, Any]:
        """JSON-compatible snapshot (accumulator + warm start + diagnostics)."""
        return {
            "schema": ESTIMATOR_STATE_SCHEMA,
            "method": self._method,
            "accumulator": self._accumulator.state_document(),
            "warm_start": (
                None if self._warm_start is None else encode_array(self._warm_start)
            ),
            "diagnostics": [dict(entry) for entry in self._diagnostics],
        }

    def restore_state(self, document: dict[str, Any]) -> None:
        """Restore a :meth:`state_document` snapshot (bit-exact resume)."""
        _check_schema(document.get("schema"), ESTIMATOR_STATE_SCHEMA, "OnlineEstimator")
        method = document["method"]
        if method != self._method:
            raise ValidationError(
                f"cannot restore OnlineEstimator state: method {method!r} "
                f"!= {self._method!r}"
            )
        self._accumulator.restore_state(document["accumulator"])
        warm_start = document["warm_start"]
        self._warm_start = None if warm_start is None else decode_array(warm_start)
        self._diagnostics = [dict(entry) for entry in document["diagnostics"]]
