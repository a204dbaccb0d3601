"""Benchmark: the two file paths of the optimize -> disguise hand-off.

Two claims are measured and recorded into ``BENCH_io.json``:

* **Result write.**  ``repro.io.save_result`` (envelope through
  ``json.dumps``, probability stack rendered once per distinct float bit
  pattern) vs the ``json.dumps(result_to_dict(...), indent=2)`` reference,
  on the n = 64 front of ``optrr optimize`` at P = 100, G = 10, seed 1
  (207 points, ~29 MB).  The two files are asserted byte-identical first.
* **Code streams.**  Parse plus write of 10^6 codes at n = 64 through
  ``repro.rr.streaming.iter_code_chunks`` / ``CodeWriter`` vs the frozen
  per-token reader and per-code writer (``oracles.rr``).  Chunks and
  written text are asserted identical first.

Both are gated as ratios through ``tools/check_perf.py --only io``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_io.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_io.py -q -s
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

try:
    from benchmarks.conftest import record_bench
except ImportError:  # standalone execution: benchmarks/ itself is sys.path[0]
    from conftest import record_bench

    # The frozen reference implementations live in the repository root's
    # oracles package.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.cli import main as optrr
from repro.io import load_result, result_to_dict, save_result
from repro.rr.streaming import CodeWriter, iter_code_chunks

from oracles.rr import CodeWriterReference, iter_code_chunks_reference

#: The optimize-n64 front: n = 64, P = 100, G = 10, delta = 0.8.
FRONT_ARGV = ["optimize", "--distribution", "normal", "--categories", "64",
              "--records", "10000", "--delta", "0.8", "--population", "100",
              "--generations", "10", "--seed", "1"]
N_CATEGORIES = 64
N_CODES = 1_000_000
CHUNK_SIZE = 65_536


def _best_of(function, repeats: int) -> float:
    """Best wall-clock time of ``repeats`` runs (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def measure_save_result(directory: Path, repeats: int = 3) -> dict[str, dict]:
    front = directory / "front.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert optrr(FRONT_ARGV + ["--output", str(front)]) == 0
    result = load_result(front)
    written, reference_written = directory / "written.json", directory / "reference.json"

    def write():
        save_result(result, written)

    def reference():
        reference_written.write_text(
            json.dumps(result_to_dict(result), indent=2), encoding="utf-8"
        )

    write()
    reference()
    assert written.read_bytes() == reference_written.read_bytes(), (
        "save_result is not byte-identical to json.dumps(indent=2)"
    )
    seconds = _best_of(write, repeats)
    reference_seconds = _best_of(reference, repeats)
    stack = np.stack([point.matrix.probabilities for point in result.points])
    return {
        "save_result": {
            "params": {"n_categories": N_CATEGORIES, "n_points": len(result)},
            "seconds": seconds,
            "reference_seconds": reference_seconds,
            "speedup": reference_seconds / seconds,
            "bytes": written.stat().st_size,
            "distinct_floats": int(np.unique(stack.view(np.uint64)).size),
        }
    }


def measure_code_streams(repeats: int = 3) -> dict[str, dict]:
    # The optimize-n64 disguise input: a fixed Zipf-like prior over 64 codes.
    weights = 1.0 / np.arange(1, N_CATEGORIES + 1) ** 1.1
    codes = np.random.default_rng(1).choice(
        N_CATEGORIES, size=N_CODES, p=weights / weights.sum()
    )
    text = "\n".join(map(str, codes.tolist())) + "\n"

    def round_trip(reader, writer_type):
        output = io.StringIO()
        writer = writer_type(output, N_CATEGORIES)
        chunks = []
        for chunk in reader(io.StringIO(text), CHUNK_SIZE):
            writer.write(chunk)
            chunks.append(chunk.size)
        return chunks, output.getvalue()

    fast = round_trip(iter_code_chunks, CodeWriter)
    assert fast == round_trip(iter_code_chunks_reference, CodeWriterReference), (
        "array code streams differ from the per-token reference"
    )
    assert fast[1] == text
    seconds = _best_of(lambda: round_trip(iter_code_chunks, CodeWriter), repeats)
    reference_seconds = _best_of(
        lambda: round_trip(iter_code_chunks_reference, CodeWriterReference), repeats
    )
    return {
        "code_streams": {
            "params": {"n_categories": N_CATEGORIES, "n_records": N_CODES,
                       "chunk_size": CHUNK_SIZE},
            "seconds": seconds,
            "reference_seconds": reference_seconds,
            "speedup": reference_seconds / seconds,
            "records_per_sec": N_CODES / seconds,
        }
    }


def run_all() -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as directory:
        results = measure_save_result(Path(directory))
    results.update(measure_code_streams())
    for op, result in results.items():
        extra = {
            key: value
            for key, value in result.items()
            if key not in ("params", "seconds", "reference_seconds", "speedup")
        }
        record_bench("io", op, result["params"], result["seconds"],
                     reference_seconds=result["reference_seconds"], **extra)
        print(f"{op:34s} {result['seconds'] * 1e3:9.2f} ms  "
              f"(reference {result['reference_seconds'] * 1e3:9.2f} ms)  "
              f"speedup {result['speedup']:5.2f}x")
    return results


def test_io_speedups():
    """Both paths are byte-identical to their references (asserted inside)
    and faster than them."""
    results = run_all()
    assert all(result["speedup"] > 1.0 for result in results.values())


if __name__ == "__main__":
    run_all()
