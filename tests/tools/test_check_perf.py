"""Unit tests for the perf-regression gate (``tools/check_perf.py``)."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from tool_loader import REPO_ROOT, load_tool

check_perf = load_tool("check_perf")


def _write_baseline(tmp_path: Path, thresholds: dict) -> Path:
    path = tmp_path / "perf_baseline.json"
    path.write_text(json.dumps(thresholds), encoding="utf-8")
    return path


def _write_bench(tmp_path: Path, name: str, records: list[dict]) -> None:
    (tmp_path / f"BENCH_{name}.json").write_text(
        json.dumps({"records": records}), encoding="utf-8"
    )


def test_passes_when_every_op_meets_its_bar(tmp_path: Path) -> None:
    baseline = _write_baseline(tmp_path, {"batch": {"evaluate": 3.0}})
    _write_bench(tmp_path, "batch", [{"op": "evaluate", "speedup": 5.2}])
    assert check_perf.check(baseline, tmp_path) == 0


def test_fails_on_regression_below_threshold(tmp_path: Path) -> None:
    baseline = _write_baseline(tmp_path, {"batch": {"evaluate": 3.0}})
    _write_bench(tmp_path, "batch", [{"op": "evaluate", "speedup": 2.9}])
    assert check_perf.check(baseline, tmp_path) == 1


def test_exact_threshold_passes(tmp_path: Path) -> None:
    baseline = _write_baseline(tmp_path, {"batch": {"evaluate": 3.0}})
    _write_bench(tmp_path, "batch", [{"op": "evaluate", "speedup": 3.0}])
    assert check_perf.check(baseline, tmp_path) == 0


def test_missing_bench_file_fails(tmp_path: Path) -> None:
    # A benchmark that silently stopped emitting must not turn the gate green.
    baseline = _write_baseline(tmp_path, {"batch": {"evaluate": 3.0}})
    assert check_perf.check(baseline, tmp_path) == 1


def test_missing_op_record_fails(tmp_path: Path) -> None:
    baseline = _write_baseline(tmp_path, {"batch": {"evaluate": 3.0, "setup": 1.5}})
    _write_bench(tmp_path, "batch", [{"op": "evaluate", "speedup": 9.0}])
    assert check_perf.check(baseline, tmp_path) == 1


def test_record_without_speedup_field_fails(tmp_path: Path) -> None:
    baseline = _write_baseline(tmp_path, {"batch": {"evaluate": 3.0}})
    _write_bench(tmp_path, "batch", [{"op": "evaluate", "elapsed": 1.2}])
    assert check_perf.check(baseline, tmp_path) == 1


def test_only_filters_to_one_section(tmp_path: Path) -> None:
    # The other section's BENCH file does not exist — with --only it must
    # not be required.
    baseline = _write_baseline(
        tmp_path, {"batch": {"evaluate": 3.0}, "fidelity": {"full_evals": 5.0}}
    )
    _write_bench(tmp_path, "fidelity", [{"op": "full_evals", "speedup": 6.0}])
    assert check_perf.check(baseline, tmp_path, only=["fidelity"]) == 0
    assert check_perf.check(baseline, tmp_path) == 1


def test_only_with_unknown_section_fails(tmp_path: Path) -> None:
    baseline = _write_baseline(tmp_path, {"batch": {"evaluate": 3.0}})
    assert check_perf.check(baseline, tmp_path, only=["no_such_section"]) == 1


def test_underscore_sections_are_metadata(tmp_path: Path) -> None:
    baseline = _write_baseline(
        tmp_path, {"_comment": {"anything": 1.0}, "batch": {"evaluate": 3.0}}
    )
    _write_bench(tmp_path, "batch", [{"op": "evaluate", "speedup": 4.0}])
    assert check_perf.check(baseline, tmp_path) == 0


def test_load_records_maps_ops(tmp_path: Path) -> None:
    _write_bench(
        tmp_path,
        "batch",
        [{"op": "evaluate", "speedup": 4.0}, {"op": "setup", "speedup": 1.1}],
    )
    records = check_perf.load_records(tmp_path, "batch")
    assert set(records) == {"evaluate", "setup"}
    assert records["evaluate"]["speedup"] == 4.0
    assert check_perf.load_records(tmp_path, "absent") == {}


def _tracked_files() -> set[str]:
    """Files git tracks at the repository root; skips outside a checkout."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        listing = subprocess.run(
            ["git", "ls-files"], cwd=REPO_ROOT, capture_output=True, text=True, check=True
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    if Path(top).resolve() != REPO_ROOT:
        pytest.skip("not a git checkout of this repository")
    return set(listing.splitlines())


def test_every_gated_section_has_a_tracked_passing_snapshot() -> None:
    """The committed snapshots pass the gate: every non-``_`` section of the
    baseline has a tracked ``BENCH_<name>.json`` (a file the ``BENCH_*.json``
    ignore rule would otherwise swallow) that clears its own bars."""
    tracked = _tracked_files()
    baseline = REPO_ROOT / "benchmarks" / "perf_baseline.json"
    sections = sorted(
        name for name in json.loads(baseline.read_text(encoding="utf-8"))
        if not name.startswith("_")
    )
    assert [
        name for name in sections if f"BENCH_{name}.json" not in tracked
    ] == []
    assert {name: check_perf.check(baseline, REPO_ROOT, only=[name]) for name in sections} == {
        name: 0 for name in sections
    }
