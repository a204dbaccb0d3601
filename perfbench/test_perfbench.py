"""Tests of the benchmark itself: its metric names, output checks and trace
analysis.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- names -------------------------------------------------------------------

def test_benchmark_json_has_exactly_the_expected_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_names_and_units_follow_the_grammar():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [item["name"] for item in SPEC["workloads"] + metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(metric["unit"]) for metric in metrics)
    assert all(metric["better"] in ("higher", "lower") for metric in metrics)
    for name, (unit, better, _) in workloads.WORKLOAD_METRICS.items():
        assert NAME.match(name) and UNIT.match(unit) and better in ("higher", "lower")


def test_workloads_match_benchmark_json():
    assert {item["name"]: item["why"] for item in SPEC["workloads"]} == {
        name: workload.why for name, workload in workloads.WORKLOADS.items()
    }
    assert all(len(workload.why) <= 200 and "\n" not in workload.why
               for workload in workloads.WORKLOADS.values())


def test_end_to_end_bounds_and_setup_metric():
    by_name = {metric["name"]: metric for metric in SPEC["end_to_end"]}
    assert all(set(metric) == {"name", "unit", "better", "bound"}
               for metric in SPEC["end_to_end"])
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
    assert by_name["setup_s"]["unit"] == "s" and by_name["setup_s"]["better"] == "lower"
    assert by_name["setup_s"]["bound"] == max(metric["bound"] for metric in SPEC["end_to_end"])


def test_per_layer_metrics_match_the_trace_table():
    assert [(metric["name"], metric["unit"], metric["better"]) for metric in SPEC["per_layer"]] \
        == list(tracing.PER_LAYER_METRICS)


def test_result_metrics_print_every_benchmark_metric():
    series = {metric["name"]: [1.0, 2.0, 3.0] for metric in SPEC["end_to_end"]}
    untraced = run.result_metrics(SPEC, series, {}, trace=0)
    assert list(untraced) == [metric["name"] for metric in SPEC["end_to_end"]]
    assert untraced["wall_s"] == {"value": 2.0, "unit": "s"}
    layer = {name: 0.5 for name, _, _ in tracing.PER_LAYER_METRICS}
    traced = run.result_metrics(SPEC, series, layer, trace=1)
    assert list(traced) == [metric["name"] for metric in SPEC["per_layer"]]


def test_layer_metrics_cover_every_per_layer_name():
    computed = tracing.layer_metrics([], import_s=0.1)
    assert set(computed) | {"trace.overhead_s"} == {name for name, _, _ in
                                                    tracing.PER_LAYER_METRICS}


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "optimize-n64", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


# -- output checks -----------------------------------------------------------

PRIOR = np.array([0.5, 0.3, 0.2])


def _warner(p: float) -> list[list[float]]:
    off = (1.0 - p) / 2.0
    return [[p if row == column else off for column in range(3)] for row in range(3)]


def _front_document(matrices, privacy, utility) -> dict:
    points = []
    for matrix, p, u in zip(matrices, privacy, utility):
        array = np.asarray(matrix)
        points.append({
            "privacy": p, "utility": u,
            "max_posterior": float(checks.max_posteriors(array[None], PRIOR)[0]),
            "matrix": {"type": "rr_matrix", "format_version": 1, "n_categories": 3,
                       "probabilities": array.tolist()},
        })
    return {"type": "optimization_result", "format_version": 1, "n_generations": 1,
            "n_evaluations": 2, "points": points}


def test_optimize_check_accepts_a_valid_front():
    document = _front_document([_warner(0.5), _warner(0.6)], [0.6, 0.5], [0.2, 0.1])
    assert checks.check_optimize(document, PRIOR, delta=0.8) == []


def test_optimize_check_fires_on_a_non_stochastic_column():
    matrix = np.array(_warner(0.5))
    matrix[0, 1] += 0.05
    document = _front_document([matrix], [0.6], [0.2])
    assert any("column-stochastic" in error
               for error in checks.check_optimize(document, PRIOR, delta=0.9))


def test_optimize_check_fires_on_a_dominated_point_and_a_broken_bound():
    document = _front_document([_warner(0.5), _warner(0.6)], [0.6, 0.5], [0.1, 0.2])
    assert any("dominated" in error for error in checks.check_optimize(document, PRIOR, 0.8))
    assert any("exceeds delta" in error
               for error in checks.check_optimize(document, PRIOR, delta=0.4))
    assert checks.check_optimize({"type": "optimization_result", "points": []}, PRIOR, 0.8)


def test_hypervolume_of_a_known_front():
    privacy = np.array([0.5, 0.25])
    utility = np.array([1.0, 0.5])
    # [0, 0.25] x [0.5, 2] plus [0.25, 0.5] x [1, 2].
    assert checks.hypervolume(privacy, utility) == pytest.approx(0.25 * 1.5 + 0.25 * 1.0)


def _disguise_report(output: np.ndarray, n: int) -> dict:
    return {"type": "disguise_report", "n_records": int(output.size),
            "disguised_counts": np.bincount(output, minlength=n).tolist(),
            "estimate": {"probabilities": [0.5, 0.5]}}


def test_disguise_check_accepts_a_consistent_run():
    codes = np.array([0, 1, 1, 0])
    output = np.array([1, 1, 0, 0])
    assert checks.check_disguise(codes, output, _disguise_report(output, 2), 2) == []
    assert checks.estimate_l1(codes, _disguise_report(output, 2), 2) == pytest.approx(0.0)


def test_disguise_check_fires_on_a_dropped_code():
    codes = np.array([0, 1, 1, 0])
    output = np.array([1, 1, 0, 0])
    report = _disguise_report(output, 2)
    errors = checks.check_disguise(codes, output[:-1], report, 2)
    assert any("output codes" in error for error in errors)
    assert any("disguised_counts" in error for error in errors)


def test_disguise_check_fires_on_an_out_of_range_code():
    codes = np.array([0, 1])
    output = np.array([0, 2])
    assert any("outside" in error for error in
               checks.check_disguise(codes, output, _disguise_report(output, 3), 2))


def _pipeline_result(cells) -> dict:
    return {"type": "pipeline_result",
            "cells": [{"scheme": s, "miner": m, "seed": k} for s, m, k in cells]}


def test_pipeline_check_fires_on_a_non_identical_replay_and_a_missing_cell():
    cells = [(s, m, k) for s in ("a", "b") for m in ("tree",) for k in (0, 1)]
    result = _pipeline_result(cells)
    assert checks.check_pipeline(result, b"{}", b"{}", ["a"], 2, ["tree"], [0, 1]) == []
    assert any("warm replay" in error for error in
               checks.check_pipeline(result, b"{}", b"{ }", ["a"], 2, ["tree"], [0, 1]))
    assert any("cells present" in error for error in
               checks.check_pipeline(_pipeline_result(cells[:-1]), b"{}", b"{}", ["a"], 2,
                                     ["tree"], [0, 1]))


# -- trace analysis ----------------------------------------------------------

def _span(span_id, parent, name, start, end, **attrs):
    span = {"run": "r", "id": span_id, "parent": parent, "name": name, "start": start,
            "end": end, "pid": 1}
    if attrs:
        span["attrs"] = attrs
    return span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("1", None, "grid.run", 0, 100),
        _span("2", "1", "grid.cell", 10, 60),
        _span("3", "1", "grid.cell", 40, 90),
    ]
    assert tracing.self_times(spans)["1"] == 100 - 80
    assert tracing.covered_ns(0, 50, [(40, 70), (10, 20)]) == 20


def test_layer_metrics_count_nested_same_name_spans_once():
    spans = [
        _span("1", None, "cli.main", 0, 1_000_000_000),
        _span("2", "1", "rr.estimate", 0, 400_000_000),
        _span("3", "2", "rr.estimate", 100_000_000, 200_000_000),
        _span("4", "1", "grid.cache_load", 500_000_000, 600_000_000, hits=1, misses=0),
        _span("5", "1", "rr.disguise", 600_000_000, 700_000_000, rows=7, chunks=1),
    ]
    metrics = tracing.layer_metrics(spans, import_s=0.25)
    assert metrics["rr.estimate_calls"] == 1
    assert metrics["rr.estimate_s"] == pytest.approx(0.4)
    assert metrics["cli.self_s"] == pytest.approx(0.4)
    assert metrics["grid.cache_hits"] == 1
    assert metrics["rr.chunks"] == 1 and metrics["rr.disguise_records"] == 7
    assert metrics["cli.import_s"] == 0.25


def test_tracer_records_parentage_and_writes_jsonl(tmp_path):
    tracer = tracing.Tracer("run-1", tmp_path)
    inner = tracing._wrap_function(tracer, "inner", lambda x: x + 1)
    outer = tracing._wrap_function(tracer, "outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    tracer.write(tmp_path / "t.jsonl", header={"import_s": 0.0, "missing_targets": []})
    headers, spans = tracing.load_spans([tmp_path / "t.jsonl"])
    by_name = {span["name"]: span for span in spans}
    assert headers[0]["import_s"] == 0.0
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
    assert {span["run"] for span in spans} == {"run-1"}
