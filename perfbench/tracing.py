"""Outside-in tracing of one ``optrr`` command: spans recorded from the benchmark.

The traced process (``traced_main.py``) wraps the public functions of each
layer of ``repro`` from the outside -- nothing under ``src/`` knows it is
traced -- and records one span per call: name, start, end, parent span, run
id and integer attributes (rows, bytes, accepted offers, cache hits).  Spans
stay in memory and are written as JSONL when the command ends.  Processes
forked by the grid executor exit through ``os._exit`` without running
``atexit``, so each child writes its own spans when its
``multiprocessing`` bootstrap returns; :func:`load_spans` merges the files.

:func:`layer_metrics` turns the spans into the per-layer metrics listed in
:data:`PER_LAYER_METRICS`.  A span's self time is its duration minus the part
of that interval its child spans cover (the union of the children, clipped
to the parent), so parallel children are not counted twice.

This module imports only the standard library at import time: the traced
process must measure ``import repro.cli`` before anything else is loaded.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

#: The seven ``ArrayBackend`` kernels (``repro.backend.base.KERNELS``).
BACKEND_KERNELS = (
    "evaluate_stack",
    "batched_safe_inverses",
    "pairwise_distances",
    "crossover_columns",
    "mutate_stack",
    "repair_stack",
    "disguise_codes",
)

#: Miners registered by ``repro.pipeline.miners``.
MINERS = ("tree", "rules", "distribution")


def _per_layer_table() -> list[tuple[str, str, str]]:
    table = [
        ("cli.import_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("core.setup_s", "s", "lower"),
        ("core.repair_s", "s", "lower"),
        ("core.repair_rows", "rows", "lower"),
        ("core.evaluate_s", "s", "lower"),
        ("core.evaluate_rows", "rows", "lower"),
        ("core.variation_s", "s", "lower"),
        ("core.omega_offer_s", "s", "lower"),
        ("core.omega_offers", "rows", "lower"),
        ("core.omega_accepted", "count", "higher"),
        ("core.omega_accept_ratio", "ratio", "higher"),
        ("emoo.generations", "count", "higher"),
        ("emoo.step_self_s", "s", "lower"),
        ("emoo.fitness_s", "s", "lower"),
        ("emoo.selection_s", "s", "lower"),
        ("emoo.distance_s", "s", "lower"),
    ]
    for kernel in BACKEND_KERNELS:
        table += [
            (f"backend.{kernel}.calls", "count", "lower"),
            (f"backend.{kernel}.rows", "rows", "lower"),
            (f"backend.{kernel}.s", "s", "lower"),
            (f"backend.{kernel}.bytes", "bytes", "lower"),
        ]
    table += [
        ("io.save_result_s", "s", "lower"),
        ("io.result_bytes", "bytes", "lower"),
        ("io.load_result_s", "s", "lower"),
        ("io.checkpoint_s", "s", "lower"),
        ("io.checkpoints", "count", "lower"),
        ("io.checkpoint_bytes", "bytes", "lower"),
        ("rr.disguise_s", "s", "lower"),
        ("rr.disguise_records", "rows", "lower"),
        ("rr.chunks", "count", "lower"),
        ("rr.estimate_s", "s", "lower"),
        ("rr.estimate_calls", "count", "lower"),
        ("grid.cells", "count", "lower"),
        ("grid.cache_hits", "count", "higher"),
        ("grid.cache_misses", "count", "lower"),
        ("grid.cache_load_s", "s", "lower"),
        ("grid.cache_store_s", "s", "lower"),
        ("grid.processes_started", "count", "lower"),
        ("grid.spawn_s", "s", "lower"),
        ("grid.cell_s", "s", "lower"),
        ("grid.wait_s", "s", "lower"),
    ]
    table += [(f"mining.{miner}_s", "s", "lower") for miner in MINERS]
    table += [
        ("data.workload_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return table


#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER_METRICS: tuple[tuple[str, str, str], ...] = tuple(_per_layer_table())

#: Count-type units: these metrics must repeat exactly at one seed.
COUNT_UNITS = frozenset({"count", "rows", "bytes"})

#: Count-type metrics exempt from the exact-repeat check, with the reason.
#: Checkpoint documents embed the run's ``elapsed_seconds`` as a float, whose
#: decimal rendering (and so the file size) changes from run to run.
NONDETERMINISTIC_COUNTS = {
    "io.checkpoint_bytes": "checkpoint documents embed elapsed_seconds",
}


def deterministic_count_metrics() -> list[str]:
    """Names of the per-layer counts that must repeat exactly at one seed."""
    return [
        name
        for name, unit, _ in PER_LAYER_METRICS
        if unit in COUNT_UNITS and name not in NONDETERMINISTIC_COUNTS
    ]


class Tracer:
    """In-memory span recorder shared by every wrapper of one traced process."""

    def __init__(self, run_id: str, child_dir: Path) -> None:
        self.run_id = run_id
        self.child_dir = Path(child_dir)
        self.pid = os.getpid()
        self.spans: list[dict[str, Any]] = []
        self._stack: list[str] = []
        self._next = 0

    def _new_id(self) -> str:
        self._next += 1
        return f"{os.getpid()}-{self._next}"

    def call(self, name: str, function: Callable, args: tuple, kwargs: dict,
             attributes: Callable[[tuple, dict, Any], dict[str, int]] | None) -> Any:
        """Run ``function`` inside a span called ``name``."""
        span_id = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            result = function(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
        span = {"run": self.run_id, "id": span_id, "parent": parent, "name": name,
                "start": start, "end": end, "pid": os.getpid()}
        if attributes is not None:
            span["attrs"] = attributes(args, kwargs, result)
        self.spans.append(span)
        return result

    def record_leaf(self, name: str, start: int, end: int) -> None:
        """Record a span that never has children (kept off the stack, so a
        process forked inside it does not inherit it as an open parent)."""
        self.spans.append({"run": self.run_id, "id": self._new_id(),
                           "parent": self._stack[-1] if self._stack else None,
                           "name": name, "start": start, "end": end,
                           "pid": os.getpid()})

    def enter_child(self) -> None:
        """Called first thing in a forked child: drop the parent's finished
        spans (the parent writes those); the open stack stays as parentage."""
        self.spans = []

    def write(self, path: Path, header: dict[str, Any] | None = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            if header is not None:
                handle.write(json.dumps({"header": header}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def write_child(self) -> None:
        self.write(self.child_dir / f"child-{os.getpid()}.jsonl")


# -- wrapper installation ------------------------------------------------------

def _method_rows(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"rows": int(args[1].shape[0])}


def _kernel_attributes(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    # Rows are the (B, n, n) stack's B, the point count, or the code count;
    # bytes are computed from the input array sizes, not measured.
    arrays = [value for value in (*args, *kwargs.values()) if hasattr(value, "nbytes")]
    rows = int(result.shape[0]) if hasattr(result, "shape") else int(arrays[0].shape[0])
    return {"rows": rows, "bytes": int(sum(array.nbytes for array in arrays))}


def _file_bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"bytes": int(os.stat(result).st_size)}


def _offer_attributes(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"rows": int(args[1].size), "accepted": int(result)}


def _cache_load_attributes(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"hits": int(result is not None), "misses": int(result is None)}


def _grid_attributes(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    payloads = kwargs.get("payloads", args[0] if args else ())
    return {"cells": len(payloads)}


def _workload_records(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"rows": int(args[0].n_records)}


def _chunk_rows(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"rows": int(args[1].size), "chunks": 1}


def _wrap_function(tracer: Tracer, name: str, function: Callable, attributes=None) -> Callable:
    def traced(*args, **kwargs):
        return tracer.call(name, function, args, kwargs, attributes)

    traced.__wrapped__ = function  # type: ignore[attr-defined]
    traced.__name__ = getattr(function, "__name__", name)
    return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer boundary of ``repro``; return the targets not found.

    Module-level functions are replaced in their defining module and in
    every loaded ``repro`` module that imported them by name, so call sites
    written as ``from x import f`` see the wrapper too.  A target that a
    later version of the code renamed or removed is reported, not fatal:
    its metrics then read 0.
    """
    import importlib
    import multiprocessing.process
    import sys

    missing: list[str] = []

    def resolve(path: str):
        module_name, _, attribute = path.rpartition(":")
        owner: Any = importlib.import_module(module_name)
        parts = attribute.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]

    def patch_function(path: str, span: str, attributes=None) -> None:
        try:
            owner, attribute = resolve(path)
            original = getattr(owner, attribute)
        except (ImportError, AttributeError):
            missing.append(path)
            return
        wrapper = _wrap_function(tracer, span, original, attributes)
        for module_name, module in list(sys.modules.items()):
            if module_name == "repro" or module_name.startswith("repro."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def patch_method(path: str, span: str, attributes=None) -> None:
        try:
            owner, attribute = resolve(path)
            original = owner.__dict__[attribute]
        except (ImportError, AttributeError, KeyError):
            missing.append(path)
            return
        setattr(owner, attribute, _wrap_function(tracer, span, original, attributes))

    patch_function("repro.io:save_result", "io.save_result", _file_bytes)
    patch_function("repro.io:load_result", "io.load_result")
    patch_function("repro.io:save_checkpoint", "io.checkpoint", _file_bytes)
    patch_function("repro.emoo.fitness:spea2_fitness_from_arrays", "emoo.fitness")
    patch_function("repro.emoo.selection:environmental_selection_indices", "emoo.selection")
    patch_function("repro.emoo.selection:binary_tournament_indices", "emoo.selection")
    patch_function("repro.emoo.density:pairwise_distances", "emoo.distance")
    patch_function("repro.rr.estimation:estimate_distribution", "rr.estimate")
    patch_function("repro.pipeline.runner:disguise_workload", "rr.disguise", _workload_records)
    patch_function("repro.data.workload:build_workload", "data.workload")
    patch_function("repro.experiments.grid:run_grid", "grid.run", _grid_attributes)
    patch_function("repro.experiments.grid:_run_cell", "grid.cell")

    patch_method("repro.core.problem:RRMatrixProblem.repair_stack", "core.repair", _method_rows)
    patch_method("repro.core.problem:RRMatrixProblem.evaluate_population", "core.evaluate",
                 _method_rows)
    patch_method("repro.core.problem:RRMatrixProblem.crossover_stack", "core.variation")
    patch_method("repro.core.problem:RRMatrixProblem.mutate_stack", "core.variation")
    patch_method("repro.core.archive:OptimalSet.offer_population", "core.omega_offer",
                 _offer_attributes)
    patch_method("repro.core.optimizer:_OptRRSteppable.setup", "core.setup")
    patch_method("repro.core.optimizer:_OptRRSteppable.step", "emoo.step")
    patch_method("repro.rr.streaming:StreamingDisguiser.disguise_chunk", "rr.disguise",
                 _chunk_rows)
    patch_method("repro.rr.streaming:OnlineEstimator.update", "rr.estimate")
    patch_method("repro.experiments.grid:DocumentCache.load_document", "grid.cache_load",
                 _cache_load_attributes)
    patch_method("repro.experiments.grid:DocumentCache.store_document", "grid.cache_store")

    try:
        from repro.pipeline import miners as miners_module

        for miner_name in MINERS:
            miner = miners_module.get_miner(miner_name)
            object.__setattr__(
                miner, "run", _wrap_function(tracer, f"mining.{miner_name}", miner.run)
            )
    except (ImportError, AttributeError, LookupError, ValueError):
        missing.append("repro.pipeline.miners:Miner.run")

    try:
        from repro.backend import backend_names, get_backend

        for backend_name in backend_names():
            backend = get_backend(backend_name)
            for kernel in BACKEND_KERNELS:
                setattr(backend, kernel, _wrap_function(
                    tracer, f"backend.{kernel}", getattr(backend, kernel), _kernel_attributes
                ))
    except (ImportError, AttributeError):
        missing.append("repro.backend:ArrayBackend kernels")

    base_process = multiprocessing.process.BaseProcess
    original_start = base_process.start
    original_bootstrap = base_process._bootstrap

    def start(self, *args, **kwargs):
        began = time.perf_counter_ns()
        try:
            return original_start(self, *args, **kwargs)
        finally:
            if os.getpid() == tracer.pid:
                tracer.record_leaf("grid.spawn", began, time.perf_counter_ns())

    def bootstrap(self, *args, **kwargs):
        tracer.enter_child()
        try:
            return original_bootstrap(self, *args, **kwargs)
        finally:
            tracer.write_child()

    base_process.start = start
    base_process._bootstrap = bootstrap
    return missing


# -- analysis ------------------------------------------------------------------

def load_spans(paths: Iterable[Path]) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Read span JSONL files; return ``(headers, spans)``."""
    headers: list[dict[str, Any]] = []
    spans: list[dict[str, Any]] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "header" in record:
                    headers.append(record["header"])
                else:
                    spans.append(record)
    return headers, spans


def covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted((max(start, a), min(end, b)) for a, b in intervals if b > start and a < end)
    total = 0
    current_start = current_end = None
    for a, b in clipped:
        if current_end is None or a > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = a, b
        else:
            current_end = max(current_end, b)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[dict[str, Any]]) -> dict[str, int]:
    """Self time in ns of every span id."""
    children: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: span["end"] - span["start"]
        - covered_ns(span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }


def _outermost(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Spans with no ancestor of the same name (a wrapped function that calls
    itself, or a kernel calling a kernel of the same name, counts once)."""
    by_id = {span["id"]: span for span in spans}
    kept = []
    for span in spans:
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != span["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            kept.append(span)
    return kept


def layer_metrics(spans: list[dict[str, Any]], import_s: float) -> dict[str, float]:
    """Per-layer metrics (every name in :data:`PER_LAYER_METRICS` except
    ``trace.overhead_s``, which needs the untraced run) from one traced run."""
    selfs = self_times(spans)
    outer = _outermost(spans)
    seconds: dict[str, float] = defaultdict(float)
    self_seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attributes: dict[tuple[str, str], int] = defaultdict(int)
    for span in outer:
        name = span["name"]
        seconds[name] += (span["end"] - span["start"]) / 1e9
        self_seconds[name] += selfs[span["id"]] / 1e9
        calls[name] += 1
        for key, value in span.get("attrs", {}).items():
            attributes[(name, key)] += value

    offers = attributes[("core.omega_offer", "rows")]
    accepted = attributes[("core.omega_offer", "accepted")]
    metrics: dict[str, float] = {
        "cli.import_s": import_s,
        "cli.self_s": self_seconds["cli.main"],
        "core.setup_s": seconds["core.setup"],
        "core.repair_s": seconds["core.repair"],
        "core.repair_rows": attributes[("core.repair", "rows")],
        "core.evaluate_s": seconds["core.evaluate"],
        "core.evaluate_rows": attributes[("core.evaluate", "rows")],
        "core.variation_s": seconds["core.variation"],
        "core.omega_offer_s": seconds["core.omega_offer"],
        "core.omega_offers": offers,
        "core.omega_accepted": accepted,
        "core.omega_accept_ratio": accepted / offers if offers else 0.0,
        "emoo.generations": calls["emoo.step"],
        "emoo.step_self_s": self_seconds["emoo.step"],
        "emoo.fitness_s": seconds["emoo.fitness"],
        "emoo.selection_s": seconds["emoo.selection"],
        "emoo.distance_s": seconds["emoo.distance"],
        "io.save_result_s": seconds["io.save_result"],
        "io.result_bytes": attributes[("io.save_result", "bytes")],
        "io.load_result_s": seconds["io.load_result"],
        "io.checkpoint_s": seconds["io.checkpoint"],
        "io.checkpoints": calls["io.checkpoint"],
        "io.checkpoint_bytes": attributes[("io.checkpoint", "bytes")],
        "rr.disguise_s": seconds["rr.disguise"],
        "rr.disguise_records": attributes[("rr.disguise", "rows")],
        "rr.chunks": attributes[("rr.disguise", "chunks")],
        "rr.estimate_s": seconds["rr.estimate"],
        "rr.estimate_calls": calls["rr.estimate"],
        "grid.cells": attributes[("grid.run", "cells")],
        "grid.cache_hits": attributes[("grid.cache_load", "hits")],
        "grid.cache_misses": attributes[("grid.cache_load", "misses")],
        "grid.cache_load_s": seconds["grid.cache_load"],
        "grid.cache_store_s": seconds["grid.cache_store"],
        "grid.processes_started": calls["grid.spawn"],
        "grid.spawn_s": seconds["grid.spawn"],
        "grid.cell_s": seconds["grid.cell"],
        "grid.wait_s": self_seconds["grid.run"],
        "data.workload_s": seconds["data.workload"],
    }
    for kernel in BACKEND_KERNELS:
        name = f"backend.{kernel}"
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.rows"] = attributes[(name, "rows")]
        metrics[f"{name}.s"] = seconds[name]
        metrics[f"{name}.bytes"] = attributes[(name, "bytes")]
    for miner in MINERS:
        metrics[f"mining.{miner}_s"] = seconds[f"mining.{miner}"]
    return metrics
