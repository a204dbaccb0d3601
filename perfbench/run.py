"""End-to-end ``optrr`` benchmark: one workload per run, outputs checked.

Usage, from the root of a checkout (``BENCHMARK.json`` and ``src/`` beside
this directory)::

    python3 perfbench/run.py --workload optimize-n64 --seed 1 --seconds 10 --trace 0

A run builds the workload's inputs from ``--seed`` (untimed), makes one
untimed warm-up invocation, times ``optrr <subcommand> --help`` several
times (``setup_s``), then runs the workload's command in a closed loop with
one client for ``--seconds``.  With ``--trace 1`` it then runs the same
command twice more in-process under the outside-in tracer and reports the
per-layer metrics instead.  Human-readable lines come first; the last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

#: ``--help`` invocations per run; ``setup_s`` is their median.
HELP_REPEATS = 3

#: Traced invocations per ``--trace 1`` run; their counts must agree exactly.
TRACED_REPEATS = 2


def summarize(values: list[float]) -> str:
    """Median with sample count, quartiles and the highest percentile that
    has at least ten samples beyond it."""
    ordered = sorted(values)
    text = f"median of n={len(ordered)}"
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        text += f"; q1={q1:.4f} q3={q3:.4f}"
    tail = None
    for percentile in (99.9, 99, 95, 90, 75):
        if len(ordered) * (100 - percentile) / 100 >= 10:
            tail = percentile
            break
    if tail is None:
        text += "; no tail percentile (fewer than 10 samples beyond p75)"
    else:
        text += f"; p{tail:g}={np.percentile(ordered, tail):.4f}"
    return text


def environment(seed: int) -> dict[str, object]:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": [round(value, 2) for value in os.getloadavg()],
        **workloads.PINNED_ENV,
    }


def measure(workload: workloads.Workload, runner: workloads.Runner, args) -> dict:
    info = {"environment": environment(args.seed)}
    info["inputs"] = workload.setup(runner, args.seed)
    errors: list[str] = []
    warm_up = workload.sample(runner, args.seed, "warmup")
    errors += warm_up.errors

    help_walls = []
    for _ in range(HELP_REPEATS):
        invocation = runner.optrr([workload.subcommand, "--help"])
        errors += invocation.errors()
        help_walls.append(invocation.wall_s)

    samples = []
    deadline = time.perf_counter() + args.seconds
    while not samples or time.perf_counter() < deadline:
        sample = workload.sample(runner, args.seed, f"s{len(samples)}")
        errors += sample.errors
        samples.append(sample)

    series = {
        "wall_s": [sample.wall_s for sample in samples],
        "setup_s": help_walls,
        "peak_rss_mb": [sample.peak_rss_mb for sample in samples],
    }
    for name in workloads.WORKLOAD_METRICS:
        values = [sample.extra[name] for sample in samples if name in sample.extra]
        if values:
            series[name] = values
    info.update(series=series, errors=errors, samples=[warm_up, *samples])
    return info


def traced(workload: workloads.Workload, runner: workloads.Runner, args,
           info: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from ``TRACED_REPEATS`` traced invocations, each
    paired with an untraced one just before it for the tracing overhead."""
    runs = []
    errors: list[str] = []
    for repeat in range(TRACED_REPEATS):
        plain = workload.sample(runner, args.seed, f"p{repeat}")
        sample = workload.sample(runner, args.seed, f"t{repeat}", trace=True)
        info["samples"] += [plain, sample]
        errors += plain.errors + sample.errors
        paths = []
        for path in sample.traces:
            paths.append(path)
            paths += sorted(Path(f"{path}.children").glob("*.jsonl"))
        headers, spans = tracing.load_spans(paths)
        for header in headers:
            if header["missing_targets"]:
                print(f"trace: targets not found (their metrics read 0): "
                      f"{header['missing_targets']}")
        metrics = tracing.layer_metrics(
            spans, statistics.mean(header["import_s"] for header in headers))
        metrics["trace.overhead_s"] = (
            sum(invocation.wall_s for invocation in sample.invocations)
            - sum(invocation.wall_s for invocation in plain.invocations))
        runs.append(metrics)
    for name in tracing.deterministic_count_metrics():
        values = {run[name] for run in runs}
        if len(values) > 1:
            errors.append(f"count {name} differs between traced runs at one seed: {values}")
    merged = {name: statistics.median(run[name] for run in runs)
              for name, _, _ in tracing.PER_LAYER_METRICS}
    return merged, errors


def result_metrics(spec: dict, series: dict[str, list[float]], layer: dict[str, float],
                   trace: int) -> dict[str, dict[str, object]]:
    """The result line's metrics: every ``per_layer`` metric of
    ``BENCHMARK.json`` when traced, else every ``end_to_end`` one (median)."""
    if trace:
        return {metric["name"]: {"value": layer[metric["name"]], "unit": metric["unit"]}
                for metric in spec["per_layer"]}
    return {metric["name"]: {"value": statistics.median(series[metric["name"]]),
                             "unit": metric["unit"]}
            for metric in spec["end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no src/repro/cli.py under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    work = root / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = workloads.Runner(root, work)
        info = measure(workload, runner, args)
        errors = info["errors"]
        layer: dict[str, float] = {}
        if args.trace:
            layer, trace_errors = traced(workload, runner, args, info)
            errors += trace_errors
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    # A failed output check counts against the sample's last invocation
    # unless one of its invocations already failed on its own.
    attempted = len(runner.invocations)
    failed = sum(1 for invocation in runner.invocations if invocation.errors()) + sum(
        1 for sample in info["samples"]
        if sample.errors and not any(invocation.errors() for invocation in sample.invocations)
    )

    print(f"perfbench: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {workload.why}")
    print("environment: " + json.dumps(info["environment"], sort_keys=True))
    for name, value in sorted(info["inputs"].items()):
        print(f"input: {name} sha256={value}")
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    units.update({name: unit for name, (unit, _, _) in workloads.WORKLOAD_METRICS.items()})
    for name, values in info["series"].items():
        print(f"metric {name} = {statistics.median(values):.6g} {units[name]} "
              f"({summarize(values)})")
    print(f"metric error_rate = {failed / attempted:.6g} ({failed} of {attempted} "
          f"invocations failed)")
    for error in errors:
        print(f"error: {error}")

    if args.trace:
        for name, unit, _ in tracing.PER_LAYER_METRICS:
            print(f"layer {name} = {layer[name]:.6g} {unit}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics(spec, info["series"], layer, args.trace)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
