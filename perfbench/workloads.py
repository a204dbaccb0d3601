"""The four benchmark workloads: inputs, ``optrr`` commands and output checks.

Every workload runs ``optrr`` as a subprocess (``python3 -m repro`` with the
checkout's ``src`` on ``PYTHONPATH``) in a closed loop with one client: an
invocation starts only after the previous one exited.  Inputs come from the
benchmark's ``--seed``: generated here, or written by untimed set-up runs of
the code under test (the fronts), so a change to the document format stays
self-consistent.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

#: A run kills whatever still runs this long after it started, so that it
#: ends within 180 s in total.
RUN_BUDGET_S = 170.0

#: Thread pins applied to every invocation: at most ``nproc`` busy threads
#: from one client (``--jobs 2`` workers x 1 BLAS thread on 2 cores).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass
class Invocation:
    """One finished ``optrr`` process."""

    argv: list[str]
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str

    def errors(self) -> list[str]:
        errors = []
        if self.returncode != 0:
            errors.append(f"exit code {self.returncode}: {self.stderr.strip()[-300:]}")
        if "Traceback (most recent call last)" in self.stderr:
            errors.append("traceback on stderr")
        return errors


@dataclass
class Sample:
    """One measured iteration of a workload."""

    wall_s: float
    peak_rss_mb: float
    extra: dict[str, float]
    invocations: list[Invocation]
    errors: list[str]
    traces: list[Path] = field(default_factory=list)


class Runner:
    """Launches ``optrr`` in a checkout and keeps every invocation."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(work / "tmp"),
                        **PINNED_ENV)
        self.invocations: list[Invocation] = []
        self._deadline = time.monotonic() + RUN_BUDGET_S

    def path(self, name: str) -> Path:
        return self.work / name

    def optrr(self, argv: list[str], trace: tuple[Path, str] | None = None) -> Invocation:
        """Run one ``optrr`` command; with ``trace=(out, run_id)`` run it
        in-process under the outside-in tracer instead."""
        if trace is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            out, run_id = trace
            command = [sys.executable, str(self.root / "perfbench" / "traced_main.py"),
                       "--out", str(out), "--run-id", run_id, "--", *argv]
        stderr_path = self.work / "stderr.txt"
        with open(stderr_path, "wb") as stderr:
            began = time.perf_counter()
            # A session of its own, so a timeout kills the grid's workers too.
            process = subprocess.Popen(command, cwd=self.root, env=self.env,
                                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                       stderr=stderr, start_new_session=True)
            timer = threading.Timer(max(1.0, self._deadline - time.monotonic()),
                                    _kill_group, (process.pid,))
            timer.start()
            try:
                # wait4 reports the child's peak RSS; on Linux it covers the
                # largest of the child and every descendant it reaped.
                _, status, usage = os.wait4(process.pid, 0)
            finally:
                timer.cancel()
            wall_s = time.perf_counter() - began
        _kill_group(process.pid)
        process.returncode = os.waitstatus_to_exitcode(status)
        invocation = Invocation(
            argv=argv, wall_s=wall_s, peak_rss_mb=usage.ru_maxrss / 1024.0,
            returncode=process.returncode,
            stderr=stderr_path.read_text(encoding="utf-8", errors="replace"),
        )
        self.invocations.append(invocation)
        return invocation


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def workload_prior(distribution: str, n_categories: int) -> np.ndarray:
    """The prior ``optrr optimize`` resolves for these arguments."""
    from repro.data.workload import resolve_workload_prior

    return np.asarray(resolve_workload_prior(distribution, n_categories).probabilities)


class Workload:
    name = ""
    why = ""
    subcommand = ""

    def setup(self, runner: Runner, seed: int) -> dict[str, str]:
        """Build the inputs; return ``{input name: sha256}``."""
        return {}

    def sample(self, runner: Runner, seed: int, tag: str, trace: bool = False) -> Sample:
        raise NotImplementedError

    @staticmethod
    def _trace(runner: Runner, tag: str, label: str, trace: bool, sample_traces: list[Path]):
        if not trace:
            return None
        out = runner.path(f"trace-{tag}-{label}.jsonl")
        sample_traces.append(out)
        return out, f"{tag}-{label}"


class OptimizeWorkload(Workload):
    """``optrr optimize`` writing a front (and optionally checkpoints)."""

    subcommand = "optimize"

    def __init__(self, name: str, why: str, distribution: str, categories: int, delta: float,
                 population: int, generations: int, checkpoint: bool) -> None:
        self.name, self.why = name, why
        self.distribution, self.categories, self.delta = distribution, categories, delta
        self.population, self.generations, self.checkpoint = population, generations, checkpoint
        self._prior: np.ndarray | None = None

    def argv(self, seed: int, output: Path, checkpoint: Path | None) -> list[str]:
        argv = ["optimize", "--distribution", self.distribution,
                "--categories", str(self.categories), "--records", "10000",
                "--delta", str(self.delta), "--population", str(self.population),
                "--generations", str(self.generations), "--seed", str(seed)]
        if checkpoint is not None:
            argv += ["--checkpoint", str(checkpoint)]
        return argv + ["--output", str(output)]

    def check(self, document) -> list[str]:
        if self._prior is None:
            self._prior = workload_prior(self.distribution, self.categories)
        return checks.check_optimize(document, self._prior, self.delta)

    def build_front(self, runner: Runner, seed: int, output: Path) -> None:
        """Untimed set-up run whose front feeds another workload."""
        checkpoint = runner.path("setup-front.ck.json") if self.checkpoint else None
        invocation = runner.optrr(self.argv(seed, output, checkpoint))
        errors = invocation.errors() or self.check(checks.load_json(output))
        if errors:
            raise RuntimeError(f"set-up run of {self.name} failed: {errors}")

    def sample(self, runner: Runner, seed: int, tag: str, trace: bool = False) -> Sample:
        output = runner.path(f"front-{tag}.json")
        checkpoint = runner.path(f"front-{tag}.ck.json") if self.checkpoint else None
        traces: list[Path] = []
        invocation = runner.optrr(self.argv(seed, output, checkpoint),
                                  self._trace(runner, tag, "optimize", trace, traces))
        errors = invocation.errors()
        extra: dict[str, float] = {}
        if not errors:
            document = checks.load_json(output)
            errors = self.check(document)
            privacy, utility, _ = checks.front_arrays(document)
            extra = {
                "evals_per_s": document["n_evaluations"] / invocation.wall_s,
                "front_hypervolume": checks.hypervolume(privacy, utility),
            }
        for path in (output, checkpoint, checkpoint and Path(f"{checkpoint}.prev")):
            if path:
                path.unlink(missing_ok=True)
        return Sample(invocation.wall_s, invocation.peak_rss_mb, extra, [invocation],
                      errors, traces)


#: The paper's own Fig. 4(c) setting: n=10, 400 generations, checkpointed.
OPTIMIZE_PAPER = OptimizeWorkload(
    "optimize-paper",
    "paper Fig. 4(c) setting (n=10, P=40, G=400, checkpoints): Python-level SPEA2 "
    "selection/fitness and Omega offers dominate, kernels are tiny",
    distribution="normal", categories=10, delta=0.8, population=40, generations=400,
    checkpoint=True,
)

#: The ROADMAP's large-domain point: n=64, P=100, G=10.
OPTIMIZE_N64 = OptimizeWorkload(
    "optimize-n64",
    "large domain (n=64, P=100, G=10): Warner-seed set-up, (B,64,64) repair/evaluate "
    "kernels and a ~30 MB result write dominate",
    distribution="normal", categories=64, delta=0.8, population=100, generations=10,
    checkpoint=False,
)


class DisguiseWorkload(Workload):
    """``optrr disguise`` of 1e6 codes through the middle point of a front."""

    name = "disguise-1m"
    why = ("1e6 codes through one n=64 front matrix: import, front document read, "
           "text parse/write and the disguise kernel; the optimizer is bypassed")
    subcommand = "disguise"
    n_records = 1_000_000
    categories = OPTIMIZE_N64.categories

    def setup(self, runner: Runner, seed: int) -> dict[str, str]:
        # A fixed skewed (Zipf-like) prior; the seed draws the codes.  The
        # prior stays fixed so the input's text size, and with it the parse
        # and write cost, does not swing from seed to seed.  The codes come
        # from a stream other than default_rng(seed): `optrr disguise --seed S`
        # draws its uniforms from that one, and reusing it would correlate
        # each record's disguise draw with the draw that chose its true code.
        weights = 1.0 / np.arange(1, self.categories + 1) ** 1.1
        rng = np.random.default_rng([seed, 1])
        self.codes = rng.choice(self.categories, size=self.n_records, p=weights / weights.sum())
        self.codes_path = runner.path("codes.txt")
        self.codes_path.write_text("\n".join(map(str, self.codes.tolist())) + "\n",
                                   encoding="utf-8")
        self.front_path = runner.path("front-n64.json")
        OPTIMIZE_N64.build_front(runner, seed, self.front_path)
        self.front_index = len(checks.load_json(self.front_path)["points"]) // 2
        return {"codes.txt": digest(self.codes_path), "front-n64.json": digest(self.front_path)}

    def sample(self, runner: Runner, seed: int, tag: str, trace: bool = False) -> Sample:
        output = runner.path(f"disguised-{tag}.txt")
        report_path = runner.path(f"report-{tag}.json")
        traces: list[Path] = []
        argv = ["disguise", str(self.codes_path), "--front", str(self.front_path),
                "--front-index", str(self.front_index), "--seed", str(seed),
                "--output", str(output), "--report", str(report_path)]
        invocation = runner.optrr(argv, self._trace(runner, tag, "disguise", trace, traces))
        errors = invocation.errors()
        extra: dict[str, float] = {}
        if not errors:
            report = checks.load_json(report_path)
            disguised = checks.parse_codes(output.read_text(encoding="utf-8"))
            errors = checks.check_disguise(self.codes, disguised, report, self.categories)
            extra = {"records_per_s": self.n_records / invocation.wall_s}
            if not errors:
                extra["estimate_l1"] = checks.estimate_l1(self.codes, report, self.categories)
        output.unlink(missing_ok=True)
        report_path.unlink(missing_ok=True)
        return Sample(invocation.wall_s, invocation.peak_rss_mb, extra, [invocation],
                      errors, traces)


class PipelineWorkload(Workload):
    """``optrr pipeline`` over 84 cells, cold cache then warm replay."""

    name = "pipeline-grid"
    why = ("84-cell disguise/reconstruct/mine grid at --jobs 2, cold then warm cache: "
           "the only workload reaching experiments, mining and data")
    subcommand = "pipeline"
    schemes = ("warner:0.8", "up:0.9", "frapp:5")
    front_schemes = 4
    miners = ("tree", "rules", "distribution")

    def setup(self, runner: Runner, seed: int) -> dict[str, str]:
        self.front_path = runner.path("front-paper.json")
        OPTIMIZE_PAPER.build_front(runner, seed, self.front_path)
        self.seeds = [4 * seed + offset for offset in range(4)]
        return {"front-paper.json": digest(self.front_path)}

    def argv(self, cache: Path, aggregate: Path) -> list[str]:
        return ["pipeline", "--data", "normal", "--categories", "10", "--records", "20000",
                "--front", str(self.front_path), "--front-schemes", str(self.front_schemes),
                "--schemes", ",".join(self.schemes), "--miners", ",".join(self.miners),
                "--seeds", ",".join(map(str, self.seeds)), "--jobs", "2",
                "--cache-dir", str(cache), "--output", str(aggregate)]

    @staticmethod
    def _listing(cache: Path) -> dict[str, tuple[int, int]]:
        return {entry.name: (entry.stat().st_size, entry.stat().st_mtime_ns)
                for entry in cache.iterdir()}

    def sample(self, runner: Runner, seed: int, tag: str, trace: bool = False) -> Sample:
        cache = runner.path(f"cache-{tag}")
        cold_aggregate = runner.path(f"aggregate-cold-{tag}.json")
        warm_aggregate = runner.path(f"aggregate-warm-{tag}.json")
        result_path = runner.path(f"result-{tag}.json")
        traces: list[Path] = []
        cold = runner.optrr(self.argv(cache, cold_aggregate) + ["--result", str(result_path)],
                            self._trace(runner, tag, "cold", trace, traces))
        errors = cold.errors()
        invocations = [cold]
        extra: dict[str, float] = {}
        if not errors:
            before = self._listing(cache)
            warm = runner.optrr(self.argv(cache, warm_aggregate),
                                self._trace(runner, tag, "warm", trace, traces))
            invocations.append(warm)
            errors = warm.errors()
            if not errors:
                if self._listing(cache) != before:
                    errors.append("the warm replay wrote to the cache")
                errors += checks.check_pipeline(
                    checks.load_json(result_path), cold_aggregate.read_bytes(),
                    warm_aggregate.read_bytes(), self.schemes,
                    len(self.schemes) + self.front_schemes, self.miners, self.seeds)
                n_cells = len(checks.load_json(result_path)["cells"])
                extra = {"cells_per_s": n_cells / cold.wall_s, "replay_s": warm.wall_s}
        shutil.rmtree(cache, ignore_errors=True)
        for path in (cold_aggregate, warm_aggregate, result_path):
            path.unlink(missing_ok=True)
        return Sample(cold.wall_s, max(item.peak_rss_mb for item in invocations), extra,
                      invocations, errors, traces)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (OPTIMIZE_PAPER, OPTIMIZE_N64, DisguiseWorkload(), PipelineWorkload())
}

#: Workload-specific end-to-end metrics, printed with the universal ones:
#: ``name -> (unit, better, workloads)``.
WORKLOAD_METRICS = {
    "evals_per_s": ("1/s", "higher", ("optimize-paper", "optimize-n64")),
    "front_hypervolume": ("1", "higher", ("optimize-paper", "optimize-n64")),
    "records_per_s": ("1/s", "higher", ("disguise-1m",)),
    "estimate_l1": ("1", "lower", ("disguise-1m",)),
    "cells_per_s": ("1/s", "higher", ("pipeline-grid",)),
    "replay_s": ("s", "lower", ("pipeline-grid",)),
}
