"""Benchmark: cold start of ``optrr <subcommand> --help`` in a fresh interpreter.

The CLI imports only the layers a subcommand runs, on entry to that
subcommand, and every ``repro`` package resolves its public names lazily
(``docs/architecture.md``, "Import layering").  Building the parser imports
no numpy, so ``--help`` costs an interpreter start plus a few stdlib
modules.  Recorded into ``BENCH_cold_start.json``, one ``help[<sub>]`` op per
subcommand the end-to-end workloads run (``optimize``, ``disguise``,
``pipeline``):

* ``seconds``: median wall time of ``python -m repro <sub> --help``;
* ``reference_seconds``: median wall time of a fresh interpreter that first
  imports every layer eagerly -- all ``repro`` modules but the lint
  analyzer, the set a single ``import repro.cli`` loaded before the layering
  -- and then prints the same help;
* ``modules`` / ``reference_modules``: how many ``repro`` modules each side
  loads, and ``numpy_modules``: how many numpy modules the lazy side loads
  (deterministic counts).

The two sides alternate which runs first.  The ``help`` op is the slowest
subcommand's ratio, and ``tools/check_perf.py --only cold_start`` gates it.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_cold_start.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_cold_start.py -q -s
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

try:
    from benchmarks.conftest import record_bench
except ImportError:  # standalone execution: benchmarks/ itself is sys.path[0]
    from conftest import record_bench

ROOT = Path(__file__).resolve().parent.parent

#: Subcommands of the end-to-end workloads (optimize-paper, optimize-n64,
#: disguise-1m, pipeline-grid).
SUBCOMMANDS = ("optimize", "disguise", "pipeline")

#: Timed pairs per subcommand.
PAIRS = 11

#: Every layer imported up front, as a single ``import repro.cli`` did before
#: the layering (all of ``repro`` but the lint analyzer).
IMPORT_EVERY_LAYER = """
import importlib, pathlib
import repro
root = pathlib.Path(repro.__path__[0])
for path in sorted(root.rglob("*.py")):
    parts = path.relative_to(root.parent).with_suffix("").parts
    if parts[1:2] != ("lintkit",) and parts[-1] != "__main__":
        importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
"""

#: ``python -m repro <argv>``, optionally after ``IMPORT_EVERY_LAYER``,
#: listing the loaded modules on stderr when the command exits.
RUN_CLI = """
import json, runpy, sys
sys.argv = ["optrr", *{argv!r}]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
finally:
    if {list_modules!r}:
        print(json.dumps(sorted(sys.modules)), file=sys.stderr)
"""


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def _commands(subcommand: str, *, list_modules: bool = False) -> tuple[list[str], list[str]]:
    """``(lazy, eager)`` argv of one subcommand's help."""
    argv = [subcommand, "--help"]
    run = RUN_CLI.format(argv=argv, list_modules=list_modules)
    return (
        [sys.executable, "-m", "repro", *argv] if not list_modules else [sys.executable, "-c", run],
        [sys.executable, "-c", IMPORT_EVERY_LAYER + run],
    )


def _wall(argv: list[str], env: dict[str, str]) -> tuple[float, bytes]:
    start = time.perf_counter()
    result = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, check=True)
    return time.perf_counter() - start, result.stdout


def _loaded(argv: list[str], env: dict[str, str]) -> list[str]:
    """Names of the modules loaded when ``argv`` (a ``list_modules`` command)
    exits."""
    result = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True)
    return json.loads(result.stderr.decode().splitlines()[-1])


def _count(modules: list[str], package: str) -> int:
    return sum(1 for name in modules if name.split(".")[0] == package)


def measure_help(subcommand: str, pairs: int = PAIRS) -> dict:
    env = _environment()
    lazy, eager = _commands(subcommand)
    _, expected = _wall(eager, env)  # untimed warm-up of both sides
    _, text = _wall(lazy, env)
    assert text == expected, f"optrr {subcommand} --help differs with eager imports"
    lazy_walls, eager_walls = [], []
    for index in range(pairs):
        order = ((lazy, lazy_walls), (eager, eager_walls))
        for argv, walls in order if index % 2 == 0 else order[::-1]:
            walls.append(_wall(argv, env)[0])
    lazy_modules, eager_modules = (
        _loaded(argv, env) for argv in _commands(subcommand, list_modules=True)
    )
    seconds = statistics.median(lazy_walls)
    reference_seconds = statistics.median(eager_walls)
    return {
        "params": {"subcommand": subcommand, "pairs": pairs},
        "seconds": seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / seconds,
        "modules": _count(lazy_modules, "repro"),
        "reference_modules": _count(eager_modules, "repro"),
        "numpy_modules": _count(lazy_modules, "numpy"),
    }


def run_all() -> dict[str, dict]:
    results = {f"help[{subcommand}]": measure_help(subcommand) for subcommand in SUBCOMMANDS}
    slowest = min(results.values(), key=lambda result: result["speedup"])
    results["help"] = {
        **slowest,
        "params": {"subcommands": list(SUBCOMMANDS),
                   "slowest": slowest["params"]["subcommand"],
                   "pairs": slowest["params"]["pairs"]},
    }
    for op, result in results.items():
        extra = {
            key: value
            for key, value in result.items()
            if key not in ("params", "seconds", "reference_seconds", "speedup")
        }
        record_bench("cold_start", op, result["params"], result["seconds"],
                     reference_seconds=result["reference_seconds"], **extra)
        print(f"{op:20s} {result['seconds'] * 1e3:8.1f} ms  "
              f"(eager imports {result['reference_seconds'] * 1e3:8.1f} ms)  "
              f"speedup {result['speedup']:5.2f}x  "
              f"repro modules {result['modules']} vs {result['reference_modules']}, "
              f"numpy modules {result['numpy_modules']}")
    return results


def test_cold_start_help():
    """Every workload subcommand's help loads no numpy and beats the eager
    import of every layer (help text identical, asserted inside)."""
    results = run_all()
    assert all(result["numpy_modules"] == 0 for result in results.values())
    assert all(result["speedup"] > 1.0 for result in results.values())


if __name__ == "__main__":
    run_all()
