"""Import layering: each ``optrr`` subcommand loads only the layers it runs.

Every check runs in a fresh interpreter (a subprocess), because the test
process itself has long since imported everything.  The rules are written
down in the "Import layering" section of ``docs/architecture.md``:

* ``python -m repro <subcommand> --help`` never imports numpy, and prints
  the same bytes as with every layer imported up front;
* ``optrr disguise`` loads no optimizer, experiment or mining layer, and
  ``optrr optimize`` no experiment, pipeline or mining layer;
* a forked grid cell imports no ``repro`` module its parent had not already
  imported before forking (otherwise every cell pays for the imports again);
* the packages resolve every public name lazily and completely, and the
  experiment, miner and lint-rule registries are complete in a fresh
  interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SUBCOMMANDS = (
    "list", "run", "campaign", "optimize", "pipeline", "disguise",
    "compare-schemes", "search-space", "lint",
)

#: Every package whose ``__init__`` exports names lazily.
LAZY_PACKAGES = (
    "repro", "repro.analysis", "repro.core", "repro.data", "repro.emoo",
    "repro.experiments", "repro.faults", "repro.lintkit", "repro.metrics",
    "repro.mining", "repro.pipeline", "repro.rr", "repro.utils",
)

#: Imports every module of ``repro`` (the parent commit's eager import state).
IMPORT_EVERYTHING = """
import importlib, pkgutil, repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.name != "repro.__main__":
        importlib.import_module(module.name)
"""


def _python(*args: str, stdin: bytes | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, input=stdin,
        capture_output=True, timeout=300,
    )


def _run_cli(argv: list[str], *, before: str = "") -> subprocess.CompletedProcess:
    """Run ``repro.cli.main(argv)`` in a fresh interpreter; its last stderr
    line is the JSON list of loaded ``repro`` modules."""
    script = before + f"""
import json, sys
from repro.cli import main
try:
    code = main({argv!r})
except SystemExit as exit:
    code = exit.code
sys.stdout.flush()
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")),
      file=sys.stderr)
sys.exit(code)
"""
    return _python("-c", script)


def _loaded_modules(result: subprocess.CompletedProcess) -> list[str]:
    assert result.returncode == 0, result.stderr.decode()
    return json.loads(result.stderr.decode().splitlines()[-1])


def _offending(modules: list[str], forbidden: tuple[str, ...]) -> list[str]:
    return [
        module for module in modules
        if any(module == prefix or module.startswith(prefix + ".") for prefix in forbidden)
    ]


class TestHelpWithoutNumpy:
    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_help_imports_no_numpy(self, subcommand):
        result = _python("-X", "importtime", "-m", "repro", subcommand, "--help")
        assert result.returncode == 0, result.stderr.decode()
        imported = [
            line.rsplit("|", 1)[-1].strip()
            for line in result.stderr.decode().splitlines()
            if line.startswith("import time:")
        ]
        assert "repro.cli" in imported
        assert not [name for name in imported if name.split(".")[0] == "numpy"]

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_help_text_is_unchanged_by_eager_imports(self, subcommand):
        lazy = _python("-m", "repro", subcommand, "--help")
        eager = _python(
            "-c",
            IMPORT_EVERYTHING
            + f"import sys; from repro.cli import main; sys.exit(main([{subcommand!r}, '--help']))",
        )
        assert lazy.returncode == eager.returncode == 0
        assert lazy.stdout == eager.stdout
        assert lazy.stdout.startswith(f"usage: optrr {subcommand}".encode())


class TestSubcommandLayers:
    def test_disguise_loads_only_the_rr_and_io_layers(self, tmp_path):
        codes = tmp_path / "codes.txt"
        codes.write_text("0 1 2 3 1 2\n", encoding="utf-8")
        modules = _loaded_modules(_run_cli([
            "disguise", str(codes), "--matrix", "warner:0.8", "--categories", "4",
            "--output", str(tmp_path / "out.txt"), "--report", str(tmp_path / "r.json"),
        ]))
        assert "repro.rr.streaming" in modules and "repro.io" in modules
        forbidden = ("repro.emoo", "repro.core.optimizer", "repro.experiments", "repro.mining")
        assert _offending(modules, forbidden) == []

    def test_optimize_loads_no_experiment_pipeline_or_mining_layer(self, tmp_path):
        modules = _loaded_modules(_run_cli([
            "optimize", "--categories", "4", "--records", "500", "--generations", "2",
            "--population", "6", "--output", str(tmp_path / "front.json"),
        ]))
        assert "repro.core.optimizer" in modules
        forbidden = ("repro.experiments", "repro.pipeline", "repro.mining")
        assert _offending(modules, forbidden) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline", "--data", "normal", "--categories", "4", "--schemes",
             "warner:0.8,up:0.9", "--seeds", "2", "--records", "600", "--jobs", "2"],
            ["campaign", "thm2", "fact1", "--seeds", "2", "--jobs", "2"],
        ],
        ids=["pipeline", "campaign"],
    )
    def test_forked_grid_cells_import_nothing_new(self, tmp_path, argv):
        # Wrap the child entry point of the process pool: each forked attempt
        # records the repro modules it imported beyond its parent's.
        probe = f"""
import json, os, sys
import repro.experiments.procpool as procpool
attempt = procpool._attempt_process_main
def probed(runner, bundle, connection):
    inherited = set(sys.modules)
    try:
        attempt(runner, bundle, connection)
    finally:
        new = sorted(m for m in set(sys.modules) - inherited if m.split(".")[0] == "repro")
        with open(os.path.join({str(tmp_path)!r}, f"{{os.getpid()}}.json"), "w") as out:
            json.dump(new, out)
procpool._attempt_process_main = probed
"""
        _loaded_modules(_run_cli(argv, before=probe))
        reports = {path.name: json.loads(path.read_text()) for path in tmp_path.glob("*.json")}
        assert len(reports) >= 2
        assert {name: new for name, new in reports.items() if new} == {}


class TestLazyPackages:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_public_name_resolves_and_is_listed(self, package):
        script = f"""
import importlib
package = importlib.import_module({package!r})
assert package.__all__, "empty __all__"
listed = dir(package)
for name in package.__all__:
    assert getattr(package, name) is not None, name
    assert name in listed, name
try:
    package.no_such_name
except AttributeError as error:
    assert "no_such_name" in str(error)
else:
    raise AssertionError("unknown name resolved")
"""
        result = _python("-c", script)
        assert result.returncode == 0, result.stderr.decode()

    def test_star_import_of_the_top_level_package(self):
        script = """
namespace = {}
exec("from repro import *", namespace)
import repro
assert set(repro.__all__) <= set(namespace), set(repro.__all__) - set(namespace)
assert namespace["__version__"] == repro.__version__
assert namespace["OptRROptimizer"].__module__ == "repro.core.optimizer"
"""
        result = _python("-c", script)
        assert result.returncode == 0, result.stderr.decode()

    def test_importing_a_package_runs_no_other_layer(self):
        result = _python("-c", "import sys, repro.core, repro.rr, repro.pipeline; "
                               "print(sorted(m for m in sys.modules if m.startswith('repro')))")
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.decode().strip() == (
            "['repro', 'repro._lazy', 'repro.core', 'repro.pipeline', 'repro.rr']"
        )


class TestRegistriesInAFreshInterpreter:
    def test_experiment_registry_is_complete(self):
        script = "from repro.experiments.registry import available_experiments; " \
                 "print(' '.join(available_experiments()))"
        fresh = _python("-c", script)
        eager = _python("-c", IMPORT_EVERYTHING + script)
        assert fresh.returncode == eager.returncode == 0
        assert fresh.stdout == eager.stdout
        assert {"fact1", "fig4a", "fig5d", "thm2"} <= set(fresh.stdout.decode().split())

    def test_list_subcommand_is_complete(self):
        fresh = _run_cli(["list"])
        eager = _run_cli(["list"], before=IMPORT_EVERYTHING)
        assert fresh.returncode == eager.returncode == 0
        assert fresh.stdout == eager.stdout
        assert b"fig4a" in fresh.stdout and b"thm2" in fresh.stdout

    def test_miner_registry_is_complete(self):
        result = _python("-c", "from repro.pipeline.miners import available_miners; "
                               "print(' '.join(available_miners()))")
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.decode().split() == ["distribution", "rules", "tree"]

    def test_lint_rule_list_is_complete(self):
        result = _python("-m", "repro", "lint", "--list-rules")
        assert result.returncode == 0, result.stderr.decode()
        rule_ids = [line.split()[0] for line in result.stdout.decode().splitlines()]
        assert rule_ids == [f"RL00{index}" for index in range(1, 8)]
