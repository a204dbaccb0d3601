"""There is no backend selection: one kernel set, and old documents still work.

``--backend`` and ``REPRO_BACKEND`` used to choose between kernel sets that
all produced the same bytes.  What remains to pin down:

* the removed flag is an unknown argument on every subcommand that had it
  (usage error, exit 2, no traceback);
* a checkpoint written with ``"backend": "numpy-fused"`` (the committed
  ``data/legacy_fused_checkpoint.json``, produced by the last release that
  had the option) resumes to the byte-identical result, and an
  ``experiment_result`` document carrying ``backend`` still parses;
* campaign and pipeline cache keys do not depend on ``REPRO_BACKEND``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.campaign import plan_campaign
from repro.experiments.runner import run_experiment
from repro.io import experiment_result_from_dict, experiment_result_to_dict
from repro.pipeline import plan_pipeline

LEGACY_CHECKPOINT = Path(__file__).parent / "data" / "legacy_fused_checkpoint.json"

#: The workload the legacy checkpoint was written for (generation 2 of 4).
LEGACY_OPTIMIZE = [
    "optimize", "--distribution", "normal", "--categories", "3",
    "--records", "500", "--population", "4", "--seed", "3",
]


@pytest.mark.parametrize(
    "argv",
    [
        LEGACY_OPTIMIZE + ["--generations", "2", "--backend", "numpy"],
        ["run", "fact1", "--backend", "numpy"],
        ["campaign", "fact1", "--backend", "numpy"],
        ["pipeline", "--data", "normal", "--schemes", "warner:0.8",
         "--miners", "dist", "--backend", "numpy"],
        ["disguise", "--matrix", "warner:0.8", "--categories", "4",
         "--backend", "numpy"],
    ],
    ids=["optimize", "run", "campaign", "pipeline", "disguise"],
)
def test_unknown_backend_flag_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --backend" in err
    assert "Traceback" not in err


class TestCLIBackendRuns:
    def test_fused_kill_resume_is_byte_identical(self, tmp_path, capsys):
        """A run interrupted under the old ``numpy-fused`` option resumes to
        the same bytes as an uninterrupted run today."""
        checkpoint = tmp_path / "ck.json"
        shutil.copyfile(LEGACY_CHECKPOINT, checkpoint)
        assert json.loads(checkpoint.read_text())["backend"] == "numpy-fused"
        full = tmp_path / "full.json"
        resumed = tmp_path / "resumed.json"
        assert main(LEGACY_OPTIMIZE + ["--generations", "4", "--output", str(full)]) == 0
        assert main(
            ["optimize", "--resume", str(checkpoint), "--generations", "4",
             "--output", str(resumed)]
        ) == 0
        assert full.read_bytes() == resumed.read_bytes()
        # Checkpoints written from now on no longer carry the key.
        assert "backend" not in json.loads(checkpoint.read_text())


def test_experiment_result_with_backend_key_still_parses():
    result = run_experiment("fact1", seed=0)
    document = experiment_result_to_dict(result)
    assert "backend" not in document
    legacy = {**document, "backend": "numpy-fused"}
    restored = experiment_result_from_dict(legacy)
    assert experiment_result_to_dict(restored) == document


def test_cache_keys_ignore_repro_backend(monkeypatch):
    def keys():
        campaign = plan_campaign(["fact1"], [0, 1])
        pipeline = plan_pipeline(
            "normal", schemes=["warner:0.8"], miners=["distribution"], seeds=[0]
        )
        return [task.cache_key() for task in (*campaign.tasks(), *pipeline.tasks())]

    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    default = keys()
    for value in ("numpy", "numpy-fused", "numba", "cupy"):
        monkeypatch.setenv("REPRO_BACKEND", value)
        assert keys() == default
