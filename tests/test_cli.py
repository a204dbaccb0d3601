"""Tests for the command-line interface."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.rr import streaming

from oracles.rr import CodeWriterReference, iter_code_chunks_reference

#: A code stream over a 12-category domain with every token form ``int()``
#: accepts (sign, underscore, non-ASCII digit) and tabs, CRLF, blank lines
#: and no final newline.
EDGE_CODES = "0 +1\t2\r\n\n3 1_0\n\u0663  2\n\n\t1 0\r\n11 3"

#: Tiny optimizer budget for campaign CLI tests.
FAST_CAMPAIGN = ["--generations", "5", "--population", "8"]


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig4a" in output
        assert "thm2" in output


class TestSearchSpace:
    def test_prints_fact1_exponent(self, capsys):
        assert main(["search-space", "--categories", "10", "--grid", "100"]) == 0
        assert "10^126" in capsys.readouterr().out


class TestOptimize:
    def test_optimize_small_run(self, capsys):
        exit_code = main([
            "optimize",
            "--distribution", "normal",
            "--categories", "6",
            "--records", "2000",
            "--delta", "0.8",
            "--generations", "15",
            "--population", "12",
            "--seed", "1",
            "--plot",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "privacy range" in output
        assert "Pareto front" in output

    def test_optimize_adult_attribute(self, capsys):
        exit_code = main([
            "optimize",
            "--distribution", "adult:sex",
            "--records", "1000",
            "--generations", "10",
            "--population", "8",
        ])
        assert exit_code == 0
        assert "privacy range" in capsys.readouterr().out


class TestCompareSchemes:
    def test_prints_three_family_tables(self, capsys):
        assert main(["compare-schemes", "--categories", "5", "--records", "1000"]) == 0
        output = capsys.readouterr().out
        assert "warner" in output
        assert "frapp" in output
        assert "uniform-perturbation" in output


class TestRun:
    def test_run_fact1(self, capsys):
        assert main(["run", "fact1"]) == 0
        assert "1.98e126" in capsys.readouterr().out.replace("REPRODUCED] fact1: paper: ", "")

    def test_run_fig4a_small(self, capsys):
        exit_code = main([
            "run", "fig4a", "--generations", "30", "--population", "12", "--plot",
        ])
        output = capsys.readouterr().out
        assert "fig4a" in output
        assert exit_code in (0, 1)  # tiny budgets may legitimately diverge

    def test_unknown_experiment_exits_2_with_message(self, capsys):
        assert main(["run", "does-not-exist"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_rejected_override_exits_2_listing_accepted_keys(self, capsys):
        # thm2 does not take an optimizer budget; the error must name the
        # accepted keys instead of surfacing a raw TypeError.
        assert main(["run", "thm2", "--population", "8"]) == 2
        error = capsys.readouterr().err
        assert "does not accept" in error
        assert "n_categories" in error


class TestCampaign:
    def test_campaign_runs_and_writes_aggregate(self, capsys, tmp_path):
        output = tmp_path / "aggregate.json"
        exit_code = main([
            "campaign", "fact1", "fig4a",
            "--seeds", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--output", str(output),
            *FAST_CAMPAIGN,
        ])
        assert exit_code == 0
        stdout = capsys.readouterr().out
        assert "2 experiment(s) x 2 seed(s) = 4 run(s)" in stdout
        assert "fact1" in stdout
        assert "fig4a" in stdout
        document = json.loads(output.read_text())
        assert document["type"] == "campaign_aggregate"
        assert set(document["experiments"]) == {"fact1", "fig4a"}
        assert document["experiments"]["fig4a"]["seeds"] == [0, 1]

    def test_campaign_glob_patterns_expand(self, capsys):
        assert main(["campaign", "fig4[ab]", "--seeds", "1", *FAST_CAMPAIGN]) == 0
        stdout = capsys.readouterr().out
        assert "fig4a" in stdout
        assert "fig4b" in stdout

    def test_cached_rerun_is_byte_identical(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        arguments = ["campaign", "fact1", "--seeds", "2", "--cache-dir", cache]
        assert main(arguments + ["--output", str(first)]) == 0
        assert main(arguments + ["--jobs", "2", "--output", str(second)]) == 0
        assert "2 from cache" in capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()

    def test_unmatched_pattern_exits_2(self, capsys):
        assert main(["campaign", "fig9*", "--seeds", "1"]) == 2
        assert "matches no experiment" in capsys.readouterr().err

    def test_zero_seeds_exits_2(self, capsys):
        assert main(["campaign", "fact1", "--seeds", "0"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_zero_jobs_exits_2(self, capsys):
        assert main(["campaign", "fact1", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_missing_output_directory_fails_before_running(self, capsys, tmp_path):
        exit_code = main([
            "campaign", "fact1", "--seeds", "1",
            "--output", str(tmp_path / "nope" / "agg.json"),
        ])
        assert exit_code == 2
        error = capsys.readouterr().err
        assert "--output" in error

    def test_cache_dir_pointing_at_file_exits_2(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        exit_code = main([
            "campaign", "fact1", "--seeds", "1", "--cache-dir", str(blocker),
        ])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_cache_dir_nested_under_a_file_exits_2(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        exit_code = main([
            "campaign", "fact1", "--seeds", "1",
            "--cache-dir", str(blocker / "cache"),
        ])
        assert exit_code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_output_pointing_at_directory_exits_2(self, capsys, tmp_path):
        exit_code = main([
            "campaign", "fact1", "--seeds", "1", "--output", str(tmp_path),
        ])
        assert exit_code == 2
        assert "existing directory" in capsys.readouterr().err


class TestOptimizeOutput:
    def test_writes_loadable_front_document(self, capsys, tmp_path):
        output = tmp_path / "front.json"
        exit_code = main([
            "optimize", "--distribution", "normal", "--categories", "5",
            "--records", "1000", "--generations", "8", "--population", "8",
            "--output", str(output),
        ])
        assert exit_code == 0
        assert "front written to" in capsys.readouterr().out
        from repro.io import load_result

        result = load_result(output)
        assert len(result.points) > 0
        assert result.points[0].matrix.n_categories == 5

    def test_missing_output_directory_fails_before_running(self, capsys, tmp_path):
        exit_code = main([
            "optimize", "--distribution", "normal",
            "--output", str(tmp_path / "nope" / "front.json"),
        ])
        assert exit_code == 2
        assert "--output" in capsys.readouterr().err


#: Tiny pipeline workload shared by the CLI pipeline tests.
FAST_PIPELINE = ["--data", "adult:sex", "--records", "600"]


class TestPipeline:
    def test_runs_schemes_and_writes_aggregate(self, capsys, tmp_path):
        output = tmp_path / "aggregate.json"
        exit_code = main([
            "pipeline", *FAST_PIPELINE,
            "--schemes", "warner:0.8,warner:0.7",
            "--miners", "tree,rules,distribution",
            "--seeds", "0-1",
            "--output", str(output),
        ])
        assert exit_code == 0
        stdout = capsys.readouterr().out
        assert "2 scheme(s) x 2 seed(s) x 3 miner(s) = 12 cell(s)" in stdout
        assert "warner:0.8" in stdout
        document = json.loads(output.read_text())
        assert document["type"] == "pipeline_aggregate"
        assert document["seeds"] == [0, 1]
        assert [row["scheme"] for row in document["schemes"]] == [
            "warner:0.8", "warner:0.7",
        ]

    def test_result_document_written(self, capsys, tmp_path):
        result_path = tmp_path / "result.json"
        exit_code = main([
            "pipeline", *FAST_PIPELINE,
            "--schemes", "warner:0.8", "--miners", "distribution",
            "--seeds", "1", "--result", str(result_path),
        ])
        assert exit_code == 0
        document = json.loads(result_path.read_text())
        assert document["type"] == "pipeline_result"
        assert len(document["cells"]) == 1

    def test_byte_identical_across_jobs_and_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        third = tmp_path / "third.json"
        arguments = [
            "pipeline", *FAST_PIPELINE,
            "--schemes", "warner:0.8,warner:0.7", "--miners", "tree,rules",
            "--seeds", "0-1", "--cache-dir", cache,
        ]
        assert main(arguments + ["--jobs", "2", "--output", str(first)]) == 0
        assert main(arguments + ["--jobs", "1", "--output", str(second)]) == 0
        assert "8 from cache" in capsys.readouterr().out
        assert main([
            "pipeline", *FAST_PIPELINE,
            "--schemes", "warner:0.8,warner:0.7", "--miners", "tree,rules",
            "--seeds", "0-1", "--output", str(third),
        ]) == 0
        assert first.read_bytes() == second.read_bytes() == third.read_bytes()

    def test_front_document_feeds_the_pipeline(self, capsys, tmp_path):
        front = tmp_path / "front.json"
        assert main([
            "optimize", "--distribution", "adult:sex", "--records", "600",
            "--generations", "8", "--population", "8",
            "--output", str(front),
        ]) == 0
        exit_code = main([
            "pipeline", *FAST_PIPELINE,
            "--front", str(front), "--front-schemes", "2",
            "--miners", "distribution", "--seeds", "1",
        ])
        assert exit_code == 0
        assert "front[00]" in capsys.readouterr().out

    def test_schemes_or_front_required(self, capsys):
        assert main(["pipeline", *FAST_PIPELINE]) == 2
        assert "--schemes" in capsys.readouterr().err

    def test_unreadable_front_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "absent.json"
        assert main([
            "pipeline", *FAST_PIPELINE, "--front", str(missing),
        ]) == 2
        assert "--front" in capsys.readouterr().err

    def test_bad_seeds_exit_2(self, capsys):
        assert main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--seeds", "x",
        ]) == 2
        assert "seeds" in capsys.readouterr().err

    def test_unknown_miner_exits_2(self, capsys):
        assert main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--miners", "nope",
        ]) == 2
        assert "unknown miner" in capsys.readouterr().err

    def test_bad_scheme_exits_2(self, capsys):
        assert main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner",
        ]) == 2
        assert "family:parameter" in capsys.readouterr().err

    def test_conflicting_categories_exit_2(self, capsys):
        assert main([
            "pipeline", "--data", "adult:sex", "--categories", "10",
            "--schemes", "warner:0.8",
        ]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_miner_param_override_applies(self, capsys, tmp_path):
        result_path = tmp_path / "result.json"
        exit_code = main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--miners", "rules", "--seeds", "1",
            "--miner-param", "rules:min_support=0.2",
            "--result", str(result_path),
        ])
        assert exit_code == 0
        document = json.loads(result_path.read_text())
        assert document["miner_params"]["rules"]["min_support"] == 0.2

    def test_miner_param_accepts_documented_alias(self, capsys):
        exit_code = main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--miners", "dist", "--seeds", "1",
            "--miner-param", "dist:method=inversion",
        ])
        assert exit_code == 0

    def test_cell_time_estimation_error_exits_2(self, capsys):
        # The method value is only validated when the miner runs; the failure
        # must still surface as the documented exit-2 error, not a traceback.
        exit_code = main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--miners", "distribution", "--seeds", "1",
            "--miner-param", "distribution:method=nope",
        ])
        assert exit_code == 2
        assert "unknown estimation method" in capsys.readouterr().err

    def test_uncoercible_miner_param_value_exits_2(self, capsys):
        exit_code = main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--miners", "tree", "--miner-param", "tree:max_depth=abc",
        ])
        assert exit_code == 2
        assert "expects a" in capsys.readouterr().err

    def test_front_schemes_without_front_exits_2(self, capsys):
        exit_code = main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--front-schemes", "2",
        ])
        assert exit_code == 2
        assert "--front-schemes" in capsys.readouterr().err

    def test_malformed_miner_param_exits_2(self, capsys):
        assert main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--miner-param", "rules-min_support-0.2",
        ]) == 2
        assert "miner:key=value" in capsys.readouterr().err

    def test_missing_output_directory_fails_before_running(self, capsys, tmp_path):
        assert main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--output", str(tmp_path / "nope" / "agg.json"),
        ]) == 2
        assert "--output" in capsys.readouterr().err

    def test_zero_jobs_exits_2(self, capsys):
        assert main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8", "--jobs", "0",
        ]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestAdultCategoriesResolution:
    def test_optimize_derives_categories_from_adult_attribute(self, capsys):
        exit_code = main([
            "optimize", "--distribution", "adult:sex",
            "--records", "500", "--generations", "5", "--population", "8",
        ])
        assert exit_code == 0
        assert "privacy range" in capsys.readouterr().out

    def test_optimize_accepts_matching_explicit_categories(self, capsys):
        exit_code = main([
            "optimize", "--distribution", "adult:sex", "--categories", "2",
            "--records", "500", "--generations", "5", "--population", "8",
        ])
        assert exit_code == 0

    def test_optimize_rejects_conflicting_categories(self, capsys):
        exit_code = main([
            "optimize", "--distribution", "adult:sex", "--categories", "10",
            "--records", "500", "--generations", "5", "--population", "8",
        ])
        assert exit_code == 2
        error = capsys.readouterr().err
        assert "--categories 10 conflicts" in error
        assert "'sex'" in error

    def test_compare_schemes_rejects_conflicting_categories(self, capsys):
        exit_code = main([
            "compare-schemes", "--distribution", "adult:sex",
            "--categories", "5", "--records", "500",
        ])
        assert exit_code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_compare_schemes_derives_categories(self, capsys):
        exit_code = main([
            "compare-schemes", "--distribution", "adult:sex", "--records", "500",
        ])
        assert exit_code == 0
        assert "warner" in capsys.readouterr().out

    def test_unknown_adult_attribute_exits_2(self, capsys):
        assert main(["optimize", "--distribution", "adult:nope"]) == 2
        assert "error" in capsys.readouterr().err


class TestDisguise:
    def test_singular_matrix_fails_closed_with_inversion(self, tmp_path, capsys):
        """Warner at p = 1/n is singular: the default inversion estimator
        cannot work, so the command refuses before writing any code."""
        codes = tmp_path / "codes.txt"
        codes.write_text("0\n1\n2\n3\n", encoding="utf-8")
        output = tmp_path / "disguised.txt"
        argv = ["disguise", str(codes), "--matrix", "warner:0.25", "--categories", "4",
                "--output", str(output)]
        assert main(argv) == 2
        stderr = capsys.readouterr().err
        assert "not invertible" in stderr and "--estimator iterative" in stderr
        assert "Traceback" not in stderr
        assert not output.exists()
        assert main(argv + ["--estimator", "iterative"]) == 0
        assert len(output.read_text(encoding="utf-8").split()) == 4


    @pytest.mark.parametrize("chunk_size", ["1", "3", "65536"])
    @pytest.mark.parametrize(
        "text", [EDGE_CODES, EDGE_CODES + " 4 1.0 5\n"], ids=["valid", "non-integer"]
    )
    def test_byte_identical_to_per_token_oracle_path(
        self, tmp_path, capsys, monkeypatch, chunk_size, text
    ):
        """Codes on stdout and in --output, the report and the exit code
        equal those of the frozen per-token reader and per-code writer."""
        codes = tmp_path / "codes.txt"
        codes.write_text(text, encoding="utf-8")
        output, report = tmp_path / "disguised.txt", tmp_path / "report.json"
        argv = ["disguise", str(codes), "--matrix", "warner:0.8", "--categories", "12",
                "--chunk-size", chunk_size, "--seed", "5", "--report", str(report)]

        def run():
            outcomes = []
            for extra in ([], ["--output", str(output)]):
                output.unlink(missing_ok=True)
                report.unlink(missing_ok=True)
                code = main(argv + extra)
                captured = capsys.readouterr()
                outcomes.append((
                    code, captured.out, captured.err,
                    *(path.read_bytes() if path.exists() else None for path in (output, report)),
                ))
            return outcomes

        array_path = run()
        monkeypatch.setattr(streaming, "iter_code_chunks", iter_code_chunks_reference)
        monkeypatch.setattr(streaming, "CodeWriter", CodeWriterReference)
        assert array_path == run()
        expected_exit = 0 if text == EDGE_CODES else 2
        assert [outcome[0] for outcome in array_path] == [expected_exit] * 2

    @pytest.mark.parametrize(
        "data, expected",
        [
            (b"\xff\xfe0 1\n", "byte 0xff at offset 0 (invalid start byte)"),
            (b"0 1 2\n3 \xc3", "byte 0xc3 at offset 8 (unexpected end of data)"),
        ],
        ids=["invalid-start", "truncated"],
    )
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_input_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, source, data, expected
    ):
        argv = ["disguise", "--matrix", "warner:0.8", "--categories", "4"]
        if source == "file":
            codes = tmp_path / "codes.txt"
            codes.write_bytes(data)
            argv.insert(1, str(codes))
        else:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"optrr: error: input is not UTF-8 text: {expected}\n"
        )

    def test_multibyte_codes_split_across_read_batches(self, tmp_path, capsys, monkeypatch):
        # U+0663 (ARABIC-INDIC DIGIT THREE) is two bytes; a one-byte batch
        # splits every one of them.
        monkeypatch.setattr(streaming, "CODE_BATCH_CHARS", 1)
        codes = tmp_path / "codes.txt"
        codes.write_text("٣ 1\n٣٣", encoding="utf-8")
        output = tmp_path / "disguised.txt"
        argv = ["disguise", str(codes), "--matrix", "warner:0.8", "--categories", "34",
                "--estimator", "iterative", "--output", str(output)]
        assert main(argv) == 0
        assert "3 record(s)" in capsys.readouterr().out

    def test_out_of_range_code_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 99999999999999999999"))
        assert main(["disguise", "--matrix", "warner:0.8", "--categories", "4"]) == 2
        assert capsys.readouterr().err == (
            "optrr: error: input code '99999999999999999999' is out of the "
            "64-bit integer range\n"
        )


class TestArgumentErrors:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


#: Tiny shared workload for checkpoint/resume CLI tests.
FAST_OPTIMIZE = [
    "optimize", "--distribution", "normal", "--categories", "6",
    "--records", "2000", "--population", "8", "--seed", "3",
]


class TestOptimizeCheckpointResume:
    def test_interrupted_resume_is_byte_identical(self, tmp_path, capsys):
        full = tmp_path / "full.json"
        resumed = tmp_path / "resumed.json"
        checkpoint = tmp_path / "ck.json"
        assert main(FAST_OPTIMIZE + ["--generations", "6", "--output", str(full)]) == 0
        # "Interrupted" run: a smaller budget with per-generation checkpoints.
        assert main(
            FAST_OPTIMIZE
            + ["--generations", "2", "--checkpoint", str(checkpoint),
               "--checkpoint-every", "1"]
        ) == 0
        assert checkpoint.is_file()
        # Resume extends the budget; the result must match the uninterrupted
        # run byte for byte.
        assert main(
            ["optimize", "--resume", str(checkpoint), "--generations", "6",
             "--output", str(resumed)]
        ) == 0
        assert full.read_bytes() == resumed.read_bytes()

    @pytest.mark.parametrize("flags", [[], ["--fidelity"]], ids=["plain", "fidelity"])
    def test_resumed_checkpoint_equals_uninterrupted(self, tmp_path, capsys, flags):
        """A resumed run writes the same checkpoint (Ω layout included) as
        an uninterrupted one; only the wall-clock field may differ."""
        full = tmp_path / "full.ck.json"
        resumed = tmp_path / "resumed.ck.json"
        every = ["--checkpoint-every", "1"]
        assert main(
            FAST_OPTIMIZE + flags + ["--generations", "6", "--checkpoint", str(full)] + every
        ) == 0
        assert main(
            FAST_OPTIMIZE + flags + ["--generations", "2", "--checkpoint", str(resumed)] + every
        ) == 0
        assert main(["optimize", "--resume", str(resumed), "--generations", "6"]) == 0

        def timeless(path):
            document = json.loads(path.read_text(encoding="utf-8"))
            document.pop("elapsed_seconds")
            return document

        assert timeless(resumed) == timeless(full)

    def test_resume_of_finished_run_replays_result(self, tmp_path, capsys):
        full = tmp_path / "full.json"
        replay = tmp_path / "replay.json"
        checkpoint = tmp_path / "ck.json"
        assert main(
            FAST_OPTIMIZE
            + ["--generations", "4", "--checkpoint", str(checkpoint),
               "--checkpoint-every", "1", "--output", str(full)]
        ) == 0
        # Without a new budget, resume reproduces the finished run's result
        # from the checkpoint without recomputing any generations.
        assert main(
            ["optimize", "--resume", str(checkpoint), "--output", str(replay)]
        ) == 0
        assert full.read_bytes() == replay.read_bytes()

    def test_deadline_flag_accepts_run(self, tmp_path, capsys):
        output = tmp_path / "out.json"
        assert main(
            FAST_OPTIMIZE
            + ["--generations", "3", "--deadline", "9999", "--output", str(output)]
        ) == 0
        assert output.is_file()

    def test_checkpoint_every_requires_destination(self, capsys):
        assert main(FAST_OPTIMIZE + ["--generations", "2", "--checkpoint-every", "1"]) == 2
        assert "--checkpoint-every" in capsys.readouterr().err

    def test_checkpoint_every_must_be_positive(self, tmp_path, capsys):
        assert main(
            FAST_OPTIMIZE
            + ["--generations", "2", "--checkpoint", str(tmp_path / "c.json"),
               "--checkpoint-every", "0"]
        ) == 2
        assert "at least 1" in capsys.readouterr().err

    def test_deadline_must_be_positive(self, capsys):
        assert main(FAST_OPTIMIZE + ["--generations", "2", "--deadline", "0"]) == 2
        assert "--deadline" in capsys.readouterr().err

    def test_resume_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["optimize", "--resume", str(tmp_path / "absent.json")]) == 2
        assert "cannot read --resume" in capsys.readouterr().err

    def test_resume_non_checkpoint_document_is_usage_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"type": "rr_matrix", "format_version": 1}))
        assert main(["optimize", "--resume", str(bogus)]) == 2
        assert "checkpoint" in capsys.readouterr().err


class TestRunCheckpointFlags:
    FAST_RUN = ["run", "fig4a", "--generations", "4", "--population", "8"]

    def test_checkpoint_dir_cleaned_after_success(self, tmp_path, capsys):
        parts = tmp_path / "parts"
        code = main(self.FAST_RUN + ["--checkpoint-dir", str(parts)])
        assert code in (0, 1)  # reproduction verdict is budget-dependent
        assert not list(parts.glob("*.json"))

    def test_resume_alias_sets_checkpoint_dir(self, tmp_path, capsys):
        parts = tmp_path / "parts"
        code = main(self.FAST_RUN + ["--resume", str(parts)])
        assert code in (0, 1)
        assert parts.is_dir()

    def test_checkpoint_every_requires_directory(self, capsys):
        assert main(self.FAST_RUN + ["--checkpoint-every", "2"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_deadline_flag(self, capsys):
        code = main(self.FAST_RUN + ["--deadline", "9999"])
        assert code in (0, 1)
