"""Command-line interface: outputs, exit codes, determinism."""

import contextlib
import gc
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import textwrap
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonbraid import cli, compiler, model_io
from anyonbraid import model as model_module
from anyonbraid.cli import _write_json, main

from test_model import spy_on_blocks
from test_model_io import Z3_TEXT

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_fibonacci_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--model", "fibonacci")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["passed"] is True
        assert payload["report"]["max_pentagon_residual"] < 1e-10
        assert payload["vacuum_probability_residual"] < 1e-10

    def test_su2_k4_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--model", "su2_k", "--k", "4")
        assert code == 0
        assert json.loads(out)["report"]["passed"] is True

    def test_model_file_passes(self, capsys, tmp_path):
        path = tmp_path / "z3.model"
        path.write_text(Z3_TEXT)
        code, out, _ = run_cli(capsys, "verify", "--model", str(path))
        assert code == 0
        assert json.loads(out)["model"] == "z3"

    def test_inconsistent_file_reports_and_fails(self, capsys, tmp_path):
        bad = Z3_TEXT.replace("1 1 2  -0.5  0.8660254037844386",
                              "1 1 2  -0.51  0.8660254037844386")
        path = tmp_path / "bad.model"
        path.write_text(bad)
        code, out, _ = run_cli(capsys, "verify", "--model", str(path))
        assert code == 1
        assert json.loads(out)["report"]["max_hexagon_residual"] > 1e-10

    @pytest.mark.parametrize("old,new,where", [
        ("1 1 1 1 1 1 -0.6180339887498948", "1 1 1 1 1 1 nan", "line "),
        ("1:1.618033988749895", "1:nan", "qdim for '1'"),
    ])
    def test_non_finite_file_is_usage_error(self, capsys, tmp_path, old, new, where):
        from anyonbraid import load_builtin

        text = model_file_text(load_builtin("fibonacci"), "fib")
        assert old in text
        path = tmp_path / "nan.model"
        path.write_text(text.replace(old, new))
        for command in (["verify"], ["braid-check", "--word", "s1", "--seed", "1"]):
            code, out, err = run_cli(capsys, *command, "--model", str(path))
            assert (code, out) == (2, "")
            assert err.startswith("error:") and err.count("\n") == 1
            assert where in err and "not finite" in err

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "junk.model"
        path.write_text("not a model at all")
        code, _, err = run_cli(capsys, "verify", "--model", str(path))
        assert code == 2
        assert "error" in err

    def test_unknown_model_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--model", "heisenberg")
        assert code == 2

    def test_oversized_level_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--model", "su2_k", "--k", "60")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "61 charges exceed the limit of 16" in err

    def test_out_of_memory_in_a_walk_worker_is_a_clean_error(self, capsys, monkeypatch):
        # A worker thread, not the caller, runs out of memory in a block;
        # the caller holds its own first block until that has happened.
        # su2_k at k = 6 is the smallest level whose pentagon walk has
        # equations enough for a second worker.
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 2)
        failed = threading.Event()

        def failing(residual):
            def block(trees):
                if threading.current_thread() is threading.main_thread():
                    assert failed.wait(10)
                    return residual(trees)
                failed.set()
                raise MemoryError("Unable to allocate 1.00 GiB for an array")
            return block

        spy_on_blocks(monkeypatch, failing)
        before = threading.active_count()
        code, out, err = run_cli(capsys, "verify", "--model", "su2_k", "--k", "6")
        assert (code, out) == (1, "")
        assert err == "error: out of memory: Unable to allocate 1.00 GiB for an array\n"
        assert failed.is_set()
        assert threading.active_count() == before

    def test_out_of_memory_in_the_pentagon_setup_is_a_clean_error(self, capsys,
                                                                   monkeypatch):
        # the pentagon's set-up is built while the hexagon walk runs on a
        # thread beside it
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 2)
        setups = []

        def no_room(N, rows):
            setups.append(threading.current_thread() is threading.main_thread())
            raise MemoryError()

        monkeypatch.setattr(model_module, "_pentagon_trees", no_room)
        before = threading.active_count()
        code, out, err = run_cli(capsys, "verify", "--model", "su2_k", "--k", "7")
        assert (code, out, err) == (1, "", "error: out of memory\n")
        assert setups == [True]
        assert threading.active_count() == before

    def test_builtin_name_wins_over_same_named_file(self, capsys, tmp_path,
                                                    monkeypatch):
        (tmp_path / "ising").write_text("not a model at all")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "verify", "--model", "ising")
        assert code == 0
        assert json.loads(out)["model"] == "ising"
        code, _, err = run_cli(capsys, "verify", "--model", os.path.join(".", "ising"))
        assert code == 2
        assert "model file error" in err

    def test_model_file_is_checked_once(self, capsys, tmp_path, monkeypatch):
        from anyonbraid.model import AnyonModel

        calls = []
        check = AnyonModel.verify_consistency

        def counted(self, *args, **kwargs):
            calls.append(self.name)
            return check(self, *args, **kwargs)

        monkeypatch.setattr(AnyonModel, "verify_consistency", counted)
        path = tmp_path / "z3.model"
        path.write_text(Z3_TEXT)
        code, out, _ = run_cli(capsys, "verify", "--model", str(path))
        assert code == 0
        assert calls == ["z3"]

    def test_report_fields_in_order(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--model", "fibonacci")
        assert list(json.loads(out)["report"]) == [
            "max_pentagon_residual", "max_hexagon_residual",
            "max_unitarity_residual", "qdim_residual", "tolerance", "passed"]

    @pytest.mark.parametrize("section,row", [
        ("[f]", "1 1 1 1 1 1 5"),  # 1 x 1 -> 1 is not a Z2 fusion channel
        ("[r]", "1 1 1 3"),
    ])
    def test_inadmissible_row_is_usage_error(self, capsys, tmp_path, section, row):
        text = ("name: z2\ncharges: 0 1\ndual: 0:0 1:1\nqdim: 0:1 1:1\n"
                f"[fusion]\n1 1 -> 0\n{section}\n{row}\n")
        path = tmp_path / "z2.model"
        path.write_text(text)
        code, _, err = run_cli(capsys, "verify", "--model", str(path))
        assert code == 2
        assert "line 8" in err and "not admissible" in err

    def test_csv_and_human_formats(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--model", "ising",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        code, out, _ = run_cli(capsys, "verify", "--model", "ising", "--human")
        assert code == 0
        assert "report.passed" in out


class TestTeleportStats:
    def test_ising_summary(self, capsys):
        code, out, _ = run_cli(capsys, "teleport-stats", "--model", "ising",
                               "--seed", "7", "--trials", "600")
        assert code == 0
        payload = json.loads(out)
        stats = payload["per_channel_success"]
        for channel in ("0", "1"):
            assert abs(stats[channel]["z"]) < 4.0
            assert stats[channel]["expected"] == pytest.approx(0.5)
        assert payload["attempts"]["bound"] == pytest.approx(2.0)
        assert payload["max_attempts_exceeded"] == 0

    def test_summary_recomputable_from_counts(self, capsys):
        # the printed z-scores must follow from the printed counts alone
        code, out, _ = run_cli(capsys, "teleport-stats", "--model", "fibonacci",
                               "--seed", "3", "--trials", "400")
        payload = json.loads(out)
        for channel, stats in payload["per_channel_success"].items():
            p_hat = stats["successes"] / stats["attempts"]
            assert p_hat == stats["empirical"]
            sigma = math.sqrt(stats["expected"] * (1 - stats["expected"])
                              / stats["attempts"])
            assert stats["z"] == (p_hat - stats["expected"]) / sigma

    def test_byte_identical_reruns(self, capsys):
        args = ("teleport-stats", "--model", "fibonacci", "--seed", "11",
                "--trials", "120", "--trace")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_csv_rows_match_json_values(self, capsys):
        base = ("teleport-stats", "--model", "ising", "--seed", "13",
                "--trials", "200")
        _, json_out, _ = run_cli(capsys, *base)
        _, csv_out, _ = run_cli(capsys, *base, "--format", "csv")
        payload = json.loads(json_out)
        rows = dict(line.split(",", 1) for line in csv_out.splitlines()[1:])
        for channel, stats in payload["per_channel_success"].items():
            successes = int(rows[f"per_channel_success.{channel}.successes"])
            count = int(rows[f"per_channel_success.{channel}.attempts"])
            assert successes == stats["successes"]
            # the printed statistics re-derive exactly from the printed counts
            assert float(rows[f"per_channel_success.{channel}.empirical"]) \
                == successes / count
        assert float(rows["attempts.mean"]) == payload["attempts"]["mean"]

    def test_single_trial_trace(self, capsys):
        code, out, _ = run_cli(capsys, "teleport-stats", "--model", "ising",
                               "--seed", "5", "--trials", "1", "--trace")
        assert code == 0
        payload = json.loads(out)
        assert payload["trace"]
        first = payload["trace"][0]
        assert set(first) == {"pair", "routing", "outcome", "probability",
                              "cumulative_log_probability"}

    def test_max_attempts_one_reports_no_spread(self, capsys):
        # every surviving trial took one attempt: zero spread, no z-score
        code, out, _ = run_cli(capsys, "teleport-stats", "--model", "fibonacci",
                               "--seed", "9", "--trials", "50", "--max-attempts", "1")
        assert code == 0
        attempts = json.loads(out)["attempts"]
        assert attempts["std"] == 0.0
        assert math.isnan(attempts["mean_z"])
        assert attempts["trials"] + json.loads(out)["max_attempts_exceeded"] == 50

    def test_exhausted_trials_count_their_attempts(self, capsys):
        # channel statistics cover every attempt made, including those of
        # trials that ran out of attempts, so they are not conditioned on
        # success
        code, out, _ = run_cli(capsys, "teleport-stats", "--model", "fibonacci",
                               "--seed", "9", "--trials", "50", "--max-attempts", "1")
        assert code == 0
        payload = json.loads(out)
        vacuum = payload["per_channel_success"]["0"]
        assert vacuum["attempts"] == 50
        assert vacuum["successes"] == payload["attempts"]["trials"]
        assert abs(vacuum["z"]) < 3

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["teleport-stats", "--model", "ising", "--trials", "5"])
        assert excinfo.value.code == 2


class TestBraidCheck:
    def test_single_generator(self, capsys):
        code, out, _ = run_cli(capsys, "braid-check", "--model", "ising",
                               "--word", "s1", "--seed", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_fidelity"] >= 1 - 1e-9
        assert payload["resource_defect"] < 1e-10
        assert payload["passed"] is True

    def test_word_and_inverse(self, capsys):
        code, out, _ = run_cli(capsys, "braid-check", "--model", "fibonacci",
                               "--word", "s1 s1'", "--seed", "2")
        assert code == 0
        assert json.loads(out)["oracle_fidelity"] >= 1 - 1e-9

    def test_yang_baxter_comparison(self, capsys):
        code, out, _ = run_cli(capsys, "braid-check", "--model", "fibonacci",
                               "--word", "s1 s2 s1", "--compare-word", "s2 s1 s2",
                               "--seed", "3", "--random-state")
        assert code == 0
        payload = json.loads(out)
        assert payload["compare"]["fidelity"] >= 1 - 1e-9

    def test_random_state_builds_no_array(self, capsys, monkeypatch):
        """``--random-state`` draws its register from the layout alone; the
        default start is the one built register."""
        calls = []
        build_array = compiler.build_array
        monkeypatch.setattr(compiler, "build_array",
                            lambda *a: calls.append(a) or build_array(*a))
        argv = ["braid-check", "--model", "fibonacci", "--n-computational", "3",
                "--word", "s1 s2' s1 s2", "--seed", "5"]
        code, out, _ = run_cli(capsys, *argv, "--random-state")
        assert code == 0
        assert calls == []
        assert out == (DATA / "braid_check_fibonacci.json").read_text()
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) == 1

    def test_bad_word_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "braid-check", "--model", "ising",
                               "--word", "x1", "--seed", "1")
        assert code == 2

    def test_generator_beyond_layout_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "braid-check", "--model", "ising",
                             "--word", "s3", "--n-computational", "2",
                             "--seed", "1")
        assert code == 2

    def test_under_routing_fails_check(self, capsys):
        code, _, err = run_cli(capsys, "braid-check", "--model", "ising",
                               "--word", "s1", "--seed", "4",
                               "--n-computational", "3", "--random-state",
                               "--routing", "under")
        assert code == 1

    def test_failed_compare_prints_payload(self, capsys):
        # the two words differ, and their overlap is neither near 0 nor 1
        code, out, err = run_cli(capsys, "braid-check", "--model", "fibonacci",
                                 "--n-computational", "3", "--word", "s1 s2' s1 s2",
                                 "--compare-word", "s2 s1'", "--seed", "7",
                                 "--random-state")
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert 0.5 < payload["compare"]["fidelity"] < 1 - 1e-6
        assert payload["compare"]["phase"] is None
        assert payload["passed"] is False

    def test_failed_oracle_check_prints_payload(self, capsys, monkeypatch):
        # an oracle of another word, overlapping the run as above
        reference = compiler.direct_braid_reference
        monkeypatch.setattr(compiler, "direct_braid_reference",
                            lambda word, *a, **kw: reference(
                                compiler.BraidWord.parse("s2 s1'"), *a, **kw))
        code, out, err = run_cli(capsys, "braid-check", "--model", "fibonacci",
                                 "--n-computational", "3", "--word", "s1 s2' s1 s2",
                                 "--seed", "7", "--random-state")
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert 0.5 < payload["oracle_fidelity"] < 1 - 1e-6
        assert payload["phase_vs_oracle"] is None
        assert payload["passed"] is False

    def test_empty_compare_word_is_the_empty_word(self, capsys):
        # "" is a word, not "unset": it must not fall back to the oracle
        code, out, err = run_cli(capsys, "braid-check", "--model", "ising",
                                 "--n-computational", "3", "--word", "s2",
                                 "--compare-word", "", "--seed", "1")
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert payload["compare"]["word"] == ""
        assert payload["compare"]["fidelity"] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert "oracle_fidelity" not in payload

    def test_byte_identical_reruns(self, capsys):
        args = ("braid-check", "--model", "su2_k", "--k", "3", "--word",
                "s1 s2'", "--seed", "21")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestCompileRun:
    def test_compile_emits_schedule(self, capsys):
        code, out, _ = run_cli(capsys, "compile", "--model", "ising",
                               "--word", "s1 s2'")
        assert code == 0
        payload = json.loads(out)
        assert payload["format"] == "anyonbraid-schedule-v1"
        assert len(payload["steps"]) == 6
        assert payload["steps"][0]["kind"] == "forced_measurement"

    def test_compile_builds_no_state(self, capsys, monkeypatch):
        from anyonbraid import compiler

        def refuse(*args, **kwargs):
            raise AssertionError("compile attached a pair")

        monkeypatch.setattr(compiler, "attach_pair", refuse)
        code, out, _ = run_cli(capsys, "compile", "--model", "fibonacci",
                               "--n-computational", "6", "--word", "s1 s5'")
        assert code == 0
        assert json.loads(out)["layout"]["computational"] == [0, 3, 6, 9, 12, 15]

    def test_compile_run_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "schedule.json"
        code, _, _ = run_cli(capsys, "compile", "--model", "fibonacci",
                             "--word", "s1", "--output", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "run", "--schedule", str(path),
                               "--seed", "9")
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_fidelity"] >= 1 - 1e-9
        assert payload["records"][0]["attempts"]
        assert payload["resource_defect"] < 1e-10

    def test_run_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "schedule.json"
        run_cli(capsys, "compile", "--model", "ising", "--word", "s1 s1",
                "--output", str(path))
        args = ("run", "--schedule", str(path), "--seed", "123")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_tampered_schedule_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "schedule.json"
        run_cli(capsys, "compile", "--model", "ising", "--word", "s1",
                "--output", str(path))
        data = json.loads(path.read_text())
        data["steps"][1]["pair"] = [0, 1]
        path.write_text(json.dumps(data))
        code, _, _ = run_cli(capsys, "run", "--schedule", str(path), "--seed", "1")
        assert code == 2

    @staticmethod
    def _tampered_run(capsys, tmp_path, tamper, word="s1 s2'"):
        path = tmp_path / "schedule.json"
        run_cli(capsys, "compile", "--model", "fibonacci", "--n-computational", "3",
                "--word", word, "--output", str(path))
        data = json.loads(path.read_text())
        tamper(data)
        path.write_text(json.dumps(data))
        return run_cli(capsys, "run", "--schedule", str(path), "--seed", "1")

    def test_missing_layout_field_is_usage_error(self, capsys, tmp_path):
        code, out, err = self._tampered_run(
            capsys, tmp_path, lambda data: data["layout"].pop("resources"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "resources" in err

    def test_shifted_layout_is_usage_error(self, capsys, tmp_path):
        def shift(data):
            lay = data["layout"]
            lay["computational"] = [q + 1 for q in lay["computational"]]
            lay["resources"] = [[p + 1, q + 1] for p, q in lay["resources"]]
            lay["boundary_partner"] += 1
            for step in data["steps"]:
                for key in ("pair", "recovery", "quad"):
                    step[key] = [q + 1 for q in step[key]]

        code, out, err = self._tampered_run(capsys, tmp_path, shift)
        assert code == 2
        assert out == ""
        assert "canonical layout" in err

    def test_empty_word_with_braid_steps_is_usage_error(self, capsys, tmp_path):
        code, out, err = self._tampered_run(
            capsys, tmp_path, lambda data: data.update(word=""), word="s2")
        assert code == 2
        assert out == ""
        assert "do not match the declared braid word" in err

    def test_economy_layout_is_usage_error(self, capsys, tmp_path):
        code, out, err = self._tampered_run(
            capsys, tmp_path, lambda data: data["layout"].update(self_dual_economy=True))
        assert code == 2
        assert out == ""
        assert "canonical layout" in err

    def test_missing_schedule_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "run", "--schedule",
                             str(tmp_path / "none.json"), "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize("level", ["1e400", "Infinity", "-Infinity", "NaN", "2.5"])
    def test_non_integer_level_is_usage_error(self, capsys, tmp_path, level):
        # json reads 1e400 and Infinity as inf, which int() cannot take,
        # and int() would truncate 2.5
        path = tmp_path / "s.json"
        run_cli(capsys, "compile", "--model", "su2_k", "--k", "3", "--word", "s1",
                "--output", str(path))
        data = json.loads(path.read_text())
        data["layout"]["params"]["k"] = "LEVEL"
        path.write_text(json.dumps(data).replace('"LEVEL"', level))
        code, out, err = run_cli(capsys, "run", "--schedule", str(path), "--seed", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: bad schedule: su2_k level")
        assert err.count("\n") == 1


class TestParserReuse:
    ROW = [
        ["teleport-stats", "--model", "fibonacci", "--seed", "1", "--trials", "3",
         "--trace"],
        ["verify", "--model", "ising", "--format", "csv"],
        ["braid-check", "--model", "ising", "--word", "s1", "--seed", "2", "--human"],
        ["teleport-stats", "--model", "fibonacci", "--seed", "1", "--trials", "3"],
        ["verify", "--model", "ising"],
        ["braid-check", "--model", "ising", "--word", "s1", "--seed", "2"],
    ]

    def test_calls_in_a_row_print_what_a_fresh_parser_prints(self, capsys, monkeypatch):
        fresh = []
        for argv in self.ROW:
            cli._parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        built = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        assert [run_cli(capsys, *argv) for argv in self.ROW] == fresh
        assert len(built) == 1
        # flags of one call do not leak into the next
        assert [out.startswith("{") for _, out, _ in fresh] == [
            True, False, False, True, True, True]


class TestInputErrors:
    """Malformed input exits 2 with one ``error:`` line and no traceback."""

    STOCHASTIC = {
        "teleport-stats": ["teleport-stats", "--model", "ising", "--trials", "5"],
        "braid-check": ["braid-check", "--model", "ising", "--word", "s1"],
        "run": ["run", "--schedule", "schedule.json"],
    }

    def _parse_error(self, capsys, argv, option, message="must be >= "):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert "Traceback" not in err
        assert f"error: argument {option}: {message}" in err.splitlines()[-1]
        assert sum("error:" in line for line in err.splitlines()) == 1

    @pytest.mark.parametrize("command", sorted(STOCHASTIC))
    def test_negative_seed(self, capsys, command):
        self._parse_error(capsys, [*self.STOCHASTIC[command], "--seed", "-1"], "--seed")

    @pytest.mark.parametrize("command", sorted(STOCHASTIC))
    def test_zero_max_attempts(self, capsys, command):
        self._parse_error(capsys, [*self.STOCHASTIC[command], "--seed", "1",
                                   "--max-attempts", "0"], "--max-attempts")

    def test_zero_trials(self, capsys):
        self._parse_error(capsys, [*self.STOCHASTIC["teleport-stats"], "--trials", "0",
                                   "--seed", "1"], "--trials")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["braid-check", "run", "verify"])
    def test_bad_tolerance(self, capsys, command, value):
        # each would otherwise run its check and fail it (exit 1)
        argv = ([*self.STOCHASTIC[command], "--seed", "1"] if command in self.STOCHASTIC
                else ["verify", "--model", "fibonacci"])
        self._parse_error(capsys, [*argv, "--tolerance", value], "--tolerance",
                          "must be finite and >= 0")

    @pytest.mark.parametrize("command", ["braid-check", "compile"])
    def test_zero_n_computational(self, capsys, command):
        # 0 is not "unset": it must not fall back to the word's own size
        seed = ["--seed", "1"] if command == "braid-check" else []
        code, out, err = run_cli(capsys, command, "--model", "ising", "--word", "s1",
                                 "--n-computational", "0", *seed)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "at least 2" in err

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_compile_output(self, capsys, tmp_path, where):
        output = tmp_path / "no_such_dir" / "x.json" if where == "missing_dir" else tmp_path
        code, out, err = run_cli(capsys, "compile", "--model", "ising", "--word", "s1",
                                 "--output", str(output))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write schedule") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_empty_compile_output(self, capsys):
        # "" is a path, not "unset": it must not fall back to stdout
        code, out, err = run_cli(capsys, "compile", "--model", "ising", "--word", "s1",
                                 "--output", "")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write schedule") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        [*STOCHASTIC["teleport-stats"], "--seed", "1"],
        [*STOCHASTIC["braid-check"], "--seed", "1"],
        ["compile", "--model", "ising", "--word", "s1"],
    ], ids=lambda argv: argv[0])
    def test_empty_charge(self, capsys, argv):
        # "" is a label, not "unset": it must not fall back to the default
        code, out, err = run_cli(capsys, *argv, "--charge", "")
        assert (code, out) == (2, "")
        assert err.startswith("error: charge label '' not in model")
        assert err.count("\n") == 1

    def test_zero_max_attempts_in_library(self, ising):
        from anyonbraid import forced_measurement, forced_measurements
        from anyonbraid.streams import TrialStreams
        from conftest import teleport_config

        state = teleport_config(ising, "1/2")
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="max_attempts"):
            forced_measurement(state, (1, 2), (0, 1), rng, max_attempts=0)
        with pytest.raises(ValueError, match="max_attempts"):
            list(forced_measurements(state, (1, 2), (0, 1), TrialStreams(1, [0]),
                                     max_attempts=0))

    def test_non_utf8_model_file(self, capsys, tmp_path):
        path = tmp_path / "bad.model"
        path.write_bytes(b"\xff\xfe not text")
        code, out, err = run_cli(capsys, "verify", "--model", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(path) in err

    def test_non_utf8_schedule_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe not text")
        code, out, err = run_cli(capsys, "run", "--schedule", str(path), "--seed", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(path) in err

    #: Z_2 with a bosonic exchange, and no computational charge in its file.
    Z2_TEXT = ("name: z2\ncharges: 0 1\ndual: 0:0 1:1\nqdim: 0:1 1:1\n"
               "[fusion]\n1 1 -> 0\n[r]\n1 1 0 1\n")

    @pytest.mark.parametrize("argv", [["teleport-stats"], ["braid-check", "--word", "s1"]],
                             ids=lambda argv: argv[0])
    def test_model_file_without_default_charge(self, capsys, tmp_path, argv):
        path = tmp_path / "z2.model"
        path.write_text(self.Z2_TEXT)
        code, out, err = run_cli(capsys, *argv, "--model", str(path), "--seed", "1")
        assert (code, out, err) == (2, "", "error: this model has no default charge; "
                                           "pass --charge\n")

    def test_compare_word_beyond_the_layout(self, capsys):
        code, out, err = run_cli(capsys, "braid-check", "--model", "fibonacci", "--word", "s1",
                                 "--compare-word", "s3", "--seed", "1")
        assert (code, out, err) == (2, "", "error: compare word needs more strands "
                                           "than the layout has\n")

    def test_schedule_that_is_no_json_object(self, capsys, tmp_path):
        path = tmp_path / "schedule.json"
        path.write_text("[1, 2]\n")
        code, out, err = run_cli(capsys, "run", "--schedule", str(path), "--seed", "1")
        assert (code, out, err) == (2, "", "error: bad schedule: a schedule must be a "
                                           "JSON object\n")

    @pytest.mark.parametrize("text,message", [
        (Z2_TEXT.replace("qdim: 0:1 1:1", "qdim: 0:1 1:abc"),
         "qdim for '1' is not a number: 'abc'"),
        (Z2_TEXT.replace("qdim: 0:1", "qdim: 0:2"),
         "invalid model data: quantum dimensions must satisfy d_0 = 1 and d_a >= 1"),
        (Z3_TEXT.replace("qdim: 0:1 1:1 2:1", "qdim: 0:1 1:1 2:1.5"),
         "invalid model data: quantum dimensions must satisfy d_a = d_dual(a)"),
    ], ids=["not-a-number", "vacuum", "dual"])
    def test_bad_quantum_dimensions(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.model"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--model", str(path))
        assert (code, out, err) == (2, "", f"error: model file error: {message}\n")


def model_file_text(model, name):
    """``model`` in the model-file format, every admissible F and R entry
    listed."""
    labels = model.labels
    m = len(labels)
    lines = [f"name: {name}", "charges: " + " ".join(labels),
             "dual: " + " ".join(f"{labels[a]}:{model.dual(a).label}" for a in range(m)),
             "qdim: " + " ".join(f"{labels[a]}:{float(model.qd[a])!r}" for a in range(m)),
             "[fusion]"]
    for a in range(m):
        for b in range(a, m):
            lines.append(f"{labels[a]} {labels[b]} -> "
                         + " ".join(labels[c] for c in np.flatnonzero(model.N[a, b])))
    for section, table, entries in (("[f]", model.F, np.argwhere(model.F != 0)),
                                    ("[r]", model.R, np.argwhere(model.N != 0))):
        lines.append(section)
        lines += [" ".join(labels[i] for i in idx)
                  + f" {float(table[tuple(idx)].real)!r} {float(table[tuple(idx)].imag)!r}"
                  for idx in entries.tolist()]
    return "\n".join(lines) + "\n"


class TestModelFileGate:
    """A model file is gated at the consistency tolerance on every command;
    ``--tolerance`` of ``braid-check`` and ``run`` bounds oracle fidelity."""

    def test_fidelity_tolerance_does_not_gate_the_model(self, capsys, tmp_path):
        from anyonbraid import load_builtin

        path = tmp_path / "fib.model"
        path.write_text(model_file_text(load_builtin("fibonacci"), "fib"))
        code, _, _ = run_cli(capsys, "verify", "--model", str(path), "--tolerance", "0")
        assert code == 1  # its residuals are round-off, not zero
        # At --tolerance 0 only an exact oracle fidelity passes: seed 1 gives
        # 1.0, seed 4 gives 1 - 2e-16.  The file decides as the built-in does.
        for seed, want in (("1", 0), ("4", 1)):
            argv = ("--charge", "1", "--word", "s1", "--seed", seed, "--tolerance", "0")
            code, out, err = run_cli(capsys, "braid-check", "--model", str(path), *argv)
            assert (code, err) == (want, "")
            builtin = run_cli(capsys, "braid-check", "--model", "fibonacci", *argv)
            assert builtin[0] == want
            assert out.replace('"fib"', '"fibonacci"') == builtin[1]


def _docstring_model():
    """The Z3 example model file of :mod:`anyonbraid.model_io`'s docstring."""
    block = model_io.__doc__.split("Example::\n", 1)[1].split("\nVacuum", 1)[0]
    return textwrap.dedent(block)


#: Tokens a mutation writes: non-finite and overflowing numbers, unknown
#: labels and stray pieces of the format's syntax.
_FUZZ_TOKENS = st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "0", "1", "2",
     "-1", "0.5", "3", "x", "1/2", "->", ":", "0:1", "1:nan", "2:1e400", "#",
     "[f]", "[r]", "[fusion]", "[x]", "name:", "charges:", "dual:", "qdim:"])


class TestModelFileFuzz:
    """A mutated model file ends ``verify`` in exit 0, 1 or 2, never an
    exception, and exit 2 prints one ``error:`` line."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "z3.model"

    def test_example_passes(self, capsys, path):
        path.write_text(_docstring_model())
        assert run_cli(capsys, "verify", "--model", str(path))[0] == 0

    @settings(max_examples=400)
    @given(edits=st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                                    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                                    _FUZZ_TOKENS), min_size=1, max_size=6))
    def test_mutated_example(self, path, edits):
        lines = [line.split() for line in _docstring_model().splitlines()]
        for kind, i, j, token in edits:
            line = lines[i % len(lines)]
            if kind == "insert":
                line.insert(j % (len(line) + 1), token)
            elif line:
                j %= len(line)
                if kind == "replace":
                    line[j] = token
                else:
                    del line[j]
        path.write_text("\n".join(" ".join(line) for line in lines) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--model", str(path)])
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert [line.startswith("error:") for line in err.getvalue().splitlines()] == [True]


def _z2_text(f_row, qdim):
    """A Z2 model file with the ``[f]`` row ``f_row`` and the quantum
    dimension ``qdim`` of charge 1."""
    return "\n".join(["name: z2", "charges: 0 1", "dual: 0:0 1:1", f"qdim: 0:1 1:{qdim}",
                      "[fusion]", "1 1 -> 0", "[f]", f_row, "[r]"]) + "\n"


class TestOverflowingResiduals:
    """A residual that overflows reads as infinity or NaN and fails, and no
    numpy warning reaches stderr, whether the walks run on the caller's
    thread alone or start threads."""

    #: The file (F row, qdim); the report's residuals and the vacuum
    #: probability residual that verify prints for it.
    CASES = {
        "f": (("1 1 1 1 0 0 1e308 1e308", "1"),
              {"max_pentagon_residual": "Infinity", "max_hexagon_residual": "NaN",
               "max_unitarity_residual": "Infinity", "qdim_residual": 0.0}, "Infinity"),
        "qdim": (("", "1e300"),
                 {"max_pentagon_residual": 0.0, "max_hexagon_residual": 0.0,
                  "max_unitarity_residual": 0.0, "qdim_residual": "Infinity"}, 1.0),
    }

    @pytest.mark.parametrize("threads", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_verify_and_teleport_stats_warn_nothing(self, capsys, tmp_path, monkeypatch,
                                                    case, threads):
        from test_model import count_threads

        if threads:
            # blocks small enough that the walks start threads
            monkeypatch.setattr(model_module, "_cpu_count", lambda: 2)
            monkeypatch.setattr(model_module, "_BLOCK", 16)
        started = count_threads(monkeypatch)
        text, residuals, vacuum = self.CASES[case]
        path = tmp_path / "z2.model"
        path.write_text(_z2_text(*text))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # every warning, however often it is raised
            code, out, err = run_cli(capsys, "verify", "--model", str(path))
            assert (code, err) == (1, "")
            payload = json.loads(out, parse_constant=str)
            assert payload["report"] == {**residuals, "tolerance": 1e-10, "passed": False}
            assert payload["vacuum_probability_residual"] == vacuum
            code, out, err = run_cli(capsys, "teleport-stats", "--model", str(path),
                                     "--charge", "1", "--seed", "1")
            assert (code, out) == (2, "")
            assert [line.startswith("error:") for line in err.splitlines()] == [True]
        assert [str(w.message) for w in caught] == []
        assert bool(started) == threads

    def test_overflowing_twist_warns_nothing(self, capsys, tmp_path):
        # d_1 R_1^{11} overflows in the constructor, before any check runs
        from anyonbraid import load_builtin

        lines = model_file_text(load_builtin("fibonacci"), "fib").splitlines()
        lines = ["qdim: 0:1 1:1e300" if line.startswith("qdim:") else line for line in lines]
        path = tmp_path / "fib.model"
        path.write_text("\n".join(lines + ["1 1 1 1e308 1e308"]) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "verify", "--model", str(path))
        assert (code, err) == (1, "")
        assert json.loads(out, parse_constant=str)["report"]["qdim_residual"] == "Infinity"
        assert [str(w.message) for w in caught] == []


#: What a mutation of a rendered model file writes: known, repeated and
#: unknown labels, and overflowing and non-finite numbers.
_RENDERED_TOKENS = st.sampled_from(["0", "1", "1/2", "x", "1e308", "-1e308", "1e300",
                                    "nan", "-inf"])

#: Where each section's row labels end; its values follow.
_LABELS = {"fusion": None, "f": 6, "r": 3}


def _region(lines, region):
    """The positions of the rows of ``region``, ``"headers"`` or a section
    name, among the token lists ``lines``."""
    at, current = [], "headers"
    for n, line in enumerate(lines):
        if len(line) == 1 and line[0].startswith("[") and line[0].endswith("]"):
            current = line[0][1:-1]
        elif line and current == region:
            at.append(n)
    return at


def _edit(lines, region, kind, i, j, token):
    """Apply one edit to a row of ``region``: write ``token`` at a label or
    a value, drop a token, add one, or delete the row."""
    rows = _region(lines, region)
    if not rows:
        return
    n = rows[i % len(rows)]
    line = lines[n]
    if kind == "delete row":
        del lines[n]
    elif kind == "extra":
        line.insert(j % (len(line) + 1), token)
    elif kind == "drop":
        del line[j % len(line)]
    elif region == "headers":  # "key: item ...", an item "label:value" or a label
        if len(line) > 1:
            j = 1 + j % (len(line) - 1)
            label, colon, value = line[j].partition(":")
            line[j] = (f"{token}{colon}{value}" if kind == "label" or not colon
                       else f"{label}:{token}")
    else:
        end = _LABELS[region]
        if end is None or kind == "label" or len(line) <= end:
            line[j % min(len(line), end or len(line))] = token
        else:
            line[end + j % (len(line) - end)] = token


class TestRenderedModelFuzz:
    """Rendered Fibonacci, Ising and su2_k k=3 files, each edited one to
    three times in its headers or its ``[fusion]``, ``[f]`` or ``[r]`` rows,
    end ``verify`` and ``teleport-stats`` in exit 0, 1 or 2.  Exit 2 prints
    nothing on stdout and one ``error:`` line on stderr; exits 0 and 1
    print nothing on stderr and raise no warning."""

    @settings(max_examples=300)
    @given(spec=st.sampled_from([("fibonacci", None, "1"), ("ising", None, "1/2"),
                                 ("su2_k", 3, "1/2")]),
           edits=st.lists(st.tuples(st.sampled_from(["headers", "fusion", "f", "r"]),
                                    st.sampled_from(["label", "value", "drop", "extra",
                                                     "delete row"]),
                                    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                                    _RENDERED_TOKENS), min_size=1, max_size=3))
    def test_edited_file(self, spec, edits):
        from anyonbraid import load_builtin

        name, k, charge = spec
        lines = [line.split() for line in
                 model_file_text(load_builtin(name, k=k), name).splitlines()]
        for edit in edits:
            _edit(lines, *edit)
        with tempfile.TemporaryDirectory() as where:
            path = os.path.join(where, "edited.model")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(" ".join(line) for line in lines) + "\n")
            for argv in (["verify", "--model", path],
                         ["teleport-stats", "--model", path, "--charge", charge,
                          "--seed", "1", "--trials", "3"]):
                out, err = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(record=True) as caught, \
                        contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    warnings.simplefilter("always")
                    code = main(argv)
                assert code in (0, 1, 2), argv
                if code == 2:
                    assert out.getvalue() == ""
                    assert [line.startswith("error:")
                            for line in err.getvalue().splitlines()] == [True], argv
                else:
                    assert err.getvalue() == "", argv
                    assert [str(w.message) for w in caught] == [], argv


#: What a schedule mutation writes: huge, negative, fractional and
#: non-finite numbers, strings, null, lists and objects, or a deletion.
_DELETE = object()
_SCHEDULE_VALUES = st.one_of(
    st.just(_DELETE), st.integers(), st.sampled_from([math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=False, allow_infinity=False), st.booleans(), st.none(),
    st.sampled_from(["", "x", "1/2", "s1", "fibonacci", "su2_k"]),
    st.lists(st.integers(-1, 20), max_size=3), st.just({}))


def _slots(node):
    """Every ``(container, key)`` of a schedule's JSON tree that ``run``
    reads field by field: all but the steps' contents, which are compared
    whole with the compiled word's."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)) and key != "steps":
            yield from _slots(value)


class TestScheduleFileFuzz:
    """A mutated schedule file ends ``run`` in exit 0, 1 or 2, never an
    exception, and exit 2 prints one ``error:`` line."""

    @pytest.fixture(scope="class")
    def compiled(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "schedule.json"
        schedules = []
        for argv in (["--model", "fibonacci", "--n-computational", "3", "--word", "s1 s2'"],
                     ["--model", "su2_k", "--k", "3", "--word", "s1"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["compile", *argv]) == 0
            schedules.append(out.getvalue())
        return path, schedules

    @settings(max_examples=400)
    @given(which=st.integers(0, 1), edits=st.integers(1, 3), draws=st.data())
    def test_mutated_schedule(self, compiled, which, edits, draws):
        path, schedules = compiled
        data = json.loads(schedules[which])
        for _ in range(edits):
            slots = list(_slots(data))
            if not slots:
                break
            container, key = draws.draw(st.sampled_from(slots))
            value = draws.draw(_SCHEDULE_VALUES)
            if value is _DELETE:
                del container[key]
            else:
                container[key] = json.loads(json.dumps(value))  # a fresh copy
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--schedule", str(path), "--seed", "1"])
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert [line.startswith("error:") for line in err.getvalue().splitlines()] == [True]


#: A valid argv of each command on a small register, as ``(flag, value)``
#: pairs with ``None`` for a switch's value.  Capitalised values stand for
#: paths that :class:`TestArgvFuzz` makes (see ``paths``).
_ARGV_BASES = {
    "verify": [("--model", "su2_k"), ("--k", "3"), ("--tolerance", "1e-10"),
               ("--format", "json")],
    "teleport-stats": [("--model", "ising"), ("--charge", "1/2"), ("--seed", "1"),
                       ("--trials", "5"), ("--max-attempts", "20"),
                       ("--routing", "over"), ("--trace", None), ("--format", "csv")],
    "braid-check": [("--model", "fibonacci"), ("--word", "s1 s2'"), ("--seed", "2"),
                    ("--n-computational", "3"), ("--compare-word", "s1 s2'"),
                    ("--random-state", None), ("--tolerance", "1e-9"), ("--human", None)],
    "compile": [("--model", "ising"), ("--word", "s1"), ("--n-computational", "2"),
                ("--output", "OUTPUT")],
    "run": [("--schedule", "SCHEDULE"), ("--seed", "3"), ("--routing", "over"),
            ("--max-attempts", "50")],
}

_HUGE = "1" + "0" * 30

#: What an argv mutation puts in place of a value: a huge, negative,
#: fractional or non-finite number, an empty string, an unknown label, a
#: missing path or a directory.
_ARGV_VALUES = [_HUGE, "-3", "2.5", "inf", "nan", "", "zeta", "MISSING", "DIRECTORY"]

#: Flags that put an array or a model just inside (True) or just outside
#: (False) a size limit: 342 psi anyons of Ising have MAX_LEAVES leaves
#: (dim 1) and 343 have 1028; Fibonacci arrays of 10 and 11 anyons have
#: dim 196,418 and 1,346,269 about MAX_DIM; su2_k at level MAX_CHARGES
#: has one charge too many, and at level MAX_CHARGES - 1 it has the most.
_ARGV_SIZES = [
    ({"--model": "ising", "--charge": "1", "--n-computational": "342"}, True),
    ({"--model": "ising", "--charge": "1", "--n-computational": "343"}, False),
    ({"--model": "fibonacci", "--charge": "1", "--n-computational": "10"}, True),
    ({"--model": "fibonacci", "--charge": "1", "--n-computational": "11"}, False),
    ({"--model": "su2_k", "--k": "16"}, False),
    ({"--model": "su2_k", "--k": "15"}, True),
]


def _set_flag(pairs, flag, value):
    """Give ``flag`` the value ``value``: in its first pair, else in a new one."""
    for k, (name, _) in enumerate(pairs):
        if name == flag:
            pairs[k] = (flag, value)
            return
    pairs.append((flag, value))


class TestArgvFuzz:
    """A mutated argv ends ``cli.main`` in exit 0, 1 or 2, argparse's
    ``SystemExit`` included, never another exception, and exit 2 prints one
    ``error:`` line and no stdout.  Sizes on the accepted side of a limit
    run on ``compile`` only, which builds no state."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("argv")
        schedule = root / "schedule.json"
        assert main(["compile", "--model", "ising", "--word", "s1 s2'",
                     "--output", str(schedule)]) == 0
        return {"SCHEDULE": str(schedule), "OUTPUT": str(root / "out.json"),
                "MISSING": str(root / "missing" / "x"), "DIRECTORY": str(root)}

    @staticmethod
    def _run(paths, command, pairs):
        argv = [command] + [paths.get(token, token) for pair in pairs
                            for token in pair if token is not None]
        out, err = io.StringIO(), io.StringIO()
        home = os.getcwd()
        # a fresh working directory, so that a file one example writes at a
        # relative path ("--output zeta") is not read by the next one
        with tempfile.TemporaryDirectory() as cwd:
            os.chdir(cwd)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
            finally:
                os.chdir(home)
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("command", sorted(_ARGV_BASES))
    def test_bases_pass(self, paths, command):
        assert self._run(paths, command, _ARGV_BASES[command])[0] == 0

    @pytest.mark.parametrize("flags, accepted", _ARGV_SIZES)
    def test_sizes_straddle_the_limits(self, paths, flags, accepted):
        pairs = list(_ARGV_BASES["compile"])
        for flag, value in flags.items():
            _set_flag(pairs, flag, value)
        assert self._run(paths, "compile", pairs)[0] == (0 if accepted else 2)

    @settings(max_examples=300)
    @given(command=st.sampled_from(sorted(_ARGV_BASES)), edits=st.integers(1, 3),
           draws=st.data())
    def test_mutated_argv(self, paths, command, edits, draws):
        pairs = list(_ARGV_BASES[command])
        for _ in range(edits):
            kind = draws.draw(st.sampled_from(["drop", "duplicate", "value", "size"]))
            if kind == "size":
                sizes = [flags for flags, accepted in _ARGV_SIZES
                         if command == "compile" or not accepted]
                for flag, value in draws.draw(st.sampled_from(sizes)).items():
                    _set_flag(pairs, flag, value)
                continue
            if not pairs:
                continue
            k = draws.draw(st.integers(0, len(pairs) - 1))
            flag, value = pairs[k]
            if kind == "drop":
                del pairs[k]
            elif kind == "duplicate":
                pairs.append(pairs[k])
            elif value is not None:
                # a huge trial count would be accepted, and slow
                values = [v for v in _ARGV_VALUES if (flag, v) != ("--trials", _HUGE)]
                pairs[k] = (flag, draws.draw(st.sampled_from(values)))
        code, out, err = self._run(paths, command, pairs)
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""
            assert sum("error:" in line for line in err.splitlines()) == 1


class TestRegisterLimits:
    """Registers over the size limits exit 2 with one ``error:`` line,
    refused before any basis is built."""

    def _refused(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        return err

    def test_word_beyond_leaf_limit(self, capsys):
        err = self._refused(capsys, "braid-check", "--model", "ising",
                            "--word", "s99999999999999999999", "--seed", "1")
        assert "100000000000000000000 computational anyons" in err
        assert "299999999999999999998 leaves, over the limit of 1024" in err

    @pytest.mark.parametrize("command", ["braid-check", "compile"])
    def test_dimension_over_limit(self, capsys, command):
        seed = ["--seed", "1"] if command == "braid-check" else []
        err = self._refused(capsys, command, "--model", "fibonacci", "--word", "s1",
                            "--n-computational", "40", *seed)
        # Fibonacci's 118 leaves in the vacuum have F(117) basis states
        assert "118 leaves has 1264937032042997393488322 basis states" in err

    def test_schedule_over_dimension_limit(self, capsys, tmp_path):
        from anyonbraid import BraidWord, build_array, compile_word, load_builtin

        # the header of a 40-anyon layout, written by hand: the library
        # refuses to build a layout that size
        data = compile_word(BraidWord.parse("s1"),
                            build_array(load_builtin("fibonacci"), "1", 2)[0]).to_dict()
        data["layout"].update(n_computational=40,
                              computational=[3 * i for i in range(40)],
                              resources=[[3 * i + 1, 3 * i + 2] for i in range(39)])
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(data))
        err = self._refused(capsys, "run", "--schedule", str(path), "--seed", "1")
        assert "basis states, over the limit of 1048576" in err


#: Runs ``anyonbraid.cli.main`` on its arguments in a fresh interpreter and
#: prints the exit code and whether ``numpy.ma`` was imported.
_IMPORT_PROBE = """
import contextlib, io, sys
from anyonbraid.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


class TestImports:
    @pytest.mark.parametrize("argv", [
        ["verify", "--model", "su2_k", "--k", "3"],
        ["teleport-stats", "--model", "fibonacci", "--seed", "1", "--trials", "20"],
        ["braid-check", "--model", "ising", "--word", "s1 s2'", "--seed", "2"],
        ["compile", "--model", "fibonacci", "--word", "s1 s2"],
        ["run", "--schedule", "schedule.json", "--seed", "3"],
    ], ids=lambda argv: argv[0])
    def test_no_command_imports_numpy_ma(self, capsys, tmp_path, argv):
        # numpy imports numpy.ma lazily, about 10 ms, on a process's first
        # np.unique; no command needs it
        assert main(["compile", "--model", "ising", "--word", "s1",
                     "--output", str(tmp_path / "schedule.json")]) == 0
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], cwd=tmp_path,
                                env=env, capture_output=True, text=True, timeout=300)
        assert result.stdout.split() == ["0", "False"], result.stderr


class TestClosedStdout:
    def test_reader_closing_early_is_not_a_traceback(self, tmp_path):
        # the payload, about 1.2 MB, outgrows the pipe, so the command is
        # still writing when its reader stops after 100 bytes
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        argv = ["teleport-stats", "--model", "ising", "--trials", "2000", "--seed", "1",
                "--trace"]
        proc = subprocess.Popen([sys.executable, "-m", "anyonbraid.cli", *argv], cwd=tmp_path,
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=300)
        finally:
            proc.kill()
            proc.wait()
        assert head.startswith(b"{")
        assert b"Traceback" not in err and err == b""
        assert code == 1


class TestNoDenseF:
    def test_commands_never_build_the_dense_f_view(self, capsys, tmp_path, monkeypatch):
        # every command reads F through its row store; the dense (m,) * 6
        # view is for library callers only
        from anyonbraid import AnyonModel

        built = []
        dense = AnyonModel.F.func
        monkeypatch.setattr(AnyonModel, "F",
                            property(lambda model: built.append(model) or dense(model)))
        model_path = tmp_path / "z3.model"
        model_path.write_text(Z3_TEXT)
        schedule = str(tmp_path / "schedule.json")
        for argv in (["verify", "--model", "su2_k", "--k", "3"],
                     ["verify", "--model", str(model_path)],
                     ["teleport-stats", "--model", "fibonacci", "--seed", "1", "--trials", "20"],
                     ["teleport-stats", "--model", "su2_k", "--k", "3", "--seed", "1",
                      "--trials", "20"],
                     ["braid-check", "--model", "ising", "--word", "s1 s2'", "--seed", "2"],
                     ["compile", "--model", "fibonacci", "--word", "s1 s2", "--output", schedule],
                     ["run", "--schedule", schedule, "--seed", "3"]):
            assert run_cli(capsys, *argv)[0] == 0, argv
        assert built == []


class TestGoldens:
    """Stdout pinned byte for byte; ``tests/data/README.md`` lists the
    commands and the commit that generated each file."""

    @pytest.mark.parametrize("name,argv", [
        ("braid_check_fibonacci",
         ["--model", "fibonacci", "--n-computational", "3", "--word", "s1 s2' s1 s2",
          "--seed", "5", "--random-state"]),
        ("braid_check_ising_compare",
         ["--model", "ising", "--n-computational", "4", "--word", "s1 s3 s2'",
          "--seed", "6", "--compare-word", "s3 s1 s2'"]),
    ])
    def test_braid_check(self, capsys, name, argv):
        code, out, _ = run_cli(capsys, "braid-check", *argv)
        assert code == 0
        assert out == (DATA / f"{name}.json").read_text()

    @pytest.mark.parametrize("name,argv", [
        ("verify_fibonacci", ["--model", "fibonacci"]),
        ("verify_ising", ["--model", "ising"]),
        ("verify_su2_k3", ["--model", "su2_k", "--k", "3"]),
        ("verify_su2_k7", ["--model", "su2_k", "--k", "7"]),
        ("verify_su2_k11", ["--model", "su2_k", "--k", "11"]),
    ])
    def test_verify(self, capsys, name, argv):
        """Residuals as at the golden's commit: all exact but unitarity,
        whose products may round differently in the last place."""
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        got, want = json.loads(out), json.loads((DATA / f"{name}.json").read_text())
        unitarity = "max_unitarity_residual"
        assert got["report"][unitarity] == pytest.approx(want["report"][unitarity],
                                                         rel=0, abs=1e-15)
        del got["report"][unitarity], want["report"][unitarity]
        assert got == want

    def test_braid_check_csv(self, capsys):
        code, out, _ = run_cli(capsys, "braid-check", "--model", "fibonacci",
                               "--n-computational", "3", "--word", "s1 s2' s1 s2",
                               "--seed", "5", "--random-state", "--format", "csv")
        assert code == 0
        assert out == (DATA / "braid_check_fibonacci.csv").read_text()

    @pytest.mark.parametrize("name,argv", [
        ("run_fibonacci.csv", ["--format", "csv"]),
        ("run_fibonacci.txt", ["--human"]),
    ])
    def test_run_tables(self, capsys, tmp_path, monkeypatch, name, argv):
        """``final_state`` flattened row by row, as before it was streamed."""
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(capsys, "compile", "--model", "fibonacci",
                             "--n-computational", "3", "--word", "s2 s1'",
                             "--output", "schedule.json")
        assert code == 0
        code, out, _ = run_cli(capsys, "run", "--schedule", "schedule.json",
                               "--seed", "7", *argv)
        assert code == 0
        assert out == (DATA / name).read_text()

    def test_compile_then_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the run payload records the schedule path
        argv = ["compile", "--model", "fibonacci", "--n-computational", "3",
                "--word", "s2 s1'"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == (DATA / "compile_fibonacci.json").read_text()
        code, _, _ = run_cli(capsys, *argv, "--output", "schedule.json")
        assert code == 0
        assert (tmp_path / "schedule.json").read_text() == out
        code, out, _ = run_cli(capsys, "run", "--schedule", "schedule.json", "--seed", "7")
        assert code == 0
        assert out == (DATA / "run_fibonacci.json").read_text()


# Strings that need escapes or are not ASCII, besides whatever text draws.
_TRICKY = st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
                           "é", "φ", "\u2028", "☃", "\U0001f600"])
_TEXT = st.text(st.one_of(st.characters(), _TRICKY), max_size=8)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-310, 1.7976931348623157e308, 0.1, 1e16, 1e-7,
                     math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24)


class TestJsonWriter:
    """The writer prints what ``print(json.dumps(payload, indent=2))`` prints."""

    @settings(max_examples=150)
    @given(payload=_PAYLOADS)
    def test_matches_json_dumps(self, payload):
        out = io.StringIO()
        _write_json(payload, out)
        assert out.getvalue() == json.dumps(payload, indent=2) + "\n"

    def test_edge_values(self):
        payload = {"empty": [[], (), {}], "tuple": (1, (2,)), "floats": [
            -0.0, 5e-324, math.nan, math.inf, -math.inf, np.float64(0.1),
            np.float64(-math.inf)], "ints": [True, False, 0, -2 ** 70, None],
            "text": "é\"\\\n\x00☃", "": {"": ""}}
        out = io.StringIO()
        _write_json(payload, out)
        assert out.getvalue() == json.dumps(payload, indent=2) + "\n"
        assert "np.float64" not in out.getvalue()

    @pytest.mark.parametrize("payload", [{"a": [1, {"b": "c"}]}, {"a": object()}],
                             ids=["written", "unserialisable"])
    def test_releases_its_sink_without_the_garbage_collector(self, payload):
        # in-process callers (the benchmark, tests) pass a StringIO that
        # holds the whole text; no reference cycle may keep it alive
        out = io.StringIO()
        sink = weakref.ref(out)
        gc.collect()
        gc.disable()
        try:
            try:
                _write_json(payload, out)
            except TypeError:
                pass
            del out
            assert sink() is None
        finally:
            gc.enable()

    def test_writes_to_stdout_at_call_time(self, capsys):
        _write_json({"a": [1, "b"]})
        assert capsys.readouterr().out == json.dumps({"a": [1, "b"]}, indent=2) + "\n"

    @pytest.mark.parametrize("payload", [{"x": np.int64(1)}, [object()], {1: 2}])
    def test_unserialisable_raises_type_error(self, payload):
        """What ``json.dumps`` refuses, and dict keys that are not strings."""
        with pytest.raises(TypeError):
            _write_json(payload, io.StringIO())
