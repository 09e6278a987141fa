"""Command-line interface: outputs, exit codes, determinism."""

import json
import math
import os
import pathlib

import numpy as np
import pytest

from anyonbraid.cli import main

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
        assert err.count("\n") == 1 and "768 GiB" in err

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

    def test_zero_max_attempts_in_library(self, ising):
        from anyonbraid import forced_measurement, forced_measurements
        from conftest import teleport_config

        state = teleport_config(ising, "1/2")
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="max_attempts"):
            forced_measurement(state, (1, 2), (0, 1), rng, max_attempts=0)
        with pytest.raises(ValueError, match="max_attempts"):
            list(forced_measurements(state, (1, 2), (0, 1), [rng], max_attempts=0))

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
