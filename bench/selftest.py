"""Tests of the benchmark itself (not collected by the package's test run).

Run from the root of a checkout::

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import worker
import workloads
from tracing import PER_LAYER

sys.path.insert(0, os.path.join(run.ROOT, "src"))

from anyonbraid import cli, load_builtin  # noqa: E402


def _bench(tmp_root, *args):
    return subprocess.run([sys.executable, os.path.join(tmp_root, "bench", "run.py"), *args],
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(name, trace):
    proc = _bench(run.ROOT, "--workload", name, "--seed", "3", "--seconds", "0.3",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.END_TO_END if not trace else PER_LAYER
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m: u for m, u, _ in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    def generate(seed, where):
        wl = workloads.WORKLOADS[name]("tiny")
        os.makedirs(where)
        wl.prepare(str(where), seed, [load_builtin(n, k=k) for n, k in wl.models])
        files = {f: (where / f).read_text() for f in sorted(os.listdir(where))}
        argvs = [job.argvs for r in range(3) for job in wl.jobs(seed, r)]
        return [[a.replace(str(where), "<dir>") for a in argv]
                for jobs in argvs for argv in jobs], files

    first = generate(11, tmp_path / "a")
    assert generate(11, tmp_path / "b") == first
    assert generate(12, tmp_path / "c") != first


def test_inconsistent_model_is_a_failed_unit_not_a_crash(tmp_path):
    model = load_builtin("fibonacci")
    rng = workloads.random.Random(0)
    good = tmp_path / "good.model"
    good.write_text(workloads.model_file_text(model, rng, "fib"))
    bad = tmp_path / "bad.model"
    # Flip the sign of one F entry of the tau tau tau -> tau block.
    bad.write_text(good.read_text().replace("1 1 1 1 1 1 -0.6", "1 1 1 1 1 1 0.6"))
    assert bad.read_text() != good.read_text()
    broken_schedule = tmp_path / "schedule.json"
    broken_schedule.write_text(json.dumps({"format": "anyonbraid-schedule-v1",
                                           "layout": {}, "word": "s1", "steps": []}))
    jobs = [workloads.Job("good", [["verify", "--model", str(good)]], 1,
                          workloads.check_verify(2)),
            workloads.Job("bad", [["verify", "--model", str(bad)]], 1,
                          workloads.check_verify(2)),
            workloads.Job("raises", [["compile", "--model", "ising", "--word", "s1",
                                      "--output", str(tmp_path / "s.json")],
                                     ["run", "--schedule", str(broken_schedule),
                                      "--seed", "1"]],
                          1, workloads.check_compile_run(str(tmp_path / "s.json"), 1, 4))]
    tally = worker.Tally()
    tally.run_round(cli, jobs)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert [r.split(":")[0] for r in tally.reasons] == ["bad", "raises"]


def test_failed_checks_make_a_nonzero_exit(monkeypatch, capsys):
    def fake(name, seed, seconds, trace, scale):
        return {"attempted": 4, "failed": 1, "reasons": ["x: broken"], "rounds": 1,
                "jobs": 1, "job_s_p50": 1.0, "round_s": 1.0, "unit": "model",
                "raw": {"units_per_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0},
                "metrics": {}}

    monkeypatch.setattr(run, "run_workload", fake)
    assert run.main(["--workload", "model-verify", "--seed", "1", "--seconds", "1"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1


def test_teleport_tail_check():
    assert workloads.binomial_sf(0, 10, 0.3) == 1.0
    exact = sum(math.comb(10, i) * 0.3 ** i * 0.7 ** (10 - i)
                for i in range(4, 11))
    assert workloads.binomial_sf(4, 10, 0.3) == pytest.approx(exact, rel=1e-12)
    # 20 of 1000 trials beyond a horizon whose bound is 1e-3 is not chance.
    assert workloads.binomial_sf(20, 1000, 1e-3) < workloads.TAIL_P_MIN


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "--workload", "braid-long", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
