"""Seeded inputs and output checks for the four benchmark workloads.

A workload is a fixed list of *jobs* per round.  A job is one or more
``anyonbraid`` CLI invocations (argv lists) that together produce a number
of work *units* (teleport trials, braids, register checks or models) and a
check that inspects every invocation's exit code and output.  Rounds are
closed-loop: the worker runs one invocation at a time.

Input generation depends only on ``(workload, scale, seed, round)`` and
never touches the program under test, except :meth:`Workload.prepare`,
which renders model files from already built models.  The checks hold
whatever random stream the program uses: they test exit codes, oracle
fidelity, resource defects and statistics against closed-form values,
never golden bytes.

This module imports only the standard library at import time, so that the
worker can time ``import anyonbraid`` (and numpy) from a clean start.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

#: Oracle fidelity every synthesized braid word must reach.
FIDELITY_MIN = 1.0 - 1e-9
#: Resource pairs must be back in the vacuum channel this sharply.
RESOURCE_DEFECT_MAX = 1e-10
#: Final states must be unit-norm to this tolerance.
NORM_TOL = 1e-9
#: Largest |z| accepted for a statistic against its closed-form value.
Z_MAX = 5.0
#: One-sided p-value matching Z_MAX for the exact binomial tail test.
TAIL_P_MIN = 2.9e-7

SCALES = ("full", "tiny")


@dataclass
class Invocation:
    """Outcome of one CLI call: exit code (None when it raised) and output."""

    code: int | None
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Job:
    """CLI invocations that together produce ``units`` units of work.

    ``check`` receives one :class:`Invocation` per argv and returns ``None``
    when every output is correct, or a one-line reason.
    """

    label: str
    argvs: list[list[str]]
    units: int
    check: Callable[[list[Invocation]], str | None]


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


def _payload(inv: Invocation, what: str) -> dict:
    if inv.code != 0:
        tail = inv.stderr.strip().splitlines()[-1:] or [""]
        raise CheckFailed(f"{what} exited {inv.code}: {tail[0][:160]}")
    try:
        return json.loads(inv.stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{what} printed no JSON: {exc}") from None


class CheckFailed(Exception):
    """An output check failed; the message says which."""


def _checked(fn):
    def check(invocations):
        try:
            fn(*invocations)
        except CheckFailed as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            return f"malformed output: {exc!r}"
        return None
    return check


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _z_ok(z) -> bool:
    return z is not None and math.isfinite(z) and abs(z) <= Z_MAX


def binomial_sf(k: int, n: int, p: float) -> float:
    """P[X >= k] for X ~ Binomial(n, p), summed in log space."""
    if k <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    lp, lq = math.log(p), math.log1p(-p)
    base = math.lgamma(n + 1)
    total = 0.0
    for i in range(k, n + 1):
        term = math.exp(base - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                        + i * lp + (n - i) * lq)
        total += term
        if term < 1e-300 and i > n * p:
            break
    return min(1.0, total)


def check_teleport_stats(trials: int):
    @_checked
    def check(inv):
        d = _payload(inv, "teleport-stats")
        _require(d["max_attempts_exceeded"] == 0,
                 f"max_attempts_exceeded = {d['max_attempts_exceeded']}")
        att = d["attempts"]
        _require(att["trials"] == trials, f"{att['trials']} trials, wanted {trials}")
        _require(_z_ok(att["mean_z"]), f"mean attempts z = {att['mean_z']}")
        _require(len(d["per_channel_success"]) > 0, "no per-channel statistics")
        for label, ch in d["per_channel_success"].items():
            z = ch["z"]
            if z is None or not math.isfinite(z):  # zero-variance channel
                _require(ch["empirical"] == ch["expected"],
                         f"channel {label}: {ch['empirical']} != {ch['expected']}")
            else:
                _require(_z_ok(z), f"channel {label}: z = {z}")
        # The tail bound (1 - 1/d_a^2)^N is exact for Ising, so the CLI's
        # bound_plus_3sigma column would fail about one Ising call in a
        # hundred by chance; test the same bound exactly at the Z_MAX level.
        for horizon, tail in d["tail_probabilities"].items():
            count = round(tail["empirical"] * trials)
            p = binomial_sf(count, trials, tail["bound"])
            _require(p >= TAIL_P_MIN,
                     f"tail > {horizon}: {count}/{trials} above bound "
                     f"{tail['bound']:.3e} (p = {p:.2e})")
    return check


def _check_braids(braids, length: int, what: str) -> None:
    _require(len(braids) == length, f"{what}: {len(braids)} braid records, wanted {length}")
    for b, rec in enumerate(braids):
        _require(rec["oracle_fidelity"] >= FIDELITY_MIN,
                 f"{what}: braid {b} oracle fidelity {rec['oracle_fidelity']}")
        _require(all(a >= 1 for a in rec["attempts"]), f"{what}: braid {b} attempts")


def _check_oracle(d: dict, what: str) -> None:
    _require(d["passed"] is True, f"{what}: passed = {d['passed']}")
    _require(d["oracle_fidelity"] >= FIDELITY_MIN,
             f"{what}: oracle fidelity {d['oracle_fidelity']}")
    _require(d["resource_defect"] < RESOURCE_DEFECT_MAX,
             f"{what}: resource defect {d['resource_defect']}")


def check_braid_check(length: int):
    @_checked
    def check(inv):
        d = _payload(inv, "braid-check")
        _check_oracle(d, "braid-check")
        _require(d["phase_vs_oracle"] is not None, "braid-check: no phase")
        _check_braids(d["braids"], length, "braid-check")
    return check


def check_compile_run(schedule_path: str, length: int, n_leaves: int):
    @_checked
    def check(compiled, ran):
        _require(compiled.code == 0, f"compile exited {compiled.code}")
        with open(schedule_path, "r", encoding="utf-8") as fh:
            schedule = json.load(fh)
        _require(schedule["format"] == "anyonbraid-schedule-v1", "schedule format")
        _require(len(schedule["steps"]) == 3 * length,
                 f"{len(schedule['steps'])} schedule steps, wanted {3 * length}")
        d = _payload(ran, "run")
        _check_oracle(d, "run")
        _check_braids(d["records"], length, "run")
        state = d["final_state"]
        _require(len(state["leaves"]) == n_leaves,
                 f"final state has {len(state['leaves'])} leaves, wanted {n_leaves}")
        norm2 = sum(a["re"] ** 2 + a["im"] ** 2 for a in state["amplitudes"])
        _require(abs(math.sqrt(norm2) - 1.0) <= NORM_TOL, f"final state norm^2 {norm2}")
    return check


def check_verify(n_charges: int):
    @_checked
    def check(inv):
        d = _payload(inv, "verify")
        _require(d["report"]["passed"] is True, f"verify: report {d['report']}")
        _require(len(d["charges"]) == n_charges,
                 f"verify: {len(d['charges'])} charges, wanted {n_charges}")
    return check


# ---------------------------------------------------------------------------
# Input generation.
# ---------------------------------------------------------------------------


def _round_rng(seed: int, round_index: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{round_index}")


def _model_args(name: str, k: int | None) -> list[str]:
    return ["--model", name] + (["--k", str(k)] if k is not None else [])


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2 ** 62))


class Workload:
    """Base class: ``models`` are ``(name, k)`` pairs built once in set-up."""

    name = ""
    unit = ""

    def __init__(self, scale: str = "full"):
        self.scale = scale
        self.models: list[tuple[str, int | None]] = []

    def prepare(self, workdir: str, seed: int, built: list) -> None:
        """Write per-run input files; ``built`` matches ``self.models``."""

    def jobs(self, seed: int, round_index: int) -> list[Job]:
        raise NotImplementedError


class TeleportMC(Workload):
    name, unit = "teleport-mc", "trial"

    def __init__(self, scale="full"):
        super().__init__(scale)
        self.models = [("ising", None), ("fibonacci", None), ("su2_k", 3)]
        self.trials = 4000 if self.scale == "full" else 40

    def jobs(self, seed, round_index):
        rng = _round_rng(seed, round_index, self.name)
        return [Job(f"teleport-stats {name}{k or ''}",
                    [["teleport-stats", *_model_args(name, k), "--seed", _seed(rng),
                      "--trials", str(self.trials)]],
                    self.trials, check_teleport_stats(self.trials))
                for name, k in self.models]


def random_word(rng: random.Random, strands: int, length: int) -> str:
    """Word over every generator of ``strands`` strands in both directions:
    each signed generator once, the rest uniform, order shuffled."""
    gens = [g for i in range(1, strands) for g in (i, -i)]
    gens += [rng.choice((1, -1)) * rng.randint(1, strands - 1)
             for _ in range(length - len(gens))]
    rng.shuffle(gens)
    return " ".join(f"s{abs(g)}" + ("'" if g < 0 else "") for g in gens)


class BraidLong(Workload):
    name, unit = "braid-long", "braid"

    def __init__(self, scale="full"):
        super().__init__(scale)
        self.models = [("fibonacci", None), ("ising", None)]
        self.registers = [("fibonacci", 3), ("ising", 4)]
        self.length = 1000 if self.scale == "full" else 8

    def jobs(self, seed, round_index):
        rng = _round_rng(seed, round_index, self.name)
        out = []
        for name, n_comp in self.registers:
            word = random_word(rng, n_comp, self.length)
            out.append(Job(f"braid-check {name} n={n_comp}",
                           [["braid-check", "--model", name,
                             "--n-computational", str(n_comp), "--word", word,
                             "--seed", _seed(rng), "--random-state"]],
                           self.length, check_braid_check(self.length)))
        return out


class WideRegister(Workload):
    name, unit = "wide-register", "check"

    def __init__(self, scale="full"):
        super().__init__(scale)
        self.models = [("fibonacci", None), ("ising", None)]
        self.registers = ([("fibonacci", 6), ("ising", 7)] if self.scale == "full"
                          else [("fibonacci", 3), ("ising", 3)])

    def jobs(self, seed, round_index):
        rng = _round_rng(seed, round_index, self.name)
        out = []
        for name, n_comp in self.registers:
            gens = [f"s{i}{d}" for i in range(1, n_comp) for d in ("", "'")]
            rng.shuffle(gens)
            path = f"schedule-{name}-{n_comp}.json"
            n_leaves = 3 * n_comp - 2 + n_comp % 2
            out.append(Job(f"compile+run {name} n={n_comp}",
                           [["compile", "--model", name, "--n-computational",
                             str(n_comp), "--word", " ".join(gens), "--output", path],
                            ["run", "--schedule", path, "--seed", _seed(rng)]],
                           1, check_compile_run(path, len(gens), n_leaves)))
        return out


def model_file_text(model, rng: random.Random, name: str) -> str:
    """Render ``model`` in the model-file format with every admissible F and
    R entry listed explicitly, rows in seeded order."""
    import numpy as np

    labels = model.labels
    m = len(labels)
    lines = [f"name: {name}", "charges: " + " ".join(labels),
             "dual: " + " ".join(f"{labels[a]}:{model.dual(a).label}" for a in range(m)),
             "qdim: " + " ".join(f"{labels[a]}:{float(model.qd[a])!r}" for a in range(m)),
             "", "[fusion]"]
    for a in range(m):
        for b in range(a, m):
            lines.append(f"{labels[a]} {labels[b]} -> "
                         + " ".join(labels[c] for c in np.flatnonzero(model.N[a, b])))

    def rows(table, indices):
        out = [" ".join(labels[i] for i in idx)
               + f" {float(table[tuple(idx)].real)!r} {float(table[tuple(idx)].imag)!r}"
               for idx in indices.tolist()]
        rng.shuffle(out)
        return out

    # F is zero exactly off the admissible set (AnyonModel invariant).
    lines += ["", "[f]"] + rows(model.F, np.argwhere(model.F != 0))
    lines += ["", "[r]"] + rows(model.R, np.argwhere(model.N != 0))
    return "\n".join(lines) + "\n"


class ModelVerify(Workload):
    name, unit = "model-verify", "model"

    def __init__(self, scale="full"):
        super().__init__(scale)
        levels = (3, 7, 11) if self.scale == "full" else (2, 3)
        self.models = [("fibonacci", None), ("ising", None)] + [("su2_k", k) for k in levels]
        self.targets: list[tuple[str, list[str], int]] = []

    def prepare(self, workdir, seed, built):
        """Verify targets: each built-in model, then each su2_k level again
        from a model file passed by absolute path."""
        rng = random.Random(f"{self.name}:{seed}:files")
        self.targets = [(f"verify {name}{k or ''}", _model_args(name, k), model.num_charges)
                        for (name, k), model in zip(self.models, built)]
        for (name, k), model in zip(self.models, built):
            if name != "su2_k":
                continue
            path = os.path.join(workdir, f"su2_k{k}.model")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(model_file_text(model, rng, f"su2_k{k}-file"))
            self.targets.append((f"verify file su2_k{k}", ["--model", path],
                                 model.num_charges))

    def jobs(self, seed, round_index):
        return [Job(label, [["verify", *args]], 1, check_verify(n_charges))
                for label, args, n_charges in self.targets]


WORKLOADS = {cls.name: cls for cls in (TeleportMC, BraidLong, WideRegister, ModelVerify)}
