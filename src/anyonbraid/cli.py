"""Command-line front end.

Commands::

    anyonbraid verify         consistency-check a built-in or file model
    anyonbraid teleport-stats Monte Carlo forced-measurement statistics
    anyonbraid braid-check    measurement braid vs direct-braid oracle
    anyonbraid compile        emit the measurement schedule of a braid word
    anyonbraid run            execute a schedule file

Output is machine-first (JSON by default, CSV via ``--format csv``, aligned
tables behind ``--human``) and byte-reproducible for fixed ``(seed,
config)``: every stochastic command requires an explicit ``--seed`` and
trial ``t`` draws from the substream ``default_rng([seed, t])``, one number
per measurement, in the order it would alone.  ``braid-check`` and ``run``
build that generator (:func:`_substream`).  ``teleport-stats`` runs its
trials in lockstep blocks (:func:`anyonbraid.teleport.forced_measurements`)
and computes the same streams for a whole block at once as arrays
(:class:`anyonbraid.streams.TrialStreams`: ``SeedSequence`` hashing and
PCG64 jump-ahead in numpy integer arithmetic), equal to
``default_rng([seed, t]).random()`` bit for bit, without one ``Generator``
per trial.

Exit codes: 0 pass, 1 check failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import compiler as cp
from . import fusion_space as fs
from . import teleport as tp
from .errors import AnyonError
from .model import CONSISTENCY_TOL, is_builtin_name, load_builtin
from .model_io import load_model_file
from .streams import TrialStreams

#: Default fidelity tolerance for oracle comparisons.
FIDELITY_TOL = 1e-9


class _CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _substream(seed: int, index: int) -> np.random.Generator:
    """Substream ``index`` of ``seed``, for the single trajectories of
    ``braid-check`` and ``run``."""
    return np.random.default_rng([seed, index])


def _load_model(args, gate=True):
    """A built-in model by name, else a model file.

    Built-in names win over a same-named file in the working directory;
    a path with a directory separator or a ``.model`` suffix is always a
    file.  ``gate=False`` loads a file without its consistency gate.
    """
    name = args.model
    is_path = os.sep in name or name.endswith(".model")
    if is_path or (not is_builtin_name(name) and os.path.exists(name)):
        tolerance = getattr(args, "tolerance", CONSISTENCY_TOL) if gate else None
        try:
            return load_model_file(name, tolerance)
        except AnyonError as exc:
            raise _CliError(f"model file error: {exc}", 2) from exc
    try:
        return load_builtin(name, k=args.k)
    except AnyonError as exc:
        raise _CliError(str(exc), 2) from exc


def _parse_word(text: str) -> "cp.BraidWord":
    try:
        return cp.BraidWord.parse(text)
    except AnyonError as exc:
        raise _CliError(str(exc), 2) from exc


def _default_charge(model, args):
    label = args.charge or model.meta.get("computational_charge")
    if label is None:
        raise _CliError("this model has no default charge; pass --charge", 2)
    try:
        return model.charge(label)
    except AnyonError as exc:
        raise _CliError(str(exc), 2) from exc


def _phase(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag),
            "arg": float(np.angle(z))}


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _flatten(value, f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _flatten(value, f"{prefix}{i}.")
    else:
        yield prefix[:-1], obj


def _emit(payload: dict, args) -> None:
    if getattr(args, "human", False):
        width = max((len(k) for k, _ in _flatten(payload)), default=0)
        for key, value in _flatten(payload):
            print(f"{key:<{width}}  {value}")
    elif getattr(args, "format", "json") == "csv":
        print("key,value")
        for key, value in _flatten(payload):
            print(f"{key},{value}")
    else:
        print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    # load files without the consistency gate so a parseable but
    # inconsistent model is reported with its residuals (exit 1), while
    # parse errors stay exit 2; the check below is then the only one
    model = _load_model(args, gate=False)
    report = model.verify_consistency(args.tolerance)
    payload = {
        "model": model.name,
        "params": model.params,
        "charges": list(model.labels),
        "report": dataclasses.asdict(report),
        "vacuum_probability_residual": model.vacuum_probability_residual(),
    }
    _emit(payload, args)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# teleport-stats
# ---------------------------------------------------------------------------


def _teleport_configuration(model, charge):
    """4-leaf teleport setup: resource pair on (0, 1), encoded anyons right."""
    pair = fs.entangled_pair_state(model, charge)
    return fs.attach_pair(pair, 2, charge)


def _cmd_teleport_stats(args) -> int:
    model = _load_model(args)
    charge = _default_charge(model, args)
    initial = _teleport_configuration(model, charge)
    target, recovery = (1, 2), (0, 1)
    da2 = tp.expected_attempt_bound(model, charge)
    m = model.num_charges
    # every attempt made, by the recovery charge e it started from, and
    # those that ended in the vacuum; trials that ran out count too
    tried = np.zeros(m, dtype=np.int64)
    hits = np.zeros(m, dtype=np.int64)
    attempts = []  # per completed trial
    exceeded = 0
    trace, log_probability = [], 0.0
    streams = TrialStreams(args.seed, range(args.trials))
    for block in tp.forced_measurements(initial, target, recovery, streams,
                                        max_attempts=args.max_attempts,
                                        routing=args.routing):
        if args.trace:
            log_probability = _trace_block(block, trace, log_probability)
        ok = block.succeeded
        exceeded += int(np.count_nonzero(~ok))
        e, f = block.attempt_charges()
        made = f >= 0
        tried += np.bincount(e[made], minlength=m)
        hits += np.bincount(e[made & (f == 0)], minlength=m)
        attempts.append(block.attempts[ok])
    attempts = np.concatenate(attempts)
    n = len(attempts)
    mean = float(np.mean(attempts)) if n else float("nan")
    std = float(np.std(attempts, ddof=1)) if n > 1 else float("nan")
    channels = {}
    for c in sorted(np.flatnonzero(tried), key=lambda c: model.labels[c]):
        expected = float(model.qd[c] / da2)
        count, successes = int(tried[c]), int(hits[c])
        p_hat = successes / count
        sigma = math.sqrt(expected * (1 - expected) / count)
        channels[model.labels[c]] = {
            "attempts": count,
            "successes": successes,
            "empirical": p_hat,
            "expected": expected,
            "z": (p_hat - expected) / sigma if sigma else float("nan"),
        }
    tails = {}
    for horizon in (5, 10, 20):
        bound = tp.failure_tail_probability(model, charge, horizon)
        frac = int(np.count_nonzero(attempts > horizon)) / n if n else float("nan")
        sigma = math.sqrt(bound * (1 - bound) / n) if n else float("nan")
        tails[str(horizon)] = {"empirical": frac, "bound": bound,
                               "bound_plus_3sigma": bound + 3 * sigma}
    payload = {
        "config": {
            "model": model.name, "params": model.params, "charge": charge.label,
            "seed": args.seed, "trials": args.trials,
            "max_attempts": args.max_attempts, "routing": args.routing,
        },
        "per_channel_success": channels,
        "attempts": {
            "trials": n,
            "mean": mean,
            "std": std,
            "expected_mean": tp.expected_mean_attempts(model, charge),
            "bound": da2,
            "mean_z": (mean - tp.expected_mean_attempts(model, charge))
                      / (std / math.sqrt(n)) if n > 1 and std > 0 else float("nan"),
        },
        "tail_probabilities": tails,
        "max_attempts_exceeded": exceeded,
    }
    if args.trace:
        payload["trace"] = trace
    _emit(payload, args)
    return 0


def _trace_block(block, trace: list, log_probability: float) -> float:
    """Append ``block``'s measurements to ``trace``, trial by trial, each
    with the log-probability summed over the whole trace so far; returns
    that sum."""
    labels = block.state.model.labels
    pairs = (list(block.target_pair), list(block.recovery_pair))
    for charges, probs in zip(block.outcomes.T.tolist(), block.probabilities.T.tolist()):
        for s, (c, p) in enumerate(zip(charges, probs)):
            if c < 0:
                break
            log_probability += math.log(p)
            trace.append({"pair": pairs[s % 2], "routing": block.routing,
                          "outcome": labels[c], "probability": p,
                          "cumulative_log_probability": log_probability})
    return log_probability


# ---------------------------------------------------------------------------
# braid-check
# ---------------------------------------------------------------------------


def _braid_payload(records) -> list:
    out = []
    for rec in records:
        out.append({
            "direction": rec.direction,
            "quad": list(rec.quad),
            "attempts": list(rec.attempts),
            "extracted_phase": _phase(rec.extracted_phase),
            "step_phases": [_phase(p) for p in rec.step_phases],
            "oracle_fidelity": rec.oracle_fidelity,
            "outcomes": [[c.label for c in step.outcomes] for step in rec.steps],
        })
    return out


def _checked_run(schedule, initial, args):
    """Execute ``schedule`` from ``initial`` on substream 0 and check it
    against the direct-braid oracle.

    Returns the final state, the braid records, the oracle fidelity, the
    phase against the oracle (``None`` at fidelity 0.5 or below) and the
    resource defect.
    """
    final, records = cp.execute(schedule, initial, _substream(args.seed, 0),
                                routing=args.routing, max_attempts=args.max_attempts)
    oracle = cp.direct_braid_reference(schedule.word, schedule.layout, initial,
                                       routing=args.routing)
    fid = fs.fidelity(final, oracle)
    phase = _phase(tp.relative_phase(final, oracle)) if fid > 0.5 else None
    return final, records, fid, phase, cp.check_resources(schedule.layout, final)


def _passed(fid: float, defect: float, args) -> bool:
    return bool(fid >= 1.0 - args.tolerance and defect < cp.RESOURCE_TOL)


def _compiled_word(args):
    """The model, charge, initial array state and schedule of ``--word``
    on ``--n-computational`` anyons (by default as many as the word uses)."""
    model = _load_model(args)
    charge = _default_charge(model, args)
    word = _parse_word(args.word)
    n_comp = args.n_computational
    if n_comp is None:
        n_comp = max(2, word.max_strand() + 1)
    try:
        layout, initial = cp.build_array(model, charge, n_comp)
        return model, charge, initial, cp.compile_word(word, layout)
    except AnyonError as exc:
        raise _CliError(str(exc), 2) from exc


def _cmd_braid_check(args) -> int:
    model, charge, initial, schedule = _compiled_word(args)
    layout, word = schedule.layout, schedule.word
    n_comp = len(layout.computational)
    if args.random_state:
        initial = cp.random_encoded_state(layout, _substream(args.seed, 2 ** 31))
    final, records, fid, phase, defect = _checked_run(schedule, initial, args)
    payload = {
        "config": {
            "model": model.name, "params": model.params, "charge": charge.label,
            "word": str(word), "n_computational": n_comp, "seed": args.seed,
            "routing": args.routing, "random_state": bool(args.random_state),
        },
        "braids": _braid_payload(records),
        "resource_defect": defect,
    }
    if args.compare_word:
        other = _parse_word(args.compare_word)
        if other.max_strand() + 1 > n_comp:
            raise _CliError("compare word needs more strands than the layout has", 2)
        final_b, records_b = cp.execute(cp.compile_word(other, layout), initial,
                                        _substream(args.seed, 1),
                                        routing=args.routing,
                                        max_attempts=args.max_attempts)
        fid_b = fs.fidelity(final, final_b)
        payload["compare"] = {
            "word": str(other),
            "fidelity": fid_b,
            "phase": _phase(tp.relative_phase(final, final_b)) if fid_b > 0.5 else None,
            "braids": _braid_payload(records_b),
        }
        passed = fid_b >= 1.0 - args.tolerance
    else:
        payload["oracle_fidelity"] = fid
        payload["phase_vs_oracle"] = phase
        passed = _passed(fid, defect, args)
    payload["passed"] = bool(passed)
    _emit(payload, args)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# compile / run
# ---------------------------------------------------------------------------


def _cmd_compile(args) -> int:
    schedule = _compiled_word(args)[3]
    text = json.dumps(schedule.to_dict(), indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_run(args) -> int:
    try:
        with open(args.schedule, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise _CliError(f"cannot read schedule {args.schedule}: {exc}", 2) from exc
    try:
        schedule = cp.schedule_from_dict(data)
    except AnyonError as exc:
        raise _CliError(f"bad schedule: {exc}", 2) from exc
    layout = schedule.layout
    _, initial = cp.build_array(layout.model, layout.charge, len(layout.computational))
    final, records, fid, _, defect = _checked_run(schedule, initial, args)
    passed = _passed(fid, defect, args)
    payload = {
        "config": {"schedule": args.schedule, "seed": args.seed,
                   "routing": args.routing, "word": str(schedule.word)},
        "records": _braid_payload(records),
        "resource_defect": defect,
        "oracle_fidelity": fid,
        "final_state": json.loads(fs.state_to_json(final)),
        "passed": passed,
    }
    _emit(payload, args)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_model_args(p, with_charge=True):
    p.add_argument("--model", required=True,
                   help="built-in name (fibonacci, ising, su2_k) or model file path")
    p.add_argument("--k", type=int, default=None, help="level for su2_k")
    if with_charge:
        p.add_argument("--charge", default=None,
                       help="computational charge label (default: model's standard choice)")


def _add_output_args(p):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--human", action="store_true", help="aligned key/value table")


def _int_at_least(low: int):
    """Argparse type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _tolerance(text: str) -> float:
    """Argparse type: a finite float of at least 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _add_stochastic_args(p):
    p.add_argument("--seed", type=_int_at_least(0), required=True,
                   help="non-negative master seed (required: no silent nondeterminism)")
    p.add_argument("--max-attempts", type=_int_at_least(1),
                   default=tp.MAX_ATTEMPTS_DEFAULT)
    p.add_argument("--routing", choices=("over", "under"), default="over")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anyonbraid",
        description="Braiding stationary anyons with adaptive charge measurements")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="consistency-check an anyon model")
    _add_model_args(p, with_charge=False)
    p.add_argument("--tolerance", type=_tolerance, default=CONSISTENCY_TOL)
    _add_output_args(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("teleport-stats", help="forced-measurement Monte Carlo statistics")
    _add_model_args(p)
    _add_stochastic_args(p)
    p.add_argument("--trials", type=_int_at_least(1), default=1000)
    p.add_argument("--trace", action="store_true",
                   help="include the per-measurement trajectory log")
    _add_output_args(p)
    p.set_defaults(func=_cmd_teleport_stats)

    p = sub.add_parser("braid-check", help="measurement braid vs direct-braid oracle")
    _add_model_args(p)
    _add_stochastic_args(p)
    p.add_argument("--word", required=True, help="braid word, e.g. \"s1 s2' s1\"")
    p.add_argument("--compare-word", default=None,
                   help="second word; check phase-equivalence of the two results")
    p.add_argument("--n-computational", type=int, default=None)
    p.add_argument("--random-state", action="store_true",
                   help="start from a seeded random encoded state")
    p.add_argument("--tolerance", type=_tolerance, default=FIDELITY_TOL)
    _add_output_args(p)
    p.set_defaults(func=_cmd_braid_check)

    p = sub.add_parser("compile", help="emit the measurement schedule of a braid word")
    _add_model_args(p)
    p.add_argument("--word", required=True)
    p.add_argument("--n-computational", type=int, default=None)
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("run", help="execute a schedule file")
    p.add_argument("--schedule", required=True)
    _add_stochastic_args(p)
    p.add_argument("--tolerance", type=_tolerance, default=FIDELITY_TOL)
    _add_output_args(p)
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except AnyonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
