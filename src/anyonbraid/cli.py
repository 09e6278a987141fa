"""Command-line front end.

Commands::

    anyonbraid verify         consistency-check a built-in or file model
    anyonbraid teleport-stats Monte Carlo forced-measurement statistics
    anyonbraid braid-check    measurement braid vs direct-braid oracle
    anyonbraid compile        emit the measurement schedule of a braid word
    anyonbraid run            execute a schedule file

Output is machine-first (JSON by default, ``key,value`` CSV rows via
``--format csv``, aligned tables behind ``--human``) and byte-reproducible
for fixed ``(seed, config)``: every stochastic command requires an
explicit ``--seed`` and trial ``t`` draws from the substream
``default_rng([seed, t])``, one number per measurement, in the order it
would alone.  Every such stream is computed by :mod:`anyonbraid.streams`
(``SeedSequence`` hashing and PCG64 jump-ahead in numpy integer
arithmetic), equal to ``default_rng([seed, t]).random()`` bit for bit,
without building a ``Generator``.  ``teleport-stats`` runs its trials in
lockstep blocks (:func:`anyonbraid.teleport.forced_measurements`) on a
whole block's streams at once (:class:`~anyonbraid.streams.TrialStreams`);
``braid-check`` and ``run`` run each word as one trajectory on the
:class:`~anyonbraid.streams.Stream` of its trial (:func:`_run_word`).
Only ``braid-check --random-state`` builds a ``Generator``, for the
Gaussian amplitudes of its initial state, and so imports ``numpy.random``.

JSON is streamed by :func:`_write_json`, byte for byte what the standard
library's encoder prints at an indent of two spaces.

Exit codes: 0 pass, 1 check failed, out of memory or stdout closed early
(by a reader such as ``head``; nothing more is printed), 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from . import compiler as cp
from . import fusion_space as fs
from . import teleport as tp
from .errors import AnyonError
from .model import CONSISTENCY_TOL, is_builtin_name, load_builtin
from .model_io import load_model_file
from .streams import Stream, TrialStreams

#: Default fidelity tolerance for oracle comparisons.
FIDELITY_TOL = 1e-9


class _CliError(Exception):
    """A usage or parse error: exit code 2."""


def _load_model(args, gate=True):
    """A built-in model by name, else a model file.

    Built-in names win over a same-named file in the working directory;
    a path with a directory separator or a ``.model`` suffix is always a
    file.  A file must pass its consistency checks at
    :data:`~anyonbraid.model.CONSISTENCY_TOL`; ``gate=False`` loads it
    unchecked.  (``--tolerance`` is an oracle-fidelity bound on
    ``braid-check`` and ``run``, not a consistency bound.)
    """
    name = args.model
    is_path = os.sep in name or name.endswith(".model")
    if is_path or (not is_builtin_name(name) and os.path.exists(name)):
        tolerance = CONSISTENCY_TOL if gate else None
        try:
            return load_model_file(name, tolerance)
        except AnyonError as exc:
            raise _CliError(f"model file error: {exc}") from exc
    try:
        return load_builtin(name, k=args.k)
    except AnyonError as exc:
        raise _CliError(str(exc)) from exc


def _parse_word(text: str) -> "cp.BraidWord":
    try:
        return cp.BraidWord.parse(text)
    except AnyonError as exc:
        raise _CliError(str(exc)) from exc


def _default_charge(model, args):
    label = model.meta.get("computational_charge") if args.charge is None else args.charge
    if label is None:
        raise _CliError("this model has no default charge; pass --charge")
    try:
        return model.charge(label)
    except AnyonError as exc:
        raise _CliError(str(exc)) from exc


def _phase(z: complex | None) -> dict | None:
    """A phase's payload record; ``None`` (no global phase) stays ``None``."""
    return None if z is None else {"re": float(z.real), "im": float(z.imag),
                                   "arg": float(np.angle(z))}


def _braid_fields(rec) -> dict:
    """A braid record's payload fields, as :func:`_braid_text` writes them."""
    return {
        "direction": rec.direction,
        "quad": list(rec.quad),
        "attempts": list(rec.attempts),
        "extracted_phase": _phase(rec.extracted_phase),
        "step_phases": [_phase(p) for p in rec.step_phases],
        "oracle_fidelity": rec.oracle_fidelity,
        "outcomes": [[c.label for c in step.outcomes] for step in rec.steps],
    }


def _state_head(state) -> dict:
    """The fields of ``state``'s ``final_state`` record before its rows."""
    labels = state.model.labels
    return {"model": state.model.name, "params": state.model.params,
            "leaves": [labels[i] for i in state.leaves],
            "total": labels[state.total]}


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _flatten(value, f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _flatten(value, f"{prefix}{i}.")
    elif isinstance(obj, tp.BraidRecord):
        yield from _flatten(_braid_fields(obj), prefix)
    elif isinstance(obj, fs.StateVector):
        yield from _flatten(_state_head(obj), prefix)
        labels = obj.model.labels
        rows = zip(obj.chains[:, 1:-1].tolist(), obj.amps.tolist())
        for r, (internals, z) in enumerate(rows):
            row = f"{prefix}amplitudes.{r}."
            for j, c in enumerate(internals):
                yield f"{row}internals.{j}", labels[c]
            yield f"{row}re", z.real
            yield f"{row}im", z.imag
    else:
        yield prefix[:-1], obj


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted (RFC 4180) if it holds ``,``, ``"`` or a line break."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _emit(payload: dict, args) -> None:
    if getattr(args, "human", False):
        width = max((len(k) for k, _ in _flatten(payload)), default=0)
        for key, value in _flatten(payload):
            print(f"{key:<{width}}  {value}")
    elif getattr(args, "format", "json") == "csv":
        print("key,value")
        for key, value in _flatten(payload):
            print(f"{_csv_field(key)},{_csv_field(f'{value}')}")
    else:
        _write_json(payload)


# ---------------------------------------------------------------------------
# JSON output
# ---------------------------------------------------------------------------

#: Amplitude rows of a state rendered per chunk of ``tolist`` conversions.
_STATE_CHUNK = 4096

#: Pieces of text held before they are written out.
_FLUSH_PIECES = 8192


def _float_text(x: float) -> str:
    """``x`` as ``json.dumps`` spells it."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _phase_text(z: complex | None, nl: str) -> str:
    """The JSON of ``_phase(z)`` on a line indented by ``nl``."""
    if z is None:
        return "null"
    i = nl + "  "
    return (f"{{{i}\"re\": {_float_text(float(z.real))},{i}\"im\": "
            f"{_float_text(float(z.imag))},{i}\"arg\": {_float_text(float(np.angle(z)))}{nl}}}")


def _braid_text(rec, nl: str) -> str:
    """The JSON of :func:`_braid_fields` of ``rec`` on a line indented by
    ``nl``, written from one fixed-key template: a record has four quad
    leaves and three steps, each with at least one outcome."""
    i1, i2, i3 = nl + "  ", nl + "    ", nl + "      "
    item, label = "," + i2, "," + i3
    quad = item.join([int.__repr__(leaf) for leaf in rec.quad])
    attempts = item.join([int.__repr__(step.attempts) for step in rec.steps])
    phases = item.join([_phase_text(z, i2) for z in rec.step_phases])
    outcomes = item.join([f"[{i3}{label.join([_encode_str(c.label) for c in step.outcomes])}{i2}]"
                          for step in rec.steps])
    return (f"{{{i1}\"direction\": {_encode_str(rec.direction)},"
            f"{i1}\"quad\": [{i2}{quad}{i1}],"
            f"{i1}\"attempts\": [{i2}{attempts}{i1}],"
            f"{i1}\"extracted_phase\": {_phase_text(rec.extracted_phase, i1)},"
            f"{i1}\"step_phases\": [{i2}{phases}{i1}],"
            f"{i1}\"oracle_fidelity\": {_float_text(rec.oracle_fidelity)},"
            f"{i1}\"outcomes\": [{i2}{outcomes}{i1}]{nl}}}")


def _write_json(obj, out=None) -> None:
    """Write ``obj`` to ``out`` as ``print`` of ``json.dumps`` at an indent
    of two spaces prints it, text written as the walk goes rather than
    built whole.

    ``out`` defaults to ``sys.stdout`` as it is at call time.  Dict keys
    must be strings, as they are in every payload here.  A
    :class:`~anyonbraid.fusion_space.StateVector` is written as the dict of
    :func:`_state_head` plus its ``amplitudes`` rows (internal labels, re,
    im), rendered in chunks straight from its chain and amplitude arrays,
    and a :class:`~anyonbraid.teleport.BraidRecord` as the dict of
    :func:`_braid_fields`, from one template (:func:`_braid_text`).
    """
    out = sys.stdout if out is None else out
    buf = []
    put = buf.append

    def flush():
        out.write("".join(buf))
        buf.clear()

    def value(o, nl):
        # ``nl`` is a newline plus the indent of the line ``o`` starts on
        if isinstance(o, str):
            put(_encode_str(o))
        elif o is None:
            put("null")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        elif isinstance(o, int):
            put(int.__repr__(o))
        elif isinstance(o, float):
            put(_float_text(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                put("[]")
                return
            inner = nl + "  "
            sep = "[" + inner
            for item in o:
                put(sep)
                sep = "," + inner
                value(item, inner)
                if len(buf) > _FLUSH_PIECES:
                    flush()
            put(nl + "]")
        elif isinstance(o, dict):
            if not o:
                put("{}")
                return
            put("{")
            items(o.items(), nl + "  ")
            put(nl + "}")
        elif isinstance(o, tp.BraidRecord):
            put(_braid_text(o, nl))
        elif isinstance(o, fs.StateVector):
            inner = nl + "  "
            put("{")
            items(_state_head(o).items(), inner)
            put(f",{inner}\"amplitudes\": ")
            rows(o, inner)
            put(nl + "}")
        else:
            raise TypeError(f"Object of type {o.__class__.__name__} "
                            f"is not JSON serializable")

    def items(pairs, inner):
        sep = inner
        for key, v in pairs:
            put(f"{sep}{_encode_str(key)}: ")
            sep = "," + inner
            value(v, inner)

    def rows(state, nl):
        row, field, label = nl + "  ", nl + "    ", nl + "      "
        labels = [label + _encode_str(text) for text in state.model.labels]
        head = f"{row}{{{field}\"internals\": ["
        if state.chains.shape[1] > 2:
            close = f"{field}],{field}\"re\": "
        else:
            close = f"],{field}\"re\": "
        im, end = f",{field}\"im\": ", row + "}"
        sep = "["
        for lo in range(0, state.dim, _STATE_CHUNK):
            chains = state.chains[lo:lo + _STATE_CHUNK, 1:-1].tolist()
            amps = state.amps[lo:lo + _STATE_CHUNK]
            put(sep)
            put(",".join([
                f"{head}{','.join([labels[c] for c in internals])}{close}"
                f"{_float_text(re)}{im}{_float_text(imag)}{end}"
                for internals, re, imag in zip(chains, amps.real.tolist(),
                                                amps.imag.tolist())]))
            flush()
            sep = ","
        put(nl + "]")

    try:
        value(obj, "\n")
        put("\n")
        flush()
    finally:
        # value reaches itself through its closure cell: left in place, that
        # cycle would hold out and buf until the garbage collector runs
        del value


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
    expected_mean = tp.expected_mean_attempts(model, charge)
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
            "expected_mean": expected_mean,
            "bound": da2,
            "mean_z": (mean - expected_mean)
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


def _run_word(schedule, initial, args, trial: int):
    """Execute ``schedule`` from ``initial`` on ``Stream(seed, trial)``: the
    final state, the braid records and the final state's resource defect."""
    final, records = cp.execute(schedule, initial, Stream(args.seed, trial),
                                routing=args.routing, max_attempts=args.max_attempts)
    return final, records, cp.check_resources(schedule.layout, final)


def _passed(fid: float, defect: float, args) -> bool:
    return bool(fid >= 1.0 - args.tolerance and defect < cp.RESOURCE_TOL)


def _compiled_word(args):
    """The model, charge and schedule of ``--word`` on
    ``--n-computational`` anyons (by default as many as the word uses); the
    register's size is checked, but no state is built."""
    model = _load_model(args)
    charge = _default_charge(model, args)
    word = _parse_word(args.word)
    n_comp = args.n_computational
    if n_comp is None:
        n_comp = max(2, word.max_strand() + 1)
    try:
        layout = cp.array_layout(model, charge, n_comp)
        return model, charge, cp.compile_word(word, layout)
    except AnyonError as exc:
        raise _CliError(str(exc)) from exc


def _cmd_braid_check(args) -> int:
    model, charge, schedule = _compiled_word(args)
    layout, word = schedule.layout, schedule.word
    n_comp = len(layout.computational)
    if args.random_state:
        # normal() is numpy's Ziggurat sampler, so this is a Generator
        initial = cp.random_encoded_state(layout, np.random.default_rng([args.seed, 2 ** 31]))
    else:
        initial = cp.build_array(model, charge, n_comp)[1]
    final, records, defect = _run_word(schedule, initial, args, 0)
    payload = {
        "config": {
            "model": model.name, "params": model.params, "charge": charge.label,
            "word": str(word), "n_computational": n_comp, "seed": args.seed,
            "routing": args.routing, "random_state": bool(args.random_state),
        },
        "braids": records,
        "resource_defect": defect,
    }
    if args.compare_word is not None:
        other = _parse_word(args.compare_word)
        if other.max_strand() + 1 > n_comp:
            raise _CliError("compare word needs more strands than the layout has")
        final_b, records_b, defect_b = _run_word(cp.compile_word(other, layout),
                                                 initial, args, 1)
        phase, fid = tp._overlap(final, final_b)
        payload["compare"] = {
            "word": str(other),
            "fidelity": fid,
            "phase": _phase(phase),
            "braids": records_b,
        }
        passed = _passed(fid, max(defect, defect_b), args)
    else:
        # the word's oracle is built only here, where the payload prints it
        oracle = cp.direct_braid_reference(word, layout, initial, routing=args.routing)
        phase, fid = tp._overlap(final, oracle)
        payload["oracle_fidelity"] = fid
        payload["phase_vs_oracle"] = _phase(phase)
        passed = _passed(fid, defect, args)
    payload["passed"] = bool(passed)
    _emit(payload, args)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# compile / run
# ---------------------------------------------------------------------------


def _cmd_compile(args) -> int:
    schedule = _compiled_word(args)[2].to_dict()
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                _write_json(schedule, fh)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise _CliError(f"cannot write schedule {args.output}: {exc}") from exc
    else:
        _write_json(schedule)
    return 0


def _cmd_run(args) -> int:
    try:
        with open(args.schedule, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise _CliError(f"cannot read schedule {args.schedule}: {exc}") from exc
    try:
        schedule = cp.schedule_from_dict(data)
    except AnyonError as exc:
        raise _CliError(f"bad schedule: {exc}") from exc
    layout = schedule.layout
    _, initial = cp.build_array(layout.model, layout.charge, len(layout.computational))
    final, records, defect = _run_word(schedule, initial, args, 0)
    oracle = cp.direct_braid_reference(schedule.word, layout, initial, routing=args.routing)
    fid = tp._overlap(final, oracle)[1]
    passed = _passed(fid, defect, args)
    payload = {
        "config": {"schedule": args.schedule, "seed": args.seed,
                   "routing": args.routing, "word": str(schedule.word)},
        "records": records,
        "resource_defect": defect,
        "oracle_fidelity": fid,
        "final_state": final,
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The :func:`build_parser` parser, built on first use and shared by
    later calls of :func:`main`: parsing keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnyonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at the null device, so
        # that the interpreter's last flush of what is left does not raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
