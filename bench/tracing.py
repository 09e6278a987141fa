"""Layer spans for ``anyonbraid``, recorded from outside the package.

:class:`Tracer` wraps the public functions of each package module (the
layers) and rebinds every module attribute that refers to them, so a call
is traced whichever module it goes through (``compiler.measurement_braid``
as well as ``teleport.measurement_braid``).  ``AnyonModel`` construction
and its consistency methods are wrapped on the class.  Spans live in memory
as ``[parent, name id, start, end, failed]`` with the span id equal to the
list index, and are written out by :meth:`Tracer.dump` at the end of a run.

Nothing under the package is edited; :meth:`Tracer.uninstall` restores the
original bindings, so traced and untraced rounds can alternate in one
process.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import sys
import time

LAYERS = ("cli", "model", "model_io", "fusion_space", "measurement", "teleport",
          "compiler")
_MODEL_METHODS = ("__init__", "verify_consistency", "vacuum_probability_residual")

_BUILD = {"model.fibonacci_model", "model.ising_model", "model.su2k_model",
          "model.load_builtin", "model.AnyonModel.__init__"}
_VERIFY_MODEL = {"model.AnyonModel.verify_consistency"}
_SCHEDULE = {"compiler.compile_word", "compiler.schedule_from_dict"}
_VERIFY_PROTOCOL = {"teleport.teleport_reference", "teleport.braid_oracle_state",
                    "teleport.relative_phase", "compiler.check_resources",
                    "compiler.direct_braid_reference"}
_BRAID = {"teleport.measurement_braid", "compiler.execute"}
_MEASURE = ("measurement.pair_charge_distribution", "measurement.project_pair")

#: Per-layer metrics reported by a traced run, in output order, with units
#: and the direction that is better.  Times and counts are per round.
#:
#: The end-to-end metric (``units_per_s`` unless noted) and workload each
#: one should move:
#:
#: - ``cli.self_s`` (argparse, per-trial ``default_rng``, JSON output):
#:   teleport-mc and braid-long.
#: - ``model.*``, ``model_io.parse_s``: model-verify, and ``peak_rss_mb``
#:   there; ``setup_s`` everywhere.
#: - ``fusion_space.*``: wide-register, and ``peak_rss_mb`` there; about 0
#:   on teleport-mc.
#: - ``measurement.*``: teleport-mc, wide-register (each warm call is a
#:   dense matvec there) and braid-long.
#: - ``teleport.self_s``, ``retries``, ``attempts_per_trial``: teleport-mc.
#: - ``teleport.verify_s``, ``verify_share`` (base: ``measurement_braid``
#:   plus ``execute`` time): braid-long.
#: - ``compiler.*``: wide-register and braid-long.
PER_LAYER = [(f"{layer}.{what}", unit, "lower") for layer in LAYERS
             for what, unit in (("calls", "count"), ("failed", "count"),
                                ("self_s", "s"))] + [
    ("model.build_s", "s", "lower"),
    ("model.verify_s", "s", "lower"),
    ("model.f_mb", "MB", "lower"),
    ("model_io.parse_s", "s", "lower"),
    ("fusion_space.operator_build_s", "s", "lower"),
    ("fusion_space.cache_mb", "MB", "lower"),
    ("fusion_space.dim_max", "count", "higher"),
    ("measurement.warm_call_us", "us", "lower"),
    ("measurement.calls_per_trial", "ratio", "lower"),
    ("measurement.calls_per_braid", "ratio", "lower"),
    ("teleport.retries", "count", "lower"),
    ("teleport.attempts_per_trial", "ratio", "lower"),
    ("teleport.verify_s", "s", "lower"),
    ("teleport.verify_share", "ratio", "lower"),
    ("compiler.schedule_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _cache_bytes(model) -> int:
    total = 0
    for value in model._cache.values():
        for item in value if isinstance(value, tuple) else (value,):
            total += getattr(item, "nbytes", 0)
    return total


class Tracer:
    """Span recorder over the layers of an imported ``anyonbraid``."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans: list[list] = []
        self._stack = [-1]
        # (root span, operator key, span id) of every measurement call
        self.measure_calls: list[tuple] = []
        self.attempts: list[int] = []
        self.dim_max = 0
        self.cache_bytes_max = 0
        self.f_bytes_max = 0
        self._live_models: dict[int, object] = {}
        self._patches: list[tuple] = []
        self._hooks = {
            "measurement.pair_charge_distribution": self._on_measure(3),
            "measurement.project_pair": self._on_measure(4),
            "teleport.forced_measurement": self._on_forced,
            "model.AnyonModel.__init__": self._on_model,
            "cli.main": self._on_main,
        }
        self._wrap_package()

    # -- wrapping -----------------------------------------------------------

    def _wrap_package(self) -> None:
        modules = {layer: importlib.import_module(f"anyonbraid.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{attr}"))
        for name, mod in list(sys.modules.items()):
            if name != "anyonbraid" and not name.startswith("anyonbraid."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj, hit[1]))
        cls = modules["model"].AnyonModel
        for attr in _MODEL_METHODS:
            fn = cls.__dict__[attr]
            self._patches.append(
                (cls, attr, fn, self._wrap(fn, "model", f"model.AnyonModel.{attr}")))

    def _wrap(self, fn, layer: str, qualname: str):
        nid = len(self.names)
        self.names.append(qualname)
        self.layers.append(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._hooks.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [stack[-1], nid, 0.0, 0.0, True]
            spans.append(span)
            stack.append(sid)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
                span[4] = False
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(sid, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- hooks (run after the span closed) ------------------------------------

    def _on_measure(self, routing_pos: int):
        def hook(sid, args, kwargs, result):
            state, i, j = args[0], args[1], args[2]
            routing = kwargs.get("routing",
                                 args[routing_pos] if len(args) > routing_pos else "over")
            root = self._stack[1] if len(self._stack) > 1 else sid
            key = (id(state.model), state.leaves, state.total, i, j, routing)
            self.measure_calls.append((root, key, sid))
            self.dim_max = max(self.dim_max, state.dim)
        return hook

    def _on_forced(self, sid, args, kwargs, result):
        self.attempts.append(result[1].attempts)

    def _on_model(self, sid, args, kwargs, result):
        self._live_models[id(args[0])] = args[0]

    def _on_main(self, sid, args, kwargs, result):
        # Models are held only until their CLI call returns.
        for model in self._live_models.values():
            self.cache_bytes_max = max(self.cache_bytes_max, _cache_bytes(model))
            self.f_bytes_max = max(self.f_bytes_max, model.F.nbytes)
        self._live_models.clear()

    # -- results ------------------------------------------------------------

    def _duration(self, sid: int) -> float:
        span = self.spans[sid]
        return span[3] - span[2]

    def _outer_time(self, names: set) -> float:
        """Total time of spans named in ``names`` not nested in another one."""
        ids = {i for i, n in enumerate(self.names) if n in names}
        covered = [False] * len(self.spans)
        total = 0.0
        for sid, (parent, nid, t0, t1, _) in enumerate(self.spans):
            inside = parent >= 0 and (covered[parent] or self.spans[parent][1] in ids)
            covered[sid] = inside
            if nid in ids and not inside:
                total += t1 - t0
        return total

    def _operator_build(self) -> tuple[float, float]:
        """(extra time of first calls per operator key, median warm call).

        The first measurement call on a key builds and caches the dense
        operator; later calls with the key only apply it.  The build cost is
        the first call's time minus the median of the later calls of the
        same function on that key (or of all warm calls of the function).
        """
        groups: dict[tuple, list[int]] = {}
        for root, key, sid in self.measure_calls:
            groups.setdefault((root, key), []).append(sid)
        warm: dict[int, list[float]] = {}
        for sids in groups.values():
            for sid in sids[1:]:
                warm.setdefault(self.spans[sid][1], []).append(self._duration(sid))
        warm_median = {nid: statistics.median(v) for nid, v in warm.items()}
        extra = 0.0
        for sids in groups.values():
            first = sids[0]
            nid = self.spans[first][1]
            same = [self._duration(s) for s in sids[1:] if self.spans[s][1] == nid]
            base = statistics.median(same) if same else warm_median.get(nid, 0.0)
            extra += max(0.0, self._duration(first) - base)
        every_warm = [d for v in warm.values() for d in v]
        return extra, statistics.median(every_warm) if every_warm else 0.0

    def metrics(self, rounds: int, overhead_frac: float) -> dict:
        """Per-layer metrics over ``rounds`` traced rounds (see PER_LAYER)."""
        child = [0.0] * len(self.spans)
        for parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = dict.fromkeys(LAYERS, 0)
        failed = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_name_self: dict[str, float] = {}
        by_name_calls: dict[str, int] = {}
        for sid, (_, nid, t0, t1, fail) in enumerate(self.spans):
            layer, name = self.layers[nid], self.names[nid]
            own = t1 - t0 - child[sid]
            calls[layer] += 1
            failed[layer] += fail
            self_s[layer] += own
            by_name_self[name] = by_name_self.get(name, 0.0) + own
            by_name_calls[name] = by_name_calls.get(name, 0) + 1
        trials = by_name_calls.get("teleport.forced_measurement", 0)
        braids = by_name_calls.get("teleport.measurement_braid", 0)
        op_build, warm = self._operator_build()
        verify_protocol = self._outer_time(_VERIFY_PROTOCOL)
        braid_time = self._outer_time(_BRAID)
        per = 1.0 / max(rounds, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] * per
            out[f"{layer}.failed"] = failed[layer] * per
            out[f"{layer}.self_s"] = self_s[layer] * per
        out.update({
            "model.build_s": self._outer_time(_BUILD) * per,
            "model.verify_s": self._outer_time(_VERIFY_MODEL) * per,
            "model.f_mb": self.f_bytes_max / 1e6,
            "model_io.parse_s": by_name_self.get("model_io.parse_model_text", 0.0) * per,
            "fusion_space.operator_build_s": op_build * per,
            "fusion_space.cache_mb": self.cache_bytes_max / 1e6,
            "fusion_space.dim_max": self.dim_max,
            "measurement.warm_call_us": warm * 1e6,
            "measurement.calls_per_trial": calls["measurement"] / trials if trials else 0.0,
            "measurement.calls_per_braid": calls["measurement"] / braids if braids else 0.0,
            "teleport.retries": sum(a - 1 for a in self.attempts) * per,
            "teleport.attempts_per_trial": sum(self.attempts) / trials if trials else 0.0,
            "teleport.verify_s": verify_protocol * per,
            "teleport.verify_share": verify_protocol / braid_time if braid_time else 0.0,
            "compiler.schedule_s": self._outer_time(_SCHEDULE) * per,
            "trace.overhead_frac": overhead_frac,
        })
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write ``meta``, the span names and every span as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({**meta, "names": self.names, "layers": self.layers,
                                 "span_fields": ["id", "parent", "name", "start_s",
                                                 "end_s", "failed"]}) + "\n")
            for sid, (parent, nid, t0, t1, fail) in enumerate(self.spans):
                fh.write(f"[{sid},{parent},{nid},{t0:.9f},{t1:.9f},{int(fail)}]\n")
