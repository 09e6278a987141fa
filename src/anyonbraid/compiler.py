"""Braid words on a quasi-1D anyon array, compiled to measurement schedules.

The array holds stationary computational anyons of a self-dual charge ``a``
with one entangled resource pair ``(a, a)`` in the vacuum channel between
each adjacent pair of computational anyons.  A braid generator on
computational strands ``i, i+1`` maps to one
:func:`anyonbraid.teleport.measurement_braid` on the contiguous quad formed
by those two anyons and the resource pair between them, i.e. three forced
measurements; no anyon ever moves.

For an odd number of computational anyons the last one is created together
with a boundary partner anyon parked at the right end of the array, so the
register as a whole still starts from vacuum pair creation.  The initial
state is written straight from the register's own basis, the product of
each pair creation's factors per row, with no pair attached in turn and no
smaller register built on the way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (ProtocolError, RegisterTooLarge, ScheduleError, UnsupportedCharge,
                     ZeroProbabilityOutcome)
from .fusion_space import (MAX_LEAVES, StateVector, _basis, _insertion_factors, _ranks,
                           random_state)
from .measurement import _vacuum_weight, project_pair
from .model import AnyonModel
from .teleport import (MAX_ATTEMPTS_DEFAULT, BraidRecord, _quad_steps,
                       direct_quad_braid, measurement_braid)

#: Resource pairs must return to the vacuum channel at least this sharply.
RESOURCE_TOL = 1e-10


@dataclass(frozen=True)
class ArrayLayout:
    """Leaf positions of a built array.

    ``computational[i]`` is the leaf index of the i-th computational anyon;
    ``resources[i]`` is the leaf pair of the entangled resource between
    computational anyons ``i`` and ``i+1``.  ``boundary_partner`` is the
    leaf holding the creation partner of the last computational anyon when
    their number is odd.
    """

    model: AnyonModel
    charge: str
    computational: tuple[int, ...]
    resources: tuple[tuple[int, int], ...]
    boundary_partner: int | None

    @property
    def n_leaves(self) -> int:
        return len(self.computational) * 3 - 2 + (self.boundary_partner is not None)

    def quad(self, generator: int) -> tuple[int, int, int, int]:
        """Contiguous quad used by braid generator ``s<generator>`` (1-based)."""
        n = len(self.computational)
        if not 1 <= generator < n:
            raise ScheduleError(f"generator index {generator} out of range 1..{n - 1}")
        p = self.computational[generator - 1]
        ra, rb = self.resources[generator - 1]
        q = self.computational[generator]
        if (ra, rb, q) != (p + 1, p + 2, p + 3):
            raise ScheduleError(f"quad at generator {generator} is not contiguous")
        return (p, ra, rb, q)

    def describe(self) -> dict:
        return {
            "model": self.model.name,
            "params": self.model.params,
            "charge": self.charge,
            "n_computational": len(self.computational),
            "computational": list(self.computational),
            "resources": [list(p) for p in self.resources],
            "boundary_partner": self.boundary_partner,
            "self_dual_economy": False,  # v1 header field; always false
        }


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid generators, e.g. ``s1 s2' s1`` (apostrophe = inverse)."""

    generators: tuple[int, ...]  # signed: +i for s_i, -i for its inverse

    @classmethod
    def parse(cls, text: str) -> "BraidWord":
        gens = []
        for token in text.split():
            m = re.fullmatch(r"s(\d+)('?)", token)
            if not m:
                raise ScheduleError(
                    f"cannot parse braid token {token!r}; expected s<i> or s<i>'")
            idx = int(m.group(1))
            if idx < 1:
                raise ScheduleError(f"generator index must be >= 1 in {token!r}")
            gens.append(-idx if m.group(2) else idx)
        return cls(tuple(gens))

    def __str__(self) -> str:
        return " ".join(f"s{abs(g)}" + ("'" if g < 0 else "") for g in self.generators)

    def inverse(self) -> "BraidWord":
        return BraidWord(tuple(-g for g in reversed(self.generators)))

    def max_strand(self) -> int:
        return max((abs(g) for g in self.generators), default=1)


@dataclass(frozen=True)
class ScheduleStep:
    """One forced measurement: measure ``pair`` until it yields the vacuum,
    undoing failures via ``recovery``.  It is one of the three steps of
    braid ``braid_index`` of the word, generator ``s<generator>`` in
    ``direction`` on ``quad``.
    """

    pair: tuple[int, int]
    recovery: tuple[int, int]
    braid_index: int
    generator: int
    direction: str
    quad: tuple[int, int, int, int]

    def to_dict(self) -> dict:
        return {"kind": "forced_measurement", "pair": list(self.pair),
                "recovery": list(self.recovery), "braid_index": self.braid_index,
                "generator": self.generator, "direction": self.direction,
                "quad": list(self.quad)}


@dataclass(frozen=True)
class Schedule:
    """A braid word on an array layout; its measurement steps are derived
    from the word, three forced measurements per generator.

    Constructing a schedule whose word uses a generator the layout lacks
    raises :class:`ScheduleError`.
    """

    layout: ArrayLayout
    word: BraidWord

    def __post_init__(self):
        for g in self.word.generators:
            self.layout.quad(abs(g))

    @property
    def steps(self) -> tuple[ScheduleStep, ...]:
        steps = []
        for b, g in enumerate(self.word.generators):
            quad, direction = _braid_unit(self.layout, g)
            steps += [ScheduleStep(target, recovery, b, abs(g), direction, quad)
                      for target, recovery in _quad_steps(quad, direction)]
        return tuple(steps)

    def to_dict(self) -> dict:
        return {
            "format": "anyonbraid-schedule-v1",
            "layout": self.layout.describe(),
            "word": str(self.word),
            "steps": [s.to_dict() for s in self.steps],
        }


def _braid_unit(layout: ArrayLayout, g: int) -> tuple[tuple[int, int, int, int], str]:
    """Quad and direction of the signed generator ``g``."""
    return layout.quad(abs(g)), "positive" if g > 0 else "inverse"


# ---------------------------------------------------------------------------
# Array construction.
# ---------------------------------------------------------------------------


def array_layout(model: AnyonModel, a, n_computational: int) -> ArrayLayout:
    """The layout :func:`build_array` gives ``n_computational`` anyons of
    charge ``a``: computational anyon ``i`` on leaf ``3 i``, the resource
    pair between anyons ``i`` and ``i+1`` on leaves ``(3 i + 1, 3 i + 2)``,
    and for an odd count a boundary partner on the last leaf.  A register
    over the size limits of :mod:`anyonbraid.fusion_space` raises
    :class:`RegisterTooLarge`; nothing of it is built.
    """
    ca = model.charge(a)
    if n_computational < 2:
        raise ProtocolError("an array needs at least 2 computational anyons")
    n_leaves = 3 * n_computational - 2 + n_computational % 2
    if n_leaves > MAX_LEAVES:
        raise RegisterTooLarge(
            f"an array of {n_computational} computational anyons has {n_leaves} "
            f"leaves, over the limit of {MAX_LEAVES}")
    if model.dual(ca) != ca:
        raise UnsupportedCharge(
            f"computational charge must be self-dual; dual({ca.label}) = "
            f"{model.dual(ca).label}")
    _ranks(model, (ca.index,) * n_leaves, model.vacuum.index)
    computational = tuple(3 * i for i in range(n_computational))
    resources = tuple((3 * i + 1, 3 * i + 2) for i in range(n_computational - 1))
    partner = 3 * n_computational - 2 if n_computational % 2 else None
    return ArrayLayout(model, ca.label, computational, resources, partner)


def build_array(model: AnyonModel, a, n_computational: int) -> tuple[ArrayLayout, StateVector]:
    """Create the initial array state and its layout.

    Computational anyons are created pairwise from vacuum, which requires a
    self-dual charge; with an odd count the last anyon's creation partner
    stays at the right end of the array as a spectator.  One resource pair
    in the vacuum channel sits between each adjacent computational pair, so
    braid quads are contiguous.  A register over the size limits of
    :mod:`anyonbraid.fusion_space` raises :class:`RegisterTooLarge` before
    any of it is built.

    The state is written in one pass over the register's own basis, with
    no pair attached in turn.  A row's amplitude is the product of the
    factors each vacuum-pair insertion (:func:`attach_pair`) would multiply
    it by: the created pairs' first, then the resource pairs' from the
    right, each insertion read at the row's labels on either side of the
    pair's first leaf.  A row no insertion reaches, one where a resource
    pair does not return to its left label or a created pair does not
    close to the vacuum, is zero.
    """
    layout = array_layout(model, a, n_computational)
    ca = model.charge(a).index
    leaves = (ca,) * layout.n_leaves
    chains = _basis(model, leaves, model.vacuum.index)
    factors = _insertion_factors(model, ca)  # ``a`` is self-dual
    amps = np.ones(len(chains), dtype=complex)
    # Each insertion multiplies as ``attach_pair`` does, then adds +0 as its
    # ``out[index] +=`` does, which turns the sign of a zero to +.
    for _ in range((n_computational + 1) // 2):
        amps = factors[0, ca] * amps
        amps += 0
    # a created pair closes to the vacuum at its second anyon
    reached = (chains[:, 3:3 * n_computational - 2:6] == 0).all(1)
    for i in range(n_computational - 2, -1, -1):
        amps = factors[chains[:, 3 * i], chains[:, 3 * i + 1]] * amps
        amps += 0
        reached &= chains[:, 3 * i + 2] == chains[:, 3 * i]
    amps[~reached] = 0
    return layout, StateVector(model, leaves, model.vacuum.index, amps, _chains=chains)


def random_encoded_state(layout: ArrayLayout, rng) -> StateVector:
    """A random register state compatible with the layout: resource pairs in
    the vacuum channel, everything else Haar-like random.  The register is
    that of :func:`build_array`, every leaf of the layout's charge and the
    total the vacuum, which is not built."""
    model = layout.model
    leaves = (layout.charge,) * layout.n_leaves
    while True:
        state = random_state(model, leaves, model.vacuum, rng)
        try:
            for pair in layout.resources:
                state, _ = project_pair(state, pair[0], pair[1], 0)
        except ZeroProbabilityOutcome:
            continue  # vanishing vacuum weight; redraw
        return state


def check_resources(layout: ArrayLayout, state: StateVector) -> float:
    """Worst deviation of any resource pair from a sharp vacuum channel."""
    return max((abs(1.0 - _vacuum_weight(state, pair)) for pair in layout.resources),
               default=0.0)


# ---------------------------------------------------------------------------
# Compilation and execution.
# ---------------------------------------------------------------------------


def compile_word(word: BraidWord, layout: ArrayLayout) -> Schedule:
    """The schedule of ``word`` on ``layout``: three forced measurements per
    generator (:attr:`Schedule.steps`)."""
    return Schedule(layout, word)


def execute(schedule: Schedule, state: StateVector, rng,
            routing: str = "over", max_attempts: int = MAX_ATTEMPTS_DEFAULT,
            ) -> tuple[StateVector, list[BraidRecord]]:
    """Run a schedule stochastically, drawing from ``rng`` (any object with
    ``random()``, as for :func:`~anyonbraid.teleport.forced_measurement`).

    Returns the final state and one :class:`BraidRecord` per generator of
    the word (its three forced measurements).  Only the braids run here:
    each checks its quad's resource pair before its first step, and a braid
    changes no other resource pair, so whether every resource pair is back
    in the vacuum channel is for the caller to check on the final state,
    with :func:`check_resources`, as the CLI does.
    """
    records = []
    for g in schedule.word.generators:
        quad, direction = _braid_unit(schedule.layout, g)
        state, record = measurement_braid(state, quad, direction, rng, routing=routing,
                                          max_attempts=max_attempts)
        records.append(record)
    return state, records


def direct_braid_reference(word: BraidWord, layout: ArrayLayout,
                           state: StateVector, routing: str = "over") -> StateVector:
    """Apply the braid word directly with R-matrices (the oracle path).

    Each generator exchanges the two computational anyons of its quad,
    transporting the moving line across the resource leaves with the given
    routing convention; this is the adiabatic-transport baseline that the
    measurement pathway replaces.
    """
    for g in word.generators:
        quad = layout.quad(abs(g))
        state = direct_quad_braid(state, quad, +1 if g > 0 else -1, routing)
    return state


# ---------------------------------------------------------------------------
# Schedule serialization.
# ---------------------------------------------------------------------------


def schedule_from_dict(data: dict) -> Schedule:
    """Rebuild a schedule dumped with ``Schedule.to_dict``.

    The model is rebuilt from the layout header with
    :func:`anyonbraid.model.load_builtin`.  The layout must be exactly the
    one :func:`build_array` gives for its model, charge and number of
    computational anyons, and the steps must be those its braid word
    compiles to; anything else raises :class:`ScheduleError`.  A layout
    over the register size limits raises :class:`RegisterTooLarge`.
    """
    from .model import load_builtin

    if not isinstance(data, dict):
        raise ScheduleError("a schedule must be a JSON object")
    if data.get("format") != "anyonbraid-schedule-v1":
        raise ScheduleError(f"unknown schedule format {data.get('format')!r}")
    try:
        lay = data["layout"]
        model = load_builtin(lay["model"], k=lay["params"].get("k"))
        layout = array_layout(model, lay["charge"], len(lay["computational"]))
        word = BraidWord.parse(data["word"])
        steps = data["steps"]
    except KeyError as exc:
        raise ScheduleError(f"malformed schedule: missing field {exc}") from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise ScheduleError(f"malformed schedule: {exc}") from exc
    if lay != layout.describe():
        raise ScheduleError(
            f"layout {lay} is not the canonical layout {layout.describe()} "
            f"for its model, charge and size")
    schedule = compile_word(word, layout)
    if steps != schedule.to_dict()["steps"]:
        raise ScheduleError("schedule steps do not match the declared braid word")
    return schedule
