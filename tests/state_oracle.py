"""Reference text form of a :class:`~anyonbraid.StateVector`.

A state is dumped as a dict of its model, parameters, leaves, total and
one ``{"internals", "re", "im"}`` row per basis state, in basis order, and
read back bit for bit at double precision.  ``anyonbraid run`` writes its
``final_state`` in this form straight from the state's arrays; this module
builds it the slow way, through one dict per row and ``json.dumps``, as the
reference those bytes are checked against.  It is test-only.
"""

import json

import numpy as np

from anyonbraid import StateVector, UnknownChargeError
from anyonbraid.fusion_space import _basis


def _internals(chains) -> list:
    """Internal labels ``(y_1, ..., y_{n-2})`` of each chain row, as lists."""
    return chains[:, 1:chains.shape[1] - 1].tolist()


def state_to_dict(state: StateVector) -> dict:
    """Leaves, total and (internal labels, re, im) rows, ready for JSON."""
    labels = state.model.labels
    rows = [
        {"internals": [labels[i] for i in internals],
         "re": float(z.real), "im": float(z.imag)}
        for internals, z in zip(_internals(state.chains), state.amps)
    ]
    return {
        "model": state.model.name,
        "params": state.model.params,
        "leaves": [labels[i] for i in state.leaves],
        "total": labels[state.total],
        "amplitudes": rows,
    }


def state_to_json(state: StateVector) -> str:
    """Dump :func:`state_to_dict` as JSON text."""
    return json.dumps(state_to_dict(state), indent=2)


def state_from_json(model, text: str) -> StateVector:
    """Rebuild a state dumped by :func:`state_to_json` against ``model``."""
    data = json.loads(text)
    leaves = tuple(model.charge(l).index for l in data["leaves"])
    total = model.charge(data["total"]).index
    chains = _basis(model, leaves, total)
    idx = {tuple(internals): n for n, internals in enumerate(_internals(chains))}
    amps = np.zeros(len(chains), dtype=complex)
    for row in data["amplitudes"]:
        internals = tuple(model.charge(l).index for l in row["internals"])
        if internals not in idx:
            raise UnknownChargeError(f"row {row['internals']} is not an admissible tree")
        amps[idx[internals]] = row["re"] + 1j * row["im"]
    return StateVector(model, leaves, total, amps, _chains=chains)
