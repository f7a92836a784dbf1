"""Built-in walk models, one per recurrence class plus the irreducibility
split demo.  Each appears in one of the three classification cases:

- ``two-site-exchange``: recurrent,
- ``biased-line``: transient with uniformly non-sure returns,
- ``spin-biased-line``: transient with one sure-return internal state.

``coherent-pair`` is recurrent and separates the two irreducibility
notions: the semigroup is irreducible while the bare jump map is not.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelError
from .model import WalkModel, build_lattice, build_walk, matrix_to_json


def two_site_exchange() -> WalkModel:
    """Two scalar vertices exchanging at unit rate.

    The position process is the classical two-state chain with generator
    [[-1, 1], [1, -1]]: after an exponential unit-rate clock the walker
    hops to the other site.  Recurrent.
    """
    one = np.array([[1.0]])
    return build_walk(
        [(0, 1), (1, 1)],
        [(0, 1, one), (1, 0, one)],
        meta={"name": "two-site-exchange"},
    )


def biased_line(window: tuple[int, int] = (-30, 30)) -> WalkModel:
    """Scalar walk on an integer window drifting right.

    At unit total rate the walker jumps right with probability 3/4 and
    left with probability 1/4.  The infinite chain is transient with
    return probability 1/2 from every site; the window clips outward jumps
    at both edges, so edge vertices are sub-stochastic and the walker can
    escape there (biasing return probabilities down by an exponentially
    small amount).
    """
    lo, hi = window
    spec = {
        "window": [lo, hi],
        "dim": 1,
        "effective": {"default": matrix_to_json(np.array([[-0.5]]))},
        "jumps": [
            {"offset": 1, "matrix": matrix_to_json(np.array([[np.sqrt(3.0) / 2.0]]))},
            {"offset": -1, "matrix": matrix_to_json(np.array([[0.5]]))},
        ],
    }
    model = build_lattice(spec)
    model.meta["name"] = "biased-line"
    return model


def spin_biased_line(window: tuple[int, int] = (0, 30)) -> WalkModel:
    """Half-line walk with one two-dimensional vertex at site one.

    Sites are 0, 1, 2, ... with scalar spaces except site 1, which carries
    a qubit.  From site 1 the two basis states part ways: e2 jumps back to
    site 0 with certainty (and from site 0 the walker returns to site 1
    with certainty), while e1 is pushed onto the drifting tail at sites
    >= 2.  The walk is transient, yet started at site 1 in e2 the return
    is sure; for every other state it is not.
    """
    lo, hi = window
    if lo != 0:
        raise ModelError("spin-biased-line lives on the half line, window starts at 0")
    inv_sqrt5 = 1.0 / np.sqrt(5.0)
    spec = {
        "window": [lo, hi],
        "dim": 1,
        "dims": {"1": 2},
        "effective": {
            "default": matrix_to_json(np.array([[-0.5]])),
            "1": matrix_to_json(-0.5 * np.eye(2)),
        },
        "jumps": [
            {"offset": 1, "matrix": matrix_to_json(np.array([[np.sqrt(3.0) / 2.0]]))},
            {"offset": -1, "matrix": matrix_to_json(np.array([[0.5]]))},
            {"from": 0, "to": 1, "matrix": matrix_to_json(inv_sqrt5 * np.array([[2.0], [1.0]]))},
            {"from": 1, "to": 0, "matrix": matrix_to_json(np.array([[0.0, 1.0]]))},
            {"from": 1, "to": 2, "matrix": matrix_to_json(np.array([[1.0, 0.0]]))},
            {
                "from": 2,
                "to": 1,
                "matrix": matrix_to_json(np.array([[1.0], [1.0]]) / (2.0 * np.sqrt(2.0))),
            },
        ],
    }
    model = build_lattice(spec)
    model.meta["name"] = "spin-biased-line"
    return model


def coherent_pair() -> WalkModel:
    """Two qubit vertices swapped by sigma_x jumps, with coherent drive.

    The jump operators alone share the (1, 1)/(1, -1) eigenbasis, so the
    jump-only map is reducible.  The on-site drive H = -sigma_x - sigma_y
    mixes that basis in a way no jointly invariant subspace survives, so
    the continuous evolution is irreducible.  The jumps are unitary, hence
    every return is sure and the walk is recurrent.
    """
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    h = -sx - sy
    return build_walk(
        [(1, 2), (2, 2)],
        [(1, 2, sx), (2, 1, sx)],
        hamiltonians={1: h, 2: h},
        meta={"name": "coherent-pair"},
    )


FIXTURES = {
    "two-site-exchange": two_site_exchange,
    "biased-line": biased_line,
    "spin-biased-line": spin_biased_line,
    "coherent-pair": coherent_pair,
}

_WINDOWED = {"biased-line", "spin-biased-line"}


def get_fixture(name: str, window: int | None = None) -> WalkModel:
    """Build a fixture by name; ``window`` resizes the lattice fixtures, to
    ``[-window, window]`` for ``biased-line`` and ``[0, window]`` for
    ``spin-biased-line``."""
    if name not in FIXTURES:
        raise ModelError(f"unknown fixture {name!r}; have {sorted(FIXTURES)}")
    if window is None:
        return FIXTURES[name]()
    if name not in _WINDOWED:
        raise ModelError(f"fixture {name!r} has no window parameter")
    return FIXTURES[name]((-window, window) if name == "biased-line" else (0, window))
