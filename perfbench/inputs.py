"""Workload definitions and the seeded input generator.

Each workload is a list of model specs.  A spec names how its model file is
made (a built-in fixture written through ``ctoqw fixtures``, or the seeded
``qudit-ring``), which start state and target vertex the commands use, the
simulation size, and the closed-form answers the correctness gate expects.

Run as a script, this module is the timed set-up probe: a fresh interpreter
imports ``ctoqw.cli``, writes every model and query file of a workload, and
loads and validates each model.  It exits 0 only if every model validates.

    python3 perfbench/inputs.py <workload> <seed> <out-dir> [--tiny]
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("drift-lattice", "qudit-ring", "small-fixtures")


@dataclass(frozen=True)
class ModelSpec:
    """One model of a workload and what the commands do with it."""

    label: str
    fixture: str | None  # built-in fixture name; None for the seeded ring
    window: int | None
    start: str  # "vertex:eK"
    target: str
    horizon: float
    t_law: float  # time of the evolve report end and the position-law query
    n_traj: int
    expect: dict = field(default_factory=dict)
    ring_sites: int = 0
    ring_dim: int = 0


def _biased(window: int, n_traj: int) -> ModelSpec:
    # Return probability 1/2 and expected occupation 2 on the infinite line;
    # the window only lets the walker escape, so both sit below, by about
    # 3**-window and 4 * 3**-window.
    slack = 3.0 ** -window
    return ModelSpec(
        f"biased-line-w{window}", "biased-line", window, "0:e1", "0",
        horizon=10.0, t_law=5.0, n_traj=n_traj,
        expect={
            "case": "TransientUniform",
            "reach": (0.5, slack),
            "occupation": (2.0, 4.0 * slack),
            "irreducible": True,
            "discrete_irreducible": True,
        },
    )


def _spin(window: int, n_traj: int) -> ModelSpec:
    return ModelSpec(
        f"spin-biased-line-w{window}", "spin-biased-line", window, "1:e2", "1",
        horizon=10.0, t_law=5.0, n_traj=n_traj,
        expect={
            "case": "TransientQuantum",
            "exhibit_vertex": "1",
            "reach": (1.0, 0.0),
            "irreducible": True,
            "discrete_irreducible": True,
        },
    )


def _closed(label, fixture, start, target, discrete, n_traj) -> ModelSpec:
    return ModelSpec(
        label, fixture, None, start, target,
        horizon=10.0, t_law=5.0, n_traj=n_traj,
        expect={
            "case": "Recurrent",
            "reach": (1.0, 0.0),
            "occupation": (float("inf"), 0.0),
            "irreducible": True,
            "discrete_irreducible": discrete,
        },
    )


def _ring(sites: int, dim: int, n_traj: int) -> ModelSpec:
    return ModelSpec(
        "qudit-ring", None, None, "0:e1", "0",
        horizon=8.0, t_law=4.0, n_traj=n_traj,
        expect={
            "case": "Recurrent",
            "reach": (1.0, 0.0),
            "occupation": (float("inf"), 0.0),
            "irreducible": True,
        },
        ring_sites=sites, ring_dim=dim,
    )


def workload_models(name: str, tiny: bool = False) -> list[ModelSpec]:
    """The model specs of a workload; ``tiny`` shrinks them for the smoke test."""
    if name == "drift-lattice":
        if tiny:
            return [_biased(4, 50), _spin(8, 50)]
        return [_biased(20, 500), _spin(40, 500)]
    if name == "qudit-ring":
        return [_ring(6, 3, 30)] if tiny else [_ring(20, 3, 200)]
    if name == "small-fixtures":
        n = 20 if tiny else 50
        return [
            _closed("two-site-exchange", "two-site-exchange", "0:e1", "1", True, n),
            _closed("coherent-pair", "coherent-pair", "1:e1", "2", False, n),
            _biased(8, n),
            _spin(8, n),
        ]
    raise KeyError(name)


# -- the seeded ring --------------------------------------------------------

RING_OFFSETS = (1, -1, 2)


def qudit_ring(seed: int, sites: int, dim: int) -> dict:
    """Model JSON of a closed ring of ``dim``-level sites.

    Complex Gaussian jumps go to ``i+1``, ``i-1`` and ``i+2``.  Each site's
    jumps are rescaled so that ``sum R^dag R`` is the same non-uniform
    diagonal at every site, with eigenvalues from 0.75 to 1.25: the decay is
    state dependent, so Newton inversion runs, yet the event rate, and so the
    simulation work, hardly depends on the seed (a range of 0.5 to 1.5 let
    the event count of one simulate call vary by 12% across seeds).  Every
    site gets a random Hermitian Hamiltonian.
    """
    import numpy as np
    from ctoqw.model import matrix_to_json

    rng = np.random.default_rng(seed)
    decay_sqrt = np.diag(np.sqrt(np.linspace(0.75, 1.25, dim)))

    def gaussian():
        return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)

    jumps, hams = [], {}
    for i in range(sites):
        mats = [gaussian() for _ in RING_OFFSETS]
        vals, vecs = np.linalg.eigh(sum(m.conj().T @ m for m in mats))
        fix = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T @ decay_sqrt
        for off, m in zip(RING_OFFSETS, mats):
            jumps.append({"from": i, "to": (i + off) % sites, "matrix": matrix_to_json(m @ fix)})
        a = gaussian()
        hams[str(i)] = matrix_to_json(0.5 * (a + a.conj().T))
    return {
        "vertices": [{"id": i, "dim": dim} for i in range(sites)],
        "hamiltonians": hams,
        "jumps": jumps,
        "meta": {"name": "qudit-ring", "seed": seed},
    }


def check_ring(walk) -> list[str]:
    """Properties the qudit-ring workload relies on; returns the violated ones."""
    import numpy as np
    from ctoqw import classify, model

    problems = []
    if not model.validate(walk).ok:
        problems.append("qudit-ring fails validate")
    if walk.escaping_boundary():
        problems.append("qudit-ring is not closed")
    if not classify.check_irreducible(walk).irreducible:
        problems.append("qudit-ring is reducible")
    # G + G^dag = -sum R^dag R; Newton inversion runs only where it is not a
    # multiple of the identity.
    non_uniform = 0
    for v in walk.vertices:
        gplus = walk.effective(v.id) + walk.effective(v.id).conj().T
        c = np.trace(gplus).real / v.dim
        if np.linalg.norm(gplus - c * np.eye(v.dim)) > 1e-6:
            non_uniform += 1
    if non_uniform == 0:
        problems.append("qudit-ring has uniform decay at every vertex")
    return problems


# -- files ------------------------------------------------------------------


def model_path(out_dir: str, spec: ModelSpec) -> str:
    return os.path.join(out_dir, f"{spec.label}.model.json")


def queries_path(out_dir: str, spec: ModelSpec) -> str:
    return os.path.join(out_dir, f"{spec.label}.queries.json")


def queries(spec: ModelSpec) -> list[dict]:
    """The simulate queries; the position law comes first, the gate reads it."""
    target = int(spec.target)
    return [
        {"kind": "position_law", "t": spec.t_law},
        {"kind": "passage_cdf", "vertex": target, "grid": [1.0, 2.0, spec.horizon / 2]},
        {"kind": "occupation", "vertex": target},
        {"kind": "visits", "vertex": target},
    ]


def write_inputs(workload: str, seed: int, out_dir: str, tiny: bool = False) -> None:
    """Write every model and query file of a workload, then load and
    validate each model; raises SystemExit(3) on a model that fails."""
    from ctoqw import cli, model

    os.makedirs(out_dir, exist_ok=True)
    specs = workload_models(workload, tiny)
    for spec in specs:
        path = model_path(out_dir, spec)
        if spec.fixture is None:
            with open(path, "w") as fh:
                json.dump(qudit_ring(seed, spec.ring_sites, spec.ring_dim), fh)
        else:
            argv = ["fixtures", "--name", spec.fixture, "--out", path]
            if spec.window is not None:
                argv += ["--window", str(spec.window)]
            if cli.main(argv) != 0:
                raise SystemExit(3)
        with open(queries_path(out_dir, spec), "w") as fh:
            json.dump(queries(spec), fh)
    for spec in specs:
        with open(model_path(out_dir, spec)) as fh:
            walk = model.model_from_json(json.load(fh))
        if not model.validate(walk).ok:
            print(f"{spec.label}: model fails validation", file=sys.stderr)
            raise SystemExit(3)


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    args = sys.argv[1:]
    write_inputs(args[0], int(args[1]), args[2], tiny="--tiny" in args[3:])
