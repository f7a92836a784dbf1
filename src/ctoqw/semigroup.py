"""Exact evolution of block states and the jump path-sum oracle.

The master-equation generator acts blockwise on a vertex-indexed state:

    d/dt rho(i) = G_i rho(i) + rho(i) G_i^dag + sum_{j != i} R[j->i] rho(j) R[j->i]^dag.

It never mixes in off-block-diagonal coherences, so the evolution is
represented on the block sector only, as a dense matrix of dimension
``sum_i d_i**2`` on the layout of ``WalkModel.starts``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BudgetError, ConvergenceError, PreconditionError
from .model import BlockState, VertexId, WalkModel


@dataclass(frozen=True)
class BlockGenerator:
    """Vectorized generator restricted to block-diagonal states.

    It acts on the direct sum laid out by ``model.starts``: a stacked
    vec-vector ``x`` holds block ``p`` (model vertex order) in
    ``x[starts[p]:starts[p + 1]]``.
    """

    model: WalkModel
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def stack(self, mu: BlockState) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        starts = self.model.starts.tolist()
        for v, a, b in zip(self.model.vertices, starts, starts[1:]):
            out[a:b] = linalg.vec(mu.block(v.id, v.dim))
        return out

    def unstack(self, x: np.ndarray) -> BlockState:
        starts = self.model.starts.tolist()
        return BlockState({v.id: linalg.unvec(x[a:b], (v.dim, v.dim))
                           for v, a, b in zip(self.model.vertices, starts, starts[1:])})

    def law(self, xs: np.ndarray) -> np.ndarray:
        """The trace of every block of each row of ``xs`` (``(points, dim)``
        stacked vectors): the position law, ``(points, V)`` in model vertex
        order.  Each trace sums the complex diagonal along the last axis of a
        C-ordered ``take``, in the order of ``np.trace``, so the floats are
        those of :func:`position_distribution`; ``xs[:, idx]`` has no fixed
        memory order, and summed in another order they can differ."""
        out = np.empty((len(xs), len(self.model.vertices)))
        for d, s in self.model.stacks.items():
            idx = self.model.starts[s.pos, None] + (d + 1) * np.arange(d)
            out[:, s.pos] = xs.take(idx, axis=1).sum(-1).real
        return out


def build_block_generator(model: WalkModel) -> BlockGenerator:
    """``drift_matrix(G)`` in the diagonal block of each vertex and
    ``sandwich_matrix(R)`` in the ``(dst, src)`` block of each jump, one
    stacked assembly per vertex dimension and per jump shape, on the layout
    of ``model.starts``."""
    starts = model.starts
    mat = np.zeros((starts[-1], starts[-1]), dtype=complex)
    for s in model.stacks.values():
        r, c, v = linalg.block_entries(starts[s.pos], starts[s.pos], linalg.drift_matrix(s.eff))
        mat[r, c] += v
    for ks, jumps in model.jump_stacks:
        src, dst = model.ends[ks].T
        r, c, v = linalg.block_entries(starts[dst], starts[src], linalg.sandwich_matrix(jumps))
        mat[r, c] += v
    return BlockGenerator(model, mat)


def lindblad_apply(model: WalkModel, mu: BlockState) -> dict[VertexId, np.ndarray]:
    """One application of the generator, returned as Hermitian blocks."""
    out: dict[VertexId, np.ndarray] = {}
    for v in model.vertices:
        g = model.effective(v.id)
        rho = mu.block(v.id, v.dim)
        acc = g @ rho + rho @ g.conj().T
        for src, r in model.in_edges(v.id):
            rho_src = mu.block(src, model.dim(src))
            acc += r @ rho_src @ r.conj().T
        out[v.id] = acc
    return out


_TRACE_TOL = 1e-8  # trace drift allowed on a closed model, per unit of 1 + t


@dataclass(frozen=True)
class Grid:
    """Evolved states on ``times``, held as the rows of ``vectors``, one
    stacked block vector per point; ``law[k]`` is the position law at
    ``times[k]``, ``(points, V)`` in model vertex order."""

    times: np.ndarray
    law: np.ndarray
    vectors: np.ndarray
    generator: BlockGenerator
    start: BlockState

    def state(self, k: int) -> BlockState:
        """The state at ``times[k]``: the start state where ``t_k = 0``,
        else the Hermitian part of each block of ``vectors[k]``."""
        if self.times[k] == 0:
            return self.start.copy()
        out = self.generator.unstack(self.vectors[k])
        return BlockState({v: linalg.herm(b) for v, b in out.blocks.items()})


def evolve_grid(
    model: WalkModel,
    mu: BlockState,
    t: float,
    points: int,
    generator: BlockGenerator | None = None,
) -> Grid:
    """The evolution of ``mu`` on ``linspace(0, t, points)``.

    One propagator ``e^{dt L}`` with ``dt = t / (points - 1)`` is applied
    ``k`` times to reach ``t_k``, by the semigroup property; the first point
    is ``mu`` itself.  On models without escape defects each total trace is
    checked against that of ``mu`` to ``_TRACE_TOL * (1 + t_k)``; a
    violation means the exponential lost accuracy (it should be machine
    precise at these sizes).
    """
    if not 0.0 <= t < math.inf:
        raise PreconditionError("evolution time must be nonnegative and finite")
    if points < 1:
        raise PreconditionError(f"a time grid needs at least one point, got {points}")
    gen = generator if generator is not None else build_block_generator(model)
    times = np.linspace(0.0, t, points)
    xs = np.empty((points, gen.dim), dtype=complex)
    xs[:] = gen.stack(mu)
    if t > 0 and points > 1:
        step = linalg.expm(t / (points - 1) * gen.matrix)
        for k in range(1, points):
            xs[k] = step @ xs[k - 1]
    law = gen.law(xs)
    if not model.escaping_boundary():
        defect = np.abs(law.sum(1) - mu.total_trace())
        lost = np.flatnonzero(defect > _TRACE_TOL * (1.0 + times))
        if lost.size:
            raise ConvergenceError(
                f"evolution lost trace mass {defect[lost[0]]:.3e} on a closed model"
            )
    return Grid(times, law, xs, gen, mu.copy())


def evolve(
    model: WalkModel,
    mu: BlockState,
    t: float,
    generator: BlockGenerator | None = None,
) -> BlockState:
    """Propagate ``mu`` for time ``t`` through the exact matrix exponential:
    the last point of the two-point :func:`evolve_grid`."""
    return evolve_grid(model, mu, t, 2, generator).state(-1)


def position_distribution(mu: BlockState) -> dict[VertexId, float]:
    """Marginal law of the position: vertex -> Tr rho(vertex)."""
    return {k: float(np.trace(b).real) for k, b in mu.blocks.items()}


def _support_vertices(model: WalkModel, mu: BlockState):
    return [v.id for v in model.vertices if np.linalg.norm(mu.block(v.id, v.dim)) > 0.0]


def _paths_from(model: WalkModel, start: VertexId, n: int):
    """All vertex sequences of exactly ``n >= 1`` jumps starting at ``start``."""
    stack = [(start,)]
    while stack:
        path = stack.pop()
        if len(path) == n + 1:
            yield path
            continue
        for dst, _ in model.out_edges(path[-1]):
            stack.append(path + (dst,))


def jump_tail_bound(c: float, t: float, n_max: int) -> float:
    """sum_{n > n_max} (c t)^n / n!, an upper bound on the neglected weight."""
    x = c * t
    total = 0.0
    term = x ** (n_max + 1) / math.factorial(n_max + 1)
    n = n_max + 1
    while term > 1e-300:
        total += term
        n += 1
        term *= x / n
        if n > n_max + 2000:
            break
    return float(total)


_NODE_BUDGET = 50_000_000  # quadrature nodes of one Dyson partial sum


def dyson_partial(
    model: WalkModel,
    mu: BlockState,
    t: float,
    n_max: int,
    quad_points: int = 8,
) -> tuple[BlockState, float]:
    """Sum the jump expansion of the evolved state up to ``n_max`` jumps.

    Each term is a sum over vertex paths of a time-ordered integral of
    sandwich operators (free dwell segments interleaved with jumps),
    evaluated by tensorized Gauss-Legendre quadrature with ``quad_points``
    nodes per time dimension.  Returns the partial sum and the tail bound
    ``sum_{n > n_max} (C t)^n / n!`` on the trace weight of dropped terms.
    """
    if t < 0:
        raise PreconditionError("time must be nonnegative")
    if n_max < 0:
        raise PreconditionError("n_max must be nonnegative")

    support = _support_vertices(model, mu)
    total_nodes = 0
    for n in range(1, n_max + 1):
        n_paths = sum(len(list(_paths_from(model, s, n))) for s in support)
        total_nodes += n_paths * quad_points**n
    if total_nodes > _NODE_BUDGET:
        raise BudgetError(
            f"path enumeration needs {total_nodes} quadrature nodes, "
            f"budget is {_NODE_BUDGET}; lower n_max or quad_points"
        )

    flows = {}  # vertex -> (the Propagator of its dimension, its row there)
    ids = model.ids
    for s in model.stacks.values():
        prop = linalg.Propagator(s.eff)
        flows.update((ids[p], (prop, row)) for row, p in enumerate(s.pos.tolist()))

    def flow(v, ts):
        prop, row = flows[v]
        return prop.at(row, ts)

    blocks = {
        v.id: np.zeros((v.dim, v.dim), dtype=complex) for v in model.vertices
    }

    for s in support:
        rho0 = mu.block(s, model.dim(s))
        e = flow(s, [t])[0]
        blocks[s] += e @ rho0 @ e.conj().T

    for start in support:
        rho0 = mu.block(start, model.dim(start))
        for n in range(1, n_max + 1):
            for path in _paths_from(model, start, n):
                rmats = [model.jump(path[k], path[k + 1]) for k in range(n)]
                dest = path[-1]
                acc = np.zeros((model.dim(dest), model.dim(dest)), dtype=complex)
                for times, weights in linalg.simplex_quadrature_blocks(
                    n, t, quad_points
                ):
                    durations = np.diff(
                        np.concatenate(
                            [
                                np.zeros((times.shape[0], 1)),
                                times,
                                np.full((times.shape[0], 1), t),
                            ],
                            axis=1,
                        ),
                        axis=1,
                    )
                    np.clip(durations, 0.0, None, out=durations)
                    ops = flow(path[0], durations[:, 0])
                    for k in range(n):
                        ops = np.einsum("ab,nbc->nac", rmats[k], ops)
                        leg = flow(path[k + 1], durations[:, k + 1])
                        ops = np.einsum("nab,nbc->nac", leg, ops)
                    acc += np.einsum(
                        "n,nab,bc,ndc->ad", weights, ops, rho0, ops.conj()
                    )
                blocks[dest] += acc

    remainder = jump_tail_bound(model.rate_constant, t, n_max)
    return BlockState({k: linalg.herm(b) for k, b in blocks.items()}), remainder
