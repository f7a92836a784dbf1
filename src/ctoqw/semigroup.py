"""Exact evolution of block states and the jump path-sum oracle.

The master-equation generator acts blockwise on a vertex-indexed state:

    d/dt rho(i) = G_i rho(i) + rho(i) G_i^dag + sum_{j != i} R[j->i] rho(j) R[j->i]^dag.

It never mixes in off-block-diagonal coherences and maps Hermitian blocks
to Hermitian blocks, so the evolution is represented on the block sector
only, as a real matrix of dimension ``sum_i d_i**2`` on the layout of
``WalkModel.starts``, acting on the real coordinates of :func:`_hermitian_basis`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BudgetError, ConvergenceError, PreconditionError
from .model import BlockState, VertexId, WalkModel


@functools.cache
def _hermitian_basis(d: int) -> tuple[np.ndarray, np.ndarray]:
    """``(U, w)`` of the real coordinates ``x`` of a ``d x d`` Hermitian
    ``rho``: column-major position ``(i, j)`` of ``x`` holds ``rho_ii`` on the
    diagonal, ``Re rho_ij`` above it and ``Im rho_ji`` below it, so that
    ``vec(rho) = U @ x`` and ``x = Re(w * vec(rho))``, ``w`` being ``1`` on
    and above the diagonal and ``1j`` below it.  A superoperator ``B`` that
    keeps Hermitian matrices Hermitian acts on ``x`` as ``Re(w[:, None] * (B @ U))``."""
    k = np.arange(d * d)
    i, j = k % d, k // d
    w = np.where(i > j, 1j, 1.0)
    u = np.zeros((d * d, d * d), dtype=complex)
    u[k, k] = w.conj()
    u[j + d * i, k] = w
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


@dataclass(frozen=True)
class BlockGenerator:
    """Real generator restricted to block-diagonal states.

    It acts on the direct sum laid out by ``model.starts``: a stacked
    coordinate vector ``x`` holds the real coordinates (:func:`_hermitian_basis`)
    of block ``p`` (model vertex order) in ``x[starts[p]:starts[p + 1]]``;
    ``slots[d]`` holds those ranges of the vertices of dimension ``d``, one
    row each, in the order of ``model.stacks[d]``.
    """

    model: WalkModel
    matrix: np.ndarray
    slots: dict[int, np.ndarray]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def stack(self, mu: BlockState) -> np.ndarray:
        """The coordinates of the Hermitian part of each block of ``mu``."""
        out = np.zeros(self.dim)
        ids = self.model.ids
        for d, s in self.model.stacks.items():
            b = np.stack([mu.block(ids[p], d) for p in s.pos.tolist()])
            v = (b + b.conj().swapaxes(1, 2)).swapaxes(1, 2).reshape(len(b), d * d)
            out[self.slots[d]] = 0.5 * (_hermitian_basis(d)[1] * v).real
        return out

    def unstack(self, x: np.ndarray) -> BlockState:
        """The block state of the coordinates ``x``; each block is Hermitian
        exactly, its lower triangle the conjugate of its upper one."""
        blocks = [None] * len(self.model.vertices)
        for d, s in self.model.stacks.items():
            v = x[self.slots[d]] @ _hermitian_basis(d)[0].T
            for p, b in zip(s.pos.tolist(), v.reshape(-1, d, d).transpose(0, 2, 1)):
                blocks[p] = b
        return BlockState(dict(zip(self.model.ids, blocks)))

    def law(self, xs: np.ndarray) -> np.ndarray:
        """The trace of every block of each row of ``xs`` (``(points, dim)``
        stacked coordinates): the position law, ``(points, V)`` in model
        vertex order.  Each trace sums the diagonal, as complex numbers, along
        the last axis of a C-ordered ``take``, in the order of ``np.trace`` on
        a complex block, so the floats are those of
        :func:`position_distribution`; numpy sums real and complex arrays of
        four or more entries in different orders."""
        out = np.empty((len(xs), len(self.model.vertices)))
        for d, s in self.model.stacks.items():
            out[:, s.pos] = xs.take(self.slots[d][:, ::d + 1], axis=1).astype(complex).sum(-1).real
        return out


def _coordinates(b: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``Re(w[:, None] * (b @ u))`` for a stack ``b``, the product taken as
    one 2-D GEMM over the stacked rows (about half the time of the batched
    product on small blocks, with the same entries)."""
    return (w[:, None] * (b.reshape(-1, b.shape[-1]) @ u).reshape(b.shape)).real


def build_block_generator(model: WalkModel) -> BlockGenerator:
    """``drift_matrix(G)`` in the diagonal block of each vertex and
    ``sandwich_matrix(R)`` in the ``(dst, src)`` block of each jump, each
    taken to real coordinates (:func:`_hermitian_basis`) as one stacked
    product per vertex dimension and per jump shape, on the layout of
    ``model.starts``."""
    starts = model.starts
    mat = np.zeros((starts[-1], starts[-1]))
    slots = {}
    for d, s in model.stacks.items():
        u, w = _hermitian_basis(d)
        slots[d] = starts[s.pos, None] + np.arange(d * d)
        blocks = _coordinates(linalg.drift_matrix(s.eff), u, w)
        r, c, v = linalg.block_entries(starts[s.pos], starts[s.pos], blocks)
        mat[r, c] += v
    for ks, jumps in model.jump_stacks:
        src, dst = model.ends[ks].T
        u, w = _hermitian_basis(jumps.shape[2])[0], _hermitian_basis(jumps.shape[1])[1]
        blocks = _coordinates(linalg.sandwich_matrix(jumps), u, w)
        r, c, v = linalg.block_entries(starts[dst], starts[src], blocks)
        mat[r, c] += v
    return BlockGenerator(model, mat, slots)


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
    stacked coordinate vector per point; ``law[k]`` is the position law at
    ``times[k]``, ``(points, V)`` in model vertex order."""

    times: np.ndarray
    law: np.ndarray
    vectors: np.ndarray
    generator: BlockGenerator
    start: BlockState

    def state(self, k: int) -> BlockState:
        """The state at ``times[k]``: the start state where ``t_k = 0``, else
        the blocks of ``vectors[k]``."""
        if self.times[k] == 0:
            return self.start.copy()
        return self.generator.unstack(self.vectors[k])


def evolve_grid(
    model: WalkModel,
    mu: BlockState,
    t: float,
    points: int,
    generator: BlockGenerator | None = None,
) -> Grid:
    """The evolution of ``mu`` on ``linspace(0, t, points)``.

    One real propagator ``e^{dt L}`` with ``dt = t / (points - 1)`` is
    applied ``k`` times to reach ``t_k``, by the semigroup property; the
    first point is ``mu`` itself.  A grid value that is not finite (the
    exponential overflowed) raises :class:`ConvergenceError`, and so, on
    models without escape defects, does a total trace that differs from that
    of ``mu`` by more than ``_TRACE_TOL * (1 + t_k)``: the exponential lost
    accuracy (it should be machine precise at these sizes).
    """
    if not 0.0 <= t < math.inf:
        raise PreconditionError("evolution time must be nonnegative and finite")
    if points < 1:
        raise PreconditionError(f"a time grid needs at least one point, got {points}")
    gen = generator if generator is not None else build_block_generator(model)
    times = np.linspace(0.0, t, points)
    xs = np.empty((points, gen.dim))
    xs[:] = gen.stack(mu)
    if t > 0 and points > 1:
        step = linalg.expm(t / (points - 1) * gen.matrix)
        for k in range(1, points):
            xs[k] = step @ xs[k - 1]
    if not np.isfinite(xs).all():
        k = np.flatnonzero(~np.isfinite(xs).all(1))[0]
        raise ConvergenceError(f"evolution is not finite at t = {times[k]:.6g}: the exponential overflowed")
    law = gen.law(xs)
    if not model.escaping_boundary():
        defect = np.abs(law.sum(1) - mu.total_trace())
        lost = np.flatnonzero(~(defect <= _TRACE_TOL * (1.0 + times)))
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
