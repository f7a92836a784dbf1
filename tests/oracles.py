"""Independent oracles used to cross-check the closed-form machinery.

Nothing here goes through the Lyapunov/resolvent code paths: passage sums
use brute-force path enumeration with Gauss-Laguerre leg integrals,
classical quantities use the embedded jump chain, and the dwell flow uses
a fixed-step RK4 integration of the nonlinear state equation.
"""

from __future__ import annotations

import bisect
import math
from itertools import accumulate, product

import numpy as np
import scipy.linalg as sla

from ctoqw import linalg, semigroup, trajectory
from ctoqw.errors import ConvergenceError, ModelError
from ctoqw.model import (
    STRUCT_TOL,
    BlockState,
    CheckResult,
    VertexSpace,
    WalkModel,
    _Stacks,
)
from ctoqw.superop import SuperOp


def _interior_paths(model: WalkModel, i, j, n):
    """Vertex sequences i -> j with exactly n jumps avoiding j inside."""
    if n == 0:
        return
    stack = [(i,)]
    while stack:
        path = stack.pop()
        hops = len(path) - 1
        if hops == n:
            if path[-1] == j:
                yield path
            continue
        for dst, _ in model.out_edges(path[-1]):
            if hops + 1 < n and dst == j:
                continue
            if hops + 1 == n and dst != j:
                continue
            stack.append(path + (dst,))


def passage_partial_oracle(model: WalkModel, i, j, rho, max_jumps=3, q=24):
    """Reach operator restricted to paths with at most ``max_jumps`` jumps.

    Each path contributes the integral over its leg durations of
    R(path) rho R(path)^dag, evaluated by tensorized Gauss-Laguerre
    quadrature (the fixture legs decay exponentially, which the Laguerre
    weight absorbs).
    """
    rho = np.atleast_2d(np.asarray(rho, dtype=complex))
    x, w = np.polynomial.laguerre.laggauss(q)
    ew = w * np.exp(x)
    # cache e^{x_k G_v} per vertex
    legs = {}
    for v in model.vertices:
        g = model.effective(v.id)
        legs[v.id] = [sla.expm(s * g) for s in x]
    dj = model.dim(j)
    total = np.zeros((dj, dj), dtype=complex)
    for n in range(1, max_jumps + 1):
        for path in _interior_paths(model, i, j, n):
            rmats = [model.jump(path[k], path[k + 1]) for k in range(n)]
            for idx in product(range(q), repeat=n):
                op = np.eye(model.dim(i), dtype=complex)
                weight = 1.0
                for k in range(n):
                    op = rmats[k] @ legs[path[k]][idx[k]] @ op
                    weight *= ew[idx[k]]
                total += weight * (op @ rho @ op.conj().T)
    return total


def dwell_integral_oracle(g, x_mat, q=80):
    """int_0^inf e^{s g} x e^{s g^dag} ds by scaled Gauss-Laguerre.

    The substitution s = u / rate keeps ds = du / rate and lets the
    Laguerre weight absorb integrands decaying like e^{-rate s}.
    """
    g = np.atleast_2d(np.asarray(g, dtype=complex))
    x_mat = np.atleast_2d(np.asarray(x_mat, dtype=complex))
    rate = -2.0 * float(np.max(np.linalg.eigvals(g).real))
    nodes, w = np.polynomial.laguerre.laggauss(q)
    total = np.zeros_like(x_mat)
    for u, wk in zip(nodes, w):
        s = u / rate
        e = sla.expm(s * g)
        total += (wk * np.exp(u) / rate) * (e @ x_mat @ e.conj().T)
    return total


def rk4_dwell(g, rho0, t, steps=4000):
    """RK4 integration of the normalized dwell equation."""
    g = np.atleast_2d(np.asarray(g, dtype=complex))
    rho = np.atleast_2d(np.asarray(rho0, dtype=complex)).copy()
    gp = g + g.conj().T

    def f(r):
        drift = g @ r + r @ g.conj().T
        return drift - r * np.trace(gp @ r)

    h = t / steps
    for _ in range(steps):
        k1 = f(rho)
        k2 = f(rho + 0.5 * h * k1)
        k3 = f(rho + 0.5 * h * k2)
        k4 = f(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def gamblers_ruin_return(p_right: float) -> float:
    """Return probability to the origin for the drifting line walk.

    From the origin the walker steps right w.p. ``p_right``; the chance of
    ever moving one net step against the drift is q/p, so returning equals
    p * (q/p) + q * 1 = 2q for p >= 1/2.
    """
    q = 1.0 - p_right
    return p_right * (q / p_right) + q


def jump_chain_hit_probability(model: WalkModel, start, target) -> float:
    """Hitting probability of the embedded discrete jump chain, by a
    linear solve on the transition matrix (scalar models only).

    Sub-stochastic rows (window boundaries) keep their escape deficit, so
    the result matches the windowed walk including boundary losses.
    """
    ids = model.ids
    pos = {v: k for k, v in enumerate(ids)}
    n = len(ids)
    p = np.zeros((n, n))
    for src in ids:
        g = model.effective(src)
        total_rate = -2.0 * float(g[0, 0].real)
        if total_rate <= 0:
            continue
        for dst, r in model.out_edges(src):
            p[pos[src], pos[dst]] = abs(r[0, 0]) ** 2 / total_rate
    t = pos[target]
    others = [k for k in range(n) if k != t]
    a = np.eye(len(others)) - p[np.ix_(others, others)]
    b = p[np.ix_(others, [t])].ravel()
    h_others = np.linalg.solve(a, b)
    h = np.zeros(n)
    h[others] = h_others
    h[t] = 1.0
    # first-return from the target itself is one step plus hitting back
    if start == target:
        return float(p[t] @ h)
    return float(h[pos[start]])


def jump_chain_expected_visits(model: WalkModel, vertex) -> float:
    """Expected visits to ``vertex`` starting there (scalar models),
    1 / (1 - return probability)."""
    r = jump_chain_hit_probability(model, vertex, vertex)
    if r >= 1.0:
        return float("inf")
    return 1.0 / (1.0 - r)


def ctmc_law(model: WalkModel, start, t: float) -> dict:
    """Position law of a scalar model at time t through expm of the
    embedded classical generator (boundary escape added as an extra
    absorbing coffin state)."""
    ids = model.ids
    pos = {v: k for k, v in enumerate(ids)}
    n = len(ids)
    q = np.zeros((n + 1, n + 1))
    for src in ids:
        g = model.effective(src)
        out = 0.0
        for dst, r in model.out_edges(src):
            rate = abs(r[0, 0]) ** 2
            q[pos[src], pos[dst]] = rate
            out += rate
        total = -2.0 * float(g[0, 0].real)
        q[pos[src], n] = max(total - out, 0.0)
        q[pos[src], pos[src]] = -out - max(total - out, 0.0)
    law = sla.expm(t * q)[pos[start]]
    result = {v: float(law[pos[v]]) for v in ids}
    result[None] = float(law[n])
    return result


def pair_spans_irreducible(model: WalkModel, with_dwell: bool) -> bool:
    """Irreducibility from the path-operator spans of all V^2 ordered
    vertex pairs, each grown by its own closure: seed the identity on every
    diagonal pair, close under left multiplication by the dwell generators
    (when ``with_dwell``) and the jumps, and require every span ``(i, j)``
    to reach full dimension ``d_i * d_j``."""
    dims = {v.id: v.dim for v in model.vertices}
    spans: dict = {}
    queue = []

    def try_add(i, j, mat):
        basis = spans.setdefault((i, j), [])
        if len(basis) >= dims[i] * dims[j]:
            return
        v = mat.reshape(-1)
        for b in basis:
            v = v - np.vdot(b, v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-10:
            v = v / norm
            basis.append(v)
            queue.append((i, j, v.reshape(mat.shape)))

    for vid in model.ids:
        try_add(vid, vid, np.eye(dims[vid], dtype=complex))
    while queue:
        i, j, mat = queue.pop()
        if with_dwell:
            try_add(i, j, model.effective(j) @ mat)
        for dst, r in model.out_edges(j):
            try_add(i, dst, r @ mat)
    return all(
        len(spans.get((i, j), [])) == dims[i] * dims[j]
        for i in model.ids
        for j in model.ids
    )


def closure_per_vector(model: WalkModel, with_dwell: bool, base, adjoint: bool) -> dict:
    """``classify._closure`` one vector at a time: a work list of basis
    elements, each multiplied by every step operator of its vertex, and
    each product added by two Gram-Schmidt passes and kept when its
    residual norm exceeds ``classify._RANK_TOL``.  Returns the same
    ``{vertex: (r, d_j * d_base)}`` orthonormal rows."""
    from ctoqw.classify import _RANK_TOL

    steps = {}
    for v in model.ids:
        g = model.effective(v)
        dwell = [(v, g.conj().T if adjoint else g)] if with_dwell else []
        if adjoint:
            steps[v] = dwell + [(src, r.conj().T) for src, r in model.in_edges(v)]
        else:
            steps[v] = dwell + model.out_edges(v)
    spans: dict = {}
    queue: list = []

    def try_add(j, mat):
        v = mat.reshape(-1)
        basis = spans.get(j)
        if basis is not None:
            if len(basis) == v.size:
                return
            for _ in range(2):
                v = v - basis.T @ (basis.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > _RANK_TOL:
            v = v / norm
            spans[j] = v[None] if basis is None else np.vstack([basis, v])
            queue.append((j, v.reshape(mat.shape)))

    try_add(base, np.eye(model.dim(base), dtype=complex))
    while queue:
        j, mat = queue.pop()
        for k, op in steps[j]:
            try_add(k, op @ mat)
    return spans


def classical_block_state(model: WalkModel, weights: dict) -> BlockState:
    """The block state with weight ``weights[v]`` spread evenly over the
    internal space of each vertex ``v`` (zero where missing)."""
    blocks = {}
    for v in model.vertices:
        w = float(weights.get(v.id, 0.0))
        blocks[v.id] = (w / v.dim) * np.eye(v.dim, dtype=complex)
    return BlockState(blocks)


def embedded_generator(model: WalkModel) -> np.ndarray:
    """Read back the classical generator of a scalar model, q_ij = |R|^2."""
    n = len(model.vertices)
    if any(v.dim != 1 for v in model.vertices):
        raise ModelError("only scalar models embed a classical chain")
    q = np.zeros((n, n))
    for src, dst, r in model.jumps():
        q[model.position(src), model.position(dst)] = abs(r[0, 0]) ** 2
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def _finite_matrix(m, what: str) -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    if not np.isfinite(m).all():
        raise ModelError(f"{what} has a NaN or infinite entry")
    return m


def decays_per_matrix(dims, jumps: dict) -> list[np.ndarray]:
    """The decay ``sum_j R[i->j]^dag R[i->j]`` of each vertex, one product
    at a time, added up in jump order; ``jumps`` maps ``(src, dst)``
    positions to matrices."""
    decays = [np.zeros((d, d), dtype=complex) for d in dims]
    for (a, _), r in jumps.items():
        decays[a] += r.conj().T @ r
    return decays


def build_walk_per_matrix(vertices, jumps, hamiltonians=None, effective=None) -> dict:
    """The arithmetic of ``model.build_walk`` one matrix at a time: per
    vertex position the lists ``ham``, ``eff``, ``defect`` and ``decay``,
    and ``jumps``, ``{(src, dst) positions: matrix}`` in jump order.  The
    inputs must be valid; no check is made beyond finiteness."""
    vspaces = [VertexSpace(vid, int(dim)) for vid, dim in vertices]
    index = {v.id: k for k, v in enumerate(vspaces)}
    jump_map = {
        (index[src], index[dst]): _finite_matrix(r, "jump") for src, dst, r in jumps
    }
    hamiltonians, effective = dict(hamiltonians or {}), dict(effective or {})
    decays = decays_per_matrix([v.dim for v in vspaces], jump_map)
    hams, effs, defects = [], [], []
    for v, decay in zip(vspaces, decays):
        h = hamiltonians.get(v.id)
        h = np.zeros((v.dim, v.dim), dtype=complex) if h is None else _finite_matrix(h, "H")
        g_in = effective.get(v.id)
        if g_in is not None:
            g = _finite_matrix(g_in, "G")
            a_mat = g + 0.5 * decay
            h = 0.5j * (a_mat - a_mat.conj().T)
            defect = -(a_mat + a_mat.conj().T)
        else:
            g = -1j * h - 0.5 * decay
            defect = np.zeros((v.dim, v.dim), dtype=complex)
        hams.append(h)
        effs.append(g)
        defects.append(linalg.herm(defect))
    return {"ham": hams, "eff": effs, "defect": defects, "decay": decays, "jumps": jump_map}


def model_from_parts(vertices, hams, effs, defects, jumps: dict, meta=None) -> WalkModel:
    """A ``WalkModel`` that holds the given per-vertex ``H``, ``G`` and
    escape defects and the jumps ``{(src, dst) positions: matrix}`` as they
    are; only the decays are computed, by :func:`decays_per_matrix`.  Lets a
    test hand ``validate`` an inconsistent model."""
    dims = np.array([v.dim for v in vertices])
    parts = (hams, effs, defects, decays_per_matrix(dims.tolist(), jumps))
    stacks = {}
    for d in np.unique(dims).tolist():
        pos = np.flatnonzero(dims == d)
        stacks[d] = _Stacks(
            pos, *(np.array([mats[k] for k in pos], dtype=complex) for mats in parts)
        )
    mats, groups = list(jumps.values()), {}
    for k, r in enumerate(mats):
        groups.setdefault(np.shape(r), []).append(k)
    stacked_jumps = [
        (np.array(ks), np.array([mats[k] for k in ks], dtype=complex)) for ks in groups.values()
    ]
    return WalkModel(vertices, stacks, list(jumps), stacked_jumps, meta=meta)


def validate_per_vertex(model: WalkModel, tol: float = STRUCT_TOL) -> dict:
    """``validate(model).to_json_dict()`` computed one vertex and one edge
    at a time, each spectral norm by its own ``np.linalg.norm(., 2)``."""
    checks = []
    declared = set(model.meta.get("escaping", []))

    def opnorm(m):
        return float(np.linalg.norm(m, 2))

    for v in model.vertices:
        h = model.hamiltonian(v.id)
        res_h = opnorm(h - h.conj().T)
        checks.append(
            CheckResult("hamiltonian_hermitian", v.id, res_h <= 1e-12 * (1.0 + opnorm(h)), res_h)
        )
        g = model.effective(v.id)
        decay = np.zeros((v.dim, v.dim), dtype=complex)
        for _, r in model.out_edges(v.id):
            decay += r.conj().T @ r
        rebuilt = -1j * h - 0.5 * decay - 0.5 * model.escape_defect(v.id)
        res_g = opnorm(g - rebuilt)
        checks.append(
            CheckResult("effective_consistent", v.id, res_g <= tol * (1.0 + opnorm(g)), res_g)
        )
        zero_sum = g + g.conj().T + decay
        res_zs = opnorm(zero_sum)
        minus = -zero_sum
        defect_min = float(np.min(np.linalg.eigvalsh(0.5 * (minus + minus.conj().T))))
        checks.append(
            CheckResult(
                "dissipative",
                v.id,
                defect_min >= -tol,
                max(0.0, -defect_min),
                "escape defect must be positive semidefinite",
            )
        )
        if v.id in declared:
            checks.append(
                CheckResult(
                    "zero_sum",
                    v.id,
                    defect_min >= -tol,
                    res_zs,
                    "window boundary vertex, walker escapes at this rate",
                )
            )
        else:
            checks.append(CheckResult("zero_sum", v.id, res_zs <= tol, res_zs))

    c = float(sum(opnorm(r @ r.conj().T) for _, _, r in model.jumps()))
    checks.append(
        CheckResult("rate_constant_finite", None, bool(np.isfinite(c)), 0.0, f"C = {c:.6g}")
    )
    escaping = [
        v.id for v in model.vertices if opnorm(model.escape_defect(v.id)) > STRUCT_TOL
    ]
    return {
        "ok": all(c.passed for c in checks),
        "tolerance": tol,
        "escaping_boundary": [str(v) for v in escaping],
        "checks": [
            {
                "name": c.name,
                "vertex": None if c.vertex is None else str(c.vertex),
                "passed": c.passed,
                "residual": c.residual,
                "note": c.note,
            }
            for c in checks
        ],
    }


def vertex_scan_per_vertex(model: WalkModel, base, eps_spec: float = 1e-8):
    """The transient scan of ``classify_trichotomy`` one vertex at a time:
    each vertex's own taboo passage map ``P[v->v]``, its adjoint at the
    identity and the largest eigenvalue.  Returns ``(vertex_max_return,
    exhibit_vertex)``; the exhibit vertex is the first in scan order (base
    first, then model order) whose maximum reaches ``1 - eps_spec``."""
    from ctoqw.passage import first_passage_map

    scan = [base] + [v for v in model.ids if v != base]
    vertex_max = {}
    exhibit = None
    for vid in scan:
        p_v, _ = first_passage_map(model, vid, vid)
        top = float(np.linalg.eigvalsh(p_v.adjoint_at_identity())[-1])
        vertex_max[vid] = top
        if top >= 1.0 - eps_spec and exhibit is None:
            exhibit = vid
    return vertex_max, exhibit


def jump_kernel_per_edge(model: WalkModel) -> dict:
    """``passage.jump_kernel`` one vertex and one edge at a time: each
    dwell superoperator by its own Kronecker inverse, each kernel matrix by
    its own sandwich product.  Maps ``(src, dst)`` to the kernel matrix."""
    kernels = {}
    for v in model.vertices:
        edges = model.out_edges(v.id)
        if not edges:
            continue
        g = model.effective(v.id)
        eye = np.eye(v.dim, dtype=complex)
        dwell = -np.linalg.inv(np.kron(eye, g) + np.kron(g.conj(), eye))
        for dst, r in edges:
            kernels[(v.id, dst)] = np.kron(r.conj(), r) @ dwell
    return kernels


def kernels_by_edge(model: WalkModel, kernels) -> dict:
    """The stacks of ``passage.jump_kernel(model)`` read one jump at a time:
    ``{(src, dst): SuperOp}`` in the order of :func:`jump_kernel_per_edge`,
    by source vertex and then in jump order."""
    ids, ends = model.ids, model.ends.tolist()
    ops = [None] * len(ends)
    for (ks, _), stack in zip(model.jump_stacks, kernels):
        for k, mat in zip(ks.tolist(), stack):
            a, b = ends[k]
            ops[k] = SuperOp(model.dim(ids[a]), model.dim(ids[b]), mat)
    order = np.argsort(model.ends[:, 0], kind="stable").tolist()
    return {(ids[ends[k][0]], ids[ends[k][1]]): ops[k] for k in order}


def _layout(model: WalkModel, vertices) -> tuple[dict, int]:
    """Where each of ``vertices`` sits in their direct sum, in order: a
    slice of ``d**2`` entries each, and the total size."""
    offsets, pos = {}, 0
    for vid in vertices:
        d = model.dim(vid)
        offsets[vid] = slice(pos, pos + d * d)
        pos += d * d
    return offsets, pos


def _kernel_matrix_per_edge(kernels: dict, offsets: dict, n: int) -> np.ndarray:
    mat = np.zeros((n, n), dtype=complex)
    for (src, dst), ker in kernels.items():
        if src in offsets and dst in offsets:
            mat[offsets[dst], offsets[src]] += ker
    return mat


def one_step_kernel_per_edge(model: WalkModel) -> np.ndarray:
    """The one-step kernel that ``passage.one_step_green`` factors, as a
    dense matrix over all vertices in model order, one edge at a time."""
    return _kernel_matrix_per_edge(jump_kernel_per_edge(model), *_layout(model, model.ids))


def taboo_kernel_per_edge(model: WalkModel, j) -> tuple[np.ndarray, np.ndarray, dict]:
    """``passage._taboo_kernel(model, j, ...)`` and every
    ``passage._entry_block`` one edge at a time, on a dict of slices over
    the active vertices (those other than ``j`` with a path of jumps to
    ``j``, grown to a fixed point edge by edge, in model order), each kernel
    from :func:`jump_kernel_per_edge`.  Returns the dense taboo matrix,
    ``into_taboo`` and ``{i: entry block or None}``."""
    kernels = jump_kernel_per_edge(model)
    reach, grew = {j}, True
    while grew:
        grew = False
        for src, dst, _ in model.jumps():
            if dst in reach and src not in reach:
                reach.add(src)
                grew = True
    active = [v.id for v in model.vertices if v.id != j and v.id in reach]
    offsets, n = _layout(model, active)
    dj = model.dim(j)
    into = np.zeros((dj * dj, n), dtype=complex)
    for (src, dst), ker in kernels.items():
        if dst == j and src in offsets:
            into[:, offsets[src]] += ker
    entries = {}
    for v in model.vertices:
        start = np.zeros((n, v.dim**2), dtype=complex)
        if v.id == j:
            for (src, dst), ker in kernels.items():
                if src == j and dst in offsets:
                    start[offsets[dst], :] += ker
        elif v.id in offsets:
            start[offsets[v.id], :] = np.eye(v.dim**2)
        else:
            start = None
        entries[v.id] = start
    return _kernel_matrix_per_edge(kernels, offsets, n), into, entries


def block_generator_per_vertex(model: WalkModel) -> np.ndarray:
    """``semigroup.build_block_generator(model).matrix`` one vertex block
    and one jump block at a time, each by ``np.kron``."""
    offsets, n = _layout(model, model.ids)
    mat = np.zeros((n, n), dtype=complex)
    for v in model.vertices:
        g = model.effective(v.id)
        eye = np.eye(v.dim, dtype=complex)
        mat[offsets[v.id], offsets[v.id]] += np.kron(eye, g) + np.kron(g.conj(), eye)
    for src, dst, r in model.jumps():
        mat[offsets[dst], offsets[src]] += np.kron(r.conj(), r)
    return mat


def hermitian_coordinates_per_vertex(model: WalkModel) -> tuple[np.ndarray, np.ndarray]:
    """``(U, lower)`` on the layout of ``model.starts``, one entry at a time:
    ``vec(mu) = U @ x`` for the real coordinates ``x`` of a Hermitian block
    state, which hold at column-major ``(i, j)`` of a vertex's slot
    ``rho_ii``, ``Re rho_ij`` for ``i < j`` and ``Im rho_ji`` for ``i > j``
    (``lower``)."""
    offsets, n = _layout(model, model.ids)
    u, lower = np.zeros((n, n), dtype=complex), np.zeros(n, dtype=bool)
    for v in model.vertices:
        at = offsets[v.id].start
        for i in range(v.dim):
            for j in range(v.dim):
                a, b = at + i + j * v.dim, at + j + i * v.dim
                if i <= j:  # Re rho_ij, in the entries (i, j) and (j, i)
                    u[a, a] = u[b, a] = 1.0
                else:  # Im rho_ji, in (j, i) and with the sign flipped in (i, j)
                    u[b, a], u[a, a], lower[a] = 1j, -1j, True
    return u, lower


def real_block_generator_per_vertex(model: WalkModel) -> np.ndarray:
    """The complex :func:`block_generator_per_vertex` ``L`` in real
    coordinates: the rows of ``L @ U``, the real part of an upper or
    diagonal row and the negated imaginary part of a lower one."""
    u, lower = hermitian_coordinates_per_vertex(model)
    lu = block_generator_per_vertex(model) @ u
    return np.where(lower[:, None], -lu.imag, lu.real)


def trace_functional(gen: semigroup.BlockGenerator) -> np.ndarray:
    """The stacked ``vec(Id_{d_v})`` of every vertex: ``w . x`` is the total
    trace of the stacked state ``x``, one block at a time."""
    offsets, _ = _layout(gen.model, gen.model.ids)
    w = np.zeros(gen.dim, dtype=complex)
    for v in gen.model.vertices:
        w[offsets[v.id]] = linalg.vec(np.eye(v.dim))
    return w


def evolve_grid_per_vertex(model: WalkModel, mu: BlockState, t: float, points: int,
                           gen: semigroup.BlockGenerator) -> list[tuple[float, BlockState]]:
    """``semigroup.evolve_grid`` one grid point and one vertex at a time:
    ``(t_k, mu_k)`` pairs, each stepped state unstacked and Hermitized (a
    no-op on the exactly Hermitian blocks of ``unstack``) into a
    :class:`BlockState`, the trace of a closed model checked at every point."""
    times = np.linspace(0.0, t, points)
    if t == 0 or points == 1:
        return [(float(tk), mu.copy()) for tk in times]
    step = linalg.expm(t / (points - 1) * gen.matrix)
    closed = not model.escaping_boundary()
    x = gen.stack(mu)
    grid = [(0.0, mu.copy())]
    for tk in times[1:]:
        x = step @ x
        out = gen.unstack(x)
        out.blocks = {k: linalg.herm(b) for k, b in out.blocks.items()}
        if closed:
            defect = abs(out.total_trace() - mu.total_trace())
            if defect > semigroup._TRACE_TOL * (1.0 + tk):
                raise ConvergenceError(
                    f"evolution lost trace mass {defect:.3e} on a closed model"
                )
        grid.append((float(tk), out))
    return grid


def propagator_per_vertex(g: np.ndarray, k: np.ndarray, t: np.ndarray, cond_limit: float):
    """``linalg.Propagator(g).at(k, t)`` one generator at a time: one
    ``eig``, ``cond`` and ``inv`` per matrix of the stack, then the eigen
    expansion where ``cond(P) < cond_limit`` and ``scipy.linalg.expm`` per
    time elsewhere.  Returns the flows and the mask of the expanded rows."""
    n, d, _ = g.shape
    lam = np.zeros((n, d), dtype=complex)
    p, pinv = np.zeros_like(g), np.zeros_like(g)
    diag = np.zeros(n, dtype=bool)
    for j in range(n):
        lam[j], pj = np.linalg.eig(g[j])
        diag[j] = float(np.linalg.cond(pj)) < cond_limit
        if diag[j]:
            p[j], pinv[j] = pj, np.linalg.inv(pj)
    e = (p[k] * np.exp(t[:, None] * lam[k])[:, None, :]) @ pinv[k]
    for i in np.flatnonzero(~diag[k]):
        e[i] = sla.expm(t[i] * g[k[i]])
    return e, diag[k]


def occupation_dense_radius(model: WalkModel, i, j, rho, tol: float = 1e-8) -> float:
    """``passage.expected_occupation`` by the dense rule: infinite when the
    return map's spectral radius (from ``eigvals``) reaches ``1 - tol``,
    else the visits from ``np.linalg.solve(I - P_jj, vec(sigma0))``."""
    from ctoqw.passage import dwell_integral, first_passage_map

    rho = np.atleast_2d(np.asarray(rho, dtype=complex))
    p_jj, _ = first_passage_map(model, j, j)
    if np.max(np.abs(np.linalg.eigvals(p_jj.matrix))) >= 1.0 - tol:
        return float("inf")
    sigma0 = rho if i == j else first_passage_map(model, i, j)[0].apply(rho)
    dj = model.dim(j)
    visits = np.linalg.solve(np.eye(dj * dj) - p_jj.matrix, sigma0.reshape(-1, order="F"))
    return float(np.trace(dwell_integral(model.effective(j), visits.reshape(dj, dj, order="F"))).real)


def trajectory_rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of stream ``stream`` of ``seed`` that the sampler's
    uniforms must reproduce: numpy's Philox4x64-10 keyed by the pair.  The
    key is a uint64 array: ``Philox(key=[seed, stream])`` would pass a list
    through float64 and round words above 2**53."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def uniforms(rng: np.random.Generator):
    """The doubles of successive ``rng.random()`` calls, 64 at a time."""
    while True:
        yield from rng.random(64).tolist()


def positive(draws) -> float:
    """The next nonzero uniform of ``draws``."""
    u = next(draws)
    while u <= 0.0:
        u = next(draws)
    return u


def sample_per_walker(tab, k0, rho0, init, horizon, draws, stop_at=-1, keep_rho=True):
    """The sampler's walk loop one walker at a time: through its
    one-dimensional vertices by the scalar tables, and at a matrix vertex
    by its block's ``wait``, ``flow`` and ``jump`` on that walker alone, in
    the block's eigen-coordinates; each kept post-jump state held in them
    becomes ``rho`` by the block's ``to_rho``, one event at a time.
    ``draws`` holds one iterator of uniforms per walker."""
    n = len(draws)
    pos, t, state = [k0] * n, [0.0] * n, [tab.enter(k0, rho0)] * n
    absorbed, escaped = [False] * n, [None] * n
    events: list[list] = [[] for _ in range(n)]

    def kept(x, a):
        if not tab.eigen[x]:
            return a
        return tab.blocks[tab.dim[x]].to_rho(np.array([x]), a[None])[0]

    def land(i, t_next, x, a, post):
        pos[i], t[i], state[i] = x, t_next, a
        events[i].append(trajectory.JumpEvent(t_next, tab.ids[x], post if keep_rho else None))
        if len(events[i]) > trajectory._MAX_JUMPS:
            raise ConvergenceError(f"trajectory exceeded {trajectory._MAX_JUMPS} jumps")
        return x != stop_at

    run = list(range(n))
    while run:
        batch = []
        for i in run:
            while tab.dim[k := pos[i]] == 1:
                dt = trajectory._exponential_wait(tab.rate[k], positive(draws[i]))
                if dt is None:
                    absorbed[i] = True
                    break
                t_next = t[i] + dt
                if t_next >= horizon:
                    break
                running, esc = tab.running[k], tab.esc[k]
                u = next(draws[i])
                slot = trajectory._pick(running, esc, trajectory._total(running, esc), u)
                if slot == -2:
                    absorbed[i] = True
                    break
                if slot == -1:
                    escaped[i] = t_next
                    break
                x, post = tab.dst[k][slot], tab.posts[k][slot]
                if not land(i, t_next, x, tab.enter(x, post), post):
                    break
            else:
                batch.append(i)
        if not batch:
            break
        run = []
        for i in batch:
            k, blk = pos[i], tab.blocks[tab.dim[pos[i]]]
            ks = np.array([k])
            dt = float(blk.wait(ks, state[i][None], [positive(draws[i])])[0])
            if math.isnan(dt):
                absorbed[i] = True
                continue
            t_next = t[i] + dt
            if t_next >= horizon:
                continue
            eta = blk.flow(ks, state[i][None], np.array([dt]))
            (slot,), (a,) = blk.jump(ks, eta, np.array([next(draws[i])]))
            if slot == -2:
                absorbed[i] = True
            elif slot == -1:
                escaped[i] = t_next
            else:
                x = tab.dst[k][slot]
                if land(i, t_next, x, a, kept(x, a)):
                    run.append(i)
    return [
        trajectory.TrajectoryRecord(init, events[i], horizon, absorbed[i], escaped[i])
        for i in range(n)
    ]


def _dense_survival(g: np.ndarray, rho: np.ndarray, t: float):
    """``s(t) = Tr(e^{tG} rho e^{tG^dag})``, its slope and the unnormalized
    dwell state, by the dense exponential."""
    e = sla.expm(t * g)
    raw = e @ rho @ e.conj().T
    return np.trace(raw).real, np.trace((g + g.conj().T) @ raw).real, raw


def _dense_wait(g: np.ndarray, rho: np.ndarray, u: float) -> float:
    """The event time by the sampler's rule, in rho-space: ``-log u / c`` at
    uniform decay ``G + G^dag = -c I``; elsewhere safeguarded Newton steps
    on ``log s`` from ``-log u / h0``, ``h0 = Tr(-(G + G^dag) rho)``, inside
    the bracket ``[-log u / c_hi, -log u / c_lo]`` of the decay spectrum, to
    ``|s - u| <= _INV_TOL``, with ``s`` and its slope from the dense
    exponential.  Only for generators whose every state decays,
    ``c_lo > 0``."""
    d, eps, log_u = g.shape[0], np.finfo(float).eps, math.log(u)
    gplus = g + g.conj().T
    c = -np.trace(gplus).real / d
    if np.linalg.norm(gplus + c * np.eye(d)) <= 1e-13 * (1.0 + abs(c)):
        return -log_u / c
    lam = np.linalg.eigvalsh(gplus)
    margin = 4 * d * d * eps * np.abs(lam).max()
    c_lo, c_hi = -lam[-1] - margin, margin - lam[0]
    if not c_lo > 0.0:
        raise ModelError("the reference wait needs a decay spectrum with c_lo > 0")
    lo, hi = -log_u / c_hi * (1.0 - 8 * eps), -log_u / c_lo * (1.0 + 8 * eps)
    t = min(max(-log_u / -np.trace(gplus @ rho).real, lo), hi)
    for _ in range(200):
        s, ds, _ = _dense_survival(g, rho, t)
        if abs(s - u) <= trajectory._INV_TOL:
            return t
        if s > u:
            lo = t
        else:
            hi = t
        newton = t - (math.log(s) - log_u) * s / ds
        t = newton if ds < 0 and lo < newton < hi else 0.5 * (lo + hi)
    raise ConvergenceError("the dense survival inversion did not converge")


def reference_walk(model: WalkModel, start, rho0, horizon: float, draws) -> list[tuple]:
    """One walker by the rho-space step, from ``draws``, an iterator of the
    uniforms the sampler reads in the same order: the event time is
    :func:`_dense_wait`'s, the dwell state is
    ``e^{tG} rho e^{tG^dag}`` by the dense exponential, normalized, the
    jump is picked with the weights ``Tr(R eta R^dag)`` in jump order and
    the escape weight, as the sampler picks, and the post-jump state is
    ``R eta R^dag / tr``.  Returns the events ``(time, vertex, rho)`` before
    the horizon, an absorption or an escape."""
    v, now, rho, events = start, 0.0, np.asarray(rho0, dtype=complex), []
    plateau = trajectory._PLATEAU
    while True:
        g = model.effective(v)
        dt = _dense_wait(g, rho, positive(draws))
        if now + dt >= horizon:
            return events
        raw = _dense_survival(g, rho, dt)[2]
        eta = raw / np.trace(raw).real
        edges = model.out_edges(v)
        running = list(accumulate(np.trace(r @ eta @ r.conj().T).real for _, r in edges))
        esc = max(np.trace(linalg.herm(model.escape_defect(v)) @ eta).real, 0.0)
        total = (running[-1] if running else 0.0) + esc
        u = next(draws)
        if total <= plateau:
            return events
        slot = bisect.bisect_left(running, u * total)
        if slot == len(running):
            if esc > plateau:
                return events
            slot -= 1
        v, r = edges[slot]
        now, post = now + dt, r @ eta @ r.conj().T
        rho = post / np.trace(post).real
        events.append((now, v, rho))


_RECORD_TOL = 1e-9  # unit trace and positivity of a post-jump state


def check_record(model: WalkModel, rec: trajectory.TrajectoryRecord):
    """Assert the structural invariants of a sampled record."""
    t_prev = 0.0
    x_prev = rec.initial.vertex
    for ev in rec.events:
        if not ev.time > t_prev:
            raise ModelError("event times must be strictly increasing")
        if ev.time >= rec.horizon:
            raise ModelError("event beyond the horizon")
        if ev.vertex == x_prev:
            raise ModelError("consecutive vertices must differ")
        d = model.dim(ev.vertex)
        if ev.rho.shape != (d, d):
            raise ModelError("post-jump state has the wrong shape")
        tr = float(np.trace(ev.rho).real)
        if abs(tr - 1.0) > _RECORD_TOL:
            raise ModelError(f"post-jump state trace {tr} != 1")
        mineig = float(np.min(np.linalg.eigvalsh(linalg.herm(ev.rho))))
        if mineig < -_RECORD_TOL:
            raise ModelError(f"post-jump state eigenvalue {mineig} < 0")
        t_prev, x_prev = ev.time, ev.vertex


def hermitian_json(rho: np.ndarray) -> list:
    """``matrix_to_json`` of the Hermitian part ``(rho + rho^dag) / 2`` of a
    state, read off its upper triangle: a diagonal entry is its real part
    and ``0.0``, and an entry below the diagonal is the exact conjugate of
    its mirror."""
    h = (rho + rho.conj().T) / 2
    d = h.shape[0]
    return [[[float(h[i, i].real), 0.0] if i == j
             else [float(h[i, j].real), float(h[i, j].imag)] if i < j
             else [float(h[j, i].real), -float(h[j, i].imag)]
             for j in range(d)] for i in range(d)]


def dump_events(model: WalkModel, init, horizon: float, n: int, seed: int) -> list[dict]:
    """The events ``simulate --dump`` writes for ``n`` trajectories, one
    ``simulate(stream=k)`` at a time: trajectory, time, vertices before and
    after the jump, and the Hermitian part of the post-jump state."""
    out = []
    for k in range(n):
        prev = init.vertex
        for ev in trajectory.simulate(model, init, horizon, seed=seed, stream=k).events:
            out.append({"traj": k, "t": ev.time, "from": str(prev), "to": str(ev.vertex),
                        "rho": hermitian_json(ev.rho)})
            prev = ev.vertex
    return out
