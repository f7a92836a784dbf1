"""First-passage superoperators and occupation expectations.

The probability of ever reaching vertex ``j`` from ``(i, rho)`` is the
trace of ``P[i->j](rho)`` for a completely positive, trace-nonincreasing
map assembled from two ingredients:

- the dwell integral ``D_i(X) = int_0^infty e^{s G_i} X e^{s G_i^dag} ds``,
  the closed form of one sojourn, a batched inverse per vertex dimension;
- one-step kernels ``J[k->l](X) = R[k->l] D_k(X) R[k->l]^dag``, one stack
  per jump stack of the model, placed on the direct sum of the vertex
  spaces as ``WalkModel.starts`` lays it out.

Summing dwell-then-jump steps over all interior paths that avoid ``j``
(the taboo kernel) and closing with a final jump onto ``j`` gives the
passage map as a geometric sum.  The taboo kernel keeps only the
vertices that can reach ``j`` in the jump graph, and the sum is solved
with one sparse LU of it, once a positive solution of the Green equation
certifies that the kernel contracts; without that certificate there is no
passage map (:class:`ConvergenceError`).  The same factorization of the
one-step kernel over all vertices gives every return map of a transient
walk at once (:func:`return_operators`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConvergenceError, ModelError, PreconditionError
from .model import VertexId, WalkModel
from .superop import SuperOp

# The passage tolerance: every Green certificate proves ``rho(K) <= 1 - TOL``.
TOL = 1e-8


# -- path operators ----------------------------------------------------------


def path_operator(model: WalkModel, vertices, times) -> np.ndarray:
    """Product of dwell exponentials and jumps along a timed path.

    ``vertices`` is the visited sequence ``(i_0, ..., i_n)`` and ``times``
    the strictly increasing jump times ``(t_1, ..., t_n)``.  The result
    maps the space at ``i_0`` to the space at ``i_n``; the empty path gives
    the identity.  The final free segment after ``t_n`` is not included,
    use :func:`propagated_path_operator` for that.
    """
    vertices = list(vertices)
    times = list(times)
    if len(times) != len(vertices) - 1:
        raise ModelError("need exactly one jump time per hop")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])) or (times and times[0] <= 0):
        raise ModelError("jump times must be strictly increasing and positive")
    d0 = model.dim(vertices[0])
    op = np.eye(d0, dtype=complex)
    t_prev = 0.0
    for k, t_k in enumerate(times):
        src, dst = vertices[k], vertices[k + 1]
        r = model.jump(src, dst)
        if r is None:
            raise ModelError(f"no jump operator for {src!r} -> {dst!r}")
        op = r @ linalg.expm((t_k - t_prev) * model.effective(src)) @ op
        t_prev = t_k
    return op


def propagated_path_operator(model: WalkModel, vertices, times, t: float) -> np.ndarray:
    """Path operator including the free evolution from the last jump to t."""
    vertices = list(vertices)
    times = list(times)
    if times and t < times[-1]:
        raise ModelError("t must not precede the last jump")
    op = path_operator(model, vertices, times)
    t_last = times[-1] if times else 0.0
    return linalg.expm((t - t_last) * model.effective(vertices[-1])) @ op


# -- dwell integral and jump kernel --------------------------------------------


def dwell_integral(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Closed form of ``int_0^infty e^{s g} x e^{s g^dag} ds``.

    Requires the spectral abscissa of ``g`` below
    ``-linalg.STABILITY_MARGIN``; otherwise the integral diverges and the
    offending eigenvalue is reported.
    """
    g = np.atleast_2d(np.asarray(g, dtype=complex))
    return linalg.unvec(linalg.lyapunov_dwell(g[None])[0] @ linalg.vec(x), g.shape)


def dwell_superop(model: WalkModel, vertex: VertexId) -> SuperOp:
    """The dwell integral at a vertex as a vectorized superoperator,
    ``-(I (x) G + conj(G) (x) I)^-1``."""
    d = model.dim(vertex)
    return SuperOp(d, d, linalg.lyapunov_dwell(model.effective(vertex)[None], where=[vertex])[0])


def jump_kernel(model: WalkModel) -> tuple[np.ndarray, ...]:
    """One dwell-then-jump step for every stored jump: per jump stack
    ``(ks, R)`` of the model, in its order, the read-only stack of the
    vectorized ``J[k->l](rho) = R[k->l] D_k(rho) R[k->l]^dag``.

    Every vertex with an outgoing jump must be escaping; vertices without
    outgoing jumps simply contribute no kernels (the walker never leaves
    them).  One dwell call per vertex dimension, over the vertices with an
    out-jump, and one stacked product per jump shape.  Passage maps share
    one kernel per model.
    """
    ids, src = model.ids, model.ends[:, 0]
    sources = np.bincount(src, minlength=len(ids)) > 0
    slot = np.zeros(len(ids), dtype=int)  # each source's row in its dimension's dwell stack
    dwell = {}
    for d, s in model.stacks.items():
        pos = s.pos[sources[s.pos]]
        if pos.size:
            slot[pos] = np.arange(len(pos))
            dwell[d] = linalg.lyapunov_dwell(s.eff[sources[s.pos]], where=[ids[p] for p in pos.tolist()])
    kernels = []
    for ks, r in model.jump_stacks:
        mats = linalg.sandwich_matrix(r) @ dwell[r.shape[-1]][slot[src[ks]]]
        mats.flags.writeable = False
        kernels.append(mats)
    return tuple(kernels)


# -- kernel matrices and their Green factorization ----------------------------
#
# A kernel acts on a direct sum laid out by ``starts`` as ``WalkModel.starts``
# lays out all vertices, with an empty block at each vertex it leaves out.

# Entries of the dense right-hand side of one block of Green solves.
_RHS_BUDGET = 1 << 20


def _csc(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int):
    """An ``n x n`` CSC matrix from distinct coordinates."""
    import scipy.sparse as sp

    order = np.lexsort((rows, cols))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    return sp.csc_array((vals[order], rows[order], indptr), shape=(n, n))


def _kernel_matrix(model: WalkModel, kernels, starts: np.ndarray):
    """The one-step kernels between the vertices with a block in the
    direct sum laid out by ``starts``, as one sparse CSC matrix on it."""
    inside = starts[1:] > starts[:-1]
    parts = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0, dtype=complex))]
    for (ks, _), ker in zip(model.jump_stacks, kernels):
        src, dst = model.ends[ks].T
        keep = inside[src] & inside[dst]
        parts.append(linalg.block_entries(starts[dst[keep]], starts[src[keep]], ker[keep]))
    return _csc(*map(np.concatenate, zip(*parts)), int(starts[-1]))


def _block_eigenvalue_range(v: np.ndarray, groups) -> tuple[float, float]:
    """Least and largest eigenvalue over the Hermitian parts of the vertex
    blocks of a stacked vector, one batched ``eigvalsh`` per dimension."""
    lo, hi = math.inf, -math.inf
    for d, starts in groups:
        blocks = v[np.add.outer(starts, np.arange(d * d))].reshape(-1, d, d).transpose(0, 2, 1)
        vals = np.linalg.eigvalsh(0.5 * (blocks + blocks.conj().transpose(0, 2, 1)))
        lo, hi = min(lo, float(vals[:, 0].min())), max(hi, float(vals[:, -1].max()))
    return lo, hi


@dataclass(frozen=True)
class Green:
    """``I - K`` for a one-step kernel ``K``, factored once, and the margins
    of its certificate of ``rho(K) < 1``.

    ``X`` solves ``(I - K^*)(X) = 1`` on the direct sum, and
    ``Y = X - K^*(X)`` is recomputed as an explicit product with
    ``(I - K)^dag``.  ``K`` is a
    positive map, so ``X > 0`` and ``Y >= c X`` give
    ``K^{*n}(1) <= (1 - c)^n X / x_min`` and hence ``rho(K) <= 1 - c`` with
    ``c = y_min / x_max`` (Evans and Hoegh-Krohn 1978).  ``Y`` is ``1`` in
    exact arithmetic; ``y_min >= 1/2`` shows that rounding did not ruin the
    solve.  The margins are None when ``I - K`` is exactly singular or the
    solve is not finite: no certificate.
    """

    dim: int
    nnz: int
    lu: object | None  # scipy SuperLU of I - K; None when singular or empty
    x_min: float | None = None
    x_max: float | None = None
    y_min: float | None = None

    def holds(self) -> bool:
        """Whether the margins prove ``rho(K) <= 1 - TOL``."""
        if self.dim == 0:
            return True
        return (
            self.x_min is not None
            and self.x_min > 0.0
            and self.y_min >= 0.5
            and self.y_min >= TOL * self.x_max
        )

    def require(self, kernel: str, consequence: str) -> None:
        """Raise :class:`ConvergenceError`, naming the margins, unless they
        prove ``rho(kernel) <= 1 - TOL``."""
        if not self.holds():
            raise ConvergenceError(
                f"no Green certificate of rho({kernel}) <= 1 - {TOL:.1e} "
                f"(lambda_min(X) = {self.x_min}, lambda_max(X) = {self.x_max}, "
                f"lambda_min(Y) = {self.y_min}); {consequence}"
            )

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """``(I - K)^-1 rhs``, or ``(I - K)^-dag rhs`` for ``trans="H"``."""
        if self.dim == 0:
            return np.zeros(rhs.shape, dtype=complex)
        return self.lu.solve(rhs, trans=trans)

    def diagnostics(self) -> dict:
        return {
            "kernel_dim": self.dim,
            "kernel_nnz": self.nnz,
            "certified": self.holds(),
            "x_min": self.x_min,
            "x_max": self.x_max,
            "y_min": self.y_min,
        }


def factor_kernel(matrix, dims) -> Green:
    """Factor ``I - matrix`` with a sparse LU and certify ``rho(matrix) < 1``
    on the direct sum of the vectorized matrix spaces of dimensions
    ``dims``, in order; never raises on a singular kernel."""
    n = matrix.shape[0]
    if n == 0:
        return Green(0, 0, None)
    import scipy.sparse.linalg as spla

    nnz = int(matrix.nnz)
    eye = np.arange(n)
    cols = np.repeat(eye, np.diff(matrix.indptr))
    i_minus_k = _csc(
        np.concatenate((matrix.indices, eye)),
        np.concatenate((cols, eye)),
        np.concatenate((-matrix.data, np.ones(n, dtype=complex))),
        n,
    )
    try:
        lu = spla.splu(i_minus_k)
    except RuntimeError as exc:
        if "SUPERLU_MALLOC" in str(exc):  # SuperLU's report of a failed allocation
            raise MemoryError(f"sparse LU of a {n}x{n} kernel: {exc}") from exc
        return Green(n, nnz, None)  # "Factor is exactly singular"
    dims = np.asarray(dims)
    starts = np.cumsum(dims**2) - dims**2
    groups = [(d, starts[dims == d]) for d in np.unique(dims).tolist()]
    ones = np.zeros(n, dtype=complex)
    for d, at in groups:
        ones[np.add.outer(at, (d + 1) * np.arange(d))] = 1.0  # vec(I_d)
    x = lu.solve(ones, trans="H")
    if not np.all(np.isfinite(x)):
        return Green(n, nnz, lu)
    y = (i_minus_k.T @ x.conj()).conj()
    x_min, x_max = _block_eigenvalue_range(x, groups)
    y_min, _ = _block_eigenvalue_range(y, groups)
    return Green(n, nnz, lu, x_min, x_max, y_min)


def one_step_green(model: WalkModel) -> Green:
    """The factored one-step kernel ``Q`` over all vertices, on the layout
    of ``model.starts``."""
    kernels = model.derived("jump_kernel", jump_kernel)
    matrix = _kernel_matrix(model, kernels, model.starts)
    return factor_kernel(matrix, [v.dim for v in model.vertices])


def return_operators(model: WalkModel) -> tuple[dict[VertexId, np.ndarray], dict]:
    """The adjoint return operator ``M_v = P[v->v]^*(I)`` of every vertex,
    from one factorization of the one-step kernel ``Q`` over all vertices,
    with its diagnostics.

    When the walk is transient the Green operator ``(I - Q)^-1 = sum_k Q^k``
    exists, and its diagonal block at ``v`` sums every return to ``v``:
    ``G_vv = sum_n P_vv^n = (I - P_vv)^-1``, so ``P_vv = I - G_vv^-1``.  The
    blocks ``G_vv^dag`` come from solves against the identity columns of a
    few consecutive vertices at a time, gathered into one stack per vertex
    dimension.  Raises :class:`ConvergenceError`, naming the margins, unless
    the factorization certifies ``rho(Q) <= 1 - TOL``.
    """
    starts = model.starts
    green = one_step_green(model)
    n = green.dim
    green.require("Q", "the return maps cannot be read off the one-step kernel")
    g_adj = {d: np.empty((len(s.pos), d * d, d * d), dtype=complex) for d, s in model.stacks.items()}
    width = max(1, _RHS_BUDGET // n)
    k = 0
    while k < len(model.vertices):
        first = starts[k]
        end = max(k + 1, int(np.searchsorted(starts, first + width, side="right")) - 1)
        stop = starts[end]
        rhs = np.zeros((n, stop - first), dtype=complex)
        rhs[first:stop] = np.eye(stop - first)
        cols = green.solve(rhs, trans="H")
        for d, s in model.stacks.items():
            lo, hi = np.searchsorted(s.pos, (k, end))
            at = starts[s.pos[lo:hi], None, None] + np.arange(d * d)[:, None]
            # a copy, so that no block keeps the whole (n, width) result alive
            g_adj[d][lo:hi] = cols[at, at.transpose(0, 2, 1) - first]
        k = end
    out = {}  # position -> M_v
    for d, s in model.stacks.items():
        # P_vv^dag = I - (G_vv^dag)^-1, applied to vec(I)
        eye = np.eye(d, dtype=complex)
        z = np.linalg.solve(g_adj[d], np.broadcast_to(eye.reshape(-1, 1), (len(s.pos), d * d, 1)))
        m = eye - z.reshape(-1, d, d).transpose(0, 2, 1)
        m = 0.5 * (m + m.conj().transpose(0, 2, 1))
        out.update(zip(s.pos.tolist(), m))
    return {vid: out[p] for p, vid in enumerate(model.ids)}, green.diagnostics()


# -- taboo kernel and passage maps ---------------------------------------------


@dataclass(frozen=True)
class TabooKernel:
    """One interior dwell-then-jump step avoiding the taboo vertex.

    Acts on the direct sum of the matrix spaces of the active vertices
    (those distinct from the taboo vertex that can reach it in the jump
    graph), as a sparse CSC matrix.  ``starts`` lays the sum out, with an
    empty block at every inactive vertex; ``dims`` lists the active
    vertices' dimensions in model order.
    """

    taboo: VertexId
    starts: np.ndarray
    dims: np.ndarray
    matrix: object  # scipy.sparse.csc_array
    into_taboo: np.ndarray  # maps the stacked space onto the taboo block

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def green(self) -> Green:
        """``I - matrix`` factored with its certificate, computed once for
        all passage maps into the taboo vertex."""
        return factor_kernel(self.matrix, self.dims)


def _reaching(model: WalkModel, p: int) -> np.ndarray:
    """Which vertex positions have a path of jumps to position ``p``, by a
    depth-first search over the jumps sorted by destination; ``p`` is
    marked only when it lies on a cycle."""
    src, dst = model.ends.T
    bounds = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=len(model.ids))))).tolist()
    into = src[np.argsort(dst, kind="stable")].tolist()
    seen = [False] * len(model.ids)
    stack = [p]
    while stack:
        v = stack.pop()
        for u in into[bounds[v]:bounds[v + 1]]:
            if not seen[u]:
                seen[u] = True
                stack.append(u)
    return np.array(seen, dtype=bool)


def _taboo_kernel(model: WalkModel, j: VertexId, kernels) -> TabooKernel:
    # Vertices that cannot reach j are left out (Kemeny and Snell 1960): the
    # kernel, into_taboo and the entry blocks drop every jump into them, so
    # mass that enters one counts as never arriving, which is exact.
    p = model.position(j)
    dims = np.array([v.dim for v in model.vertices])
    active = _reaching(model, p)
    active[p] = False
    starts = np.concatenate(([0], np.cumsum(np.where(active, dims**2, 0))))
    into = np.zeros((dims[p] ** 2, starts[-1]), dtype=complex)
    for (ks, _), ker in zip(model.jump_stacks, kernels):
        src, dst = model.ends[ks].T
        hit = (dst == p) & active[src]
        r, c, v = linalg.block_entries(np.zeros(hit.sum(), dtype=int), starts[src[hit]], ker[hit])
        into[r, c] += v
    return TabooKernel(j, starts, dims[active], _kernel_matrix(model, kernels, starts), into)


def _entry_block(model: WalkModel, i: VertexId, taboo: TabooKernel, kernels) -> np.ndarray | None:
    """Where a walker starting at ``i`` enters the taboo kernel's space.

    A map from the matrix space at ``i`` to the stacked space: one step out
    of ``i`` for a return map (``i`` is the taboo vertex), the injection at
    ``i`` otherwise.  None when ``i`` cannot reach the taboo vertex.
    """
    p, di, starts = model.position(i), model.dim(i), taboo.starts
    start = np.zeros((taboo.dim, di * di), dtype=complex)
    if i == taboo.taboo:
        for (ks, _), ker in zip(model.jump_stacks, kernels):
            src, dst = model.ends[ks].T
            hit = (src == p) & (starts[dst + 1] > starts[dst])
            r, c, v = linalg.block_entries(starts[dst[hit]], np.zeros(hit.sum(), dtype=int), ker[hit])
            start[r, c] += v
    elif starts[p + 1] > starts[p]:
        start[starts[p]:starts[p + 1]] = np.eye(di * di)
    else:
        return None
    return start


def first_passage_map(model: WalkModel, i: VertexId, j: VertexId) -> tuple[SuperOp, dict]:
    """The reach map ``P[i->j]`` with its diagnostics.

    Sums, over every path from ``i`` whose interior avoids ``j``, the
    time-integrated sandwich of the path operator.  The geometric sum over
    the taboo kernel, restricted to the vertices that can reach ``j``, is
    solved with the kernel's sparse LU; a start that cannot reach ``j``
    gets the zero map.  Raises :class:`ConvergenceError`, naming the
    margins, unless the kernel's Green certificate proves a spectral radius
    of at most ``1 - TOL``: a slow leak out of the interior, or a part of
    it closed at the level of subspaces rather than vertices.  No
    self-jumps are stored, so every path reaches ``j`` through the taboo
    kernel's exit.  The complete-positivity certificates are left to
    :func:`with_certificates`, for the maps whose diagnostics are reported.
    """
    kernels = model.derived("jump_kernel", jump_kernel)
    taboo = _taboo_kernel(model, j, kernels)
    return _passage_map(model, i, taboo, kernels)


def _passage_map(model: WalkModel, i: VertexId, taboo: TabooKernel, kernels) -> tuple[SuperOp, dict]:
    """:func:`first_passage_map` into ``taboo.taboo`` on a given taboo kernel."""
    j = taboo.taboo
    di, dj = model.dim(i), model.dim(j)
    start = _entry_block(model, i, taboo, kernels)
    if start is None:
        return SuperOp.zero(di, dj), {"method": "trivial"}
    green = taboo.green
    green.require("T", f"the taboo kernel of {j!r} gives no passage map {i!r} -> {j!r}")
    mat = taboo.into_taboo @ green.solve(start)
    return SuperOp(di, dj, mat), {"method": "solve", **green.diagnostics()}


def with_certificates(op: SuperOp, diagnostics: dict) -> dict:
    """``diagnostics`` of a passage map plus its certificates: the least
    Choi eigenvalue (complete positivity) and the trace increase defect.
    A trivial zero map carries none."""
    if diagnostics["method"] == "trivial":
        return diagnostics
    return {
        **diagnostics,
        "choi_min_eigenvalue": op.choi_min_eigenvalue(),
        "trace_increase_defect": op.trace_increase_defect(),
    }


_CLAMP_TOL = 1e-9  # how far a reach probability may leave [0, 1] and be clamped


def reach_probability(p_map: SuperOp, rho: np.ndarray) -> float:
    """``Tr P(rho)`` clamped into [0, 1].

    Clamping beyond ``_CLAMP_TOL`` indicates a broken passage map and
    raises instead of silently hiding the defect.
    """
    rho = np.atleast_2d(np.asarray(rho, dtype=complex))
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-8:
        raise PreconditionError("rho must have unit trace")
    value = float(np.trace(p_map.apply(rho)).real)
    clamped = min(1.0, max(0.0, value))
    if abs(clamped - value) > _CLAMP_TOL:
        raise ConvergenceError(
            f"reach probability {value} violates [0, 1] beyond {_CLAMP_TOL:.1e}"
        )
    return clamped


def expected_occupation(model: WalkModel, i: VertexId, j: VertexId, rho: np.ndarray) -> float:
    """Expected total time spent at ``j`` when starting from ``(i, rho)``.

    Every arrival at ``j`` contributes an expected sojourn ``Tr D_j(sigma)``
    for the (sub-normalized) arrival state ``sigma``; arrival states are the
    iterates of the return map ``P_jj``, so the visits sum to
    ``(I - P_jj)^-1 sigma0``, solved with :func:`factor_kernel` on the
    ``d_j^2``-dimensional space of ``j``.  Returns ``inf`` unless its Green
    certificate proves ``rho(P_jj) <= 1 - TOL``: the geometric sum of visits
    then need not converge.  Raises :class:`ConvergenceError`, as
    :func:`first_passage_map` does, when the taboo kernel of ``j`` has no
    certificate.
    """
    import scipy.sparse as sp

    rho = np.atleast_2d(np.asarray(rho, dtype=complex))
    kernels = model.derived("jump_kernel", jump_kernel)
    taboo = _taboo_kernel(model, j, kernels)
    p_jj, _ = _passage_map(model, j, taboo, kernels)
    dj = model.dim(j)
    green = factor_kernel(sp.csc_array(p_jj.matrix), [dj])
    if not green.holds():
        return float("inf")
    if i == j:
        sigma0 = rho
    else:
        p_ij, _ = _passage_map(model, i, taboo, kernels)
        sigma0 = p_ij.apply(rho)
    total_arrivals = linalg.unvec(green.solve(linalg.vec(sigma0)), (dj, dj))
    dwell = dwell_integral(model.effective(j), total_arrivals)
    return float(np.trace(dwell).real)
