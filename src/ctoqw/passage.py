"""First-passage superoperators and occupation expectations.

The probability of ever reaching vertex ``j`` from ``(i, rho)`` is the
trace of ``P[i->j](rho)`` for a completely positive, trace-nonincreasing
map assembled from two ingredients:

- the dwell integral ``D_i(X) = int_0^infty e^{s G_i} X e^{s G_i^dag} ds``,
  the closed form of one sojourn, obtained from a Lyapunov equation;
- one-step kernels ``J[k->l](X) = R[k->l] D_k(X) R[k->l]^dag``.

Summing dwell-then-jump steps over all interior paths that avoid ``j``
(the taboo kernel) and closing with a final jump onto ``j`` gives the
passage map as a geometric series, solved directly when the taboo kernel
is strictly contracting and by monotone partial sums otherwise.
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


# -- dwell integral -----------------------------------------------------------


def dwell_integral(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Closed form of ``int_0^infty e^{s g} x e^{s g^dag} ds``.

    Requires the spectral abscissa of ``g`` below
    ``-linalg.STABILITY_MARGIN``; otherwise the integral diverges and the
    offending eigenvalue is reported.
    """
    g = np.atleast_2d(np.asarray(g, dtype=complex))
    linalg.require_stable(g, what="dwell generator")
    return linalg.lyapunov_dwell(g, np.atleast_2d(np.asarray(x, dtype=complex)))


def dwell_superop(model: WalkModel, vertex: VertexId) -> SuperOp:
    """The dwell integral at a vertex as a vectorized superoperator,
    ``-(I (x) G + conj(G) (x) I)^-1``."""
    g = model.effective(vertex)
    linalg.require_stable(g, what=f"dwell generator at vertex {vertex!r}")
    d = g.shape[0]
    eye = np.eye(d, dtype=complex)
    lind = np.kron(eye, g) + np.kron(g.conj(), eye)
    return SuperOp(d, d, -np.linalg.inv(lind))


def jump_kernel(model: WalkModel) -> dict[tuple[VertexId, VertexId], SuperOp]:
    """One dwell-then-jump step for every stored edge.

    ``J[k->l](rho) = R[k->l] D_k(rho) R[k->l]^dag``.  Every vertex with an
    outgoing jump must be escaping; vertices without outgoing jumps simply
    contribute no kernels (the walker never leaves them).  The kernel
    matrices are read-only: passage maps share one kernel per model.
    """
    kernels: dict[tuple[VertexId, VertexId], SuperOp] = {}
    for v in model.vertices:
        edges = model.out_edges(v.id)
        if not edges:
            continue
        dwell = dwell_superop(model, v.id)
        for dst, r in edges:
            hop = SuperOp.from_kraus([r])
            step = hop.compose(dwell)
            step.matrix.flags.writeable = False
            kernels[(v.id, dst)] = step
    return kernels


# -- taboo kernel and passage maps ---------------------------------------------


@dataclass(frozen=True)
class TabooKernel:
    """One interior dwell-then-jump step avoiding the taboo vertex.

    Acts on the direct sum of the matrix spaces of the active vertices
    (those distinct from the taboo vertex that can pass the walker on).
    """

    taboo: VertexId
    offsets: dict[VertexId, slice]
    matrix: np.ndarray
    into_taboo: np.ndarray  # maps the stacked space onto the taboo block

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def radius(self) -> tuple[float, dict]:
        """Spectral radius of ``matrix`` and its diagnostics, computed once
        for all passage maps into the taboo vertex."""
        return linalg.spectral_radius(self.matrix, tol=1e-10)


def _taboo_kernel(model: WalkModel, j: VertexId, kernels) -> TabooKernel:
    active = [
        v.id for v in model.vertices
        if v.id != j and model.out_edges(v.id)
    ]
    offsets: dict[VertexId, slice] = {}
    pos = 0
    for vid in active:
        d = model.dim(vid)
        offsets[vid] = slice(pos, pos + d * d)
        pos += d * d
    t_mat = np.zeros((pos, pos), dtype=complex)
    dj = model.dim(j)
    f_mat = np.zeros((dj * dj, pos), dtype=complex)
    for (src, dst), ker in kernels.items():
        if src == j or src not in offsets:
            continue
        if dst == j:
            f_mat[:, offsets[src]] += ker.matrix
        elif dst in offsets:
            t_mat[offsets[dst], offsets[src]] += ker.matrix
    return TabooKernel(j, offsets, t_mat, f_mat)


def _entry_block(model: WalkModel, i: VertexId, taboo: TabooKernel, kernels) -> np.ndarray | None:
    """Where a walker starting at ``i`` enters the taboo kernel's space.

    A map from the matrix space at ``i`` to the stacked space: one step out
    of ``i`` for a return map (``i`` is the taboo vertex), the injection at
    ``i`` otherwise.  None when ``i`` cannot pass the walker on.
    """
    di = model.dim(i)
    start = np.zeros((taboo.dim, di * di), dtype=complex)
    if i == taboo.taboo:
        for (src, dst), ker in kernels.items():
            if src == i and dst in taboo.offsets:
                start[taboo.offsets[dst], :] += ker.matrix
    elif i in taboo.offsets:
        start[taboo.offsets[i], :] = np.eye(di * di)
    else:
        return None
    return start


def first_passage_map(
    model: WalkModel,
    i: VertexId,
    j: VertexId,
    tol: float = 1e-8,
    max_iter: int = 100_000,
    force_series: bool = False,
) -> tuple[SuperOp, dict]:
    """The reach map ``P[i->j]`` with convergence diagnostics.

    Sums, over every path from ``i`` whose interior avoids ``j``, the
    time-integrated sandwich of the path operator.  The geometric sum over
    the taboo kernel is solved directly when its spectral radius stays
    below ``1 - tol``, and accumulated as monotone partial sums otherwise
    (stopping once the trace increment on a spanning set of Hermitian
    probes stays below ``tol`` ten times in a row).  No self-jumps are
    stored, so every path reaches ``j`` through the taboo kernel's exit.
    The complete-positivity certificates are left to
    :func:`with_certificates`, for the maps whose diagnostics are reported.
    """
    kernels = model.derived("jump_kernel", jump_kernel)
    taboo = _taboo_kernel(model, j, kernels)
    return _passage_map(model, i, taboo, kernels, tol, max_iter, force_series)


def _passage_map(
    model: WalkModel,
    i: VertexId,
    taboo: TabooKernel,
    kernels,
    tol: float = 1e-8,
    max_iter: int = 100_000,
    force_series: bool = False,
) -> tuple[SuperOp, dict]:
    """:func:`first_passage_map` into ``taboo.taboo`` on a given taboo kernel."""
    j = taboo.taboo
    di, dj = model.dim(i), model.dim(j)
    start = _entry_block(model, i, taboo, kernels)
    if start is None:
        return SuperOp.zero(di, dj), {
            "method": "trivial",
            "spectral_radius": 0.0,
            "terms": 0,
            "converged": True,
        }

    radius, sr_info = taboo.radius
    diagnostics: dict = {"spectral_radius": radius, "radius_info": sr_info}

    if radius < 1.0 - tol and not force_series:
        resolvent = np.linalg.solve(
            np.eye(taboo.dim, dtype=complex) - taboo.matrix, start
        )
        mat = taboo.into_taboo @ resolvent
        diagnostics.update({"method": "solve", "terms": None, "converged": True})
    else:
        probes = _hermitian_probes(di)
        acc = np.zeros((dj * dj, di * di), dtype=complex)
        carry, prev, quiet, inc = start, np.zeros(len(probes)), 0, math.inf
        for m in range(1, max_iter + 1):
            acc = acc + taboo.into_taboo @ carry
            carry = taboo.matrix @ carry
            cur = np.array([np.trace(_apply_mat(acc, p, dj)).real for p in probes])
            inc = float(np.max(np.abs(cur - prev)))
            prev = cur
            quiet = quiet + 1 if inc < tol else 0
            if quiet >= 10:
                break
        else:
            raise ConvergenceError(
                f"passage series for {i!r} -> {j!r} did not settle in "
                f"{max_iter} terms (last probe increment {inc:.3e})"
            )
        mat = acc
        diagnostics.update({"method": "series", "terms": m, "converged": True})

    return SuperOp(di, dj, mat), diagnostics


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


def _apply_mat(mat: np.ndarray, rho: np.ndarray, d_out: int) -> np.ndarray:
    return linalg.unvec(mat @ linalg.vec(rho), (d_out, d_out))


def _hermitian_probes(d: int) -> list[np.ndarray]:
    probes = []
    for a in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[a, a] = 1.0
        probes.append(e)
        for b in range(a + 1, d):
            x = np.zeros((d, d), dtype=complex)
            x[a, b] = x[b, a] = 1.0 / np.sqrt(2.0)
            probes.append(x)
            y = np.zeros((d, d), dtype=complex)
            y[a, b] = -1j / np.sqrt(2.0)
            y[b, a] = 1j / np.sqrt(2.0)
            probes.append(y)
    return probes


def reach_probability(p_map: SuperOp, rho: np.ndarray, clamp_tol: float = 1e-9) -> float:
    """``Tr P(rho)`` clamped into [0, 1].

    Clamping beyond ``clamp_tol`` indicates a broken passage map and
    raises instead of silently hiding the defect.
    """
    rho = np.atleast_2d(np.asarray(rho, dtype=complex))
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-8:
        raise PreconditionError("rho must have unit trace")
    value = float(np.trace(p_map.apply(rho)).real)
    clamped = min(1.0, max(0.0, value))
    if abs(clamped - value) > clamp_tol:
        raise ConvergenceError(
            f"reach probability {value} violates [0, 1] beyond {clamp_tol:.1e}"
        )
    return clamped


def expected_occupation(
    model: WalkModel,
    i: VertexId,
    j: VertexId,
    rho: np.ndarray,
    tol: float = 1e-8,
) -> float:
    """Expected total time spent at ``j`` when starting from ``(i, rho)``.

    Every arrival at ``j`` contributes an expected sojourn ``Tr D_j(sigma)``
    for the (sub-normalized) arrival state ``sigma``; arrival states are the
    iterates of the return map.  Returns ``inf`` when the return map's
    spectral radius reaches one, where the geometric sum of visits diverges.
    """
    rho = np.atleast_2d(np.asarray(rho, dtype=complex))
    kernels = model.derived("jump_kernel", jump_kernel)
    taboo = _taboo_kernel(model, j, kernels)
    p_jj, _ = _passage_map(model, j, taboo, kernels, tol=tol)
    radius, _ = linalg.spectral_radius(p_jj.matrix, tol=1e-10)
    if radius >= 1.0 - tol:
        return float("inf")
    if i == j:
        sigma0 = rho
    else:
        p_ij, _ = _passage_map(model, i, taboo, kernels, tol=tol)
        sigma0 = p_ij.apply(rho)
    dj = model.dim(j)
    resolvent = np.linalg.solve(
        np.eye(dj * dj, dtype=complex) - p_jj.matrix, linalg.vec(sigma0)
    )
    total_arrivals = linalg.unvec(resolvent, (dj, dj))
    dwell = dwell_integral(model.effective(j), total_arrivals)
    return float(np.trace(dwell).real)
