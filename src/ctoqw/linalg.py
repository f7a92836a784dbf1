"""Dense linear-algebra helpers.

Vectorization convention, fixed package-wide: ``vec`` stacks columns, so

    vec(A @ rho @ B.conj().T) == kron(B.conj(), A) @ vec(rho).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, PreconditionError

# The eigen expansion ``e^{tG} = P e^{t Lambda} P^-1`` carries a rounding
# error of about ``eps * cond(P)``, and a survival ``Tr(e^{tG} rho e^{tG^dag})``
# built from it about ``eps * cond(P)^2``.  Near an exceptional point that
# exceeds the 1e-12 to which the sampler inverts the survival, so above this
# limit (about 21) the dense exponential, whose error is about eps, is taken.
COND_LIMIT = math.sqrt(0.1 * 1e-12 / np.finfo(float).eps)

# A dwell generator counts as escaping when every eigenvalue has real part
# below -STABILITY_MARGIN; only then does its dwell integral converge.
STABILITY_MARGIN = 1e-9


def vec(m: np.ndarray) -> np.ndarray:
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(shape, order="F")


def block_entries(rows: np.ndarray, cols: np.ndarray, blocks: np.ndarray):
    """Rows, columns and values of the nonzero entries of a stack of blocks
    placed with the first entry of ``blocks[k]`` at ``(rows[k], cols[k])``
    of one larger matrix."""
    k, a, b = np.nonzero(blocks)
    return rows[k] + a, cols[k] + b, blocks[k, a, b]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the last two axes, broadcast over the leading ones."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def sandwich_matrix(a: np.ndarray) -> np.ndarray:
    """Matrix ``conj(a) (x) a`` of rho -> a @ rho @ a.conj().T; stacks give stacks."""
    a = np.asarray(a, dtype=complex)
    return _kron(a.conj(), a)


def drift_matrix(g: np.ndarray) -> np.ndarray:
    """Matrix ``I (x) g + conj(g) (x) I`` of X -> g X + X g^dag; stacks give stacks."""
    eye = np.eye(np.shape(g)[-1], dtype=complex)
    return _kron(eye, g) + _kron(np.conj(g), eye)


def herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def opnorm(m: np.ndarray):
    """Spectral norm of each matrix of a stack, the float ``np.linalg.norm(., 2)`` gives
    it (largest singular value); a zero matrix, whose norm is 0.0, is not factored."""
    norms, live = np.zeros(len(m)), m.any(axis=(-2, -1))
    norms[live] = np.linalg.svd(m[live], compute_uv=False).max(axis=-1)
    return norms


def spectral_abscissa(g: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(np.atleast_2d(g)).real))


def expm(a: np.ndarray) -> np.ndarray:
    # scipy implements scaling-and-squaring with a degree-adapted diagonal
    # Pade approximant, which is what these small dense generators need.
    # Imported here: loading scipy.linalg doubles the start-up of the CLI.
    import scipy.linalg as sla

    return sla.expm(a)


_DWELL_RTOL = 1e-10  # bound on each dwell residual |L D + I|_F, per unit of 1 + d


def lyapunov_dwell(g: np.ndarray, where=None) -> np.ndarray:
    """Dwell integrals ``X -> int_0^inf e^{s g} X e^{s g^dag} ds`` of a stack
    of generators ``(n, d, d)``, as the superoperators ``-L^-1`` of
    ``L = drift_matrix(g)`` from one batched inverse, after one
    :func:`require_stable` of the stack.  Raises :class:`ConvergenceError`
    unless each residual ``|L D + I|_F`` is below ``_DWELL_RTOL * (1 + d)``.
    """
    require_stable(g, where)
    lind = drift_matrix(g)
    dwell = -np.linalg.inv(lind)
    res = np.linalg.norm(lind @ dwell + np.eye(lind.shape[-1]), axis=(-2, -1)).max()
    if not res <= _DWELL_RTOL * (1.0 + np.shape(g)[-1]):
        raise ConvergenceError(f"dwell integral residual {res:.3e} exceeds {_DWELL_RTOL:.1e} * (1 + d)")
    return dwell


def power_iteration(
    mat: np.ndarray,
    v0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 50_000,
):
    """Leading eigenvalue of ``mat`` by power iteration.

    Returns ``(value, vector, converged, iterations)``.  The default start
    vector is vec(Id), which has full overlap with the leading eigenmatrix
    of any completely positive map.
    """
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    if v0 is None:
        d = int(round(np.sqrt(n)))
        if d * d == n:
            v0 = vec(np.eye(d))
        else:
            v0 = np.ones(n, dtype=complex)
    v = v0 / np.linalg.norm(v0)
    lam = 0.0
    for it in range(1, max_iter + 1):
        w = mat @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, v, True, it
        lam_new = float(np.real(np.vdot(v, w)))
        v = w / nw
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new, v, True, it
        lam = lam_new
    return lam, v, False, max_iter


def spectral_radius(mat: np.ndarray, tol: float = 1e-10) -> tuple[float, dict]:
    """Spectral radius with diagnostics.

    At the sizes this package produces (a few thousand at most) the full
    eigendecomposition is both exact and cheap, so it is the default;
    power iteration covers anything larger.
    """
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    if n == 0:
        return 0.0, {"method": "empty", "converged": True}
    if n <= 4096:
        vals = np.linalg.eigvals(mat)
        return float(np.max(np.abs(vals))), {"method": "eig", "converged": True}
    lam, v, ok, iters = power_iteration(mat, tol=tol)
    if ok:
        return abs(lam), {"method": "power", "iterations": iters, "converged": True}
    raise ConvergenceError(
        f"power iteration did not converge in {iters} steps on a "
        f"{n}x{n} operator"
    )


@lru_cache(maxsize=64)
def gauss_legendre_01(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


_QUAD_BLOCK = 200_000  # quadrature nodes per block of simplex_quadrature_blocks


def simplex_quadrature_blocks(n: int, t: float, q: int):
    """Tensorized quadrature for the ordered-time region 0 < t_1 < ... < t_n < t.

    The region is flattened onto the unit cube by t_k = t * u_k u_{k+1} ... u_n,
    whose volume element is t^n * prod_j u_j^(j-1); the composed integrand
    stays smooth, so Gauss-Legendre converges at spectral rate.  Yields
    ``(times, weights)`` blocks with ``times`` of shape (m, n).
    """
    x, w = gauss_legendre_01(q)
    total = q**n
    for start in range(0, total, _QUAD_BLOCK):
        idx = np.arange(start, min(start + _QUAD_BLOCK, total))
        digits = np.empty((idx.size, n), dtype=int)
        rem = idx
        for k in range(n - 1, -1, -1):
            digits[:, k] = rem % q
            rem = rem // q
        u = x[digits]
        weights = np.prod(w[digits], axis=1) * (t**n)
        for j in range(1, n):
            weights = weights * u[:, j] ** j
        suffix = np.cumprod(u[:, ::-1], axis=1)[:, ::-1]
        times = t * suffix
        yield times, weights


class Propagator:
    """The flows ``e^{t G[k]}`` of a stack of generators ``(n, d, d)``.

    One batched ``eig`` and ``cond`` of the stack, and one batched ``inv`` of
    the eigenvector matrices ``P`` with ``cond(P) < COND_LIMIT`` (``diag``):
    there the flow is the eigen expansion, elsewhere the dense exponential.
    """

    def __init__(self, g: np.ndarray):
        self.g = np.asarray(g, dtype=complex)
        self.lam, self.p = np.linalg.eig(self.g)
        self.diag = np.linalg.cond(self.p) < COND_LIMIT
        self.pinv = np.zeros_like(self.p)
        if self.diag.any():
            self.pinv[self.diag] = np.linalg.inv(self.p[self.diag])

    def at(self, k, t) -> np.ndarray:
        """``e^{t[i] G[k[i]]}`` for index and time arrays; a scalar index
        applies to every time."""
        k, t = np.broadcast_arrays(np.asarray(k, dtype=np.intp), np.asarray(t, dtype=float))
        e = (self.p[k] * np.exp(t[:, None] * self.lam[k])[:, None, :]) @ self.pinv[k]
        dense = ~self.diag[k]
        if dense.any():
            e[dense] = expm(t[dense, None, None] * self.g[k[dense]])
        return e


def require_stable(g: np.ndarray, where=None):
    """Raise unless every eigenvalue of the dwell generator ``g``, a matrix or
    a stack, has real part below ``-STABILITY_MARGIN``, naming the first
    failing matrix of a stack by ``where[k]`` when given."""
    vals = np.linalg.eigvals(np.asarray(g, dtype=complex).reshape((-1,) + np.shape(g)[-2:]))
    worst = vals[np.arange(len(vals)), np.argmax(vals.real, axis=-1)]
    bad = np.flatnonzero(worst.real >= -STABILITY_MARGIN)
    if bad.size:
        k = bad[0]
        at = "" if where is None else f" at vertex {where[k]!r}"
        raise PreconditionError(
            f"dwell generator{at} is not escaping: eigenvalue {worst[k]:.6g} has real part "
            f">= -{STABILITY_MARGIN:.1e}, the dwell integral diverges"
        )
