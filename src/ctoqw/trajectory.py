"""Jump-process sampling of the walk and Monte Carlo estimation.

Between jumps the internal state follows the normalized contraction flow

    eta_t = e^{t G} rho e^{t G^dag} / s(t),    s(t) = Tr(e^{t G} rho e^{t G^dag}),

and ``s`` is the probability that no event (jump or window escape) has
happened by ``t``.  Event times are sampled by inverting ``s``; the
destination is then drawn with probabilities proportional to
``Tr(R[i->j] eta R[i->j]^dag)``, which is equivalent in law to racing one
independent clock per edge.  On sub-stochastic boundary vertices of a
windowed model the leftover intensity is an escape event: the walker
leaves the retained vertex set and never returns.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import ConvergenceError, ModelError, PreconditionError
from .model import SitedState, VertexId, WalkModel, build_walk

_INV_TOL = 1e-12  # the tolerance linalg.COND_LIMIT is chosen for
_PLATEAU = 1e-14


class _Tables:
    """The sampling rule of every vertex as tables indexed by vertex position,
    read off the model's stacks once per model.

    Vertex ``k`` has ``deg[k]`` stored jumps, to the positions ``dst[k]`` in
    jump order.  ``rate[k]`` is the event rate of a vertex whose survival is
    ``exp(-rate t)``: every one-dimensional vertex and uniform decay
    ``G + G^dag = -c I`` (rate 0 where ``c`` is not positive).  It is NaN
    where the survival is inverted numerically, by the tables of
    ``blocks[d]``, one per dimension ``d > 1``.

    The scalar tables (``running``, ``esc``, ``total``, ``posts``) are read
    by the event loop of :func:`_sample` one walker at a time; the waits and
    jumps at matrix vertices run batched, by :class:`_Block`, on states held
    in its eigen-coordinates.  ``eigen[k]`` tells whether a state at vertex
    ``k`` is held as ``a = P^-1 rho P^-dag`` with ``P != I``; elsewhere
    ``a = rho``.
    """

    def __init__(self, model: WalkModel):
        n, (src, dst) = len(model.vertices), model.ends.T
        self.ids = model.ids
        self.dim = [v.dim for v in model.vertices]
        deg = np.bincount(src, minlength=n)
        # jump j is slot[j] of the jumps from its source, in jump order
        by_src, slot = np.argsort(src, kind="stable"), np.empty_like(src)
        slot[by_src] = np.arange(src.size) - (np.cumsum(deg) - deg)[src[by_src]]
        width = max(int(deg.max(initial=0)), 1)
        dsts = np.zeros((n, width), dtype=np.intp)
        dsts[src, slot] = dst
        self.deg = deg.tolist()
        self.dst = [row[:m] for row, m in zip(dsts.tolist(), self.deg)]
        self.rate = [math.nan] * n
        # one-dimensional vertices: the weights do not depend on the state,
        # and their total is the exponential event rate
        self.running: list = [None] * n
        self.esc: list = [None] * n
        # the total weight a jump is drawn against, running[-1] + esc; the rate
        # adds sum(weights), which Python 3.12 and later round otherwise
        self.total: list = [None] * n
        self.posts: list = [None] * n
        if 1 in model.stacks:
            # per jump out of a scalar vertex, (R^dag R)[0, 0] and the
            # read-only post-jump state R R^dag / Tr, one stacked product per
            # jump shape; slot j of vertex k has the state posts[post_at[k, j]]
            weight, post_at, posts = np.zeros((n, width)), np.zeros((n, width), dtype=np.intp), []
            for ks, r in model.jump_stacks:
                if r.shape[-1] == 1:
                    at = src[ks], slot[ks]
                    weight[at] = (_dagger(r) @ r)[:, 0, 0].real
                    post_at[at] = np.arange(len(posts), len(posts) + len(ks))
                    post = _normalised(r @ _dagger(r))
                    post.flags.writeable = False  # shared by every jump along the edge
                    posts.extend(post)
            scalar = model.stacks[1]
            esc = scalar.defect[:, 0, 0].real
            esc = np.where(0.0 > esc, 0.0, esc)  # max(esc, 0.0) as Python takes it
            rows, post_at = weight.tolist(), post_at.tolist()
            for k, e in zip(scalar.pos.tolist(), esc.tolist()):
                weights = rows[k][:self.deg[k]]
                self.running[k] = list(itertools.accumulate(weights))
                self.esc[k] = e
                self.total[k] = (self.running[k][-1] if weights else 0.0) + e
                self.rate[k] = sum(weights) + e
                self.posts[k] = list(map(posts.__getitem__, post_at[k][:self.deg[k]]))
        self.blocks = {d: _Block(self, model.stacks[d]) for d in sorted(model.stacks) if d > 1}
        for blk in self.blocks.values():  # the jump maps need every block's P
            blk.link(self, model, src, dst, slot)
        self.eigen = [d > 1 and not self.blocks[d].plain[k] for k, d in enumerate(self.dim)]

    def enter(self, k: int, rho: np.ndarray) -> np.ndarray:
        """The state ``rho`` at vertex ``k`` as a walker there holds it."""
        return self.convert([k], [rho], _Block.enter)[0] if self.eigen[k] else rho

    def convert(self, ks: list, states: list, how) -> list:
        """``how(block, k, state)``, :meth:`_Block.enter` or
        :meth:`_Block.to_rho`, of each of ``states`` at the vertices ``ks``
        (where ``eigen`` holds): one stacked product per dimension."""
        out: list = [None] * len(ks)
        for d, js in self._by_dim(ks).items():
            stack = np.array([states[j] for j in js])
            for j, state in zip(js, how(self.blocks[d], np.array([ks[j] for j in js]), stack)):
                out[j] = state
        return out

    def _by_dim(self, ks) -> dict[int, list]:
        """The walkers at the matrix vertices ``ks`` grouped by vertex
        dimension."""
        if len(self.blocks) == 1:
            return {d: list(range(len(ks))) for d in self.blocks}
        groups: dict[int, list] = {}
        for j, k in enumerate(ks):
            groups.setdefault(self.dim[k], []).append(j)
        return groups


def _exponential_wait(rate: float, u: float) -> float | None:
    # math.log, not np.log: numpy's vectorized float64 log can differ from
    # libm in the last ulp
    return -math.log(u) / rate if rate > _PLATEAU else None


class _Block:
    """Tables of the vertices of one dimension ``d > 1``, indexed by vertex
    position (the rows of the other vertices are unused), and the batched
    matrix work over walkers at these vertices.

    A walker here holds its state in the eigen-coordinates of its vertex's
    generator ``G = P diag(lam) P^-1``: ``a = P^-1 rho P^-dag``.  The dwell
    flow ``e^{tG} rho e^{tG^dag}`` is then the elementwise scaling
    ``a * w conj(w)^T`` with ``w = exp(lam t)``, and every trace
    ``Tr(P a P^dag)`` is ``sum(a * ovt)`` with ``ovt = (P^dag P)^T``.  Where
    ``cond(P)`` reaches ``linalg.COND_LIMIT`` (``~diag``) the dense
    exponential is taken instead; there ``P = I`` and ``a = rho``.  The
    rounding of the coordinates is about ``cond(P)^2 eps``, about ``1e-13``
    at the limit: inside ``_INV_TOL``.
    """

    def __init__(self, tab: _Tables, s):
        """The tables of the vertices of the model's stacks ``s`` of one
        dimension."""
        n, d = len(tab.dim), s.eff.shape[-1]
        self.gplus = np.zeros((n, d, d), dtype=complex)
        self.gplus[s.pos] = gplus = s.eff + _dagger(s.eff)
        # Uniform decay; so is any |G + G^dag|_2 < _PLATEAU when d < 100, since
        # -c is the mean eigenvalue: |G + G^dag + c I|_F <= sqrt(d) |G + G^dag|_2.
        # The Frobenius norm is taken as np.linalg.norm takes it of one matrix,
        # as the dot products of the real and of the imaginary parts.
        c = -_trace(gplus) / d
        flat = (gplus + c[:, None, None] * np.eye(d)).reshape(len(c), 1, d * d)
        square = flat.real @ flat.real.swapaxes(1, 2) + flat.imag @ flat.imag.swapaxes(1, 2)
        uniform = np.sqrt(square[:, 0, 0]) <= 1e-13 * (1.0 + np.abs(c))
        for k, rate in zip(s.pos[uniform].tolist(), c[uniform].tolist()):
            tab.rate[k] = max(rate, 0.0)  # uniform decay: s(t) = exp(-c t)
        self.deg = np.array(tab.deg)
        # the rate of each exponential wait, NaN where no event comes or
        # where the survival is inverted (``inverted``)
        rate = np.array(tab.rate)
        self.exp_rate, self.inverted = np.where(rate > _PLATEAU, rate, math.nan), np.isnan(rate)
        # The decay spectrum brackets every event time.  Let c_lo <= c_hi be
        # the extreme eigenvalues of -(G + G^dag).  For every trace-one
        # eta >= 0, d/dt log s = Tr((G + G^dag) eta_t) lies in [-c_hi, -c_lo],
        # so e^{-c_hi t} <= s(t) <= e^{-c_lo t}, and where c_lo > 0 the root
        # of s(t) = u lies in [-log u / c_hi, -log u / c_lo].  c_lo and c_hi
        # are moved out by 4 d^2 eps |G + G^dag|_2, which bounds the rounding
        # of the sum G + G^dag (each entry within eps of its own size, so at
        # most sqrt(d) eps |G + G^dag|_2 in norm) and of eigvalsh.  invert
        # widens both ends by 8 eps, relative, for the rounding of log u (a
        # few ulp in numpy's vectorized log), of the quotient and of the
        # widening product (half an ulp each), so the exact root lies inside
        # the bracket that it searches.
        lam = np.linalg.eigvalsh(gplus)
        margin = 4 * d * d * np.finfo(float).eps * np.abs(lam).max(axis=1)
        self.c_lo, self.c_hi = np.zeros(n), np.zeros(n)
        self.c_lo[s.pos], self.c_hi[s.pos] = -lam[:, -1] - margin, margin - lam[:, 0]
        # ``steep`` holds where c_lo / sqrt(d) >= 2 _PLATEAU: there an event
        # always comes, and the plateau test of the doubling search could not
        # fire either, since |(G + G^dag) eta|_F >= c_lo |eta|_F >= c_lo / sqrt(d)
        # (Cauchy-Schwarz on the diagonal).  Below that (dark states, decay
        # slower than _PLATEAU) the search and its plateau test remain.
        self.steep = np.zeros(n, dtype=bool)
        self.steep[s.pos] = self.c_lo[s.pos] / math.sqrt(d) >= 2 * _PLATEAU
        # the flows of the members' generators; vertex k is row[k] of prop,
        # and the other rows read lam = 0, P = I, as a zero generator's do
        self.prop = prop = linalg.Propagator(s.eff)
        self.row = np.zeros(n, dtype=np.intp)
        self.row[s.pos] = np.arange(len(s.pos))
        self.diag, self.lam = np.ones(n, dtype=bool), np.zeros((n, d), dtype=complex)
        self.diag[s.pos], self.lam[s.pos], self.any_dense = prop.diag, prop.lam, not prop.diag.all()
        eye = np.eye(d, dtype=complex)
        self.p, self.pinv = (np.repeat(eye[None], n, axis=0) for _ in range(2))
        self.p[s.pos] = np.where(prop.diag[:, None, None], prop.p, eye)
        self.pinv[s.pos] = np.where(prop.diag[:, None, None], prop.pinv, eye)
        self.plain = (self.p == eye).all(axis=(1, 2))  # P = I: a = rho
        ph = self.p.conj().swapaxes(1, 2)
        self.ovt = (ph @ self.p).swapaxes(1, 2)
        # the initial hazard Tr(-(G + G^dag) rho) is -sum(a * hazard)
        self.hazard = (ph @ self.gplus @ self.p).swapaxes(1, 2)
        # ds/dt of the expansion: the coefficients times lam (+) conj(lam)
        self.mu = (self.lam[:, :, None] + self.lam.conj()[:, None, :]).reshape(n, d * d)

    def link(self, tab: _Tables, model: WalkModel, src, dst, slot):
        """The jump tables, in eigen-coordinates, once every block has its
        ``P``; jump ``j`` of the model goes from ``src[j]`` to ``dst[j]`` and
        is slot ``slot[j]`` of its source.

        Row k of ``intensity`` holds the transposed intensities
        ``(P^dag R^dag R P)^T`` of the jump slots of vertex k, then that of
        its escape, as interleaved real and negated imaginary parts, so that
        ``Tr(R eta R^dag) = Re <(P^dag R^dag R P)^T, a>`` is one real dot
        product with the floats of ``a``.  ``ms[dd]`` holds, per slot, the
        map ``M = P_dst^-1 R P`` of the jumps into dimension ``dd``
        (``P_dst = 1`` for ``dd = 1``), zero in the slots whose jump goes to
        another dimension.  ``dst`` and ``out_dim`` give each slot's
        destination and its dimension; two zero columns past the slots
        answer the slots -2 and -1 (no destination: dimension 0).
        """
        n, d = len(tab.dim), self.p.shape[-1]
        width = max(tab.deg + [1])
        s = model.stacks[d]
        esc = np.zeros((n, d, d), dtype=complex)
        esc[s.pos] = s.defect
        rs: dict[int, np.ndarray] = {}
        self.dst, self.out_dim = (np.zeros((n, width + 2), dtype=np.intp) for _ in range(2))
        for ks, r in model.jump_stacks:
            if r.shape[-1] == d:
                dd, at = r.shape[1], (src[ks], slot[ks])
                rs.setdefault(dd, np.zeros((n, width, dd, d), dtype=complex))[at] = r
                self.dst[at], self.out_dim[at] = dst[ks], dd
        p = self.p[:, None]
        intensity = np.zeros((n, width + 1, d, d), dtype=complex)
        intensity[:, width] = (self.p.conj().swapaxes(1, 2) @ esc @ self.p).swapaxes(1, 2)
        self.ms: dict[int, np.ndarray] = {}
        self.ovt_out: dict[int, np.ndarray] = {}  # the destinations' ovt, by dimension
        for dd, r in rs.items():
            rp = r @ p
            intensity[:, :width] += (rp.conj().swapaxes(2, 3) @ rp).swapaxes(2, 3)
            if dd == 1:
                self.ms[dd] = rp
            else:
                self.ms[dd] = tab.blocks[dd].pinv[self.dst[:, :width]] @ rp
                self.ovt_out[dd] = tab.blocks[dd].ovt
        self.intensity = np.stack([intensity.real, -intensity.imag], axis=-1).reshape(
            n, width + 1, 2 * d * d)

    def enter(self, k: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """The states ``rho`` in eigen-coordinates, ``P^-1 rho P^-dag``."""
        pinv = self.pinv[k]
        return pinv @ rho @ pinv.conj().swapaxes(1, 2)

    def to_rho(self, k: np.ndarray, a: np.ndarray) -> np.ndarray:
        """The states ``P a P^dag`` of eigen-coordinates ``a``."""
        p = self.p[k]
        return p @ a @ p.conj().swapaxes(1, 2)

    def wait(self, k: np.ndarray, a: np.ndarray, u) -> np.ndarray:
        """Dwell times until the survival from ``a`` falls to ``u``; NaN
        where no event ever comes.  The exponential wait of uniform decay
        takes ``math.log`` per draw, as :func:`_exponential_wait`; the other
        survivals are inverted together."""
        invert = self.inverted[k]
        if invert.all():
            return self.invert(k, a, np.array(u))
        t = -np.array([math.log(x) for x in u]) / self.exp_rate[k]
        if invert.any():
            t[invert] = self.invert(k[invert], a[invert], np.array(u)[invert])
        return t

    def invert(self, k: np.ndarray, a: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Solve s(t) = u to ``_INV_TOL`` by safeguarded Newton steps on
        ``log s``; NaN where the survival plateaus above ``u``.

        At ``steep`` vertices the root lies in the closed-form bracket of the
        decay spectrum; elsewhere a bracket is doubled up from its lower end
        ``-log u / c_hi``, with the plateau test.  Newton starts at
        ``-log u / h0``, with ``h0 = Tr(-(G + G^dag) rho)`` the initial
        hazard, and every iterate stays in the bracket: a Newton step that
        leaves it is replaced by the midpoint.  Walkers that have converged
        keep their time while the others step on."""
        surv = _Survival.of(self, k, a)
        log_u = np.log(u)
        steep, c_hi, eps = self.steep[k], self.c_hi[k], np.finfo(float).eps
        h0 = -_trace_in(a, self.hazard[k])
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = -log_u / c_hi * (1.0 - 8 * eps)
            hi = np.where(steep, -log_u / self.c_lo[k] * (1.0 + 8 * eps), math.nan)
            search = np.flatnonzero(~steep & (c_hi > 0.0))  # c_hi <= 0: s never falls
            if search.size:
                lo[search], hi[search] = _doubled(surv.take(search), lo[search], u[search])
            none = np.isnan(hi)
            t = np.where(none, 0.0, np.clip(-log_u / h0, lo, hi))
            done = none
            for _ in range(200):
                s, ds = surv.value(t, slope=True)
                done = done | (np.abs(s - u) <= _INV_TOL)
                if done.all():
                    return np.where(none, math.nan, t)
                above = s > u
                lo, hi = np.where(above, t, lo), np.where(above, hi, t)
                newton = t - (np.log(s) - log_u) * s / ds
                step = np.where((ds < 0) & (lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
                t = np.where(done, t, step)
        raise ConvergenceError("survival inversion did not reach tolerance")

    def dwell(self, k: np.ndarray, a: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The unnormalized dwell states ``e^{tG} rho e^{tG^dag}`` after
        times ``t``, in eigen-coordinates."""
        x = a * _scaling(self.lam[k], t)
        if self.any_dense:
            dense = ~self.diag[k]
            x[dense] = self.dense(k[dense], a[dense], t[dense])
        return x

    def dense(self, k: np.ndarray, rho: np.ndarray, t: np.ndarray) -> np.ndarray:
        """``e^{tG} rho e^{tG^dag}`` by the dense exponential."""
        e = self.prop.at(self.row[k], t)
        return e @ rho @ e.conj().swapaxes(1, 2)

    def flow(self, k: np.ndarray, a: np.ndarray, dt: np.ndarray) -> np.ndarray:
        """Normalized dwell states ``dt`` after entering in ``a``."""
        x = self.dwell(k, a, dt)
        return x / _trace_in(x, self.ovt[k])[:, None, None]

    def jump(self, k: np.ndarray, a: np.ndarray, u: np.ndarray):
        """Pick the jump out of dwell states ``a`` with weights
        ``Tr(R eta R^dag)`` and the escape weight, ``u`` uniform on [0, 1).

        Returns the slots, -1 for the escape and -2 where every weight
        vanishes, and the post-jump states (:meth:`posts`).  The slot counts
        the running weights below ``u`` times the total, over the running
        weights padded past the vertex's jumps with their last value: that
        count is the ``bisect_left`` of the scalar event loop of
        :func:`_sample` on the same floats.
        """
        running, esc = self.weights(k, a)
        total = running[:, -1] + esc
        slot = (running < (u * total)[:, None]).sum(axis=1)
        deg = self.deg[k]
        over = slot >= deg
        if over.any():  # the escape, or the rounding guard: the last edge
            slot[over] = np.where(esc[over] > _PLATEAU, -1, deg[over] - 1)
        slot[total <= _PLATEAU] = -2
        return slot, self.posts(k, slot, a)

    def weights(self, k: np.ndarray, a: np.ndarray):
        """Running sums of the jump weights ``Tr(R eta R^dag)`` in jump
        order and the escape weights, read off the intensity table."""
        floats = a.reshape(k.size, -1).view(float)
        w = np.maximum((self.intensity[k] @ floats[:, :, None])[..., 0], 0.0)
        return np.cumsum(w[:, :-1], axis=1), w[:, -1]

    def posts(self, k: np.ndarray, slot: np.ndarray, a: np.ndarray) -> list:
        """Normalized post-jump states ``M a M^dag`` of the walkers with
        ``slot >= 0``, in the eigen-coordinates of their destinations; None
        for the others."""
        out: list = [None] * k.size
        dd = self.out_dim[k, slot]
        for d_out, ms in self.ms.items():
            hop = np.flatnonzero(dd == d_out)
            if hop.size:
                kh, sh = k[hop], slot[hop]
                m = ms[kh, sh]
                x = m @ a[hop] @ m.conj().swapaxes(1, 2)
                ovt = self.ovt_out.get(d_out)
                tr = _trace(x) if ovt is None else _trace_in(x, ovt[self.dst[kh, sh]])
                for j, post in zip(hop.tolist(), x / tr[:, None, None]):
                    out[j] = post
        return out


def _doubled(surv: _Survival, hi: np.ndarray, u: np.ndarray):
    """Brackets ``[lo, hi]`` with s(lo) >= u > s(hi), by doubling ``hi`` from
    a time where s(hi) >= u; NaN ends where the survival plateaus above
    ``u``: the speed of the dwell flow falls below ``_PLATEAU`` first."""
    out_lo, out_hi = np.zeros(hi.size), np.full(hi.size, math.nan)
    lo, walkers = np.zeros(hi.size), np.arange(hi.size)
    for _ in range(200):
        below = surv.value(hi)[0] < u
        out_lo[walkers[below]], out_hi[walkers[below]] = lo[below], hi[below]
        rise = ~below
        if rise.any():
            rise[rise] = ~(surv.take(rise).speed(hi[rise]) < _PLATEAU)
        if not rise.any():
            break
        surv, walkers, u, lo, hi = surv.take(rise), walkers[rise], u[rise], hi[rise], 2.0 * hi[rise]
    return out_lo, out_hi


class _Survival:
    """s(t) = Tr(e^{tG} rho e^{tG^dag}) for a batch of walkers at vertices
    ``k`` of one block, in eigen-coordinates ``a``.

    Where the eigenvector matrix of the vertex generator has a condition
    number below ``linalg.COND_LIMIT``, s is ``Re sum(coef * w conj(w)^T)``
    with ``w = exp(lam t)`` and the coefficients ``coef = a * ovt``;
    elsewhere the dense exponential is taken at each time.
    """

    def __init__(self, blk: _Block, k, a, lam, coef, slope, dense):
        self.blk, self.k, self.a, self.lam, self.coef, self.slope = blk, k, a, lam, coef, slope
        self.dense, self.any_dense = dense, bool(dense.any())

    @classmethod
    def of(cls, blk: _Block, k: np.ndarray, a: np.ndarray) -> _Survival:
        coef = (a * blk.ovt[k]).reshape(k.size, -1)
        return cls(blk, k, a, blk.lam[k], coef, coef * blk.mu[k], ~blk.diag[k])

    def take(self, i) -> _Survival:
        """The survival of the walkers ``i`` (indices or a mask)."""
        return _Survival(self.blk, *(a[i] for a in (self.k, self.a, self.lam, self.coef,
                                                     self.slope, self.dense)))

    def value(self, t: np.ndarray, slope: bool = False):
        """``(s, ds/dt)`` of each walker at its time ``t``; the derivative
        only when ``slope``."""
        e = _scaling(self.lam, t).reshape(t.size, -1)
        s = (self.coef * e).sum(axis=1).real
        ds = (self.slope * e).sum(axis=1).real if slope else None
        if self.any_dense:
            dense = self.dense
            raw = self.blk.dense(self.k[dense], self.a[dense], t[dense])
            s[dense] = _trace(raw)
            if slope:
                ds[dense] = _trace(self.blk.gplus[self.k[dense]] @ raw)
        return s, ds

    def speed(self, t: np.ndarray) -> np.ndarray:
        """Norm of (G + G^dag) applied to the normalized dwell states."""
        raw = self.blk.to_rho(self.k, self.blk.dwell(self.k, self.a, t))
        tr = _trace(raw)
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = raw / tr[:, None, None]
        norm = np.linalg.norm(self.blk.gplus[self.k] @ eta, axis=(1, 2))
        return np.where(tr <= 0.0, 0.0, norm)


def _scaling(lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``w conj(w)^T`` with ``w = exp(lam t)``: the dwell flow of a state in
    eigen-coordinates is the elementwise product with it."""
    w = np.exp(lam * t[:, None])
    return w[:, :, None] * w.conj()[:, None, :]


def _trace(m: np.ndarray) -> np.ndarray:
    """Real part of the trace of each matrix in a stack."""
    return m.trace(axis1=-2, axis2=-1).real


def _trace_in(a: np.ndarray, ovt: np.ndarray) -> np.ndarray:
    """``Re Tr(P a P^dag)`` of each of a stack of states in
    eigen-coordinates, with ``ovt = (P^dag P)^T``; also any
    ``Re Tr(X^T a)`` with ``X`` in place of ``ovt``."""
    return (a * ovt).reshape(len(a), -1).sum(axis=1).real


def _dagger(m: np.ndarray) -> np.ndarray:
    """The adjoint of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _normalised(m: np.ndarray) -> np.ndarray:
    return m / _trace(m)[..., None, None]


def _tables(model: WalkModel) -> _Tables:
    """The sampling tables of a model, built once per model."""
    return model.derived("sampling_tables", _Tables)


def _bare_tables(g) -> _Tables:
    """Tables of a lone generator, as a one-vertex model without jumps: all
    of its decay counts as escape.  ``ModelError`` for a generator that is
    not square or holds a NaN or infinite entry."""
    g = np.atleast_2d(np.asarray(g, dtype=complex))
    return _lone_tables(g.shape, g.tobytes())


@functools.lru_cache(maxsize=64)
def _lone_tables(shape: tuple, entries: bytes) -> _Tables:
    """:func:`_bare_tables` of the generator with these complex entries,
    built once per generator: a caller that samples many waits at one vertex
    passes the same generator each time, and the model build costs an order
    of magnitude more than the wait."""
    g = np.frombuffer(entries, dtype=complex).reshape(shape)
    return _Tables(build_walk([(0, shape[0])], [], effective={0: g}))


def sample_jump_time(g: np.ndarray, rho: np.ndarray, u: float) -> float | None:
    """Time at which the no-event probability first crosses ``u``.

    Returns ``None`` (no event, walker dwells forever) when the survival
    plateaus above ``u``, as happens at absorbing vertices.
    """
    if not 0.0 < u < 1.0:
        raise PreconditionError("u must lie strictly between 0 and 1")
    rho = _normalised(np.atleast_2d(np.asarray(rho, dtype=complex)))
    tab = _bare_tables(g)
    if tab.dim[0] == 1:
        return _exponential_wait(tab.rate[0], u)
    t = float(tab.blocks[tab.dim[0]].wait(np.zeros(1, dtype=int), tab.enter(0, rho)[None], [u])[0])
    return None if math.isnan(t) else t


# -- trajectory records --------------------------------------------------------


@dataclass(slots=True)
class JumpEvent:
    time: float
    vertex: VertexId
    rho: np.ndarray | None  # the post-jump state, None where not kept


@dataclass
class TrajectoryRecord:
    """One sampled path: jump times, visited vertices, post-jump states
    (None where they were not kept)."""

    initial: SitedState
    events: list[JumpEvent]
    horizon: float
    absorbed: bool = False
    escaped_at: float | None = None

    def position_at(self, t: float) -> VertexId | None:
        """Vertex occupied at time ``t``; None once the walker escaped."""
        if self.escaped_at is not None and t >= self.escaped_at:
            return None
        x = self.initial.vertex
        for ev in self.events:
            if ev.time <= t:
                x = ev.vertex
            else:
                break
        return x

    def first_passage(self, vertex: VertexId) -> float | None:
        """First event time landing on ``vertex`` (a return when starting
        there); None if it never happens before the horizon."""
        for ev in self.events:
            if ev.vertex == vertex:
                return ev.time
        return None

    def occupation_time(self, vertex: VertexId) -> float:
        """Time spent at ``vertex`` before the horizon or the escape."""
        end = self.horizon if self.escaped_at is None else min(self.horizon, self.escaped_at)
        total = 0.0
        t_prev = 0.0
        x = self.initial.vertex
        for ev in self.events:
            if ev.time >= end:
                break
            if x == vertex:
                total += ev.time - t_prev
            t_prev = ev.time
            x = ev.vertex
        if x == vertex and end > t_prev:
            total += end - t_prev
        return total

    def visit_count(self, vertex: VertexId) -> int:
        """Arrivals at ``vertex``, plus one when the walk starts there."""
        n = 1 if self.initial.vertex == vertex else 0
        for ev in self.events:
            if ev.vertex == vertex:
                n += 1
        return n

    @property
    def jump_count(self) -> int:
        return len(self.events)


# -- the simulator ---------------------------------------------------------

# Walkers advance together in chunks of this many streams, so memory does
# not grow with the number of trajectories.
_CHUNK = 256
# Uniforms a walker's buffer holds: one block of its stream.
_DRAWS = 64
# Jumps one trajectory may take: the guard against a runaway intensity.
_MAX_JUMPS = 10_000_000


_PHILOX = threading.local()  # one bit generator per thread, made on first use


def _block(key: list[int], counter: int) -> list[float]:
    """The ``_DRAWS`` doubles that ``random()`` of the Philox4x64-10
    generator with ``key`` gives from ``counter`` on, with an empty buffer.
    Each counter step yields four 64-bit words, so block ``r`` of a stream
    starts at counter ``r * _DRAWS / 4``; the generator's documented state
    is set to that first."""
    gen = getattr(_PHILOX, "gen", None)
    if gen is None:
        gen = _PHILOX.gen = np.random.Generator(np.random.Philox(0))
        _PHILOX.state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0]},
                         "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    state = _PHILOX.state
    state["state"]["key"] = key
    state["state"]["counter"][0] = counter
    gen.bit_generator.state = state
    return gen.random(_DRAWS).tolist()


class _Streams:
    """The uniforms of a chunk of walkers, one ``(seed, stream)`` stream
    each: those of ``Generator(Philox(key=k)).random()`` with ``k`` the
    uint64 pair ``[seed, stream]``, the Philox4x64-10 generator keyed by
    the pair (counter-based, so distinct keys give independent streams and
    every stream is reproducible in isolation).

    Walker ``i`` reads ``bufs[i][at[i]]`` next.  Its buffer holds one block
    of its stream and is refilled in place when read to the end, from
    ``counter[i]``.
    """

    def __init__(self, seed: int, streams):
        seed, streams = int(seed), [int(s) for s in streams]
        if not (0 <= seed < 2**64 and 0 <= min(streams) and max(streams) < 2**64):
            raise PreconditionError("seed and stream must be nonnegative integers below 2**64")
        self.keys = [[seed, s] for s in streams]
        self.bufs = [_block(key, 0) for key in self.keys]  # every walker draws
        self.at = [0] * len(streams)
        self.counter = [_DRAWS // 4] * len(streams)

    def refill(self, i: int):
        """Load walker ``i``'s next block and read it from its start."""
        self.bufs[i][:] = _block(self.keys[i], self.counter[i])
        self.counter[i] += _DRAWS // 4
        self.at[i] = 0

    def draw(self, walkers, positive: bool = False) -> list[float]:
        """The next draw of each of ``walkers``; with ``positive``, the next
        nonzero one (a wait inverts ``-log u``)."""
        bufs, at, out = self.bufs, self.at, []
        for i in walkers:
            while True:
                if at[i] == _DRAWS:
                    self.refill(i)
                u = bufs[i][at[i]]
                at[i] += 1
                if u > 0.0 or not positive:
                    break
            out.append(u)
        return out


def _start(model: WalkModel, init: SitedState, horizon: float):
    if not 0.0 < horizon < math.inf:
        raise PreconditionError("horizon must be positive and finite")
    k0 = model.position(init.vertex)
    tab = _tables(model)
    d = tab.dim[k0]
    rho = np.atleast_2d(np.asarray(init.rho, dtype=complex))
    trace = rho.trace().real if rho.shape == (d, d) else math.nan
    if not trace > 0.0:
        raise ModelError(
            f"initial state at vertex {init.vertex!r} must be a {d}x{d} matrix with positive trace"
        )
    return tab, k0, rho / trace


def _runaway() -> ConvergenceError:
    return ConvergenceError(
        f"trajectory exceeded {_MAX_JUMPS} jumps before the horizon; "
        "the model's jump intensity looks unbounded for this run"
    )


class _Events(NamedTuple):
    """The events of a chunk of walkers, in the order they were sampled
    (each walker's in time order): walker index, time, vertex position and,
    where kept, the post-jump state; and how each walker ended."""

    walker: list[int]
    time: list[float]
    pos: list[int]
    rho: list | None
    absorbed: list[bool]
    escaped: list[float | None]


def _sample(tab: _Tables, k0: int, rho0: np.ndarray, horizon: float, seed: int, streams,
            stop_at: int = -1, keep_rho: bool = True) -> _Events:
    """Sample one trajectory per stream, all walkers advancing together.

    Each walker reads the uniforms of its own stream (:class:`_Streams`) in
    the order a lone walker would.  At one-dimensional vertices the state
    is fixed and every event is scalar work: a walker runs through them on
    its own, in one tight loop over the vertex tables.  Walkers at vertices
    with matrix states take their next events together, one batched step at
    a time: per vertex dimension, their states (in the eigen-coordinates of
    :class:`_Block`) are stacked once for the waiting time, and unless it
    lies beyond the horizon, the dwell flow and the jump.  Walkers stop when
    absorbed, at the horizon, on escape, or on arriving at position
    ``stop_at``.  ``keep_rho`` keeps the post-jump states: those held in
    eigen-coordinates become ``rho = P a P^dag`` at the end, in one stacked
    product per dimension.
    """
    draws = _Streams(seed, streams)
    n = len(draws.bufs)
    pos, t, rho, jumps = [k0] * n, [0.0] * n, [tab.enter(k0, rho0)] * n, [0] * n
    ev = _Events([], [], [], [] if keep_rho else None, [False] * n, [None] * n)
    absorbed, escaped = ev.absorbed, ev.escaped
    add_walker, add_time, add_pos = ev.walker.append, ev.time.append, ev.pos.append
    add_rho = ev.rho.append if keep_rho else None
    dim, rate, running, esc, total = tab.dim, tab.rate, tab.running, tab.esc, tab.total
    deg, dst, posts, eigen = tab.deg, tab.dst, tab.posts, tab.eigen
    bufs, ats, refill, size = draws.bufs, draws.at, draws.refill, _DRAWS
    bisect_left, log, plateau, max_jumps = bisect.bisect_left, math.log, _PLATEAU, _MAX_JUMPS
    convert: list[int] = []  # the kept states that are eigen-coordinates
    fresh: list[int] = []  # the walkers that arrived at an eigen vertex by a scalar jump

    run = list(range(n))
    while run:
        batch = []
        for i in run:
            k, now, state, buf, at, count = pos[i], t[i], rho[i], bufs[i], ats[i], jumps[i]
            while dim[k] == 1:
                while True:
                    if at == size:
                        refill(i)
                        at = 0
                    u = buf[at]
                    at += 1
                    if u > 0.0:
                        break
                r = rate[k]
                if r <= plateau:
                    absorbed[i] = True
                    break
                # math.log, not np.log, as in _exponential_wait
                now_next = now + -log(u) / r
                if now_next >= horizon:
                    break
                if at == size:
                    refill(i)
                    at = 0
                # the first stored jump whose running weight reaches u times
                # the total; past the last, the escape, else (rounding) the last
                weights, whole = running[k], total[k]
                u = buf[at] * whole
                at += 1
                if whole <= plateau:  # every weight vanishes
                    absorbed[i] = True
                    break
                slot = bisect_left(weights, u)
                if slot == deg[k]:
                    if esc[k] > plateau:
                        escaped[i] = now_next
                        break
                    slot -= 1
                k, now, state = dst[k][slot], now_next, posts[k][slot]
                add_walker(i)
                add_time(now)
                add_pos(k)
                if keep_rho:
                    add_rho(state)
                count += 1
                if count > max_jumps:
                    raise _runaway()
                if k == stop_at:
                    break
            else:
                batch.append(i)
                if count != jumps[i] and eigen[k]:  # the state is rho
                    fresh.append(i)
            pos[i], t[i], rho[i], ats[i], jumps[i] = k, now, state, at, count
        if not batch:
            break
        if fresh:
            for i, state in zip(fresh, tab.convert([pos[i] for i in fresh], [rho[i] for i in fresh],
                                                   _Block.enter)):
                rho[i] = state
            fresh.clear()
        run = []
        for d, js in tab._by_dim([pos[i] for i in batch]).items():
            blk, group = tab.blocks[d], [batch[j] for j in js]
            ks = np.array([pos[i] for i in group])
            states = np.array([rho[i] for i in group])
            dts = blk.wait(ks, states, draws.draw(group, positive=True))
            t_next = np.array([t[i] for i in group]) + dts
            none = np.isnan(dts)
            if none.any():
                for j in np.flatnonzero(none).tolist():
                    absorbed[group[j]] = True
            go = np.flatnonzero(t_next < horizon)  # NaN: no event
            if go.size < len(group):
                if not go.size:
                    continue
                ks, states, dts, t_next = ks[go], states[go], dts[go], t_next[go]
                group = [group[j] for j in go.tolist()]
            etas = blk.flow(ks, states, dts)
            slots, hops = blk.jump(ks, etas, np.array(draws.draw(group)))
            dests = blk.dst[ks, slots].tolist()
            for i, slot, x, t_i, post in zip(group, slots.tolist(), dests, t_next.tolist(), hops):
                if slot == -2:
                    absorbed[i] = True
                elif slot == -1:
                    escaped[i] = t_i
                else:
                    pos[i], t[i], rho[i] = x, t_i, post
                    add_walker(i)
                    add_time(t_i)
                    add_pos(x)
                    if keep_rho:
                        if eigen[x]:
                            convert.append(len(ev.rho))
                        add_rho(post)
                    jumps[i] += 1
                    if jumps[i] > max_jumps:
                        raise _runaway()
                    if x != stop_at:
                        run.append(i)
    if convert:
        states = tab.convert([ev.pos[j] for j in convert], [ev.rho[j] for j in convert], _Block.to_rho)
        for j, state in zip(convert, states):
            ev.rho[j] = state
    return ev


def _records(ids, init: SitedState, horizon: float, ev: _Events) -> list[TrajectoryRecord]:
    """The trajectory records of a chunk's events, built in one pass."""
    events: list[list] = [[] for _ in ev.absorbed]
    rhos = itertools.repeat(None) if ev.rho is None else ev.rho
    for i, event in zip(ev.walker, map(JumpEvent, ev.time, map(ids.__getitem__, ev.pos), rhos)):
        events[i].append(event)
    return [TrajectoryRecord(init, e, horizon, a, x)
            for e, a, x in zip(events, ev.absorbed, ev.escaped)]


def simulate(
    model: WalkModel,
    init: SitedState,
    horizon: float,
    seed: int = 0,
    stream: int = 0,
    stop_at: VertexId | None = None,
) -> TrajectoryRecord:
    """Sample one trajectory up to ``horizon``: the one-walker case of the
    sampler behind :func:`estimate`.

    Deterministic given ``(seed, stream)`` and the inputs: the uniforms
    are those of Philox4x64-10 keyed by the pair, so both must lie in
    ``[0, 2**64)`` (``PreconditionError`` otherwise).  ``stop_at``
    truncates the walk right after the first arrival at that vertex, which
    is convenient for passage-time sampling.  Raises when the jump count
    exceeds ``_MAX_JUMPS`` (a runaway intensity guard).
    """
    tab, k0, rho0 = _start(model, init, horizon)
    stop = -1 if stop_at is None else model.position(stop_at)
    ev = _sample(tab, k0, rho0, horizon, seed, [stream], stop)
    return _records(tab.ids, init, horizon, ev)[0]


def survival_function(model: WalkModel, vertex: VertexId, rho):
    """The no-event survival s(t) = Tr(e^{tG} rho e^{tG^dag}) at a vertex,
    as a callable of t."""
    tab = _bare_tables(model.effective(vertex))
    rho = _normalised(np.atleast_2d(np.asarray(rho, dtype=complex)))
    rate, a = tab.rate[0], tab.enter(0, rho)

    def survival(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float)).ravel()
        if math.isnan(rate):
            states = np.broadcast_to(a, (ts.size,) + a.shape)
            s = _Survival.of(tab.blocks[tab.dim[0]], np.zeros(ts.size, dtype=int), states).value(ts)[0]
        else:
            s = np.exp(-rate * ts)
        return s if np.ndim(t) > 0 else float(s[0])

    return survival


# -- estimation -----------------------------------------------------------


@dataclass(frozen=True)
class EstimatePoint:
    label: str
    estimate: float
    stderr: float
    ci_low: float
    ci_high: float


@dataclass
class EstimateReport:
    query: dict
    n: int
    points: list[EstimatePoint] = field(default_factory=list)


_Z95 = 1.959964  # two-sided 95% normal quantile of every confidence interval


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    z = _Z95
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def _proportion_point(label: str, k: int, n: int) -> EstimatePoint:
    p = k / n
    se = math.sqrt(max(p * (1 - p), 0.0) / n)
    lo, hi = wilson_interval(k, n)
    return EstimatePoint(label, p, se, lo, hi)


def _mean_point(label: str, values: np.ndarray) -> EstimatePoint:
    n = values.size
    m = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return EstimatePoint(label, m, se, m - _Z95 * se, m + _Z95 * se)


def _is_time(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


class _Tally:
    """The events of a chunk as arrays sorted by walker, each walker's in
    time order, and the record queries over all its walkers at once.  Each
    query gives the numbers of the :class:`TrajectoryRecord` method of the
    same name, bit for bit; vertices are positions."""

    def __init__(self, ev: _Events, k0: int, horizon: float):
        self.n, self.k0 = len(ev.absorbed), k0
        w = np.array(ev.walker, dtype=np.intp)
        order = np.argsort(w, kind="stable")
        self.w, self.t = w[order], np.array(ev.time, dtype=float)[order]
        self.x = np.array(ev.pos, dtype=np.intp)[order]
        self.count = np.bincount(self.w, minlength=self.n)
        self.start = np.cumsum(self.count) - self.count  # each walker's first event
        self.escaped = np.array([math.inf if e is None else e for e in ev.escaped])
        self.end = np.minimum(horizon, self.escaped)

    def _last(self, mask: np.ndarray):
        """Each walker's position and time after the last of its events in
        ``mask``, a prefix of them; ``k0`` and 0.0 before its first."""
        c = np.bincount(self.w[mask], minlength=self.n)
        at = np.where(c > 0, self.start + c - 1, -1)
        return np.append(self.x, self.k0)[at], np.append(self.t, 0.0)[at]

    def position_at(self, t: float) -> np.ndarray:
        """Each walker's position at ``t``; -1 once it escaped."""
        x, _ = self._last(self.t <= t)
        return np.where(t >= self.escaped, -1, x)

    def first_passage(self, k: int) -> np.ndarray:
        """The first arrival time at ``k`` of each walker that arrives."""
        hit = self.x == k
        return self.t[hit][np.unique(self.w[hit], return_index=True)[1]]

    def visit_count(self, k: int) -> np.ndarray:
        return np.bincount(self.w[self.x == k], minlength=self.n) + (self.k0 == k)

    def occupation_time(self, k: int) -> np.ndarray:
        """Each walker's time at ``k``.  ``np.add.at`` is unbuffered and adds
        in index order, so each sum takes its dwell intervals in the order
        of the record's loop."""
        first = self.start[self.count > 0]
        x_prev, t_prev = np.roll(self.x, 1), np.roll(self.t, 1)
        x_prev[first], t_prev[first] = self.k0, 0.0
        keep = self.t < self.end[self.w]
        dwell = keep & (x_prev == k)
        total = np.zeros(self.n)
        np.add.at(total, self.w[dwell], (self.t - t_prev)[dwell])
        x, t_last = self._last(keep)
        tail = (x == k) & (self.end > t_last)
        total[tail] += (self.end - t_last)[tail]
        return total


def estimate(
    model: WalkModel,
    init: SitedState,
    horizon: float,
    n_traj: int,
    seed: int,
    queries: list[dict],
    on_chunk: Callable[[int, _Events], None] | None = None,
) -> list[EstimateReport]:
    """Monte Carlo estimates over ``n_traj`` independent trajectories.

    The walkers advance together, ``_CHUNK`` streams at a time; the
    ``k``-th trajectory equals ``simulate(..., seed=seed, stream=k)``, so
    ``seed`` must lie in ``[0, 2**64)``.
    ``on_chunk(first, events)``, when given, sees each chunk's events as
    they are tallied: walker ``i`` of the chunk is trajectory ``first + i``,
    and only then are the post-jump states kept.

    Supported queries (dicts):

    - ``{"kind": "passage_cdf", "vertex": j, "grid": [t...]}``: probability
      that the first arrival at ``j`` happens by each grid time.
    - ``{"kind": "occupation", "vertex": j}``: time spent at ``j`` before
      the horizon, accumulated exactly from the dwell intervals.
    - ``{"kind": "visits", "vertex": j}``: arrivals at ``j`` before the
      horizon (plus one when starting there).
    - ``{"kind": "position_law", "t": t}``: occupation frequencies at a
      fixed time, one point per vertex plus one for escaped mass.

    A query of the wrong shape, or naming a vertex not in the model, raises
    :class:`ModelError`; one with a time before the start or beyond the
    horizon, or of an unknown kind, :class:`PreconditionError`.
    """
    if n_traj < 1:
        raise PreconditionError("n_traj must be at least 1")
    tab, k0, rho0 = _start(model, init, horizon)
    if not isinstance(queries, list) or not all(isinstance(q, dict) for q in queries):
        raise ModelError("queries must be a list of JSON objects")
    target: dict[int, int] = {}  # query -> the position of its vertex
    tally: dict[int, np.ndarray] = {}
    for qi, q in enumerate(queries):
        kind = q.get("kind")
        if kind in ("passage_cdf", "occupation", "visits"):
            # ModelError for a vertex not in the model
            target[qi] = model.position(q.get("vertex"))
        if kind == "passage_cdf":
            grid = q.get("grid")
            if not (isinstance(grid, list) and grid and all(map(_is_time, grid))):
                raise ModelError(f"query {qi}: 'grid' must be a non-empty list of finite times")
            if min(grid) < 0.0:
                raise PreconditionError("passage grid holds a time before the start")
            if max(grid) > horizon:
                raise PreconditionError("passage grid reaches beyond the horizon")
            tally[qi] = np.zeros(len(grid), dtype=np.int64)  # arrivals by each grid time
        elif kind in ("occupation", "visits"):
            tally[qi] = np.zeros(n_traj)  # per trajectory
        elif kind == "position_law":
            if not _is_time(q.get("t")):
                raise ModelError(f"query {qi}: 't' must be a finite time")
            if q["t"] < 0.0:
                raise PreconditionError("position-law time lies before the start")
            if q["t"] > horizon:
                raise PreconditionError("position-law time lies beyond the horizon")
            tally[qi] = np.zeros(len(tab.ids) + 1, dtype=np.int64)  # per position, then escaped
        else:
            raise PreconditionError(f"unknown query kind {kind!r}")

    for first in range(0, n_traj, _CHUNK):
        streams = range(first, min(first + _CHUNK, n_traj))
        ev = _sample(tab, k0, rho0, horizon, seed, streams, keep_rho=on_chunk is not None)
        if on_chunk is not None:
            on_chunk(first, ev)
        arrays, chunk = _Tally(ev, k0, horizon), slice(first, first + len(streams))
        for qi, q in enumerate(queries):
            kind = q["kind"]
            if kind == "passage_cdf":
                tau = arrays.first_passage(target[qi])
                tally[qi] += (tau[:, None] <= np.array(q["grid"], dtype=float)).sum(axis=0)
            elif kind == "occupation":
                tally[qi][chunk] = arrays.occupation_time(target[qi])
            elif kind == "visits":
                tally[qi][chunk] = arrays.visit_count(target[qi])
            elif kind == "position_law":
                x = arrays.position_at(q["t"])
                escaped = len(tab.ids)
                tally[qi] += np.bincount(np.where(x < 0, escaped, x), minlength=escaped + 1)

    reports = []
    for qi, q in enumerate(queries):
        kind = q["kind"]
        rep = EstimateReport(query=dict(q), n=n_traj)
        if kind == "passage_cdf":
            for tg, k_hit in zip(q["grid"], tally[qi].tolist()):
                rep.points.append(_proportion_point(f"{tg:g}", k_hit, n_traj))
        elif kind in ("occupation", "visits"):
            rep.points.append(_mean_point(str(q["vertex"]), tally[qi]))
        elif kind == "position_law":
            labels = [str(v) for v in tab.ids] + ["escaped"]
            for label, count in zip(labels, tally[qi].tolist()):
                rep.points.append(_proportion_point(label, count, n_traj))
        reports.append(rep)
    return reports
