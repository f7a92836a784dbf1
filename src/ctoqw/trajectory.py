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

import numpy as np

from . import linalg
from .errors import ConvergenceError, ModelError, PreconditionError
from .model import SitedState, VertexId, WalkModel

_INV_TOL = 1e-12  # the tolerance linalg.COND_LIMIT is chosen for
_PLATEAU = 1e-14


class _Tables:
    """The sampling rule of every vertex as tables indexed by vertex position.

    Vertex ``k`` has the dwell generator ``gens[k]``, the stored jumps
    ``edges[k]`` as ``(destination position, R)`` in jump order and the
    escape intensity operator ``escapes[k]``.  ``rate[k]`` is the event
    rate of a vertex whose survival is ``exp(-rate t)``: every
    one-dimensional vertex and uniform decay ``G + G^dag = -c I`` (rate 0
    where ``c`` is not positive).  It is NaN where the survival is inverted
    numerically, by the tables of ``blocks[d]``, one per dimension ``d > 1``.

    The scalar tables (``running``, ``esc``, ``total``, ``posts``) are read
    by the event loop of :func:`_sample` one walker at a time; the waits and
    jumps at matrix vertices run batched, by :class:`_Block`.
    """

    def __init__(self, ids, gens, edges, escapes):
        n = len(gens)
        self.ids = list(ids)
        self.dim = [g.shape[0] for g in gens]
        self.deg = [len(out) for out in edges]
        self.dst = [[b for b, _ in out] for out in edges]
        self.rate = [math.nan] * n
        # one-dimensional vertices: the weights do not depend on the state,
        # and their total is the exponential event rate
        self.running: list = [None] * n
        self.esc: list = [None] * n
        self.total: list = [None] * n  # the total weight _pick draws against
        self.posts: list = [None] * n
        for k in range(n):
            if self.dim[k] == 1:
                weights = [float((r.conj().T @ r)[0, 0].real) for _, r in edges[k]]
                self.running[k] = list(itertools.accumulate(weights))
                self.esc[k] = max(float(escapes[k][0, 0].real), 0.0)
                self.total[k] = _total(self.running[k], self.esc[k])
                self.rate[k] = sum(weights) + self.esc[k]
                self.posts[k] = [_normalised(r @ r.conj().T) for _, r in edges[k]]
                for post in self.posts[k]:
                    post.flags.writeable = False  # shared by every jump along the edge
        self.blocks = {
            d: _Block(self, d, [k for k in range(n) if self.dim[k] == d], gens, edges, escapes)
            for d in sorted(set(self.dim) - {1})
        }

    def _by_dim(self, ks) -> dict[int, list]:
        """The walkers at positions ``ks`` grouped by vertex dimension."""
        groups: dict[int, list] = {}
        for j, k in enumerate(ks):
            groups.setdefault(self.dim[k], []).append(j)
        return groups


def _exponential_wait(rate: float, u: float) -> float | None:
    # math.log, not np.log: numpy's vectorized float64 log can differ from
    # libm in the last ulp
    return -math.log(u) / rate if rate > _PLATEAU else None


def _total(running, esc: float) -> float:
    """The total weight of the stored jumps' running weights and the escape."""
    return (running[-1] if running else 0.0) + esc


def _pick(running, esc: float, total: float, u: float) -> int:
    """Slot of the first stored jump whose running weight reaches ``u`` times
    the total weight ``_total(running, esc)``; -1 for the escape, -2 when
    every weight vanishes."""
    if total <= _PLATEAU:
        return -2
    slot = bisect.bisect_left(running, u * total)
    if slot < len(running):
        return slot
    if esc > _PLATEAU:
        return -1
    return len(running) - 1  # rounding guard without an escape channel: the last edge


class _Block:
    """Tables of the vertices of one dimension ``d > 1``, indexed by vertex
    position (the rows of the other vertices are unused), and the batched
    matrix work over walkers at these vertices."""

    def __init__(self, tab: _Tables, d: int, members, gens, edges, escapes):
        n, width = len(gens), max([len(e) for e in edges] + [1])
        self.rate, self.deg = tab.rate, tab.deg
        stack, self.gplus = (np.zeros((n, d, d), dtype=complex) for _ in range(2))
        # Row k holds the transposed intensities (R^dag R)^T of the jump
        # slots of vertex k, then that of its escape, as interleaved real and
        # negated imaginary parts, so that Tr(R eta R^dag) = Re <(R^dag R)^T, eta>
        # is one real dot product with the floats of eta.
        intensity = np.zeros((n, width + 1, d, d), dtype=complex)
        # The jumps by destination dimension dd: (n, width, dd, d), zero in
        # the slots whose jump goes to another dimension.
        self.rs: dict[int, np.ndarray] = {}
        self.out_dim = np.zeros((n, width), dtype=np.intp)
        for k in members:
            stack[k] = gens[k]
            self.gplus[k] = gens[k] + gens[k].conj().T
            for j, (_, r) in enumerate(edges[k]):
                dd = r.shape[0]
                self.rs.setdefault(dd, np.zeros((n, width, dd, d), dtype=complex))[k, j] = r
                self.out_dim[k, j] = dd
                intensity[k, j] = (r.conj().T @ r).T
            intensity[k, width] = escapes[k].T
        self.intensity = np.stack([intensity.real, -intensity.imag], axis=-1).reshape(
            n, width + 1, 2 * d * d)
        self.tscale = np.zeros(n)
        gplus = self.gplus[members]
        for k, g, norm in zip(members, gplus, linalg.opnorm(gplus).tolist()):
            c = -float(np.trace(g).real) / d
            # Uniform decay; so is any |G + G^dag|_2 < _PLATEAU when d < 100, since
            # -c is the mean eigenvalue: |G + G^dag + c I|_F <= sqrt(d) |G + G^dag|_2.
            if np.linalg.norm(g + c * np.eye(d)) <= 1e-13 * (1.0 + abs(c)):
                tab.rate[k] = max(c, 0.0)  # uniform decay: s(t) = exp(-c t)
            else:
                self.tscale[k] = 1.0 / norm
        # Where G + G^dag <= -c I, every trace-one eta has
        # |(G + G^dag) eta|_F >= c |eta|_F >= c |Tr eta| / sqrt(d) = c / sqrt(d)
        # (Cauchy-Schwarz on the diagonal), so the plateau test of invert
        # cannot fire: ``steep`` holds where that bound, with c lowered by
        # 4 d^2 eps |G + G^dag| (the rounding of eigvalsh and of the computed
        # speed), is at least twice _PLATEAU.
        lam = np.linalg.eigvalsh(gplus)
        c = -lam[:, -1] - 4 * d * d * np.finfo(float).eps * np.abs(lam).max(axis=1)
        self.steep = np.zeros(n, dtype=bool)
        self.steep[members] = c / math.sqrt(d) >= 2 * _PLATEAU
        self.prop = prop = linalg.Propagator(stack)
        # the survival's eigen expansion (its coefficients vanish where
        # prop.pinv is zero, off prop.diag)
        self.mu = (prop.lam[:, :, None] + prop.lam.conj()[:, None, :]).reshape(n, d * d)
        self.pinvc = prop.pinv.conj()
        self.ovt = (prop.p.conj().swapaxes(1, 2) @ prop.p).swapaxes(1, 2)

    def wait(self, k: np.ndarray, rho: np.ndarray, u) -> list:
        """Dwell times until the survival from ``rho`` falls to ``u``; None
        where no event ever comes.  The exponential wait of uniform decay
        is taken per walker, the others are inverted together."""
        rates = [self.rate[kk] for kk in k.tolist()]
        out = [_exponential_wait(r, uu) for r, uu in zip(rates, u)]
        invert = [j for j, r in enumerate(rates) if math.isnan(r)]
        if invert:
            ts = self.invert(k[invert], rho[invert], np.array(u)[invert])
            for j, t in zip(invert, ts.tolist()):
                out[j] = None if math.isnan(t) else t
        return out

    def invert(self, k: np.ndarray, rho: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Solve s(t) = u by doubling a bracket, then safeguarded Newton
        steps to ``_INV_TOL``; NaN where the survival plateaus above u.
        The plateau test runs only at vertices outside ``steep``."""
        out = np.full(k.size, math.nan)
        every = _Survival.of(self, k, rho)
        surv, walkers, lo, hi, level = every, np.arange(k.size), np.zeros(k.size), self.tscale[k], u
        brackets = []
        for _ in range(200):
            below = surv.value(hi)[0] < level
            brackets.append((walkers[below], lo[below], hi[below]))
            if below.all():
                break
            rise = ~below
            test = rise & ~self.steep[surv.k]
            if test.any():
                rise[test] = ~(surv.take(test).speed(hi[test]) < _PLATEAU)
            surv, walkers, level = surv.take(rise), walkers[rise], level[rise]
            lo, hi = hi[rise], 2.0 * hi[rise]
        walkers, lo, hi = (np.concatenate(part) for part in zip(*brackets))
        if not walkers.size:
            return out
        surv, u = every.take(walkers), u[walkers]
        t = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(200):
                s, ds = surv.value(t, slope=True)
                done = np.abs(s - u) <= _INV_TOL
                if done.any():
                    out[walkers[done]] = t[done]
                    if done.all():
                        return out
                    go = ~done
                    surv, walkers, t, s, ds = surv.take(go), walkers[go], t[go], s[go], ds[go]
                    lo, hi, u = lo[go], hi[go], u[go]
                above = s > u
                lo = np.where(above, t, lo)
                hi = np.where(above, hi, t)
                newton = t - (s - u) / ds
                t = np.where((ds < 0) & (lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
        raise ConvergenceError("survival inversion did not reach tolerance")

    def flow(self, k: np.ndarray, rho: np.ndarray, dt: np.ndarray) -> np.ndarray:
        """Normalized dwell states ``dt`` after entering in ``rho``."""
        e = self.prop.at(k, dt)
        return _normalised(e @ rho @ e.conj().swapaxes(1, 2))

    def jump(self, k: np.ndarray, eta: np.ndarray, u) -> list:
        """Pick the jump out of dwell states ``eta`` with weights
        ``Tr(R eta R^dag)`` and the escape weight, ``u`` uniform on [0, 1).

        Returns ``(slot, post-jump state)`` per walker; slot -1 is the
        escape and -2 means every weight vanishes (no post state then).
        """
        running, esc = self.weights(k, eta)
        slots = []
        for run, e, uu, kk in zip(running.tolist(), esc.tolist(), u, k.tolist()):
            run = run[: self.deg[kk]]
            slots.append(_pick(run, e, _total(run, e), uu))
        return list(zip(slots, self.posts(k, np.array(slots), eta)))

    def weights(self, k: np.ndarray, eta: np.ndarray):
        """Running sums of the jump weights ``Tr(R eta R^dag)`` in jump
        order and the escape weights, read off the intensity table."""
        floats = eta.reshape(k.size, -1).view(float)
        w = np.maximum((self.intensity[k] @ floats[:, :, None])[..., 0], 0.0)
        return np.cumsum(w[:, :-1], axis=1), w[:, -1]

    def posts(self, k: np.ndarray, slot: np.ndarray, eta: np.ndarray) -> list:
        """Normalized post-jump states ``R eta R^dag`` of the walkers with
        ``slot >= 0``, None for the others."""
        out: list = [None] * k.size
        hop = np.flatnonzero(slot >= 0)
        kh, sh = k[hop], slot[hop]
        dd = self.out_dim[kh, sh]
        for d_out, rs in self.rs.items():
            mine = dd == d_out
            if mine.any():
                r = rs[kh[mine], sh[mine]]
                products = r @ eta[hop[mine]] @ r.conj().swapaxes(-1, -2)
                for j, post in zip(hop[mine].tolist(), _normalised(products)):
                    out[j] = post
        return out


class _Survival:
    """s(t) = Tr(e^{tG} rho e^{tG^dag}) for a batch of walkers at vertices
    ``k`` of one block, in states ``rho``.

    Where the eigenvector matrix of the vertex generator has a condition
    number below ``linalg.COND_LIMIT``, s is a sum of exponentials over
    eigenvalue pairs ``mu = lam (+) conj(lam)`` with coefficients ``coef``;
    elsewhere the dense exponential is taken at each time.
    """

    def __init__(self, blk: _Block, k, rho, coef, mu, slope, dense):
        self.blk, self.k, self.rho, self.coef, self.mu, self.slope = blk, k, rho, coef, mu, slope
        self.dense, self.any_dense = dense, bool(dense.any())

    @classmethod
    def of(cls, blk: _Block, k: np.ndarray, rho: np.ndarray) -> _Survival:
        a = blk.prop.pinv[k] @ rho @ blk.pinvc[k].swapaxes(1, 2)
        coef, mu = (a * blk.ovt[k]).reshape(k.size, -1), blk.mu[k]
        return cls(blk, k, rho, coef, mu, coef * mu, ~blk.prop.diag[k])

    def take(self, i) -> _Survival:
        """The survival of the walkers ``i`` (indices or a mask)."""
        return _Survival(self.blk, *(a[i] for a in (self.k, self.rho, self.coef, self.mu,
                                                     self.slope, self.dense)))

    def _raw(self, t: np.ndarray, i=slice(None)) -> np.ndarray:
        e = self.blk.prop.at(self.k[i], t)
        return e @ self.rho[i] @ e.conj().swapaxes(1, 2)

    def value(self, t: np.ndarray, slope: bool = False):
        """``(s, ds/dt)`` of each walker at its time ``t``; the derivative
        only when ``slope``."""
        e = np.exp(self.mu * t[:, None])
        s = (self.coef * e).sum(axis=1).real
        ds = (self.slope * e).sum(axis=1).real if slope else None
        if self.any_dense:
            dense = self.dense
            raw = self._raw(t[dense], dense)
            s[dense] = _trace(raw)
            if slope:
                ds[dense] = _trace(self.blk.gplus[self.k[dense]] @ raw)
        return s, ds

    def speed(self, t: np.ndarray) -> np.ndarray:
        """Norm of (G + G^dag) applied to the normalized dwell states."""
        raw = self._raw(t)
        tr = _trace(raw)
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = raw / tr[:, None, None]
        norm = np.linalg.norm(self.blk.gplus[self.k] @ eta, axis=(1, 2))
        return np.where(tr <= 0.0, 0.0, norm)


def _trace(m: np.ndarray) -> np.ndarray:
    """Real part of the trace of each matrix in a stack."""
    return m.trace(axis1=-2, axis2=-1).real


def _normalised(m: np.ndarray) -> np.ndarray:
    return m / _trace(m)[..., None, None]


def _tables(model: WalkModel) -> _Tables:
    """The sampling tables of a model, built once per model."""
    return model.derived("sampling_tables", lambda m: _Tables(
        m.ids,
        [m.effective(v) for v in m.ids],
        [[(m.position(b), r) for b, r in m.out_edges(v)] for v in m.ids],
        [linalg.herm(m.escape_defect(v)) for v in m.ids],
    ))


def _bare_tables(g: np.ndarray) -> _Tables:
    """Tables of a lone generator: all of its decay counts as escape."""
    g = np.atleast_2d(np.asarray(g, dtype=complex))
    return _Tables([None], [g], [[]], [linalg.herm(-(g + g.conj().T))])


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
    return tab.blocks[tab.dim[0]].wait(np.zeros(1, dtype=int), rho[None], np.array([u]))[0]


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


_RECORD_TOL = 1e-9  # unit trace and positivity of a post-jump state


def check_record(model: WalkModel, rec: TrajectoryRecord):
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


# -- the simulator ---------------------------------------------------------

# Walkers advance together in chunks of this many streams, so memory does
# not grow with the number of trajectories.
_CHUNK = 256
# Uniforms drawn at once from one walker's stream.
_DRAWS = 64
# Jumps one trajectory may take: the guard against a runaway intensity.
_MAX_JUMPS = 10_000_000


# numpy's SeedSequence entropy mixing (numpy/random/bit_generator.pyx) on
# 32-bit words, with its default pool of four words
_MASK32 = 0xFFFF_FFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n >= 0``; one word for zero."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value: int, const: int) -> tuple[int, int]:
    """SeedSequence's ``hashmix``: the hashed word and the next constant."""
    value ^= const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x: int, y: int) -> int:
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _absorb(pool, const: int, words) -> tuple[list, int]:
    """Mix every word into each pool word in turn, as SeedSequence does with
    the entropy words past the pool size."""
    pool = list(pool)
    for w in words:
        for dst in range(_POOL):
            h, const = _hashmix(w, const)
            pool[dst] = _mix(pool[dst], h)
    return pool, const


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[tuple, int]:
    """The pool and hash constant of ``SeedSequence(seed, spawn_key=...)``
    after the seed's words and before those of the spawn key.  With a spawn
    key, a seed shorter than the pool is zero-padded to it."""
    words = _words(seed)
    words += [0] * (_POOL - len(words))
    pool, const = [], _INIT_A
    for w in words[:_POOL]:
        h, const = _hashmix(w, const)
        pool.append(h)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    pool, const = _absorb(pool, const, words[_POOL:])
    return tuple(pool), const


def _philox_key(pool: tuple, const: int, stream: int) -> list[int]:
    """Philox key of ``SeedSequence(seed, spawn_key=(stream,))`` from the
    seed's pool: ``generate_state(2, np.uint64)``."""
    pool, _ = _absorb(pool, const, _words(stream))
    out, const = [], _INIT_B
    for w in pool:
        w ^= const
        const = const * _MULT_B & _MASK32
        w = w * const & _MASK32
        out.append(w ^ w >> 16)
    return [out[0] | out[1] << 32, out[2] | out[3] << 32]


_PHILOX = threading.local()  # one bit generator per thread, made on first use


def _uniforms(key: list[int]):
    """The doubles of successive ``random()`` calls of the Philox4x64-10
    generator with ``key``, drawn ``_DRAWS`` at a time.  Each counter step
    yields four 64-bit words, so refill ``r`` starts from counter
    ``r * _DRAWS / 4`` with an empty buffer; the generator's documented
    state is set to that before each refill."""
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for counter in itertools.count(0, _DRAWS // 4):
        gen = getattr(_PHILOX, "gen", None)
        if gen is None:
            gen = _PHILOX.gen = np.random.Generator(np.random.Philox(0))
        state["state"]["counter"][0] = counter
        gen.bit_generator.state = state
        yield from gen.random(_DRAWS).tolist()


def _draws(seed: int, streams) -> list:
    """The uniforms of each stream: those of
    ``Generator(Philox(SeedSequence(seed, spawn_key=(stream,)))).random()``
    (counter-based, so parallel streams are independent and every stream is
    reproducible in isolation).  The seed's words are mixed once per seed;
    each stream adds only its own."""
    seed, streams = int(seed), [int(s) for s in streams]
    if seed < 0 or any(s < 0 for s in streams):
        raise PreconditionError("seed and stream must be nonnegative integers")
    pool, const = _seed_pool(seed)
    return [_uniforms(_philox_key(pool, const, s)) for s in streams]


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


def _positive(draws) -> float:
    u = next(draws)
    while u <= 0.0:
        u = next(draws)
    return u


def _runaway() -> ConvergenceError:
    return ConvergenceError(
        f"trajectory exceeded {_MAX_JUMPS} jumps before the horizon; "
        "the model's jump intensity looks unbounded for this run"
    )


def _sample(tab: _Tables, k0: int, rho0: np.ndarray, init: SitedState, horizon: float,
            seed: int, streams, stop_at: int = -1,
            keep_rho: bool = True) -> list[TrajectoryRecord]:
    """Sample one trajectory per stream, all walkers advancing together.

    Each walker reads the uniforms of its own stream (:func:`_draws`) in the
    order a lone walker would.  At one-dimensional vertices the state is
    fixed and every event is scalar work: a walker runs through them on its
    own, in one tight loop over the vertex tables.  Walkers at vertices with
    matrix states take their next events together, one batched step at a
    time: per vertex dimension, their states are stacked once for the
    waiting time, and unless it lies beyond the horizon, the dwell flow and
    the jump.  Walkers stop when absorbed, at the horizon, on
    escape, or on arriving at position ``stop_at``.  ``keep_rho`` keeps the
    post-jump states in the records.
    """
    n = len(streams)
    draws = _draws(seed, streams)
    pos, t, rho = [k0] * n, [0.0] * n, [rho0] * n
    absorbed, escaped = [False] * n, [None] * n
    events: list[list] = [[] for _ in range(n)]
    dim, rate, running, esc, total = tab.dim, tab.rate, tab.running, tab.esc, tab.total
    dst, posts, ids, log, max_jumps = tab.dst, tab.posts, tab.ids, math.log, _MAX_JUMPS

    run = list(range(n))
    while run:
        batch = []
        for i in run:
            k, now, state, draw, record = pos[i], t[i], rho[i], draws[i], events[i]
            while dim[k] == 1:
                u = next(draw)
                while u <= 0.0:
                    u = next(draw)
                if rate[k] <= _PLATEAU:
                    absorbed[i] = True
                    break
                # math.log, not np.log, as in _exponential_wait
                now_next = now + -log(u) / rate[k]
                if now_next >= horizon:
                    break
                slot = _pick(running[k], esc[k], total[k], next(draw))
                if slot < 0:
                    if slot == -1:
                        escaped[i] = now_next
                    else:
                        absorbed[i] = True
                    break
                k, now, state = dst[k][slot], now_next, posts[k][slot]
                record.append(JumpEvent(now, ids[k], state if keep_rho else None))
                if len(record) > max_jumps:
                    raise _runaway()
                if k == stop_at:
                    break
            else:
                batch.append(i)
            pos[i], t[i], rho[i] = k, now, state
        if not batch:
            break
        run = []
        for d, js in tab._by_dim([pos[i] for i in batch]).items():
            blk, group = tab.blocks[d], [batch[j] for j in js]
            ks = np.array([pos[i] for i in group])
            states = np.stack([rho[i] for i in group])
            dts = blk.wait(ks, states, [_positive(draws[i]) for i in group])
            go = []
            for j, (i, dt) in enumerate(zip(group, dts)):
                if dt is None:
                    absorbed[i] = True
                elif t[i] + dt < horizon:
                    go.append(j)
            if not go:
                continue
            ks, dts = ks[go], [dts[j] for j in go]
            group = [group[j] for j in go]
            etas = blk.flow(ks, states[go], np.array(dts))
            hops = blk.jump(ks, etas, [next(draws[i]) for i in group])
            for i, k, dt, (slot, post) in zip(group, ks.tolist(), dts, hops):
                t_next = t[i] + dt
                if slot == -2:
                    absorbed[i] = True
                elif slot == -1:
                    escaped[i] = t_next
                else:
                    x = dst[k][slot]
                    pos[i], t[i], rho[i] = x, t_next, post
                    events[i].append(JumpEvent(t_next, ids[x], post if keep_rho else None))
                    if len(events[i]) > max_jumps:
                        raise _runaway()
                    if x != stop_at:
                        run.append(i)
    return [
        TrajectoryRecord(init, events[i], horizon, absorbed[i], escaped[i]) for i in range(n)
    ]


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

    Deterministic given ``(seed, stream)`` and the inputs.  ``stop_at``
    truncates the walk right after the first arrival at that vertex, which
    is convenient for passage-time sampling.  Raises when the jump count
    exceeds ``_MAX_JUMPS`` (a runaway intensity guard).
    """
    tab, k0, rho0 = _start(model, init, horizon)
    stop = -1 if stop_at is None else model.position(stop_at)
    return _sample(tab, k0, rho0, init, horizon, seed, [stream], stop)[0]


def survival_function(model: WalkModel, vertex: VertexId, rho):
    """The no-event survival s(t) = Tr(e^{tG} rho e^{tG^dag}) at a vertex,
    as a callable of t."""
    tab = _bare_tables(model.effective(vertex))
    rho = _normalised(np.atleast_2d(np.asarray(rho, dtype=complex)))
    rate = tab.rate[0]

    def survival(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float)).ravel()
        if math.isnan(rate):
            rhos = np.broadcast_to(rho, (ts.size,) + rho.shape)
            s = _Survival.of(tab.blocks[tab.dim[0]], np.zeros(ts.size, dtype=int), rhos).value(ts)[0]
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


def estimate(
    model: WalkModel,
    init: SitedState,
    horizon: float,
    n_traj: int,
    seed: int,
    queries: list[dict],
    on_record: Callable[[int, TrajectoryRecord], None] | None = None,
) -> list[EstimateReport]:
    """Monte Carlo estimates over ``n_traj`` independent trajectories.

    The walkers advance together, ``_CHUNK`` streams at a time; each
    trajectory equals ``simulate(..., stream=k)``.
    ``on_record(k, record)``, when given, sees the ``k``-th sampled
    trajectory as it is tallied; only then do the records keep their
    post-jump states.

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
    passage_hits: dict[int, np.ndarray] = {}
    occupations: dict[int, np.ndarray] = {}
    visits: dict[int, np.ndarray] = {}
    position_counts: dict[int, dict] = {}
    if not isinstance(queries, list) or not all(isinstance(q, dict) for q in queries):
        raise ModelError("queries must be a list of JSON objects")
    for qi, q in enumerate(queries):
        kind = q.get("kind")
        if kind in ("passage_cdf", "occupation", "visits"):
            model.position(q.get("vertex"))  # ModelError for a vertex not in the model
        if kind == "passage_cdf":
            grid = q.get("grid")
            if not (isinstance(grid, list) and grid and all(map(_is_time, grid))):
                raise ModelError(f"query {qi}: 'grid' must be a non-empty list of finite times")
            if min(grid) < 0.0:
                raise PreconditionError("passage grid holds a time before the start")
            if max(grid) > horizon:
                raise PreconditionError("passage grid reaches beyond the horizon")
            passage_hits[qi] = np.zeros((len(q["grid"]), ), dtype=np.int64)
        elif kind == "occupation":
            occupations[qi] = np.zeros(n_traj)
        elif kind == "visits":
            visits[qi] = np.zeros(n_traj)
        elif kind == "position_law":
            if not _is_time(q.get("t")):
                raise ModelError(f"query {qi}: 't' must be a finite time")
            if q["t"] < 0.0:
                raise PreconditionError("position-law time lies before the start")
            if q["t"] > horizon:
                raise PreconditionError("position-law time lies beyond the horizon")
            position_counts[qi] = {v.id: 0 for v in model.vertices}
            position_counts[qi][None] = 0
        else:
            raise PreconditionError(f"unknown query kind {kind!r}")

    for first in range(0, n_traj, _CHUNK):
        streams = range(first, min(first + _CHUNK, n_traj))
        records = _sample(tab, k0, rho0, init, horizon, seed, streams,
                          keep_rho=on_record is not None)
        for k, rec in enumerate(records, first):
            if on_record is not None:
                on_record(k, rec)
            for qi, q in enumerate(queries):
                kind = q["kind"]
                if kind == "passage_cdf":
                    tau = rec.first_passage(q["vertex"])
                    if tau is not None:
                        grid = q["grid"]
                        hits = passage_hits[qi]
                        for gi, tg in enumerate(grid):
                            if tau <= tg:
                                hits[gi] += 1
                elif kind == "occupation":
                    occupations[qi][k] = rec.occupation_time(q["vertex"])
                elif kind == "visits":
                    visits[qi][k] = rec.visit_count(q["vertex"])
                elif kind == "position_law":
                    position_counts[qi][rec.position_at(q["t"])] += 1

    reports = []
    for qi, q in enumerate(queries):
        kind = q["kind"]
        rep = EstimateReport(query=dict(q), n=n_traj)
        if kind == "passage_cdf":
            for tg, k_hit in zip(q["grid"], passage_hits[qi]):
                rep.points.append(_proportion_point(f"{tg:g}", int(k_hit), n_traj))
        elif kind == "occupation":
            rep.points.append(_mean_point(str(q["vertex"]), occupations[qi]))
        elif kind == "visits":
            rep.points.append(_mean_point(str(q["vertex"]), visits[qi]))
        elif kind == "position_law":
            for key, count in position_counts[qi].items():
                label = "escaped" if key is None else str(key)
                rep.points.append(_proportion_point(label, count, n_traj))
        reports.append(rep)
    return reports
