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

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import ConvergenceError, ModelError, PreconditionError
from .model import SitedState, VertexId, WalkModel

_INV_TOL = 1e-12
_PLATEAU = 1e-14


# -- dwell flow ---------------------------------------------------------------


def dwell_evolution(g: np.ndarray, rho: np.ndarray, t: float):
    """Normalized dwell state and survival weight after time ``t``.

    Returns ``(eta_t, s_t)``.  ``s`` is nonincreasing in ``t`` and the
    normalized state solves the nonlinear dwell equation whose drift is
    ``G eta + eta G^dag - eta Tr((G + G^dag) eta)``.
    """
    if t < 0:
        raise PreconditionError("dwell time must be nonnegative")
    g = np.atleast_2d(np.asarray(g, dtype=complex))
    rho = np.atleast_2d(np.asarray(rho, dtype=complex))
    e = linalg.expm(t * g)
    raw = e @ rho @ e.conj().T
    s = float(np.trace(raw).real)
    if s < 1e-300:
        raise PreconditionError(
            "dwell state fully decayed, an event must be sampled earlier"
        )
    return raw / s, s


class _Survival:
    """Evaluates s(t) = Tr(e^{tG} rho e^{tG^dag}) and its derivative."""

    def __init__(self, prop: linalg.Propagator, rho: np.ndarray):
        self.prop = prop
        rho = np.atleast_2d(np.asarray(rho, dtype=complex))
        self.rho = rho
        gplus = prop.g + prop.g.conj().T
        self.gplus = gplus
        if prop.diagonalizable:
            a = prop.pinv @ rho @ prop.pinv.conj().T
            overlap = prop.p.conj().T @ prop.p
            self.coef = (a * overlap.T).reshape(-1)
            self.mu = np.add.outer(prop.lam, prop.lam.conj()).reshape(-1)
        else:
            self.coef = None
            self.mu = None

    def value(self, t):
        if np.ndim(t) > 0:
            return np.array([self.value(float(x)) for x in np.asarray(t).ravel()])
        if self.coef is not None:
            return float(np.sum(self.coef * np.exp(self.mu * t)).real)
        e = self.prop.at(t)
        return float(np.trace(e @ self.rho @ e.conj().T).real)

    def derivative(self, t: float) -> float:
        if self.coef is not None:
            return float(np.sum(self.coef * self.mu * np.exp(self.mu * t)).real)
        e = self.prop.at(t)
        raw = e @ self.rho @ e.conj().T
        return float(np.trace(self.gplus @ raw).real)

    def decay_speed(self, t: float) -> float:
        """Norm of (G + G^dag) applied to the normalized dwell state."""
        e = self.prop.at(t)
        raw = e @ self.rho @ e.conj().T
        tr = float(np.trace(raw).real)
        if tr <= 0.0:
            return 0.0
        return float(np.linalg.norm(self.gplus @ (raw / tr)))


def _invert_survival(surv: _Survival, u: float, t_scale: float) -> float | None:
    """Solve s(t) = u; None means the target level is never reached."""
    lo, s_lo = 0.0, 1.0
    hi = t_scale
    for _ in range(200):
        s_hi = surv.value(hi)
        if s_hi < u:
            break
        if surv.decay_speed(hi) < _PLATEAU:
            return None
        lo, s_lo = hi, s_hi
        hi *= 2.0
    else:
        return None
    t = 0.5 * (lo + hi)
    for _ in range(200):
        s = surv.value(t)
        if abs(s - u) <= _INV_TOL:
            return t
        if s > u:
            lo = t
        else:
            hi = t
        ds = surv.derivative(t)
        t_newton = t - (s - u) / ds if ds < 0 else None
        if t_newton is not None and lo < t_newton < hi:
            t = t_newton
        else:
            t = 0.5 * (lo + hi)
    raise ConvergenceError("survival inversion did not reach tolerance")


_ESCAPE = object()  # the jump that leaves a windowed model


class _EventKernel:
    """Waiting time, dwell flow and jump law of the walk at one vertex.

    ``edges`` are the stored jumps ``(dst, R)`` and ``escape`` the escape
    intensity operator of a sub-stochastic vertex.  Given a generator
    alone, all of its decay ``-(G + G^dag)`` counts as escape.
    """

    def __init__(self, g: np.ndarray, edges=(), escape: np.ndarray | None = None):
        self.g = np.atleast_2d(np.asarray(g, dtype=complex))
        d = self.g.shape[0]
        gplus = self.g + self.g.conj().T
        self.edges = list(edges)
        self.escape = linalg.herm(-gplus if escape is None else escape)
        self.fixed = None
        self.speed = None
        if d == 1:
            # on a one-dimensional space the weights do not depend on the
            # state, and their total is the exponential event rate
            weights = [float((r.conj().T @ r)[0, 0].real) for _, r in self.edges]
            posts = [_normalised(r @ r.conj().T) for _, r in self.edges]
            for p in posts:
                p.flags.writeable = False  # shared by every jump along the edge
            esc = max(float(self.escape[0, 0].real), 0.0)
            self.fixed = (weights, posts, esc)
            self.rate = sum(weights) + esc
            return
        c = -float(np.trace(gplus).real) / d
        if np.linalg.norm(gplus + c * np.eye(d)) <= 1e-13 * (1.0 + abs(c)):
            self.rate = max(c, 0.0)  # uniform decay: s(t) = exp(-c t)
        else:
            self.rate = None
            self.speed = linalg.opnorm(gplus)

    @cached_property
    def prop(self) -> linalg.Propagator:
        return linalg.Propagator(self.g)

    def wait(self, rho: np.ndarray, u: float) -> float | None:
        """Dwell time until the survival from ``rho`` falls to ``u``; None
        when no event ever comes."""
        if self.rate is not None:
            return -math.log(u) / self.rate if self.rate > _PLATEAU else None
        if self.speed < _PLATEAU:
            return None
        return _invert_survival(_Survival(self.prop, rho), u, t_scale=1.0 / self.speed)

    def flow(self, rho: np.ndarray, dt: float) -> np.ndarray:
        """Normalized dwell state ``dt`` after entering in ``rho``."""
        if self.fixed is not None:
            return rho
        e = self.prop.at(dt)
        return _normalised(e @ rho @ e.conj().T)

    def jump(self, eta: np.ndarray, u: float, escape: bool = True):
        """Pick the jump out of dwell state ``eta`` with weights
        ``Tr(R eta R^dag)`` and the escape weight, ``u`` uniform on [0, 1).

        Returns ``(dst, post-jump state)``, ``_ESCAPE``, or None when
        every weight vanishes.  ``escape=False`` draws among the stored
        jumps only.
        """
        if self.fixed is not None:
            weights, posts, esc = self.fixed
        else:
            posts = [r @ eta @ r.conj().T for _, r in self.edges]
            weights = [max(float(np.trace(p).real), 0.0) for p in posts]
            esc = max(float(np.trace(self.escape @ eta).real), 0.0)
        if not escape:
            esc = 0.0
        total = sum(weights) + esc
        if total <= _PLATEAU:
            return None
        target = u * total
        acc = 0.0
        for (dst, _), w, post in zip(self.edges, weights, posts):
            acc += w
            if target <= acc:
                break
        else:
            if esc > _PLATEAU:
                return _ESCAPE
            # rounding guard without an escape channel: keep the last edge
        if self.fixed is None:
            post = _normalised(post)
        return dst, post


def _normalised(m: np.ndarray) -> np.ndarray:
    return m / float(np.trace(m).real)


def _kernels(model: WalkModel) -> dict[VertexId, _EventKernel]:
    """One event kernel per vertex, built once per model."""
    return model.derived("event_kernels", lambda m: {
        v.id: _EventKernel(m.effective(v.id), m.out_edges(v.id), m.escape_defect(v.id))
        for v in m.vertices
    })


def sample_jump_time(g: np.ndarray, rho: np.ndarray, u: float) -> float | None:
    """Time at which the no-event probability first crosses ``u``.

    Returns ``None`` (no event, walker dwells forever) when the survival
    plateaus above ``u``, as happens at absorbing vertices.
    """
    if not 0.0 < u < 1.0:
        raise PreconditionError("u must lie strictly between 0 and 1")
    rho = np.atleast_2d(np.asarray(rho, dtype=complex))
    return _EventKernel(g).wait(_normalised(rho), u)


def sample_destination(model: WalkModel, vertex: VertexId, eta: np.ndarray, u: float):
    """Draw the jump target and the post-jump state.

    The target ``j`` is chosen with probability proportional to
    ``Tr(R[i->j] eta R[i->j]^dag)`` among the stored jumps; escape weight
    of windowed models is handled by the simulator, not here.
    """
    model.position(vertex)
    eta = np.atleast_2d(np.asarray(eta, dtype=complex))
    hop = _kernels(model)[vertex].jump(eta, u, escape=False)
    if hop is None:
        raise PreconditionError(
            f"zero total jump rate at vertex {vertex!r}; the dwell sampler "
            "should have reported no event"
        )
    return hop


# -- trajectory records --------------------------------------------------------


@dataclass(frozen=True)
class JumpEvent:
    time: float
    vertex: VertexId
    rho: np.ndarray


@dataclass
class TrajectoryRecord:
    """One sampled path: jump times, visited vertices, post-jump states."""

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

    def occupation_time(self, vertex: VertexId, up_to: float | None = None) -> float:
        end = self.horizon if up_to is None else min(up_to, self.horizon)
        if self.escaped_at is not None:
            end = min(end, self.escaped_at)
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

    def visit_count(self, vertex: VertexId, up_to: float | None = None) -> int:
        end = self.horizon if up_to is None else up_to
        n = 1 if self.initial.vertex == vertex else 0
        for ev in self.events:
            if ev.time > end:
                break
            if ev.vertex == vertex:
                n += 1
        return n

    @property
    def jump_count(self) -> int:
        return len(self.events)


def check_record(model: WalkModel, rec: TrajectoryRecord, atol: float = 1e-9):
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
        if abs(tr - 1.0) > atol:
            raise ModelError(f"post-jump state trace {tr} != 1")
        mineig = float(np.min(np.linalg.eigvalsh(linalg.herm(ev.rho))))
        if mineig < -atol:
            raise ModelError(f"post-jump state eigenvalue {mineig} < 0")
        t_prev, x_prev = ev.time, ev.vertex


# -- the simulator ---------------------------------------------------------


def trajectory_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream): parallel streams
    are independent and every stream is reproducible in isolation."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


def simulate(
    model: WalkModel,
    init: SitedState,
    horizon: float,
    seed: int = 0,
    stream: int = 0,
    max_jumps: int = 10_000_000,
    stop_at: VertexId | None = None,
    rng: np.random.Generator | None = None,
) -> TrajectoryRecord:
    """Sample one trajectory up to ``horizon``.

    Deterministic given ``(seed, stream)`` and the inputs.  ``stop_at``
    truncates the walk right after the first arrival at that vertex, which
    is convenient for passage-time sampling.  Raises when the jump count
    exceeds ``max_jumps`` (a runaway intensity guard).
    """
    if not 0.0 < horizon < math.inf:
        raise PreconditionError("horizon must be positive and finite")
    kernels = _kernels(model)
    if rng is None:
        rng = trajectory_rng(seed, stream)
    x = init.vertex
    model.position(x)
    rho = _normalised(np.atleast_2d(np.asarray(init.rho, dtype=complex)))
    t = 0.0
    events: list[JumpEvent] = []
    absorbed = False
    escaped_at = None

    while True:
        k = kernels[x]
        u = rng.random()
        while u <= 0.0:
            u = rng.random()
        dt = k.wait(rho, u)
        if dt is None:
            absorbed = True
            break
        t_next = t + dt
        if t_next >= horizon:
            break
        hop = k.jump(k.flow(rho, dt), rng.random())
        if hop is None:
            absorbed = True
            break
        if hop is _ESCAPE:
            escaped_at = t_next
            break
        x, rho = hop
        t = t_next
        events.append(JumpEvent(t, x, rho))

        if len(events) > max_jumps:
            raise ConvergenceError(
                f"trajectory exceeded {max_jumps} jumps before the horizon; "
                "the model's jump intensity looks unbounded for this run"
            )
        if stop_at is not None and events and events[-1].vertex == stop_at:
            break

    return TrajectoryRecord(init, events, horizon, absorbed, escaped_at)


def survival_function(model: WalkModel, vertex: VertexId, rho):
    """The no-event survival s(t) at a vertex, as a callable of t."""
    return survival_from_generator(model.effective(vertex), rho)


def survival_from_generator(g: np.ndarray, rho):
    """s(t) = Tr(e^{tG} rho e^{tG^dag}) as a callable of t."""
    rho = _normalised(np.atleast_2d(np.asarray(rho, dtype=complex)))
    return _Survival(linalg.Propagator(g), rho).value


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


def wilson_interval(successes: int, n: int, z: float = 1.959964) -> tuple[float, float]:
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
    z = 1.959964
    return EstimatePoint(label, m, se, m - z * se, m + z * se)


def estimate(
    model: WalkModel,
    init: SitedState,
    horizon: float,
    n_traj: int,
    seed: int,
    queries: list[dict],
    stream_base: int = 0,
    max_jumps: int = 10_000_000,
    on_record: Callable[[int, TrajectoryRecord], None] | None = None,
) -> list[EstimateReport]:
    """Monte Carlo estimates over ``n_traj`` independent trajectories.

    ``on_record(k, record)``, when given, sees the ``k``-th sampled
    trajectory (stream ``stream_base + k``) as it is tallied.

    Supported queries (dicts):

    - ``{"kind": "passage_cdf", "vertex": j, "grid": [t...]}``: probability
      that the first arrival at ``j`` happens by each grid time.
    - ``{"kind": "occupation", "vertex": j}``: time spent at ``j`` before
      the horizon, accumulated exactly from the dwell intervals.
    - ``{"kind": "visits", "vertex": j}``: arrivals at ``j`` before the
      horizon (plus one when starting there).
    - ``{"kind": "position_law", "t": t}``: occupation frequencies at a
      fixed time, one point per vertex plus one for escaped mass.
    """
    if n_traj < 1:
        raise PreconditionError("n_traj must be at least 1")
    passage_hits: dict[int, np.ndarray] = {}
    occupations: dict[int, np.ndarray] = {}
    visits: dict[int, np.ndarray] = {}
    position_counts: dict[int, dict] = {}
    for qi, q in enumerate(queries):
        kind = q.get("kind")
        if kind == "passage_cdf":
            if max(q["grid"]) > horizon:
                raise PreconditionError("passage grid reaches beyond the horizon")
            passage_hits[qi] = np.zeros((len(q["grid"]), ), dtype=np.int64)
        elif kind == "occupation":
            occupations[qi] = np.zeros(n_traj)
        elif kind == "visits":
            visits[qi] = np.zeros(n_traj)
        elif kind == "position_law":
            if q["t"] > horizon:
                raise PreconditionError("position-law time lies beyond the horizon")
            position_counts[qi] = {v.id: 0 for v in model.vertices}
            position_counts[qi][None] = 0
        else:
            raise PreconditionError(f"unknown query kind {kind!r}")

    for k in range(n_traj):
        rec = simulate(
            model, init, horizon,
            seed=seed, stream=stream_base + k, max_jumps=max_jumps,
        )
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
