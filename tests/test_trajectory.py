import itertools
import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from ctoqw import fixtures, linalg, semigroup, trajectory
from ctoqw.errors import ConvergenceError, ModelError, PreconditionError
from ctoqw.model import (SitedState, VertexSpace, WalkModel, build_lattice, build_walk,
                         classical_embed, matrix_to_json, model_from_json, sited_block_state)
from oracles import (check_record, model_from_parts, pick, reference_walk, rk4_dwell,
                     sample_per_walker, sampling_tables_per_vertex, trajectory_rng, uniforms)
from strategies import leaky_variant, random_density, random_hermitian, random_model


def _lone(g) -> WalkModel:
    """A one-vertex model whose dwell generator is ``g``."""
    g = np.atleast_2d(np.asarray(g, dtype=complex))
    return build_walk([(0, g.shape[0])], [], effective={0: g})


def _dwell(m, vid, rho, t):
    """The dwell state ``t`` after entering vertex ``vid`` in ``rho``, by the
    sampler's ``_Block.flow`` in eigen-coordinates, and the survival weight
    by ``survival_function``."""
    tab, rho = trajectory._tables(m), np.asarray(rho, dtype=complex)
    k, blk = np.array([m.position(vid)]), tab.blocks[m.dim(vid)]
    eta = blk.to_rho(k, blk.flow(k, blk.enter(k, rho[None]), np.array([t])))[0]
    return eta, trajectory.survival_function(m, vid, rho)(t)


def test_dwell_evolution_scalar():
    s = trajectory.survival_function(_lone([[-0.5]]), 0, [[1.0]])(1.0)
    assert s == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_dwell_evolution_absorbing():
    rho = np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex)
    eta, s = _dwell(_lone(np.zeros((2, 2))), 0, rho, 3.0)
    assert_allclose(eta, rho, atol=1e-14)
    assert s == pytest.approx(1.0)


def test_dwell_evolution_uniform_decay(spin_small):
    rho = np.diag([0.0, 1.0]).astype(complex)
    eta, s = _dwell(spin_small, 1, rho, 2.0)
    assert_allclose(eta, rho, atol=1e-13)
    assert s == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_dwell_evolution_matches_rk4_oracle():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g = g - (np.max(np.linalg.eigvals(g).real) + 0.4) * np.eye(2)
    rho = random_density(rng, 2)
    eta, s = _dwell(_lone(g), 0, rho, 0.8)
    assert np.linalg.norm(eta - rk4_dwell(g, rho, 0.8)) < 1e-8
    e = sla.expm(0.8 * g)
    assert s == pytest.approx(np.trace(e @ rho @ e.conj().T).real, abs=1e-12)


def test_sample_jump_time_scalar_exact():
    t = trajectory.sample_jump_time([[-0.5]], [[1.0]], math.exp(-1.0))
    assert t == pytest.approx(1.0, abs=1e-12)


def test_sample_jump_time_no_event_for_absorbing():
    assert trajectory.sample_jump_time(np.zeros((2, 2)), np.eye(2) / 2, 0.3) is None


def test_sample_jump_time_uniform_decay_qubit(spin_small):
    g = spin_small.effective(1)
    rho = random_density(np.random.default_rng(12), 2)
    t = trajectory.sample_jump_time(g, rho, 0.25)
    assert t == pytest.approx(math.log(4.0), abs=1e-12)


def test_sample_jump_time_inverts_survival_generic():
    rng = np.random.default_rng(13)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g = g - (np.max(np.linalg.eigvals(g).real) + 0.5) * np.eye(3)
    # make the decay state-dependent (not a multiple of the identity)
    rho = random_density(rng, 3)
    surv = trajectory.survival_function(_lone(g), 0, rho)
    for u in (0.9, 0.5, 0.123, 0.02):
        t = trajectory.sample_jump_time(g, rho, u)
        assert abs(surv(t) - u) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    hst.integers(4, 12),
    hst.floats(1e-6, 1 - 1e-6),
    hst.sampled_from(["e1", "e2", "mixed", "coherent"]),
)
def test_sample_jump_time_near_exceptional_point(k, u, state):
    """H = [[0, h], [h, 0]] with decay diag(2, 1) is defective at h = 1/4;
    near it the eigen expansion of s(t) loses the digits that the
    inversion needs, and the time must still invert the dense survival."""
    h = 0.25 + 10.0 ** -k
    g = -1j * np.array([[0, h], [h, 0]]) - 0.5 * np.diag([2.0, 1.0])
    rho = {
        "e1": np.diag([1.0, 0.0]),
        "e2": np.diag([0.0, 1.0]),
        "mixed": np.diag([0.3, 0.7]),
        "coherent": np.full((2, 2), 0.5),
    }[state].astype(complex)
    t = trajectory.sample_jump_time(g, rho, u)
    e = sla.expm(t * g)
    assert abs(np.trace(e @ rho @ e.conj().T).real - u) <= 1e-10


def _scalar_jump(m, vid, u):
    """The destination and post-jump state that the sampler's scalar loop
    picks at the one-dimensional vertex ``vid`` for the draw ``u``."""
    tab, k = trajectory._tables(m), m.position(vid)
    slot = pick(tab.running[k], tab.esc[k], tab.total[k], u)
    return tab.ids[tab.dst[k][slot]], tab.posts[k][slot]


def test_sample_destination_spin_vertex_one(spin_small):
    tab, k = trajectory._tables(spin_small), spin_small.position(1)
    eta, ks, blk = np.diag([0.0, 1.0]).astype(complex), np.array([k]), tab.blocks[2]
    (slot,), (rho,) = blk.jump(ks, blk.enter(ks, eta[None]), np.array([0.7]))
    assert tab.ids[tab.dst[k][slot]] == 0
    assert rho[0, 0] == pytest.approx(1.0)


def test_sample_destination_spin_vertex_zero(spin_small):
    dst, rho = _scalar_jump(spin_small, 0, 0.2)
    assert dst == 1
    assert_allclose(rho, np.array([[4, 2], [2, 1]]) / 5.0, atol=1e-14)


def test_sample_destination_rates_drift(biased_small):
    # probabilities are 3/4 right and 1/4 left; u below 3/4 goes right
    assert _scalar_jump(biased_small, 0, 0.74)[0] == 1
    assert _scalar_jump(biased_small, 0, 0.76)[0] == -1


def test_simulate_no_jumps_when_all_rates_zero():
    m = classical_embed(np.zeros((2, 2)))
    rec = trajectory.simulate(m, SitedState(0, [[1.0]]), 10.0, seed=1)
    assert rec.jump_count == 0
    assert rec.absorbed


def test_simulate_first_event_from_spin_e2(spin_small):
    init = SitedState(1, np.diag([0.0, 1.0]))
    for k in range(25):
        rec = trajectory.simulate(spin_small, init, 5.0, seed=21, stream=k)
        if rec.events:
            assert rec.events[0].vertex == 0


def test_simulate_first_event_time_is_sample_jump_time():
    # the decay sum R^dag R at vertex 0 is not a multiple of the identity,
    # so both paths invert the survival
    r01 = np.array([[1.0, 0.5], [0.0, 0.3]])
    r10 = np.array([[0.6, 0.0], [0.2j, 0.9]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = build_walk([(0, 2), (1, 2)], [(0, 1, r01), (1, 0, r10)], hamiltonians={0: sx})
    g = m.effective(0)
    gplus = g + g.conj().T
    assert np.linalg.norm(gplus - 0.5 * np.trace(gplus) * np.eye(2)) > 0.1
    rho = random_density(np.random.default_rng(14), 2)
    for stream in range(5):
        rec = trajectory.simulate(m, SitedState(0, rho), 50.0, seed=9, stream=stream)
        u = trajectory_rng(9, stream).random()
        assert rec.events[0].time == trajectory.sample_jump_time(g, rho, u)


def test_simulate_reproducible(two_site):
    init = SitedState(0, [[1.0]])
    a = trajectory.simulate(two_site, init, 25.0, seed=5, stream=3)
    b = trajectory.simulate(two_site, init, 25.0, seed=5, stream=3)
    assert a.jump_count == b.jump_count
    for e1, e2 in zip(a.events, b.events):
        assert e1.time == e2.time and e1.vertex == e2.vertex
        assert np.array_equal(e1.rho, e2.rho)
    c = trajectory.simulate(two_site, init, 25.0, seed=5, stream=4)
    assert any(e1.time != e2.time for e1, e2 in zip(a.events, c.events))


def test_simulate_jump_count_near_rate(two_site):
    init = SitedState(0, [[1.0]])
    n = 3000
    counts = [
        trajectory.simulate(two_site, init, 10.0, seed=31, stream=k).jump_count
        for k in range(n)
    ]
    mean = np.mean(counts)
    # unit-rate clock over [0, 10]: Poisson(10)
    assert abs(mean - 10.0) <= 3.0 * math.sqrt(10.0 / n)


def test_jump_count_bound(coherent, spin_small):
    for m, init in (
        (coherent, SitedState(1, 0.5 * np.eye(2))),
        (spin_small, SitedState(1, 0.5 * np.eye(2))),
    ):
        horizon = 4.0
        n = 800
        counts = [
            trajectory.simulate(m, init, horizon, seed=33, stream=k).jump_count
            for k in range(n)
        ]
        bound = horizon * m.rate_constant
        sd = np.std(counts) / math.sqrt(n)
        assert np.mean(counts) <= bound + 3 * sd + 1e-9


def test_record_invariants(spin_small):
    init = SitedState(1, 0.5 * np.eye(2))
    for k in range(40):
        rec = trajectory.simulate(spin_small, init, 8.0, seed=41, stream=k)
        check_record(spin_small, rec)


def test_escape_recorded_on_boundary(biased_small):
    init = SitedState(7, [[1.0]])
    seen_escape = False
    for k in range(200):
        rec = trajectory.simulate(biased_small, init, 50.0, seed=43, stream=k)
        if rec.escaped_at is not None:
            seen_escape = True
            assert rec.position_at(rec.escaped_at) is None
            assert rec.position_at(rec.escaped_at - 1e-9) is not None
    assert seen_escape


def test_circuit_breaker_on_jump_count(two_site, monkeypatch):
    monkeypatch.setattr(trajectory, "_MAX_JUMPS", 50)
    init = SitedState(0, [[1.0]])
    with pytest.raises(ConvergenceError):
        trajectory.simulate(two_site, init, 1e6, seed=1)


def test_circuit_breaker_on_the_batched_path(two_site, monkeypatch):
    monkeypatch.setattr(trajectory, "_MAX_JUMPS", 50)
    init = SitedState(0, [[1.0]])
    with pytest.raises(ConvergenceError, match="exceeded 50 jumps"):
        trajectory.estimate(two_site, init, 1e6, 3, seed=1,
                            queries=[{"kind": "visits", "vertex": 1}])


# the key's words at the edges of float64's exact integers, of int64 and of uint64
_SEEDS = (0, 1, 13, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1)
_STREAMS = list(range(50)) + [2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1]


def _read(draws: trajectory._Streams, i: int, n: int) -> list[float]:
    """The next ``n`` uniforms of walker ``i``; its buffer never holds more
    than one block."""
    out = []
    for _ in range(n):
        out += draws.draw([i])
        assert len(draws.bufs[i]) <= trajectory._DRAWS
    return out


def test_streams_are_the_keyed_philox_streams():
    # 200 draws per stream take four refills; the streams are read in
    # turns of 50 draws, so refills of different streams interleave
    for seed in _SEEDS:
        draws = trajectory._Streams(seed, _STREAMS)
        got = [[] for _ in _STREAMS]
        for _ in range(4):
            for i, out in enumerate(got):
                out.extend(_read(draws, i, 50))
        for stream, out in zip(_STREAMS, got):
            assert out == trajectory_rng(seed, stream).random(200).tolist(), (seed, stream)


def test_stream_buffer_holds_one_block():
    draws = trajectory._Streams(2**64 - 1, [2**63 + 1])
    assert _read(draws, 0, 10_000) == trajectory_rng(2**64 - 1, 2**63 + 1).random(10_000).tolist()
    assert len(draws.bufs[0]) == trajectory._DRAWS


def test_streams_read_in_threads_are_their_own():
    # each thread refills from its own bit generator; with a short switch
    # interval the threads interleave between setting its state and drawing
    seeds = (0, 2**53 + 1, 2**63, 2**64 - 1)
    streams = _STREAMS[-8:]
    got: dict = {}

    def read(seed):
        draws = trajectory._Streams(seed, streams)
        got[seed] = [_read(draws, i, 300) for i in range(8)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(seed,)) for seed in seeds]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for seed in seeds:
        assert got[seed] == [trajectory_rng(seed, s).random(300).tolist() for s in streams]


def _check_key_range(two_site, seed, stream):
    """Seed and stream outside the key's word range [0, 2**64) raise from
    the streams, ``simulate`` and, for the seed, ``estimate``."""
    init, message = SitedState(0, [[1.0]]), "nonnegative integers below 2\\*\\*64"
    with pytest.raises(PreconditionError, match=message):
        trajectory._Streams(seed, [0, stream])
    with pytest.raises(PreconditionError, match=message):
        trajectory.simulate(two_site, init, 1.0, seed=seed, stream=stream)
    if not 0 <= seed < 2**64:
        with pytest.raises(PreconditionError, match=message):
            trajectory.estimate(two_site, init, 1.0, 3, seed=seed,
                                queries=[{"kind": "visits", "vertex": 1}])


@pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1), (2**40, -(2**40))])
def test_negative_seed_or_stream_is_a_precondition_error(two_site, seed, stream):
    _check_key_range(two_site, seed, stream)


@pytest.mark.parametrize("seed, stream", [(2**64, 0), (0, 2**64), (2**70, 2**64 - 1)])
def test_seed_or_stream_of_2_64_or_more_is_a_precondition_error(two_site, seed, stream):
    _check_key_range(two_site, seed, stream)


def _scalar_tables(edges, escapes):
    """Tables of one-dimensional vertices ``0..n-1``: ``edges[k]`` lists
    ``(destination, weight)`` and ``escapes[k]`` is the escape weight, the
    defect left by the dwell generator ``-(sum of weights + escape) / 2``."""
    n = len(escapes)
    jumps = [(a, b, [[math.sqrt(w)]]) for a, out in enumerate(edges) for b, w in out]
    effective = {k: [[-0.5 * (sum(w for _, w in edges[k]) + escapes[k])]] for k in range(n)}
    return trajectory._Tables(build_walk([(k, 1) for k in range(n)], jumps, effective=effective))


_LAST = 1.0 - 2.0**-53  # the largest double below one
# vertex 0 splits evenly between the absorbing vertices 1 and 2 and has an
# escape weight under _PLATEAU: no escape channel, but a total above the
# last running weight
_GUARD = _scalar_tables([[(1, 0.5), (2, 0.5)], [], []], [1e-15, 0.0, 0.0])
_PAIR = _scalar_tables([[(1, 1.0)], [(0, 1.0)]], [0.0, 0.0])


def _scalar_cases(biased_small):
    edge = trajectory._tables(biased_small)
    yield "zero-draws-skipped", _PAIR, 0, [0.0, 0.0, 0.5, 0.3, 0.0, 0.7, 0.0, 0.2], 50.0, -1
    yield "rounding-guard", _GUARD, 0, [0.5, _LAST, 0.5], 50.0, -1
    yield "escape-at-window-edge", edge, biased_small.position(8), [0.5, _LAST], 50.0, -1
    yield "absorbed-without-jumps-or-escape", _GUARD, 2, [0.5], 50.0, -1
    yield "stop-at", _PAIR, 0, [0.5, 0.5, 0.5, 0.5], 50.0, 1
    yield "horizon", _PAIR, 0, [0.5, 0.5, 0.01, 0.5], 2.0, -1


def _sampled(tab, k0, rho0, init, horizon, seed, streams, stop_at=-1):
    """The records of ``_sample``'s events."""
    ev = trajectory._sample(tab, k0, rho0, horizon, seed, streams, stop_at)
    return trajectory._records(tab.ids, init, horizon, ev)


def _script(monkeypatch, draws):
    """Make every stream read the uniforms of the iterator ``draws()``."""
    size = trajectory._DRAWS

    def block(key, counter):
        start = counter // (size // 4) * size
        return list(itertools.islice(draws(), start, start + size))

    monkeypatch.setattr(trajectory, "_block", block)


def _same_records(a, b):
    assert [(ev.time, ev.vertex) for ev in a.events] == [(ev.time, ev.vertex) for ev in b.events]
    assert [ev.rho.tobytes() for ev in a.events] == [ev.rho.tobytes() for ev in b.events]
    assert (a.absorbed, a.escaped_at) == (b.absorbed, b.escaped_at)


def test_scalar_loop_matches_the_per_walker_oracle(biased_small, monkeypatch):
    cases = list(_scalar_cases(biased_small))
    running, esc = _GUARD.running[0], _GUARD.esc[0]
    assert _LAST * _GUARD.total[0] > running[-1] and esc <= trajectory._PLATEAU
    seen = {}
    for name, tab, k0, script, horizon, stop in cases:
        def scripted():
            return itertools.chain(script, itertools.cycle([0.4, 0.6]))

        _script(monkeypatch, scripted)
        init, rho0 = SitedState(tab.ids[k0], [[1.0]]), np.ones((1, 1), dtype=complex)
        got = _sampled(tab, k0, rho0, init, horizon, 0, [0, 1], stop)
        want = sample_per_walker(tab, k0, rho0, init, horizon, [scripted(), scripted()], stop)
        for a, b in zip(got, want):
            _same_records(a, b)
        seen[name] = got[0]
    assert seen["zero-draws-skipped"].events[0].time == -math.log(0.5)
    # after its odd count of skipped zeros, draw 64 is a jump's: a block ends there
    assert seen["zero-draws-skipped"].jump_count > 32
    assert [ev.vertex for ev in seen["rounding-guard"].events] == [2]
    assert seen["rounding-guard"].absorbed
    edge_rate = trajectory._tables(biased_small).rate[biased_small.position(8)]
    assert seen["escape-at-window-edge"].escaped_at == -math.log(0.5) / edge_rate
    assert seen["absorbed-without-jumps-or-escape"].absorbed
    assert [ev.vertex for ev in seen["stop-at"].events] == [1]
    assert seen["horizon"].events[-1].time < 2.0 and not seen["horizon"].absorbed


def test_scalar_loop_jump_budget_matches_the_oracle(monkeypatch):
    # every wait is log 2, so the horizon admits 50 or 51 jumps
    monkeypatch.setattr(trajectory, "_MAX_JUMPS", 50)
    _script(monkeypatch, lambda: itertools.cycle([0.5]))
    init, rho0 = SitedState(0, [[1.0]]), np.ones((1, 1), dtype=complex)
    horizon = 50.5 * math.log(2.0)
    got = _sampled(_PAIR, 0, rho0, init, horizon, 0, [0])[0]
    _same_records(got, sample_per_walker(_PAIR, 0, rho0, init, horizon, [itertools.cycle([0.5])])[0])
    assert got.jump_count == 50
    horizon += math.log(2.0)
    with pytest.raises(ConvergenceError, match="exceeded 50 jumps"):
        trajectory._sample(_PAIR, 0, rho0, horizon, 0, [0])
    with pytest.raises(ConvergenceError, match="exceeded 50 jumps"):
        sample_per_walker(_PAIR, 0, rho0, init, horizon, [itertools.cycle([0.5])])


@pytest.mark.parametrize("stop_on_return", [False, True])
def test_sampler_matches_the_per_walker_oracle_on_its_streams(stop_on_return):
    cases = list(_equivalence_cases()) + [
        ("two-site", fixtures.two_site_exchange(), SitedState(0, [[1.0]]), 6.0),
    ]
    for name, m, init, horizon in cases:
        tab, k0, rho0 = trajectory._start(m, init, horizon)
        k_stop = k0 if stop_on_return else -1
        streams = range(40)
        got = _sampled(tab, k0, rho0, init, horizon, 23, streams, k_stop)
        draws = [uniforms(trajectory_rng(23, s)) for s in streams]
        for a, b in zip(got, sample_per_walker(tab, k0, rho0, init, horizon, draws, k_stop)):
            _same_records(a, b)


def qutrit_ring(seed: int, sites: int) -> WalkModel:
    """Closed ring of qutrits with jumps to i+1, i-1 and i+2, each site's
    jumps rescaled so that sum R^dag R = diag(0.75, 1, 1.25): the decay is
    state dependent, so the sampler inverts the survival."""
    rng = np.random.default_rng(seed)
    decay_sqrt = np.diag(np.sqrt([0.75, 1.0, 1.25]))

    def gaussian():
        return rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

    jumps, hams = [], {}
    for i in range(sites):
        mats = [gaussian() for _ in range(3)]
        vals, vecs = np.linalg.eigh(sum(m.conj().T @ m for m in mats))
        fix = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T @ decay_sqrt
        for off, m in zip((1, -1, 2), mats):
            jumps.append((i, (i + off) % sites, m @ fix))
        hams[i] = random_hermitian(rng, 3)
    return build_walk([(i, 3) for i in range(sites)], jumps, hamiltonians=hams)


def jordan_vertex_model() -> WalkModel:
    """Vertex 0 has the defective generator [[-1, 1], [0, -1]], so its
    propagator takes the dense exponential; it jumps into a scalar and a
    qubit vertex, and vertex 2 has non-uniform decay."""
    return build_walk(
        [(0, 2), (1, 1), (2, 2)],
        [
            (0, 1, np.array([[1.0, -1.0]])),
            (0, 2, np.eye(2)),
            (1, 0, np.array([[1.0], [0.0]])),
            (2, 0, np.array([[0.0, 0.8], [0.6, 0.0]])),
        ],
        hamiltonians={0: np.array([[0.0, 0.5j], [-0.5j, 0.0]])},
    )


def _equivalence_cases():
    yield "qutrit-ring", qutrit_ring(101, 6), SitedState(0, np.diag([1.0, 0.0, 0.0])), 3.0
    spin = fixtures.spin_biased_line((0, 6))
    yield "spin-biased-line", spin, SitedState(1, np.diag([1.0, 0.0])), 12.0
    yield "biased-line", fixtures.biased_line((-3, 3)), SitedState(0, [[1.0]]), 8.0
    yield "coherent-pair", fixtures.coherent_pair(), SitedState(1, np.diag([1.0, 0.0])), 3.0
    yield "jordan-vertex", jordan_vertex_model(), SitedState(0, np.eye(2) / 2), 2.0


@pytest.mark.parametrize("case", list(_equivalence_cases()), ids=lambda c: c[0])
def test_estimate_records_are_simulate_records(case):
    _, m, init, horizon = case
    n = trajectory._CHUNK + 10  # more than one chunk of walkers
    records = {}

    def keep(first, ev):
        for k, rec in enumerate(trajectory._records(m.ids, init, horizon, ev), first):
            records[k] = rec

    queries = [{"kind": "visits", "vertex": init.vertex}]
    trajectory.estimate(m, init, horizon, n, seed=17, queries=queries, on_chunk=keep)
    assert sorted(records) == list(range(n))
    for k, rec in records.items():
        alone = trajectory.simulate(m, init, horizon, seed=17, stream=k)
        assert [(ev.time, ev.vertex) for ev in rec.events] == [
            (ev.time, ev.vertex) for ev in alone.events
        ]
        assert [ev.rho.tobytes() for ev in rec.events] == [ev.rho.tobytes() for ev in alone.events]
        assert (rec.absorbed, rec.escaped_at) == (alone.absorbed, alone.escaped_at)


@pytest.mark.parametrize("case", ["qutrit-ring", "jordan-vertex"])
def test_long_runs_stay_on_the_reference_stepper(case):
    """Over thousands of events the eigen-coordinate walkers follow the
    rho-space reference stepper on the same draws: the same vertex path,
    times and post-jump states within 1e-10, and every kept state a unit
    trace state to 1e-12."""
    m, init, horizon = {
        "qutrit-ring": (qutrit_ring(101, 6), SitedState(0, np.diag([1.0, 0.0, 0.0])), 2300.0),
        "jordan-vertex": (jordan_vertex_model(), SitedState(0, np.eye(2) / 2), 3200.0),
    }[case]
    tab, k0, rho0 = trajectory._start(m, init, horizon)
    streams = range(2)
    for s, rec in zip(streams, _sampled(tab, k0, rho0, init, horizon, 41, streams)):
        want = reference_walk(m, init.vertex, rho0, horizon, uniforms(trajectory_rng(41, s)))
        assert len(rec.events) >= 2000
        assert [ev.vertex for ev in rec.events] == [v for _, v, _ in want]
        for ev, (t, _, rho) in zip(rec.events, want):
            assert abs(ev.time - t) <= 1e-10
            assert np.abs(ev.rho - rho).max() <= 1e-10
            assert abs(np.trace(ev.rho).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(linalg.herm(ev.rho)).min() >= -1e-12


def test_equivalence_cases_cover_every_branch():
    cases = {name: (m, init, horizon) for name, m, init, horizon in _equivalence_cases()}
    tabs = {name: trajectory._tables(m) for name, (m, _, _) in cases.items()}
    ring = tabs["qutrit-ring"]
    assert all(math.isnan(r) for r in ring.rate)  # every ring vertex inverts its survival
    assert not tabs["jordan-vertex"].blocks[2].prop.diag[0]  # the dense exponential path
    rec = {name: [trajectory.simulate(m, init, horizon, seed=17, stream=k) for k in range(60)]
           for name, (m, init, horizon) in cases.items() if name in ("spin-biased-line", "biased-line")}
    for name in rec:
        assert any(r.escaped_at is not None for r in rec[name]), name


def test_estimate_samples_in_chunks_and_keeps_no_states(two_site, monkeypatch):
    sample = trajectory._sample
    calls = []

    def spy(*args, **kwargs):
        out = sample(*args, **kwargs)
        calls.append((len(args[5]), kwargs["keep_rho"]))
        assert out.time
        if kwargs["keep_rho"]:
            assert len(out.rho) == len(out.time) and all(rho is not None for rho in out.rho)
        else:
            assert out.rho is None
        return out

    records = trajectory._records
    built = []
    monkeypatch.setattr(trajectory, "_sample", spy)
    monkeypatch.setattr(trajectory, "_records", lambda *a: built.append(1) or records(*a))
    init = SitedState(0, [[1.0]])
    n = 2 * trajectory._CHUNK + 1
    queries = [{"kind": "visits", "vertex": 1}]
    trajectory.estimate(two_site, init, 3.0, n, seed=2, queries=queries)
    chunk = trajectory._CHUNK
    assert calls == [(chunk, False), (chunk, False), (1, False)] and not built
    calls.clear()
    firsts = []

    def keep(first, ev):
        firsts.append(first)
        trajectory._records(two_site.ids, init, 3.0, ev)

    trajectory.estimate(two_site, init, 3.0, 3, seed=2, queries=queries, on_chunk=keep)
    assert calls == [(3, True)] and built == [1] and firsts == [0]
    calls.clear()
    trajectory.estimate(two_site, init, 3.0, n, seed=2, queries=queries,
                        on_chunk=lambda first, ev: firsts.append(first))
    assert calls == [(chunk, True), (chunk, True), (1, True)] and firsts == [0, 0, chunk, 2 * chunk]


def test_estimate_rejects_unknown_query(two_site):
    init = SitedState(0, [[1.0]])
    with pytest.raises(PreconditionError):
        trajectory.estimate(two_site, init, 1.0, 10, seed=1,
                            queries=[{"kind": "nonsense"}])


@pytest.mark.parametrize("query", [
    {"kind": "visits", "vertex": 99},
    {"kind": "occupation", "vertex": "1"},
    {"kind": "passage_cdf", "grid": [0.5]},
])
def test_estimate_rejects_query_vertices_not_in_the_model(two_site, query):
    with pytest.raises(ModelError, match="unknown vertex"):
        trajectory.estimate(two_site, SitedState(0, [[1.0]]), 1.0, 10, seed=1, queries=[query])


def test_estimate_rejects_queries_beyond_horizon(two_site):
    init = SitedState(0, [[1.0]])
    with pytest.raises(PreconditionError):
        trajectory.estimate(two_site, init, 1.0, 10, seed=1,
                            queries=[{"kind": "position_law", "t": 2.0}])
    with pytest.raises(PreconditionError):
        trajectory.estimate(two_site, init, 1.0, 10, seed=1,
                            queries=[{"kind": "passage_cdf", "vertex": 0,
                                      "grid": [0.5, 1.5]}])


def test_occupation_and_visits_shrink_to_zero(two_site):
    init = SitedState(0, [[1.0]])
    rec = trajectory.simulate(two_site, init, 1e-6, seed=3)
    assert rec.occupation_time(0) <= 1e-6
    assert rec.occupation_time(1) == 0.0
    assert rec.visit_count(0) == 1
    assert rec.visit_count(1) == 0


def test_occupation_is_exact_dwell_sum(two_site):
    rec = trajectory.simulate(two_site, SitedState(0, [[1.0]]), 12.0, seed=8)
    total = rec.occupation_time(0) + rec.occupation_time(1)
    assert total == pytest.approx(12.0, abs=1e-12)


def test_occupation_ignores_events_from_the_escape_on():
    # hand-built: the events at and after the escape time never happen in a
    # sampled record; the record method and the tally both stop at the first
    events = [(1.0, 1), (2.0, 0), (3.0, 1)]
    rec = trajectory.TrajectoryRecord(SitedState(0, [[1.0]]),
                                      [trajectory.JumpEvent(t, x, None) for t, x in events],
                                      10.0, escaped_at=2.0)
    assert (rec.occupation_time(0), rec.occupation_time(1)) == (1.0, 1.0)
    ev = trajectory._Events([0, 0, 0], [t for t, _ in events], [x for _, x in events], None,
                            [False], [2.0])
    tally = trajectory._Tally(ev, 0, 10.0)
    assert (tally.occupation_time(0).tolist(), tally.occupation_time(1).tolist()) == ([1.0], [1.0])
    # at the escape time the walker is gone
    assert [rec.position_at(t) for t in (0.5, 1.5, 2.0)] == [0, 1, None]
    assert [tally.position_at(t).tolist() for t in (0.5, 1.5, 2.0)] == [[0], [1], [-1]]


def _tally_models():
    rng = np.random.default_rng(19)
    yield random_model(rng, n_vertices=4, max_dim=1)
    yield leaky_variant(rng, random_model(rng, n_vertices=5, max_dim=1))
    yield random_model(rng, n_vertices=3, max_dim=3)
    yield leaky_variant(rng, random_model(rng, n_vertices=4, max_dim=2))


@pytest.mark.parametrize("m", list(_tally_models()), ids=["scalar", "scalar-leaky", "matrix",
                                                          "matrix-leaky"])
def test_estimate_tallies_are_the_record_methods(m, monkeypatch):
    """Every tallied number equals the record methods of ``simulate``, bit
    for bit, over more than one chunk of walkers; the per-trajectory means
    are checked value by value."""
    means = []
    mean_point = trajectory._mean_point
    def spy(label, values):
        means.append(values.tolist())
        return mean_point(label, values)

    monkeypatch.setattr(trajectory, "_mean_point", spy)
    d = m.dim(0)
    init, horizon, n = SitedState(0, np.eye(d) / d), 3.0, trajectory._CHUNK + 50
    times, grid = [0.0, 0.7, horizon], [0.0, 0.5, 1.5, horizon]
    queries = [{"kind": "position_law", "t": t} for t in times]
    for v in m.ids[:2]:
        queries += [{"kind": "passage_cdf", "vertex": v, "grid": grid},
                    {"kind": "occupation", "vertex": v}, {"kind": "visits", "vertex": v}]
    reports = trajectory.estimate(m, init, horizon, n, seed=3, queries=queries)
    recs = [trajectory.simulate(m, init, horizon, seed=3, stream=k) for k in range(n)]
    assert any(rec.escaped_at is not None for rec in recs) == bool(m.meta.get("escaping"))
    want_means = []
    for q, rep in zip(queries, reports):
        got = [(p.label, p.estimate) for p in rep.points]
        if q["kind"] == "position_law":
            at = [rec.position_at(q["t"]) for rec in recs]
            want = [(str(v), at.count(v) / n) for v in m.ids] + [("escaped", at.count(None) / n)]
            assert got == want
        elif q["kind"] == "passage_cdf":
            tau = [rec.first_passage(q["vertex"]) for rec in recs]
            hits = [sum(x is not None and x <= tg for x in tau) for tg in grid]
            assert got == [(f"{tg:g}", k / n) for tg, k in zip(grid, hits)]
        elif q["kind"] == "occupation":
            want_means.append([rec.occupation_time(q["vertex"]) for rec in recs])
        else:
            want_means.append([float(rec.visit_count(q["vertex"])) for rec in recs])
    assert means == want_means


def test_estimate_first_return_cdf(two_site):
    init = SitedState(0, [[1.0]])
    reports = trajectory.estimate(
        two_site, init, 8.0, 20_000, seed=51,
        queries=[{"kind": "passage_cdf", "vertex": 0, "grid": [1.0]}],
    )
    point = reports[0].points[0]
    exact = 1.0 - 2.0 * math.exp(-1.0)
    assert abs(point.estimate - exact) <= 3.0 * point.stderr
    assert point.ci_low <= point.estimate <= point.ci_high


def test_estimate_return_probability_drift(biased_small):
    init = SitedState(0, [[1.0]])
    reports = trajectory.estimate(
        biased_small, init, 60.0, 20_000, seed=52,
        queries=[{"kind": "passage_cdf", "vertex": 0, "grid": [60.0]}],
    )
    point = reports[0].points[0]
    assert abs(point.estimate - 0.5) <= 3.0 * point.stderr + 1e-3


def test_estimate_occupation_and_visits(two_site):
    init = SitedState(0, [[1.0]])
    reports = trajectory.estimate(
        two_site, init, 6.0, 5_000, seed=53,
        queries=[
            {"kind": "occupation", "vertex": 0},
            {"kind": "visits", "vertex": 1},
        ],
    )
    occ = reports[0].points[0]
    # time at 0 is the integral of P(X_t = 0) over the horizon
    expected = 3.0 + 0.25 * (1 - math.exp(-12.0))
    assert abs(occ.estimate - expected) <= 4 * occ.stderr
    # arrivals at 1 happen at unit rate exactly while sitting at 0,
    # so their expectation is the same integral
    visits = reports[1].points[0]
    assert abs(visits.estimate - expected) <= 4 * visits.stderr


def test_survival_ks_on_fixture_vertices(two_site, coherent):
    rng = np.random.default_rng(61)
    for m, vid in ((two_site, 0), (coherent, 1), (coherent, 2)):
        d = m.dim(vid)
        rho = np.eye(d) / d
        surv = trajectory.survival_function(m, vid, rho)
        samples = []
        for _ in range(1500):
            u = rng.uniform()
            t = trajectory.sample_jump_time(m.effective(vid), rho, u)
            samples.append(t)
        res = st.kstest(samples, lambda t: 1.0 - surv(t))
        assert res.pvalue >= 1e-3


def test_law_equivalence_small(coherent):
    init = SitedState(1, 0.5 * np.eye(2))
    n = 8_000
    t = 1.0
    reports = trajectory.estimate(
        coherent, init, 1.5, n, seed=62,
        queries=[{"kind": "position_law", "t": t}],
    )
    emp = {p.label: p.estimate for p in reports[0].points}
    mu0 = sited_block_state(coherent, 1, 0.5 * np.eye(2))
    exact = semigroup.position_distribution(semigroup.evolve(coherent, mu0, t))
    tv = 0.5 * sum(abs(emp[str(k)] - v) for k, v in exact.items())
    bound = 0.5 * sum(math.sqrt(v * (1 - v) / n) for v in exact.values()) + 1.5 / math.sqrt(n)
    assert tv <= bound


def _dark_qubit_model():
    """Vertex 0 is a qubit whose e1 never leaves (a dark state): only its e2
    part jumps to the scalar vertex 1, which jumps back into e2."""
    return build_walk([(0, 2), (1, 1)], [(0, 1, [[0.0, 1.0]]), (1, 0, [[0.0], [1.0]])])


def test_dark_state_at_a_matrix_vertex_is_absorbed_without_events(monkeypatch):
    m = _dark_qubit_model()
    inverted = []
    invert = trajectory._Block.invert
    monkeypatch.setattr(trajectory._Block, "invert",
                        lambda blk, k, rho, u: inverted.append(k.size) or invert(blk, k, rho, u))
    for k in range(5):
        rec = trajectory.simulate(m, SitedState(0, np.diag([1.0, 0.0])), 5.0, seed=3, stream=k)
        assert rec.absorbed and rec.events == [] and rec.escaped_at is None
    assert inverted == [1] * 5  # the survival plateaus at one: no event time at all


def test_dark_state_position_law_matches_evolve():
    m = _dark_qubit_model()
    init, n, t = SitedState(0, np.eye(2) / 2), 4000, 5.0
    reports = trajectory.estimate(m, init, t + 1.0, n, seed=11,
                                  queries=[{"kind": "position_law", "t": t}])
    emp = {p.label: p.estimate for p in reports[0].points}
    mu0 = sited_block_state(m, 0, np.eye(2) / 2)
    exact = semigroup.position_distribution(semigroup.evolve(m, mu0, t))
    # half the mass is dark at 0; the rest hops 0 <-> 1 at rate 1 each way
    assert exact[0] == pytest.approx(0.75 + 0.25 * math.exp(-2 * t), abs=1e-12)
    assert emp["escaped"] == 0.0
    for v, p in exact.items():
        assert abs(emp[str(v)] - p) <= 5 * math.sqrt(p * (1 - p) / n)


# -- the batched step's rules ----------------------------------------------------


def _dissipative(rng, d):
    """A generator with G + G^dag < 0 and no uniform decay."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return -1j * random_hermitian(rng, d) - 0.5 * (a @ a.conj().T + 0.1 * np.eye(d))


def _certify(monkeypatch, blk, gens, k, rho, u, survival):
    """Check every time of ``blk.invert`` against its certificate: it lies in
    the closed-form bracket of its vertex's decay spectrum, with the
    rounding margins of the proof in ``_Block``, and ``survival(k, rho)``
    takes ``u`` there to ``_INV_TOL``.  The plateau test
    (``_Survival.speed``) runs for no walker."""
    checked = []
    speed = trajectory._Survival.speed
    monkeypatch.setattr(trajectory._Survival, "speed",
                        lambda surv, t: checked.append(t.size) or speed(surv, t))
    times = blk.invert(k, blk.enter(k, rho), u)
    assert checked == [] and not np.isnan(times).any()
    eps = np.finfo(float).eps
    for kk, r, uu, t in zip(k.tolist(), rho, u.tolist(), times.tolist()):
        g = gens[kk]
        d = g.shape[0]
        lam = np.linalg.eigvalsh(g + g.conj().T)
        margin = 4 * d * d * eps * np.abs(lam).max()
        c_lo, c_hi = -lam[-1] - margin, margin - lam[0]
        assert -math.log(uu) / c_hi * (1 - 8 * eps) <= t <= -math.log(uu) / c_lo * (1 + 8 * eps)
        assert abs(survival(kk, r)(t) - uu) <= trajectory._INV_TOL


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d", [2, 3, 5])
def test_steep_mask_keeps_every_inverted_time_on_random_generators(monkeypatch, seed, d):
    """Every walker at a steep vertex gets a certified time, with no plateau test."""
    rng = np.random.default_rng(seed)
    gens = [_dissipative(rng, d) for _ in range(6)]
    m = build_walk([(k, d) for k in range(6)], [], effective=dict(enumerate(gens)))
    tab = trajectory._Tables(m)
    blk = tab.blocks[d]
    assert blk.steep.all() and all(math.isnan(r) for r in tab.rate)
    k = rng.integers(0, 6, 300)
    rho = np.stack([random_density(rng, d) for _ in k])
    _certify(monkeypatch, blk, gens, k, rho, 1.0 - rng.random(k.size),
             lambda kk, r: trajectory.survival_function(_lone(gens[kk]), 0, r))


def test_steep_mask_keeps_every_inverted_time_on_the_jordan_vertex(monkeypatch):
    """The same certificate where the survival takes the dense exponential."""
    m = jordan_vertex_model()
    blk = trajectory._tables(m).blocks[2]
    assert blk.steep[[0, 2]].all() and not blk.prop.diag[0]
    rng = np.random.default_rng(5)
    k = rng.choice([0, 2], 200)
    rho = np.stack([random_density(rng, 2) for _ in k])
    _certify(monkeypatch, blk, [m.effective(v) for v in m.ids], k, rho, 1.0 - rng.random(k.size),
             lambda kk, r: trajectory.survival_function(m, m.ids[kk], r))


def test_inversion_takes_at_most_six_survival_passes(monkeypatch):
    """Newton on log s from the initial hazard converges in a few passes of
    the whole batch, extreme draws included."""
    blk = trajectory._tables(qutrit_ring(101, 6)).blocks[3]
    passes = []
    value = trajectory._Survival.value
    monkeypatch.setattr(trajectory._Survival, "value",
                        lambda surv, t, slope=False: passes.append(t.size) or value(surv, t, slope))
    rng = np.random.default_rng(29)
    extreme = [1e-300, 1e-12, 1.0 - 2.0**-53]
    for _ in range(8):
        k = rng.integers(0, 6, 256)
        rho = np.stack([random_density(rng, 3) for _ in k])
        u = 1.0 - rng.random(k.size)
        u[:3] = extreme
        a = blk.enter(k, rho)
        batches = [(k, a, u)] + [(k[:1], a[:1], np.array([x])) for x in extreme]
        for batch in batches:
            passes.clear()
            assert not np.isnan(blk.invert(*batch)).any()
            assert 1 <= len(passes) <= 6


def test_survival_ks_at_inverted_vertices():
    """First-event times at vertices that invert their survival follow
    1 - s(t): those of ``sample_jump_time``, and those of a batched
    ``estimate`` run, which are censored at its horizon and so are compared
    with the law conditioned on an event by then."""
    ring, jordan = qutrit_ring(101, 6), jordan_vertex_model()
    rng = np.random.default_rng(73)
    cases = [(ring, v) for v in ring.ids] + [(jordan, 0), (jordan, 2)]
    for case, (m, vid) in enumerate(cases):
        assert math.isnan(trajectory._tables(m).rate[m.position(vid)])
        rho = random_density(rng, m.dim(vid))
        surv = trajectory.survival_function(m, vid, rho)
        lone = [trajectory.sample_jump_time(m.effective(vid), rho, 1.0 - rng.random())
                for _ in range(600)]
        assert st.kstest(lone, lambda t: 1.0 - surv(t)).pvalue >= 1e-3, (case, "lone")
        init, horizon, first = SitedState(vid, rho), 6.0, []

        def keep(_, ev):
            first.extend(rec.events[0].time for rec in trajectory._records(m.ids, init, horizon, ev)
                         if rec.events)

        trajectory.estimate(m, init, horizon, 600, seed=31 + case,
                            queries=[{"kind": "visits", "vertex": vid}], on_chunk=keep)
        tail = surv(horizon)
        assert len(first) > 500
        res = st.kstest(first, lambda t: (1.0 - surv(t)) / (1.0 - tail))
        assert res.pvalue >= 1e-3, (case, "batched")


def test_steep_mask_leaves_the_plateau_test_to_dark_states():
    blk = trajectory._tables(_dark_qubit_model()).blocks[2]
    assert not blk.steep[0]  # G + G^dag = -diag(0, 1) has a zero eigenvalue


def _jump_tables(rng, d):
    """Vertices 0-3 of dimension ``d`` with 1 to 4 jumps, in turn, into the
    vertices 4-7 of dimensions 1 to 4, and random escape operators: the
    defects of their dwell generators.  The tables, each vertex's jumps as
    ``(destination, R)`` and the escape operators."""
    dests = [1, 2, 3, 4]
    edges = [[(4 + (s + j) % 4, rng.standard_normal((dests[(s + j) % 4], d))
               + 1j * rng.standard_normal((dests[(s + j) % 4], d))) for j in range(s + 1)]
             for s in range(4)]
    gens = {}
    for s in range(4):
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        decay = sum(r.conj().T @ r for _, r in edges[s])
        gens[s] = -1j * random_hermitian(rng, d) - 0.5 * (decay + b @ b.conj().T)
    gens.update({4 + j: -np.eye(dd) for j, dd in enumerate(dests)})
    m = build_walk([(k, d) for k in range(4)] + [(4 + j, dd) for j, dd in enumerate(dests)],
                   [(s, x, r) for s in range(4) for x, r in edges[s]], effective=gens)
    return trajectory._Tables(m), edges, [m.escape_defect(k) for k in range(8)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d", [2, 3])
def test_weights_from_the_intensity_table_are_the_product_traces(seed, d):
    rng = np.random.default_rng(seed)
    tab, edges, escapes = _jump_tables(rng, d)
    blk = tab.blocks[d]
    k = rng.integers(0, 4, 60)
    eta = np.stack([random_density(rng, d) for _ in k])
    running, esc = blk.weights(k, blk.enter(k, eta))
    for j, kk in enumerate(k.tolist()):
        want = np.cumsum([np.trace(r @ eta[j] @ r.conj().T).real for _, r in edges[kk]])
        assert_allclose(running[j, : want.size], want, rtol=1e-13, atol=0)
        assert_allclose(esc[j], np.trace(escapes[kk] @ eta[j]).real, rtol=1e-13, atol=0)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d", [2, 3])
def test_posts_are_the_normalised_products_of_the_chosen_jump(seed, d):
    rng = np.random.default_rng(seed)
    tab, edges, _ = _jump_tables(rng, d)
    blk = tab.blocks[d]
    k = rng.integers(0, 4, 60)
    eta = np.stack([random_density(rng, d) for _ in k])
    slot = np.array([rng.integers(-2, tab.deg[kk]) for kk in k.tolist()])
    posts = blk.posts(k, slot, blk.enter(k, eta))
    # enter, the jump map and to_rho each round in the eigen-coordinates, by
    # about cond(P)^2 eps; COND_LIMIT bounds that at COND_LIMIT^2 eps = 1e-13
    bound = linalg.COND_LIMIT ** 2 * np.finfo(float).eps
    for j, (kk, s) in enumerate(zip(k.tolist(), slot.tolist())):
        if s < 0:
            assert posts[j] is None
            continue
        x, r = edges[kk][s]
        rho = posts[j] if tab.dim[x] == 1 else tab.blocks[tab.dim[x]].to_rho(np.array([x]), posts[j][None])[0]
        want = trajectory._normalised(r @ eta[j] @ r.conj().T)
        assert np.abs(rho - want).max() <= bound
    assert (slot >= 0).any() and (slot < 0).any()


def _same_bits(got, want, where="tables"):
    """``got`` equals ``want`` bit for bit, NaN where NaN: lists, dicts and
    the fields of tables, blocks and propagators entry by entry, arrays by
    dtype, shape, values and whether they are writeable."""
    if isinstance(want, (trajectory._Tables, trajectory._Block, linalg.Propagator)):
        assert type(got) is type(want) and set(vars(got)) == set(vars(want)), where
        for name, value in vars(want).items():
            _same_bits(getattr(got, name), value, f"{where}.{name}")
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key, value in want.items():
            _same_bits(got[key], value, f"{where}[{key!r}]")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for j, (a, b) in enumerate(zip(got, want)):
            _same_bits(a, b, f"{where}[{j}]")
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), where
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert np.array_equal(got, want, equal_nan=want.dtype.kind in "fc"), where
        assert got.flags.writeable == want.flags.writeable, where
    elif isinstance(want, float):
        assert type(got) is float and (got == want or math.isnan(got) and math.isnan(want)), where
    else:
        assert type(got) is type(want) and got == want, where


def _tables_match_the_oracle(m):
    _same_bits(trajectory._Tables(m), sampling_tables_per_vertex(m))


@settings(max_examples=40, deadline=None)
@given(hst.integers(0, 10_000), hst.booleans())
def test_tables_match_the_per_vertex_oracle_on_random_models(seed, leaky):
    """Mixed dimensions, in random order, with and without escape defects."""
    rng = np.random.default_rng(seed)
    m = random_model(rng, max_dim=3)
    _tables_match_the_oracle(leaky_variant(rng, m) if leaky else m)


@pytest.mark.parametrize("name, window", [
    ("two-site-exchange", None), ("coherent-pair", None), ("biased-line", 8),
    ("biased-line", 40), ("spin-biased-line", 8), ("spin-biased-line", 40)])
def test_tables_match_the_per_vertex_oracle_on_the_fixtures(name, window):
    m = fixtures.get_fixture(name, window)
    _tables_match_the_oracle(m)
    _tables_match_the_oracle(model_from_json(m.to_json_dict()))  # G as a file holds it


def test_tables_match_the_per_vertex_oracle_on_the_ring_and_the_jordan_vertex():
    _tables_match_the_oracle(qutrit_ring(101, 6))
    m = jordan_vertex_model()
    _tables_match_the_oracle(m)
    assert not trajectory._Tables(m).blocks[2].prop.diag[0]  # the dense exponential


@pytest.mark.parametrize("g", [[[math.nan]], [[math.inf]], [[-math.inf]],
                               [[-1.0, math.nan], [0.0, -1.0]], [[-1.0, 0.0], [math.inf, -1.0]]])
def test_a_non_finite_generator_is_a_model_error(g):
    g = np.array(g, dtype=complex)
    d = len(g)
    rho = np.eye(d) / d
    with pytest.raises(ModelError, match="NaN or infinite"):
        trajectory.sample_jump_time(g, rho, 0.5)
    zero = np.zeros((d, d), dtype=complex)
    m = model_from_parts([VertexSpace(0, d)], [zero], [g], [zero], {})
    with pytest.raises(ModelError, match="NaN or infinite"):
        trajectory.survival_function(m, 0, rho)


def _escaping_qubit_line():
    """Qubits on the sites 0-2 hopping both ways with non-uniform decay; the
    boundary sites lose the hop out of the window, so they escape."""
    up, down = np.array([[1.0, 0.0], [0.0, 0.5]]), np.array([[0.0, 0.5], [1.0, 0.0]])
    g = -0.5 * (up.T @ up + down.T @ down) - 0.3j * np.array([[0.0, 1.0], [1.0, 0.0]])
    return build_lattice({
        "window": [0, 2], "dim": 2,
        "effective": {"default": matrix_to_json(g)},
        "jumps": [{"offset": 1, "matrix": matrix_to_json(up)},
                  {"offset": -1, "matrix": matrix_to_json(down)}],
    })


def _same_as_the_oracle(m, init, horizon, streams):
    tab, k0, rho0 = trajectory._start(m, init, horizon)
    got = _sampled(tab, k0, rho0, init, horizon, 29, streams)
    draws = [uniforms(trajectory_rng(29, s)) for s in streams]
    for a, b in zip(got, sample_per_walker(tab, k0, rho0, init, horizon, draws)):
        _same_records(a, b)
    return got


def test_escape_by_jump_choice_after_a_matrix_wait_matches_the_oracle():
    m = _escaping_qubit_line()
    tab = trajectory._tables(m)
    assert all(math.isnan(r) for r in tab.rate) and set(tab.dim) == {2}
    got = _same_as_the_oracle(m, SitedState(1, np.diag([0.0, 1.0])), 6.0, range(60))
    assert sum(rec.escaped_at is not None for rec in got) > 10  # slot -1
    assert any(rec.escaped_at is None for rec in got)


def test_scripted_draws_at_matrix_vertices_match_the_oracle(monkeypatch):
    # zero draws are skipped for a wait, not for a jump, and the blocks run
    # out in the batched step too
    def scripted():
        return itertools.chain([0.0, 0.0, 0.5, 0.0, 0.0, 0.7], itertools.cycle([0.4, 0.6, 0.3]))

    _script(monkeypatch, scripted)
    m = jordan_vertex_model()
    tab, k0, rho0 = trajectory._start(m, SitedState(0, np.eye(2) / 2), 80.0)
    init = SitedState(0, rho0)
    got = _sampled(tab, k0, rho0, init, 80.0, 0, [0, 1])
    want = sample_per_walker(tab, k0, rho0, init, 80.0, [scripted(), scripted()])
    for a, b in zip(got, want):
        _same_records(a, b)
    assert got[0].events[0].time == trajectory.sample_jump_time(m.effective(0), rho0, 0.5)
    assert 2 * got[0].jump_count + 4 > 2 * trajectory._DRAWS  # the walker reads three blocks


def test_vanishing_weights_after_a_matrix_wait_match_the_oracle(monkeypatch):
    monkeypatch.setattr(trajectory._Block, "weights",
                        lambda blk, k, eta: (np.zeros((k.size, 1)), np.zeros(k.size)))
    m = jordan_vertex_model()
    got = _same_as_the_oracle(m, SitedState(1, [[1.0]]), 50.0, range(40))
    for rec in got:  # slot -2: absorbed at the first matrix vertex reached
        assert rec.absorbed and [ev.vertex for ev in rec.events] == [0]


@pytest.mark.parametrize("d", [2, 3, 10, 60])
def test_decay_below_the_plateau_is_uniform_decay(d):
    """A decay |G + G^dag|_2 < _PLATEAU that is not a multiple of the
    identity passes the uniform-decay test for d < 100: its rate is at most
    _PLATEAU, so no event ever comes."""
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    decay = a @ a.conj().T
    decay *= 0.9 * trajectory._PLATEAU / np.linalg.norm(decay, 2)
    g = -1j * random_hermitian(rng, d) - 0.5 * decay
    gplus = g + g.conj().T
    assert np.linalg.norm(gplus, 2) < trajectory._PLATEAU
    assert np.linalg.norm(gplus - np.trace(gplus) / d * np.eye(d)) > 0.1 * trajectory._PLATEAU
    rate = trajectory._bare_tables(g).rate[0]
    assert 0.0 <= rate <= trajectory._PLATEAU
    assert trajectory.sample_jump_time(g, random_density(rng, d), 0.5) is None
