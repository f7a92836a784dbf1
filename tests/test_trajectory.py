import math

import numpy as np
import pytest
import scipy.stats as st
from numpy.testing import assert_allclose

from ctoqw import semigroup, trajectory
from ctoqw.errors import PreconditionError
from ctoqw.model import SitedState, build_walk, classical_embed, sited_block_state
from oracles import rk4_dwell
from strategies import random_density, random_model


def test_dwell_evolution_scalar():
    eta, s = trajectory.dwell_evolution([[-0.5]], [[1.0]], 1.0)
    assert eta[0, 0] == pytest.approx(1.0)
    assert s == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_dwell_evolution_absorbing():
    rho = np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex)
    eta, s = trajectory.dwell_evolution(np.zeros((2, 2)), rho, 3.0)
    assert_allclose(eta, rho, atol=1e-14)
    assert s == pytest.approx(1.0)


def test_dwell_evolution_uniform_decay(spin_small):
    g = spin_small.effective(1)
    rho = np.diag([0.0, 1.0]).astype(complex)
    eta, s = trajectory.dwell_evolution(g, rho, 2.0)
    assert_allclose(eta, rho, atol=1e-13)
    assert s == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_dwell_evolution_matches_rk4_oracle():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g = g - (np.max(np.linalg.eigvals(g).real) + 0.4) * np.eye(2)
    rho = random_density(rng, 2)
    eta, _ = trajectory.dwell_evolution(g, rho, 0.8)
    oracle = rk4_dwell(g, rho, 0.8)
    assert np.linalg.norm(eta - oracle) < 1e-8


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
    surv = trajectory.survival_from_generator(g, rho)
    for u in (0.9, 0.5, 0.123, 0.02):
        t = trajectory.sample_jump_time(g, rho, u)
        assert abs(surv(t) - u) <= 1e-12


def test_sample_destination_spin_vertex_one(spin_small):
    dst, rho = trajectory.sample_destination(spin_small, 1, np.diag([0.0, 1.0]), 0.7)
    assert dst == 0
    assert rho[0, 0] == pytest.approx(1.0)


def test_sample_destination_spin_vertex_zero(spin_small):
    dst, rho = trajectory.sample_destination(spin_small, 0, [[1.0]], 0.2)
    assert dst == 1
    assert_allclose(rho, np.array([[4, 2], [2, 1]]) / 5.0, atol=1e-14)


def test_sample_destination_rates_drift(biased_small):
    # probabilities are 3/4 right and 1/4 left; u below 3/4 goes right
    dst, _ = trajectory.sample_destination(biased_small, 0, [[1.0]], 0.74)
    assert dst == 1
    dst, _ = trajectory.sample_destination(biased_small, 0, [[1.0]], 0.76)
    assert dst == -1


def test_sample_destination_zero_rate_raises(two_site):
    m = classical_embed(np.zeros((2, 2)))
    with pytest.raises(PreconditionError):
        trajectory.sample_destination(m, 0, [[1.0]], 0.5)


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
        u = trajectory.trajectory_rng(9, stream).random()
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
        trajectory.check_record(spin_small, rec)


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


def test_circuit_breaker_on_jump_count(two_site):
    from ctoqw.errors import ConvergenceError

    init = SitedState(0, [[1.0]])
    with pytest.raises(ConvergenceError):
        trajectory.simulate(two_site, init, 1e6, seed=1, max_jumps=50)


def test_estimate_rejects_unknown_query(two_site):
    init = SitedState(0, [[1.0]])
    with pytest.raises(PreconditionError):
        trajectory.estimate(two_site, init, 1.0, 10, seed=1,
                            queries=[{"kind": "nonsense"}])


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
