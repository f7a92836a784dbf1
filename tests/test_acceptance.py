"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``).  Tolerances are
fixed here, not tuned at runtime.  The Monte Carlo criteria use fixed
seeds, so every run is reproducible.
"""

import math
import time

import numpy as np
import scipy.stats as st

from ctoqw import classify, fixtures, linalg, passage, semigroup, trajectory
from ctoqw.model import SitedState, classical_embed, sited_block_state, validate
from oracles import gamblers_ruin_return, jump_chain_expected_visits, kernels_by_edge
from strategies import random_classical_generator, random_classifiable_model, random_density


def _report(criterion: int, ok: bool, detail: str, t0: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} [{time.time() - t0:.1f}s] {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_fixture_trichotomy():
    t0 = time.time()
    checks = []

    rep1 = classify.classify_trichotomy(fixtures.two_site_exchange(), 0)
    checks.append(rep1.case == classify.RECURRENT)
    checks.append(abs(rep1.spectral_radius - 1.0) <= 1e-8)

    rep2 = classify.classify_trichotomy(fixtures.biased_line((-30, 30)), 0)
    checks.append(rep2.case == classify.TRANSIENT_UNIFORM)
    checks.append(abs(rep2.spectral_radius - 0.5) <= 1e-6)

    rep3 = classify.classify_trichotomy(fixtures.spin_biased_line((0, 30)), 1)
    checks.append(rep3.case == classify.TRANSIENT_QUANTUM)
    checks.append(abs(rep3.return_spectrum[-1] - 1.0) <= 1e-6)
    checks.append(
        np.linalg.norm(rep3.exhibit_state - np.diag([0.0, 1.0])) <= 1e-6
    )

    detail = (
        f"cases=({rep1.case},{rep2.case},{rep3.case}) "
        f"lambda=({rep1.spectral_radius:.2e} vs 1, {rep2.spectral_radius:.8f} vs 0.5) "
        f"maxM={rep3.return_spectrum[-1]:.10f}"
    )
    _report(1, all(checks), detail, t0)


def test_criterion_2_sure_return_case_three():
    t0 = time.time()
    m = fixtures.spin_biased_line((0, 30))
    p11, _ = passage.first_passage_map(m, 1, 1)
    sure = passage.reach_probability(p11, np.diag([0.0, 1.0]))
    unsure = passage.reach_probability(p11, np.diag([1.0, 0.0]))

    n = 100_000
    hits = 0
    init = SitedState(1, np.diag([1.0, 0.0]))
    for k in range(n):
        rec = trajectory.simulate(m, init, 150.0, seed=202, stream=k, stop_at=1)
        if rec.first_passage(1) is not None:
            hits += 1
    mc = hits / n
    se = math.sqrt(mc * (1 - mc) / n)

    checks = [
        abs(sure - 1.0) <= 1e-6,
        unsure < 1.0 - 1e-3,
        abs(unsure - mc) <= 3.0 * se,
    ]
    detail = f"sure={sure:.9f} unsure={unsure:.6f} mc={mc:.6f}+-{se:.6f}"
    _report(2, all(checks), detail, t0)


def test_criterion_3_irreducibility_split():
    t0 = time.time()
    m = fixtures.coherent_pair()
    cont = classify.check_irreducible(m)
    disc = classify.check_discrete_irreducible(m)
    checks = [cont.irreducible, not disc.irreducible]
    detail = f"continuous={cont.irreducible} discrete={disc.irreducible}"
    _report(3, all(checks), detail, t0)


def test_criterion_4_classical_closed_forms():
    t0 = time.time()
    m = fixtures.biased_line((-30, 30))
    occ = passage.expected_occupation(m, 0, 0, [[1.0]])
    p00, _ = passage.first_passage_map(m, 0, 0)
    ret = passage.reach_probability(p00, [[1.0]])
    # the independent oracles: gambler's ruin and the embedded jump chain
    oracle_ret = gamblers_ruin_return(0.75)
    oracle_occ = jump_chain_expected_visits(m, 0)

    two = fixtures.two_site_exchange()
    n = 100_000
    taus = []
    init = SitedState(0, [[1.0]])
    for k in range(n):
        rec = trajectory.simulate(two, init, 60.0, seed=404, stream=k, stop_at=0)
        tau = rec.first_passage(0)
        if tau is not None:
            taus.append(tau)
    ks = st.kstest(taus, st.gamma(a=2.0).cdf)

    checks = [
        abs(occ - 2.0) <= 1e-6,
        abs(ret - 0.5) <= 1e-6,
        abs(oracle_ret - 0.5) <= 1e-12,
        abs(occ - oracle_occ) <= 1e-8,
        len(taus) == n,
        ks.pvalue >= 1e-3,
    ]
    detail = f"occ={occ:.9f} ret={ret:.9f} ks_p={ks.pvalue:.4f}"
    _report(4, all(checks), detail, t0)


def test_criterion_5_law_equivalence():
    t0 = time.time()
    n = 100_000
    grid = (0.5, 1.0, 2.0)
    checks = []
    details = []
    for m, start_vertex in (
        (fixtures.coherent_pair(), 1),
        (fixtures.spin_biased_line((0, 30)), 1),
    ):
        rho0 = 0.5 * np.eye(2)
        init = SitedState(start_vertex, rho0)
        reports = trajectory.estimate(
            m, init, 2.0 + 1e-9, n, seed=505,
            queries=[{"kind": "position_law", "t": t} for t in grid],
        )
        gen = semigroup.build_block_generator(m)
        mu0 = sited_block_state(m, start_vertex, rho0)
        for rep, t in zip(reports, grid):
            exact = semigroup.position_distribution(
                semigroup.evolve(m, mu0, t, generator=gen)
            )
            emp = {p.label: p.estimate for p in rep.points}
            tv = 0.5 * sum(abs(emp[str(k)] - v) for k, v in exact.items())
            tv += 0.5 * emp.get("escaped", 0.0)
            bound = 0.5 * sum(
                math.sqrt(v * (1 - v) / n) for v in exact.values()
            ) + 1.5 / math.sqrt(n)
            checks.append(tv <= bound)
            details.append(f"{m.meta.get('name')}@t={t}: tv={tv:.5f}<=b={bound:.5f}")
    _report(5, all(checks), "; ".join(details), t0)


def test_criterion_6_dyson_oracle():
    t0 = time.time()
    checks = []
    details = []
    cases = [
        (fixtures.two_site_exchange(), 0, [[1.0]], 8),
        (fixtures.coherent_pair(), 1, 0.5 * np.eye(2), 8),
        (fixtures.biased_line((-30, 30)), 0, [[1.0]], 6),
        (fixtures.spin_biased_line((0, 30)), 1, 0.5 * np.eye(2), 6),
    ]
    for m, v0, rho0, q in cases:
        c = m.rate_constant
        t = min(1.0, 1.0 / c)  # keeps C * t <= 1
        mu = sited_block_state(m, v0, rho0)
        approx, rem = semigroup.dyson_partial(m, mu, t, 6, quad_points=q)
        exact = semigroup.evolve(m, mu, t)
        l1 = 0.0
        for k in exact.blocks:
            diff = np.atleast_2d(approx.blocks[k] - exact.blocks[k])
            l1 += float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
        checks.append(l1 <= rem + 1e-6)
        details.append(f"{m.meta.get('name')}: l1={l1:.2e} rem={rem:.2e}")
    _report(6, all(checks), "; ".join(details), t0)


def test_criterion_7_survival_law():
    t0 = time.time()
    rng = np.random.default_rng(707)
    n = 1000
    worst = 1.0
    ok = True
    models = [
        fixtures.two_site_exchange(),
        fixtures.coherent_pair(),
        fixtures.biased_line((-30, 30)),
        fixtures.spin_biased_line((0, 30)),
    ]
    for m in models:
        for v in m.vertices:
            rho = np.eye(v.dim) / v.dim
            surv = trajectory.survival_function(m, v.id, rho)
            samples = []
            for _ in range(n):
                t = trajectory.sample_jump_time(
                    m.effective(v.id), rho, float(rng.uniform())
                )
                samples.append(t)
            res = st.kstest(samples, lambda x: 1.0 - surv(x))
            worst = min(worst, res.pvalue)
            ok = ok and res.pvalue >= 1e-3
    _report(7, ok, f"min KS p-value over all fixture vertices = {worst:.5f}", t0)


def test_criterion_8_structural_suite():
    t0 = time.time()
    checks = []
    details = []

    # zero-sum identity on closed fixtures and on 50 random (H, R) models
    from strategies import random_model

    rng = np.random.default_rng(808)
    zs_worst = 0.0
    closed = [fixtures.two_site_exchange(), fixtures.coherent_pair()]
    for m in closed + [random_model(rng) for _ in range(50)]:
        for v in m.vertices:
            g = m.effective(v.id)
            decay = sum(
                (r.conj().T @ r for _, r in m.out_edges(v.id)),
                np.zeros((v.dim, v.dim), dtype=complex),
            )
            zs_worst = max(zs_worst, float(np.linalg.norm(g + g.conj().T + decay, 2)))
    checks.append(zs_worst <= 1e-10)
    details.append(f"zero_sum<={zs_worst:.1e}")

    # complete positivity certificates of the passage maps on the fixtures
    cp_worst = 0.0
    for m, i in (
        (fixtures.two_site_exchange(), 0),
        (fixtures.biased_line((-30, 30)), 0),
        (fixtures.spin_biased_line((0, 30)), 1),
        (fixtures.coherent_pair(), 1),
    ):
        p, _ = passage.first_passage_map(m, i, i)
        cp_worst = min(cp_worst, p.choi_min_eigenvalue())
    checks.append(cp_worst >= -1e-9)
    details.append(f"choi_min={cp_worst:.1e}")

    # monotone bounded partial sums of the return map image
    m = fixtures.spin_biased_line((0, 30))
    kernels = passage.jump_kernel(m)
    taboo = passage._taboo_kernel(m, 1, kernels)
    start = np.zeros((taboo.dim, 4), dtype=complex)
    for (src, dst), ker in kernels_by_edge(m, kernels).items():
        a, b = taboo.starts[m.position(dst):][:2]
        if src == 1 and b > a:
            start[a:b, :] += ker.matrix
    rho = random_density(rng, 2)
    acc = np.zeros((4, 4), dtype=complex)
    carry = start.copy()
    traces = []
    for _ in range(300):
        acc = acc + taboo.into_taboo @ carry
        carry = taboo.matrix @ carry
        traces.append(float(np.trace(linalg.unvec(acc @ linalg.vec(rho), (2, 2))).real))
    diffs = np.diff(traces)
    checks.append(bool(np.all(diffs >= -1e-12) and traces[-1] <= 1.0 + 1e-9))
    details.append(f"series_max={traces[-1]:.9f}")

    # Lyapunov residuals on random stable generators
    ly_worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g = g - (np.max(np.linalg.eigvals(g).real) + 0.5) * np.eye(d)
        x = random_density(rng, d)
        y = passage.dwell_integral(g, x)
        res = np.linalg.norm(g @ y + y @ g.conj().T + x) / (1 + np.linalg.norm(x))
        ly_worst = max(ly_worst, float(res))
    checks.append(ly_worst <= 1e-10)
    details.append(f"lyapunov<={ly_worst:.1e}")

    # trichotomy exclusivity over 200 random models, scalar ones never
    # land in the sure-return class
    cases = {classify.RECURRENT: 0, classify.TRANSIENT_UNIFORM: 0, classify.TRANSIENT_QUANTUM: 0}
    exclusive = True
    for k in range(150):
        mdl = random_classifiable_model(rng)
        rep = classify.classify_trichotomy(mdl)
        cases[rep.case] += 1
        lam_ok = rep.spectral_radius >= 1.0 - rep.eps_spec
        exclusive &= (rep.case == classify.RECURRENT) == lam_ok
    scalar_quantum = 0
    scalar_seen = 0
    while scalar_seen < 50:
        q = random_classical_generator(rng)
        mdl = classical_embed(q)
        if not all(mdl.is_escaping(v.id) for v in mdl.vertices):
            continue
        if not classify.check_irreducible(mdl).irreducible:
            continue
        rep = classify.classify_trichotomy(mdl)
        cases[rep.case] += 1
        scalar_seen += 1
        if rep.case == classify.TRANSIENT_QUANTUM:
            scalar_quantum += 1
    checks.append(exclusive)
    checks.append(scalar_quantum == 0)
    details.append(f"cases={cases} scalar_quantum={scalar_quantum}")

    _report(8, all(checks), "; ".join(details), t0)


def test_fixture_models_validate():
    # not a numbered criterion, but every fixture must pass its own checks
    for name in fixtures.FIXTURES:
        m = fixtures.get_fixture(name)
        assert validate(m).ok
