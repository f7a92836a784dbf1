import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ctoqw import classify, cli, fixtures, linalg, passage, semigroup, trajectory
from ctoqw.errors import ModelError, PreconditionError
from ctoqw.model import SitedState, build_walk
from ctoqw.superop import SuperOp
from oracles import (
    dwell_integral_oracle,
    gamblers_ruin_return,
    jump_chain_expected_visits,
    jump_chain_hit_probability,
    jump_kernel_per_edge,
    kernels_by_edge,
    occupation_dense_radius,
    one_step_kernel_per_edge,
    passage_partial_oracle,
    real_block_generator_per_vertex,
    taboo_kernel_per_edge,
)
from strategies import (
    leaky_variant,
    qudit_ring,
    random_classifiable_model,
    random_density,
    random_model,
)


def test_path_operator_scalar_two_site(two_site):
    op = passage.path_operator(two_site, [0, 1], [1.0])
    assert op[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-14)


def test_path_operator_empty_path_is_identity(coherent):
    assert_allclose(passage.path_operator(coherent, [1], []), np.eye(2))


def test_path_operator_spin_first_leg(spin_small):
    t1 = 0.7
    op = passage.path_operator(spin_small, [0, 1], [t1])
    expected = math.exp(-t1 / 2.0) * np.array([[2.0], [1.0]]) / math.sqrt(5.0)
    assert_allclose(op, expected, atol=1e-14)


def test_path_operator_missing_jump_raises(two_site):
    with pytest.raises(ModelError):
        passage.path_operator(two_site, [0, 0], [1.0])


def test_propagated_path_operator(two_site):
    op = passage.propagated_path_operator(two_site, [0, 1], [1.0], 2.5)
    assert op[0, 0] == pytest.approx(math.exp(-0.5) * math.exp(-0.75), abs=1e-14)


def test_dwell_integral_scalar():
    y = passage.dwell_integral([[-0.5]], [[1.0]])
    assert y[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_dwell_integral_uniform_decay(spin_small):
    rho = random_density(np.random.default_rng(1), 2)
    y = passage.dwell_integral(spin_small.effective(1), rho)
    assert_allclose(y, rho, atol=1e-12)


def test_dwell_integral_coherent_trace(coherent):
    g = coherent.effective(1)
    y = passage.dwell_integral(g, np.eye(2))
    res = np.linalg.norm(g @ y + y @ g.conj().T + np.eye(2))
    assert res < 1e-12
    assert np.trace(y).real == pytest.approx(2.0, abs=1e-12)
    assert_allclose(y, dwell_integral_oracle(g, np.eye(2)), atol=1e-8)


def test_dwell_integral_divergent_raises():
    with pytest.raises(PreconditionError) as err:
        passage.dwell_integral(np.array([[1j]]), [[1.0]])
    assert "eigenvalue" in str(err.value)


def test_jump_kernel_two_site(two_site):
    kernels = kernels_by_edge(two_site, passage.jump_kernel(two_site))
    j01 = kernels[(0, 1)]
    assert j01.apply([[1.0]])[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_jump_kernel_drift_weights(biased_small):
    kernels = kernels_by_edge(biased_small, passage.jump_kernel(biased_small))
    assert kernels[(0, 1)].apply([[1.0]])[0, 0] == pytest.approx(0.75, abs=1e-12)
    assert kernels[(0, -1)].apply([[1.0]])[0, 0] == pytest.approx(0.25, abs=1e-12)


def test_jump_kernel_cp_and_substochastic(spin_small):
    kernels = kernels_by_edge(spin_small, passage.jump_kernel(spin_small))
    rho = random_density(np.random.default_rng(2), 2)
    total = 0.0
    for (src, dst), ker in kernels.items():
        assert ker.choi_min_eigenvalue() >= -1e-9
        if src == 1:
            total += float(np.trace(ker.apply(rho)).real)
    assert total <= 1.0 + 1e-9


def test_jump_kernel_built_once_per_model(monkeypatch):
    walk = fixtures.biased_line((-4, 4))
    build = passage.jump_kernel
    builds = []
    monkeypatch.setattr(passage, "jump_kernel", lambda m: builds.append(m) or build(m))
    classify.classify_trichotomy(walk, 0)
    passage.first_passage_map(walk, 1, 0)
    passage.expected_occupation(walk, 1, 0, [[1.0]])
    assert builds == [walk]
    cached = walk.derived("jump_kernel", passage.jump_kernel)
    assert len(cached) == len(walk.jump_stacks)
    assert not any(stack.flags.writeable for stack in cached)
    with pytest.raises(ValueError):
        cached[0][0, 0, 0] = 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_stacked_assembly_equals_per_vertex_oracles_on_random_models(seed):
    rng = np.random.default_rng(seed)
    m = random_model(rng, n_vertices=int(rng.integers(2, 9)), max_dim=4)
    if rng.random() < 0.5:
        m = leaky_variant(rng, m)  # an escape defect at one vertex
    assert np.array_equal(
        semigroup.build_block_generator(m).matrix, real_block_generator_per_vertex(m)
    )
    assume(all(m.is_escaping(v.id) for v in m.vertices))
    kernels, oracle = kernels_by_edge(m, passage.jump_kernel(m)), jump_kernel_per_edge(m)
    assert list(kernels) == list(oracle)
    for edge, mat in oracle.items():
        ker = kernels[edge]
        assert (ker.source_dim, ker.target_dim) == (m.dim(edge[0]), m.dim(edge[1]))
        assert np.max(np.abs(ker.matrix - mat)) <= 1e-15


@pytest.mark.parametrize(
    "name, window", [("biased-line", 20), ("spin-biased-line", 40), ("two-site-exchange", None),
                     ("coherent-pair", None)]
)
def test_stacked_assembly_is_exact_on_fixtures(name, window):
    m = fixtures.get_fixture(name, window)
    kernels, oracle = kernels_by_edge(m, passage.jump_kernel(m)), jump_kernel_per_edge(m)
    assert list(kernels) == list(oracle)
    assert all(np.array_equal(kernels[e].matrix, mat) for e, mat in oracle.items())
    assert np.array_equal(semigroup.build_block_generator(m).matrix, real_block_generator_per_vertex(m))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_taboo_assembly_equals_per_edge_oracle_on_random_models(seed):
    # every taboo kernel, its exit into the taboo vertex, every entry block
    # and the one-step kernel, each equal to the one built edge by edge
    rng = np.random.default_rng(seed)
    m = random_model(rng, n_vertices=int(rng.integers(2, 9)), max_dim=4)
    if rng.random() < 0.5:
        m = leaky_variant(rng, m)
    assume(all(m.is_escaping(v.id) for v in m.vertices if m.out_edges(v.id)))
    kernels = passage.jump_kernel(m)
    for j in m.ids:
        matrix, into, entries = taboo_kernel_per_edge(m, j)
        taboo = passage._taboo_kernel(m, j, kernels)
        assert np.array_equal(taboo.matrix.toarray(), matrix)
        assert np.array_equal(taboo.into_taboo, into)
        for i in m.ids:
            block = passage._entry_block(m, i, taboo, kernels)
            assert (block is None) == (entries[i] is None)
            assert block is None or np.array_equal(block, entries[i])
    factor, seen = passage.factor_kernel, []
    with mock.patch.object(passage, "factor_kernel", lambda k, o: seen.append(k) or factor(k, o)):
        passage.one_step_green(m)
    assert len(seen) == 1 and np.array_equal(seen[0].toarray(), one_step_kernel_per_edge(m))


def test_jump_kernel_one_dwell_call_per_dimension(monkeypatch):
    dwell = linalg.lyapunov_dwell
    sizes = []
    monkeypatch.setattr(linalg, "lyapunov_dwell", lambda g, **kw: sizes.append(g.shape) or dwell(g, **kw))
    walk = fixtures.biased_line((-500, 500))
    assert len(walk.vertices) == 1001
    kernels = passage.jump_kernel(walk)
    assert sizes == [(1001, 1, 1)] and sum(len(stack) for stack in kernels) == 2000
    sizes.clear()
    mixed = random_model(np.random.default_rng(3), n_vertices=8, max_dim=3)
    dims = [v.dim for v in mixed.vertices]
    passage.jump_kernel(mixed)
    assert sorted(sizes) == sorted((dims.count(d), d, d) for d in set(dims))


def test_jump_kernel_names_the_non_escaping_vertex():
    walk = build_walk([(0, 1), (1, 1), (2, 1)], [(0, 1, [[1.0]]), (1, 0, [[1.0]]), (2, 0, [[1.0]])],
                      effective={1: [[0.5j]]})
    with pytest.raises(PreconditionError, match=r"^dwell generator at vertex 1 is not escaping"):
        passage.jump_kernel(walk)


def test_first_passage_two_site_certain(two_site):
    p, diag = passage.first_passage_map(two_site, 0, 0)
    assert p.apply([[1.0]])[0, 0].real == pytest.approx(1.0, abs=1e-12)
    # the taboo kernel is zero: X = Y = 1 certifies rho <= 1 - y_min / x_max = 0
    assert diag["method"] == "solve" and diag["certified"]
    assert (diag["kernel_dim"], diag["kernel_nnz"]) == (1, 0)
    assert diag["x_min"] == diag["x_max"] == diag["y_min"] == pytest.approx(1.0, abs=1e-15)


def test_first_passage_drift_return(biased_small):
    p, _ = passage.first_passage_map(biased_small, 0, 0)
    got = passage.reach_probability(p, [[1.0]])
    oracle = jump_chain_hit_probability(biased_small, 0, 0)
    assert got == pytest.approx(oracle, abs=1e-10)
    assert got == pytest.approx(gamblers_ruin_return(0.75), abs=1e-4)


def test_first_passage_spin_sure_and_unsure(spin_small):
    p, _ = passage.first_passage_map(spin_small, 1, 1)
    assert passage.reach_probability(p, np.diag([0.0, 1.0])) == pytest.approx(
        1.0, abs=1e-9
    )
    # window 8 truncates the tail, biasing the through-tail branch down
    v = passage.reach_probability(p, np.diag([1.0, 0.0]))
    assert v == pytest.approx(1.0 / 3.0, abs=2e-3)
    assert v < 1.0 - 1e-3


def _closed_class_walk():
    """Scalar walk 0 -> 1 (rate 1), 0 -> 2 (rate 3), 1 -> 0, and the closed
    class 2 <-> 3: the class cannot reach 0, so the taboo kernel of 0 keeps
    vertex 1 alone, and a walker leaving 0 returns exactly when it first
    goes to 1."""
    return build_walk(
        [(v, 1) for v in range(4)],
        [(0, 1, [[1.0]]), (0, 2, [[math.sqrt(3.0)]]), (1, 0, [[1.0]]),
         (2, 3, [[1.0]]), (3, 2, [[1.0]])],
    )


def test_first_passage_leaves_out_a_closed_class():
    p, diag = passage.first_passage_map(_closed_class_walk(), 0, 0)
    assert diag["method"] == "solve" and diag["certified"] and diag["kernel_dim"] == 1
    assert abs(p.matrix[0, 0] - 0.25) < 1e-12


def test_first_passage_leaves_out_a_closed_class_from_a_qubit():
    # _closed_class_walk with a qubit at 0: the |+> part of the state leaves
    # towards 1 (rate 1) and comes back in the state a a^dag, the |-> part
    # leaves towards the closed class (rate 3) and never returns
    plus, minus = np.array([1.0, 1.0]) / math.sqrt(2.0), np.array([1.0, -1.0]) / math.sqrt(2.0)
    a = np.array([[0.6], [0.8]])
    m = build_walk(
        [(0, 2)] + [(v, 1) for v in range(1, 4)],
        [(0, 1, plus[None, :]), (0, 2, math.sqrt(3.0) * minus[None, :]), (1, 0, a),
         (2, 3, [[1.0]]), (3, 2, [[1.0]])],
    )
    p, diag = passage.first_passage_map(m, 0, 0)
    assert diag["method"] == "solve" and diag["certified"] and diag["kernel_dim"] == 1
    # P(rho) = <+|rho|+> a a^dag, so its matrix is vec(a a^dag) vec(|+><+|)^dag
    want = np.outer(linalg.vec(a @ a.T), linalg.vec(np.outer(plus, plus)))
    assert_allclose(p.matrix, want, atol=1e-12)
    assert passage.reach_probability(p, np.outer(plus, plus)) == pytest.approx(1.0, abs=1e-12)
    assert passage.reach_probability(p, np.diag([1.0, 0.0])) == pytest.approx(0.5, abs=1e-12)


def test_trivial_map_and_empty_taboo_kernel():
    # vertex 1 has no outgoing jump: nothing leaves it, and the taboo kernel
    # of 0 has no active vertex at all
    m = build_walk([(0, 1), (1, 1)], [(0, 1, [[1.0]])])
    p, diag = passage.first_passage_map(m, 1, 0)
    assert diag == {"method": "trivial"}
    assert passage.with_certificates(p, diag) == diag
    assert not p.matrix.any()
    p, diag = passage.first_passage_map(m, 0, 0)
    assert diag["method"] == "solve" and diag["kernel_dim"] == 0 and diag["certified"]
    assert not p.matrix.any()  # no walker comes back to 0
    assert passage.expected_occupation(m, 0, 0, [[1.0]]) == pytest.approx(1.0, abs=1e-12)


def test_one_tolerance_switches_every_certificate(monkeypatch):
    # A passage tolerance above every certificate margin of the model turns
    # the passage map, the occupation and the return scan into errors,
    # together.  The leaky walk 0 -> 1 -> 0 (1 keeps half its mass) has a
    # zero taboo kernel, which certifies at any tolerance below 1, so there
    # the tolerance turns the occupation infinite.
    from ctoqw.errors import ConvergenceError

    m = fixtures.biased_line((-8, 8))
    leaky = build_walk(
        [(0, 1), (1, 1)], [(0, 1, [[1.0]]), (1, 0, [[math.sqrt(0.5)]])],
        effective={0: [[-0.5]], 1: [[-0.5]]},
    )
    assert passage.first_passage_map(m, 0, 0)[1]["method"] == "solve"
    assert passage.expected_occupation(m, 0, 0, [[1.0]]) == pytest.approx(2.0, abs=0.1)
    assert passage.expected_occupation(leaky, 0, 0, [[1.0]]) == pytest.approx(2.0, abs=1e-12)
    passage.return_operators(m)
    monkeypatch.setattr(passage, "TOL", 0.99)
    with pytest.raises(ConvergenceError, match=r"no Green certificate of rho\(T\)"):
        passage.first_passage_map(m, 0, 0)
    with pytest.raises(ConvergenceError, match=r"no Green certificate of rho\(T\)"):
        passage.expected_occupation(m, 0, 0, [[1.0]])
    assert passage.first_passage_map(leaky, 0, 0)[1]["certified"]
    assert passage.expected_occupation(leaky, 0, 0, [[1.0]]) == math.inf
    with pytest.raises(ConvergenceError, match=r"no Green certificate of rho\(Q\)"):
        passage.return_operators(m)


def test_return_scan_keeps_no_solve_result_alive():
    # Each G_vv block is copied out of its batch's (n, width) solve result.
    # A view would keep every result alive until the blocks are stacked:
    # n^2 * 16 bytes, about 244 MiB at 4,001 sites.
    import tracemalloc

    m = fixtures.biased_line((-2000, 2000))
    tracemalloc.start()
    try:
        passage.return_operators(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_first_passage_cp_certificates(two_site, biased_small, spin_small, coherent):
    cases = [(two_site, 0, 0), (biased_small, 0, 0), (spin_small, 1, 1), (coherent, 1, 1)]
    for m, i, j in cases:
        p, diag = passage.first_passage_map(m, i, j)
        assert p.choi_min_eigenvalue() >= -1e-9
        assert p.trace_increase_defect() <= 1e-9


def test_partial_sums_monotone_bounded(spin_small):
    kernels = passage.jump_kernel(spin_small)
    taboo = passage._taboo_kernel(spin_small, 1, kernels)
    start = passage._entry_block(spin_small, 1, taboo, kernels)
    rho = random_density(np.random.default_rng(3), 2)
    acc = np.zeros((4, 4), dtype=complex)
    carry = start.copy()
    traces = []
    for _ in range(200):
        acc = acc + taboo.into_taboo @ carry
        carry = taboo.matrix @ carry
        out = linalg.unvec(acc @ linalg.vec(rho), (2, 2))
        traces.append(float(np.trace(out).real))
    diffs = np.diff(traces)
    assert np.all(diffs >= -1e-12)
    assert traces[-1] <= 1.0 + 1e-9


def test_passage_oracle_equivalence_small_paths(two_site, spin_small, coherent):
    # restrict the passage machinery to paths with at most three jumps and
    # compare against brute-force quadrature over the same paths
    for m, i, j, rho in (
        (two_site, 0, 0, np.array([[1.0]])),
        (spin_small, 1, 1, random_density(np.random.default_rng(4), 2)),
        (coherent, 1, 1, random_density(np.random.default_rng(5), 2)),
        (spin_small, 0, 1, np.array([[1.0]])),
    ):
        kernels = passage.jump_kernel(m)
        taboo = passage._taboo_kernel(m, j, kernels)
        start = passage._entry_block(m, i, taboo, kernels)
        if i == j:
            # jump counts: m taboo steps plus entry and exit -> m + 2
            acc = taboo.into_taboo @ start  # 2 jumps
            acc = acc + taboo.into_taboo @ taboo.matrix @ start  # 3 jumps
        else:
            acc = taboo.into_taboo @ start  # 1 jump
            acc = acc + taboo.into_taboo @ taboo.matrix @ start  # 2
            acc = acc + taboo.into_taboo @ taboo.matrix @ taboo.matrix @ start  # 3
        restricted = linalg.unvec(acc @ linalg.vec(rho), (m.dim(j), m.dim(j)))
        oracle = passage_partial_oracle(m, i, j, rho, max_jumps=3, q=48)
        assert np.max(np.abs(restricted - oracle)) < 1e-6


def test_expected_occupation_recurrent_infinite(two_site):
    assert passage.expected_occupation(two_site, 0, 0, [[1.0]]) == math.inf


def test_expected_occupation_drift(biased_small):
    value = passage.expected_occupation(biased_small, 0, 0, [[1.0]])
    oracle = jump_chain_expected_visits(biased_small, 0)  # unit mean dwell
    assert value == pytest.approx(oracle, abs=1e-9)
    assert value == pytest.approx(2.0, abs=1e-3)  # window-8 truncation bias


def test_expected_occupation_spin_finite_and_mc(spin_small):
    rho = np.diag([1.0, 0.0])
    value = passage.expected_occupation(spin_small, 1, 1, rho)
    assert np.isfinite(value)
    init = SitedState(1, rho)
    reports = trajectory.estimate(
        spin_small, init, 80.0, 4000, seed=71,
        queries=[{"kind": "occupation", "vertex": 1}],
    )
    point = reports[0].points[0]
    assert abs(point.estimate - value) <= 3 * point.stderr + 1e-3


def test_expected_occupation_off_diagonal(spin_small):
    # starting next door: occupation at 1 picks up the arrival distribution
    value = passage.expected_occupation(spin_small, 0, 1, [[1.0]])
    assert np.isfinite(value) and value > 0


def test_expected_occupation_shares_one_taboo_factorization(monkeypatch):
    factor = passage.factor_kernel
    dims = []
    monkeypatch.setattr(
        passage, "factor_kernel", lambda k, o: dims.append(k.shape[0]) or factor(k, o)
    )
    radius = linalg.spectral_radius
    sizes = []
    monkeypatch.setattr(
        linalg, "spectral_radius", lambda a, **kw: sizes.append(len(a)) or radius(a, **kw)
    )
    walk = fixtures.biased_line((-20, 20))
    value = passage.expected_occupation(walk, 1, 0, [[1.0]])
    # P[1->0] and P[0->0] share one taboo LU; the d_j^2 return map gets its own
    assert dims == [40, 1]
    assert sizes == []
    passage.expected_occupation(walk, 0, 0, [[1.0]])
    assert dims == [40, 1, 40, 1]
    assert np.isfinite(value) and value > 0


def test_expected_occupation_matches_dense_radius_oracle():
    # The Green certificate of the return map decides finiteness as the
    # dense spectral radius did, and the LU solve gives the same visits, to
    # 1e-13 relative times the condition number of I - P_jj (1.7e5 at most
    # on these draws).
    rng = np.random.default_rng(97)
    seen = {True: 0, False: 0}
    for _ in range(100):
        m = random_classifiable_model(rng)
        i, j = (m.ids[int(x)] for x in rng.integers(0, len(m.ids), 2))
        rho = random_density(rng, m.dim(i))
        got = passage.expected_occupation(m, i, j, rho)
        want = occupation_dense_radius(m, i, j, rho)
        assert math.isfinite(got) == math.isfinite(want)
        if math.isfinite(want):
            p_jj, _ = passage.first_passage_map(m, j, j)
            cond = np.linalg.cond(np.eye(len(p_jj.matrix)) - p_jj.matrix)
            assert got == pytest.approx(want, rel=1e-13 * cond, abs=0)
        seen[math.isfinite(want)] += 1
    assert min(seen.values()) >= 10, seen


def test_taboo_gate_solves_on_fixtures_and_ring():
    # the benchmark's first-passage and return maps on the four fixtures and
    # the seed-101 qutrit ring
    for m, i, j in (
        (fixtures.two_site_exchange(), 0, 1),
        (fixtures.coherent_pair(), 1, 2),
        (fixtures.biased_line((-8, 8)), 0, 0),
        (fixtures.spin_biased_line((0, 8)), 1, 1),
        (qudit_ring(101), 0, 0),
    ):
        for src in dict.fromkeys((i, j)):
            _, diag = passage.first_passage_map(m, src, j)
            assert diag["method"] == "solve" and diag["certified"], (m.meta, src, j)
            assert diag["x_min"] > 0 and diag["y_min"] >= 0.5


def test_closed_class_in_the_taboo_region_is_left_out(tmp_path):
    # 1 -> 0 and 1 -> 2 with probability 1/2 each; 2 <-> 3 is a closed class
    # that never reaches 0 (with it, I - T would be singular), so the taboo
    # kernel keeps vertex 1 alone and its LU gives the reach probability 1/2.
    one, half = np.array([[1.0]]), np.array([[np.sqrt(0.5)]])
    m = build_walk(
        [(k, 1) for k in range(4)],
        [(0, 1, one), (1, 0, half), (1, 2, half), (2, 3, one), (3, 2, one)],
    )
    p, diag = passage.first_passage_map(m, 1, 0)
    assert diag["method"] == "solve" and diag["certified"] and diag["kernel_dim"] == 1
    assert passage.reach_probability(p, [[1.0]]) == pytest.approx(0.5, abs=1e-12)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(m.to_json_dict()))
    out = tmp_path / "p.json"
    assert cli.main(["first-passage", "--model", str(path), "--from", "1", "--to", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["diagnostics"]["method"] == "solve" and doc["diagnostics"]["kernel_dim"] == 1
    assert doc["reach_probability"] == pytest.approx(0.5, abs=1e-12)
    # a start inside the closed class cannot reach 0: the zero map
    p, diag = passage.first_passage_map(m, 2, 0)
    assert diag == {"method": "trivial"} and not p.matrix.any()


def _slow_leak_walk(eps, qubit):
    """Closed walk 1 -> 2 (rate 1), 2 -> 1 (rate 1 - eps), 2 -> 3 (rate
    eps), 3 -> 1 (rate 1): irreducible, so every reach probability into 3
    is 1, while the taboo kernel of 3 has spectral radius 1 - eps.  With
    ``qubit``, vertex 1 holds a qubit that leaves from |e1> and is turned
    over by a Hamiltonian."""
    e1 = np.array([[1.0], [0.0]])
    if not qubit:
        return build_walk(
            [(1, 1), (2, 1), (3, 1)],
            [(1, 2, [[1.0]]), (2, 1, [[math.sqrt(1 - eps)]]), (2, 3, [[math.sqrt(eps)]]), (3, 1, [[1.0]])],
        )
    return build_walk(
        [(1, 2), (2, 1), (3, 1)],
        [(1, 2, e1.T), (2, 1, math.sqrt(1 - eps) * e1), (2, 3, [[math.sqrt(eps)]]), (3, 1, e1)],
        hamiltonians={1: [[0.0, 1.0], [1.0, 0.0]]},
    )


def test_slow_leak_is_solved_or_refused(tmp_path):
    # From about eps = 2 * TOL down the Green certificate fails: the map and
    # the occupation raise, and the commands exit 3.  No answer may come
    # with a reach probability away from 1 or a finite occupation.
    from ctoqw.errors import ConvergenceError

    outcomes = set()
    for eps in (1e-4, 1e-6, 1e-7, 1e-8, 2e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13):
        for qubit in (False, True):
            m = _slow_leak_walk(eps, qubit)
            rho = np.diag([1.0, 0.0]) if qubit else np.eye(1)
            for i, state in ((1, rho), (3, np.eye(1))):
                try:
                    p, diag = passage.first_passage_map(m, i, 3)
                except ConvergenceError:
                    outcomes.add("refused")
                    continue
                outcomes.add("solved")
                assert diag["method"] == "solve" and diag["certified"]
                assert abs(passage.reach_probability(p, state) - 1.0) <= 1e-6, (eps, qubit, i)
            try:
                assert passage.expected_occupation(m, 1, 3, rho) == math.inf, (eps, qubit)
            except ConvergenceError:
                pass
            path = tmp_path / "m.json"
            path.write_text(json.dumps(m.to_json_dict()))
            out = tmp_path / "out.json"
            start = "1:e1" if qubit else "1"
            for sub, to in (("first-passage", "--to"), ("occupation", "--at")):
                code = cli.main([sub, "--model", str(path), "--from", start, to, "3", "--out", str(out)])
                assert code in (0, 3), (eps, qubit, sub)
                if code == 0:
                    doc = json.loads(out.read_text())
                    if sub == "first-passage":
                        assert abs(doc["reach_probability"] - 1.0) <= 1e-6, (eps, qubit)
                    else:
                        assert doc["finite"] is False and doc["expected_occupation"] is None
                out.unlink(missing_ok=True)
    assert outcomes == {"solved", "refused"}


def test_reach_probability_validates_state(two_site):
    p, _ = passage.first_passage_map(two_site, 0, 0)
    with pytest.raises(PreconditionError):
        passage.reach_probability(p, [[2.0]])


def test_reach_probability_clamps_tiny_overshoot():
    mat = (1.0 + 5e-10) * np.eye(1)
    p = SuperOp(1, 1, mat)
    assert passage.reach_probability(p, [[1.0]]) == 1.0
