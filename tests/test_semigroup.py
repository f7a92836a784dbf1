import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ctoqw import linalg, semigroup
from ctoqw.errors import BudgetError, ConvergenceError, PreconditionError
from ctoqw.model import (
    BlockState,
    build_walk,
    classical_embed,
    sited_block_state,
)
from oracles import (
    block_generator_per_vertex,
    classical_block_state,
    ctmc_law,
    evolve_grid_per_vertex,
    trace_functional,
)
from strategies import leaky_variant, random_classical_generator, random_density, random_model


def block_l1(a: BlockState, b: BlockState) -> float:
    total = 0.0
    for k in set(a.blocks) | set(b.blocks):
        diff = a.blocks.get(k, 0) - b.blocks.get(k, 0)
        total += float(np.sum(np.abs(np.linalg.eigvalsh(np.atleast_2d(diff)))))
    return total


def test_lindblad_apply_two_site_indicator(two_site):
    mu = sited_block_state(two_site, 0, [[1.0]])
    out = semigroup.lindblad_apply(two_site, mu)
    assert out[0][0, 0] == pytest.approx(-1.0)
    assert out[1][0, 0] == pytest.approx(1.0)


def test_lindblad_apply_stationary_point(two_site):
    mu = classical_block_state(two_site, {0: 0.5, 1: 0.5})
    out = semigroup.lindblad_apply(two_site, mu)
    for b in out.values():
        assert np.linalg.norm(b) < 1e-14


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_lindblad_apply_preserves_total_trace(seed):
    rng = np.random.default_rng(seed)
    m = random_model(rng)
    blocks = {v.id: random_density(rng, v.dim) for v in m.vertices}
    scale = sum(np.trace(b).real for b in blocks.values())
    mu = BlockState({k: b / scale for k, b in blocks.items()})
    out = semigroup.lindblad_apply(m, mu)
    assert abs(sum(np.trace(b).real for b in out.values())) <= 1e-12


def test_generator_has_trace_null_vector(coherent):
    gen = semigroup.build_block_generator(coherent)
    w = trace_functional(gen)
    assert np.linalg.norm(w.conj() @ gen.matrix) <= 1e-10


def test_generator_matches_direct_application(spin_small):
    rng = np.random.default_rng(7)
    gen = semigroup.build_block_generator(spin_small)
    blocks = {v.id: random_density(rng, v.dim) for v in spin_small.vertices}
    scale = sum(np.trace(b).real for b in blocks.values())
    mu = BlockState({k: b / scale for k, b in blocks.items()})
    direct = semigroup.lindblad_apply(spin_small, mu)
    stacked = gen.unstack(gen.matrix @ gen.stack(mu))
    for k, b in direct.items():
        assert_allclose(stacked.blocks[k], b, atol=1e-12)


def test_evolve_two_site_closed_form(two_site):
    mu = sited_block_state(two_site, 0, [[1.0]])
    out = semigroup.evolve(two_site, mu, 1.0)
    dist = semigroup.position_distribution(out)
    assert dist[0] == pytest.approx(0.5 * (1 + np.exp(-2.0)), abs=1e-9)
    assert dist[1] == pytest.approx(0.5 * (1 - np.exp(-2.0)), abs=1e-9)


def test_evolve_zero_time_is_identity(coherent):
    rng = np.random.default_rng(8)
    mu = sited_block_state(coherent, 1, random_density(rng, 2))
    out = semigroup.evolve(coherent, mu, 0.0)
    for k in mu.blocks:
        assert_allclose(out.blocks[k], mu.blocks[k], atol=0)


def test_evolve_rejects_negative_time(two_site):
    mu = sited_block_state(two_site, 0, [[1.0]])
    with pytest.raises(PreconditionError):
        semigroup.evolve(two_site, mu, -0.1)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_evolve_trace_and_positivity(seed):
    rng = np.random.default_rng(seed)
    m = random_model(rng, n_vertices=3)
    v0 = m.vertices[0]
    mu = sited_block_state(m, v0.id, random_density(rng, v0.dim))
    out = semigroup.evolve(m, mu, 0.7)
    assert out.total_trace() == pytest.approx(1.0, abs=1e-10)
    for b in out.blocks.values():
        assert np.min(np.linalg.eigvalsh(b)) >= -1e-9


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_semigroup_law(seed, t, s):
    rng = np.random.default_rng(seed)
    m = random_model(rng, n_vertices=3, max_dim=2)
    v0 = m.vertices[0]
    mu = sited_block_state(m, v0.id, random_density(rng, v0.dim))
    gen = semigroup.build_block_generator(m)
    once = semigroup.evolve(m, mu, t + s, generator=gen)
    twice = semigroup.evolve(m, semigroup.evolve(m, mu, s, generator=gen), t, generator=gen)
    assert block_l1(once, twice) <= 1e-8


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 3.0), st.integers(1, 25))
def test_grid_steps_match_per_point_expm(seed, t, points):
    rng = np.random.default_rng(seed)
    m = random_model(rng, max_dim=2)
    v0 = m.vertices[0]
    mu = sited_block_state(m, v0.id, random_density(rng, v0.dim))
    gen = semigroup.build_block_generator(m)
    grid = semigroup.evolve_grid(m, mu, t, points, generator=gen)
    assert list(grid.times) == list(np.linspace(0.0, t, points))
    for k, tk in enumerate(grid.times):
        exact = gen.unstack(sla.expm(tk * gen.matrix) @ gen.stack(mu))
        for v, b in grid.state(k).blocks.items():
            assert_allclose(b, exact.blocks[v], rtol=0, atol=1e-12)
    if points > 1:
        last = semigroup.evolve(m, mu, t, generator=gen)
        for v, b in grid.state(-1).blocks.items():
            assert_allclose(b, last.blocks[v], rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.0, 0.3, 2.5]), st.integers(1, 12), st.booleans())
def test_grid_equals_per_vertex_oracle(seed, t, points, leaky):
    # block dimensions up to 5: a real-part sum of a diagonal of 4 or more
    # entries rounds differently from np.trace, a complex one does not
    rng = np.random.default_rng(seed)
    m = random_model(rng, max_dim=5)
    if leaky:
        m = leaky_variant(rng, m)
    v0 = m.vertices[0]
    mu = sited_block_state(m, v0.id, random_density(rng, v0.dim))
    gen = semigroup.build_block_generator(m)
    grid = semigroup.evolve_grid(m, mu, t, points, generator=gen)
    oracle = evolve_grid_per_vertex(m, mu, t, points, gen)
    assert grid.times.tolist() == [tk for tk, _ in oracle]
    laws = [list(semigroup.position_distribution(state).values()) for _, state in oracle]
    assert grid.law.tolist() == laws
    for k, (_, state) in enumerate(oracle):
        got = grid.state(k).blocks
        assert list(got) == list(state.blocks)
        for v, b in state.blocks.items():
            assert got[v].tobytes() == b.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.3, 2.5]), st.integers(1, 8), st.booleans())
def test_grid_equals_exponential_of_complex_oracle(seed, t, points, leaky):
    # the real-coordinate grid against e^{t_k L} vec(mu), L the complex
    # generator built one vertex block at a time; mu is exactly Hermitian,
    # so every grid state must be too
    rng = np.random.default_rng(seed)
    m = random_model(rng, max_dim=4)
    if leaky:
        m = leaky_variant(rng, m)
    v0 = m.vertices[0]
    mu = sited_block_state(m, v0.id, linalg.herm(random_density(rng, v0.dim)))
    grid = semigroup.evolve_grid(m, mu, t, points)
    oracle = block_generator_per_vertex(m)
    x0 = np.concatenate([linalg.vec(mu.block(v.id, v.dim)) for v in m.vertices])
    for k, tk in enumerate(grid.times):
        blocks = grid.state(k).blocks
        got = np.concatenate([linalg.vec(blocks[v.id]) for v in m.vertices])
        assert_allclose(got, sla.expm(tk * oracle) @ x0, rtol=0, atol=1e-12)
        for b in blocks.values():
            assert np.array_equal(b, b.conj().T)


@pytest.mark.parametrize("dims", [(1, 4), (5, 8), (9, 13), (2, 2, 3)])
def test_law_sums_each_diagonal_as_np_trace(dims):
    rng = np.random.default_rng(len(dims) + sum(dims))
    n = len(dims)
    jumps = [(k, (k + 1) % n, rng.standard_normal((dims[(k + 1) % n], dims[k])) + 0j) for k in range(n)]
    m = build_walk(list(enumerate(dims)), jumps, hamiltonians={k: np.eye(d) for k, d in enumerate(dims)})
    gen = semigroup.build_block_generator(m)
    xs = rng.standard_normal((4, gen.dim)) * 10.0 ** rng.uniform(-12, 0, (4, gen.dim))
    traces = [[float(np.trace(b).real) for b in gen.unstack(x).blocks.values()] for x in xs]
    assert gen.law(xs).tolist() == traces


def test_grid_of_a_leaking_exponential_is_a_convergence_error(coherent, monkeypatch):
    expm = linalg.expm
    monkeypatch.setattr(linalg, "expm", lambda a: 0.999 * expm(a))
    mu = sited_block_state(coherent, 1, 0.5 * np.eye(2))
    assert not coherent.escaping_boundary()
    with pytest.raises(ConvergenceError, match="lost trace mass"):
        semigroup.evolve_grid(coherent, mu, 1.0, 5)
    with pytest.raises(ConvergenceError, match="lost trace mass"):
        semigroup.evolve(coherent, mu, 1.0)


def test_position_distribution_indicator_and_uniform(two_site):
    mu = sited_block_state(two_site, 1, [[1.0]])
    assert semigroup.position_distribution(mu) == {0: 0.0, 1: 1.0}
    q = np.zeros((4, 4))
    m4 = classical_embed(q)
    uniform = classical_block_state(m4, {k: 0.25 for k in range(4)})
    dist = semigroup.position_distribution(uniform)
    assert all(p == pytest.approx(0.25) for p in dist.values())


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 2.0))
def test_classical_consistency_with_expm(seed, t):
    rng = np.random.default_rng(seed)
    q = random_classical_generator(rng)
    m = classical_embed(q)
    mu = sited_block_state(m, 0, [[1.0]])
    dist = semigroup.position_distribution(semigroup.evolve(m, mu, t))
    row = sla.expm(t * q)[0]
    for k in range(q.shape[0]):
        assert dist[k] == pytest.approx(row[k], abs=1e-9)


def test_classical_consistency_windowed(biased_small):
    # the coffin-state oracle includes boundary escape
    mu = sited_block_state(biased_small, 0, [[1.0]])
    t = 2.0
    dist = semigroup.position_distribution(semigroup.evolve(biased_small, mu, t))
    law = ctmc_law(biased_small, 0, t)
    for v in biased_small.ids:
        assert dist[v] == pytest.approx(law[v], abs=1e-9)


def test_dyson_zero_jumps_is_pure_dwell(coherent):
    rng = np.random.default_rng(9)
    rho = random_density(rng, 2)
    mu = sited_block_state(coherent, 1, rho)
    approx, rem = semigroup.dyson_partial(coherent, mu, 0.4, 0)
    e = sla.expm(0.4 * coherent.effective(1))
    assert_allclose(approx.blocks[1], e @ rho @ e.conj().T, atol=1e-12)
    assert np.linalg.norm(approx.blocks[2]) == 0.0


def test_dyson_matches_evolve_two_site(two_site):
    mu = sited_block_state(two_site, 0, [[1.0]])
    approx, rem = semigroup.dyson_partial(two_site, mu, 0.1, 6, quad_points=16)
    exact = semigroup.evolve(two_site, mu, 0.1)
    assert block_l1(approx, exact) <= 1e-8


def test_dyson_trace_within_remainder(coherent):
    mu = sited_block_state(coherent, 1, 0.5 * np.eye(2))
    approx, rem = semigroup.dyson_partial(coherent, mu, 0.2, 5)
    assert coherent.rate_constant == pytest.approx(2.0)
    assert abs(approx.total_trace() - 1.0) <= rem


def test_dyson_budget_error(biased_small):
    mu = sited_block_state(biased_small, 0, [[1.0]])
    with pytest.raises(BudgetError):
        semigroup.dyson_partial(biased_small, mu, 0.1, 12, quad_points=16)


def test_jump_tail_bound_values():
    import math

    # e^x minus the partial sum, checked against direct summation
    x = 1.0
    direct = sum(x**n / math.factorial(n) for n in range(7, 60))
    assert semigroup.jump_tail_bound(1.0, 1.0, 6) == pytest.approx(direct, rel=1e-12)
