import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ctoqw import linalg
from ctoqw.errors import ConvergenceError, PreconditionError
from ctoqw.superop import SuperOp
from oracles import dwell_integral_oracle, propagator_per_vertex
from strategies import random_density, random_hermitian


def test_vec_unvec_roundtrip():
    m = np.arange(6, dtype=complex).reshape(2, 3) + 1j
    assert_allclose(linalg.unvec(linalg.vec(m), (2, 3)), m)


def test_vec_convention():
    a = np.random.default_rng(0).standard_normal((3, 3)) + 0j
    b = np.random.default_rng(1).standard_normal((3, 3)) + 0j
    rho = np.random.default_rng(2).standard_normal((3, 3)) + 0j
    lhs = linalg.vec(a @ rho @ b.conj().T)
    rhs = np.kron(b.conj(), a) @ linalg.vec(rho)
    assert_allclose(lhs, rhs, atol=1e-12)


def test_superop_apply_matches_kraus():
    rng = np.random.default_rng(3)
    ops = [rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)) for _ in range(2)]
    s = SuperOp.from_kraus(ops)
    rho = random_density(rng, 3)
    direct = sum(k @ rho @ k.conj().T for k in ops)
    assert_allclose(s.apply(rho), direct, atol=1e-12)
    # adjoint: Tr(X Phi(rho)) == Tr(Phi*(X) rho)
    x = random_hermitian(rng, 2)
    lhs = np.trace(x @ s.apply(rho))
    rhs = np.trace(s.adjoint_apply(x) @ rho)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_choi_psd_for_kraus_maps_and_kraus_recovery():
    rng = np.random.default_rng(4)
    ops = [rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)) for _ in range(3)]
    s = SuperOp.from_kraus(ops)
    assert s.choi_min_eigenvalue() >= -1e-12
    rebuilt = SuperOp.from_kraus(SuperOp(s.source_dim, s.target_dim, s.matrix).kraus())
    assert_allclose(rebuilt.matrix, s.matrix, atol=1e-10)


def test_transpose_map_is_not_cp():
    d = 2
    mat = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[a, b] = 1.0
            mat[:, b * d + a] = linalg.vec(e.T)
    t = SuperOp(d, d, mat)
    assert t.choi_min_eigenvalue() < -0.5


def test_amplitude_damping_trace_preserving():
    gamma = 0.3
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]])
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]])
    s = SuperOp.from_kraus([k0, k1])
    assert s.trace_increase_defect() == pytest.approx(0.0, abs=1e-12)
    assert_allclose(s.adjoint_at_identity(), np.eye(2), atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_lyapunov_dwell_residual_and_oracle(seed, d):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g = g - (linalg.spectral_abscissa(g) + 0.6) * np.eye(d)  # force stability
    x = random_hermitian(rng, d)
    dwell = linalg.lyapunov_dwell(np.stack([g, g.conj()]))
    assert dwell.shape == (2, d * d, d * d)
    y = linalg.unvec(dwell[0] @ linalg.vec(x), (d, d))
    res = np.linalg.norm(g @ y + y @ g.conj().T + x)
    assert res <= 1e-10 * (1 + np.linalg.norm(x))
    assert_allclose(y, dwell_integral_oracle(g, x), atol=5e-7)
    y_conj = linalg.unvec(dwell[1] @ linalg.vec(x), (d, d))
    assert_allclose(y_conj, dwell_integral_oracle(g.conj(), x), atol=5e-7)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4))
def test_stacked_sandwich_and_drift_equal_kron(seed, p, q):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, p, q)) + 1j * rng.standard_normal((5, p, q))
    g = rng.standard_normal((5, p, p)) + 1j * rng.standard_normal((5, p, p))
    eye = np.eye(p, dtype=complex)
    stacked, drift = linalg.sandwich_matrix(a), linalg.drift_matrix(g)
    for k in range(5):
        assert np.array_equal(stacked[k], np.kron(a[k].conj(), a[k]))
        assert np.array_equal(linalg.sandwich_matrix(a[k]), stacked[k])
        assert np.array_equal(drift[k], np.kron(eye, g[k]) + np.kron(g[k].conj(), eye))
        assert np.array_equal(linalg.drift_matrix(g[k]), drift[k])


def test_lyapunov_dwell_rejects_a_large_residual():
    # a nearly defective, barely escaping generator: the inverse is useless
    good = -np.eye(2, dtype=complex)
    bad = np.array([[-1e-8, 100.0], [0.0, -2e-8]], dtype=complex)
    with pytest.raises(ConvergenceError, match="^dwell integral residual .* exceeds 1.0e-10"):
        linalg.lyapunov_dwell(np.stack([good, bad]))


def test_require_stable_names_the_first_unstable_matrix_of_a_stack():
    stack = np.array([[[-1.0]], [[0.5]], [[-2.0]], [[3.0]]])
    with pytest.raises(PreconditionError, match=r"^dwell generator at vertex 1 is not escaping: eigenvalue 0\.5"):
        linalg.require_stable(stack, where=[0, 1, 2, 3])
    linalg.require_stable(stack[[0, 2]])


def test_require_stable_reports_eigenvalue():
    with pytest.raises(PreconditionError) as err:
        linalg.require_stable(np.array([[0.0]]))
    assert "eigenvalue" in str(err.value)


def test_power_iteration_matches_eig():
    rng = np.random.default_rng(5)
    k = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    mat = np.kron(k.conj(), k)  # CP map, PSD leading eigenmatrix
    lam, v, ok, _ = linalg.power_iteration(mat, tol=1e-12)
    assert ok
    vals = np.linalg.eigvals(mat)
    assert abs(lam) == pytest.approx(np.max(np.abs(vals)), rel=1e-8)


def test_gauss_legendre_integrates_polynomials():
    x, w = linalg.gauss_legendre_01(6)
    for k in range(10):
        assert np.sum(w * x**k) == pytest.approx(1.0 / (k + 1), abs=1e-12)


def test_simplex_quadrature_volume_and_moment():
    import math

    # volume of the ordered region is t^n / n!
    t = 0.8
    for n in (1, 2, 3):
        vol = 0.0
        first = 0.0
        for times, weights in linalg.simplex_quadrature_blocks(n, t, 6):
            vol += float(np.sum(weights))
            first += float(np.sum(weights * times[:, 0]))
        assert vol == pytest.approx(t**n / math.factorial(n), rel=1e-12)
        # the integral of t_1 over the region is t^{n+1}/(n+1)!
        exact = t ** (n + 1) / math.factorial(n + 1)
        assert first == pytest.approx(exact, rel=1e-10)


def test_propagator_matches_expm():
    rng = np.random.default_rng(6)
    g = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    p = linalg.Propagator(g)
    k, t = np.array([0, 1, 1, 0]), np.array([0.0, 0.3, 1.7, 0.9])
    e = p.at(k, t)
    for i in range(4):
        assert_allclose(e[i], linalg.expm(t[i] * g[k[i]]), atol=1e-10)
    assert_allclose(p.at(1, t[1:3]), e[1:3])  # one index for every time


def _generator_stack(rng, n, d):
    """``n`` random generators of dimension ``d``; for ``d > 1`` a Jordan
    block and a matrix whose eigenvector condition number lies between
    ``linalg.COND_LIMIT`` and 1e8 come first."""
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)) - 2.0 * np.eye(d)
    if d == 1:
        return g
    jordan = -np.eye(d) + np.eye(d, k=1)
    # eigenvalues -1 and -1 - eps coupled by 1: cond(P) is about 2 / eps
    near = -np.eye(d, dtype=complex)
    near[0, 1], near[1, 1] = 1.0, -1.0 - 10.0 ** rng.uniform(-6.0, -1.5)
    assert linalg.COND_LIMIT < np.linalg.cond(np.linalg.eig(near)[1]) < 1e8
    return np.concatenate([[jordan, near], g])


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), n=st.integers(1, 4))
@settings(max_examples=60)
def test_stacked_propagator_matches_per_vertex_oracle(seed, d, n):
    import scipy.linalg as sla

    rng = np.random.default_rng(seed)
    g = _generator_stack(rng, n, d)
    k, t = rng.integers(0, len(g), 16), rng.uniform(0.0, 3.0, 16)
    t[0] = 0.0
    prop = linalg.Propagator(g)
    e = prop.at(k, t)
    want, eigen = propagator_per_vertex(g, k, t, linalg.COND_LIMIT)
    assert np.array_equal(prop.diag[k], eigen)
    assert np.array_equal(e[eigen], want[eigen])  # bit for bit
    for i in np.flatnonzero(~eigen):
        exact = sla.expm(t[i] * g[k[i]])
        assert_allclose(e[i], exact, rtol=0, atol=1e-12 * max(1.0, np.abs(exact).max()))
    if d > 1:
        assert not prop.diag[:2].any()  # the Jordan block and cond(P) above the limit
