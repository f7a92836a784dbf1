import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ctoqw import classify, cli, fixtures, linalg, passage
from ctoqw.errors import ConvergenceError, PreconditionError
from ctoqw.model import build_walk, classical_embed
from ctoqw.superop import SuperOp
from oracles import closure_per_vector, pair_spans_irreducible, vertex_scan_per_vertex
from strategies import (
    leaky_variant,
    planted_dark_state,
    qudit_ring,
    random_classical_generator,
    random_classifiable_model,
    random_density,
    random_hermitian,
    random_model,
    shared_block_model,
)


def test_coherent_pair_splits_the_two_notions(coherent):
    cont = classify.check_irreducible(coherent)
    disc = classify.check_discrete_irreducible(coherent)
    assert cont.irreducible
    assert cont.algebra_dim == 16
    assert cont.witness is None
    assert not disc.irreducible
    assert disc.witness is not None


def test_discrete_witness_is_invariant(coherent):
    disc = classify.check_discrete_irreducible(coherent)
    # the per-vertex blocks as columns of the summed space: vertex 1
    # occupies the first two coordinates, vertex 2 the last two
    rows = {1: slice(0, 2), 2: slice(2, 4)}
    cols = []
    for v, q in disc.witness.items():
        col = np.zeros((4, q.shape[1]), dtype=complex)
        col[rows[v]] = q
        cols.append(col)
    w = np.hstack(cols)
    assert np.allclose(w.conj().T @ w, np.eye(w.shape[1]))
    p = w @ w.conj().T
    comp = np.eye(4) - p
    # the jump operators in the summed space
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    s12 = np.zeros((4, 4), dtype=complex)
    s12[2:, :2] = sx
    s21 = np.zeros((4, 4), dtype=complex)
    s21[:2, 2:] = sx
    for m in (s12, s21):
        assert np.linalg.norm(comp @ m @ p) < 1e-10


def test_spin_line_irreducible(spin_small):
    verdict = classify.check_irreducible(spin_small)
    assert verdict.irreducible


def test_two_site_discrete_irreducible(two_site):
    assert classify.check_discrete_irreducible(two_site).irreducible


def test_all_zero_jumps_reducible():
    m = build_walk([(0, 2), (1, 2)], [])
    v = classify.check_discrete_irreducible(m)
    assert not v.irreducible
    assert v.witness is not None


def test_disconnected_copies_reducible(two_site):
    one = np.array([[1.0]])
    m = build_walk(
        [("a0", 1), ("a1", 1), ("b0", 1), ("b1", 1)],
        [
            ("a0", "a1", one), ("a1", "a0", one),
            ("b0", "b1", one), ("b1", "b0", one),
        ],
    )
    verdict = classify.check_irreducible(m)
    assert not verdict.irreducible
    assert verdict.witness is not None
    assert set(verdict.witness_vertices) in ({"a0", "a1"}, {"b0", "b1"})


def test_discrete_implies_continuous_on_random_models():
    from strategies import random_model

    rng = np.random.default_rng(81)
    implications = 0
    for _ in range(40):
        m = random_model(rng)
        if classify.check_discrete_irreducible(m).irreducible:
            implications += 1
            assert classify.check_irreducible(m).irreducible
    assert implications > 0


def test_classify_two_site_recurrent(two_site):
    rep = classify.classify_trichotomy(two_site, 0)
    assert rep.case == classify.RECURRENT
    assert rep.spectral_radius == pytest.approx(1.0, abs=1e-10)
    assert rep.perron_min_eig > 0  # faithful leading eigenstate


def test_classify_coherent_recurrent_faithful(coherent):
    rep = classify.classify_trichotomy(coherent, 1)
    assert rep.case == classify.RECURRENT
    assert rep.spectral_radius == pytest.approx(1.0, abs=1e-9)
    assert rep.perron_min_eig > 1e-8


_PSI = np.array([[1.0], [1.0j]]) / math.sqrt(2.0)


def _pauli_return_walk():
    """Base return map (X rho X + Y rho Y) / 2: spectrum {1, -1, 0, 0}, with
    -1 of the same modulus as the Perron eigenvalue 1 and a traceless
    eigenmatrix Z."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2.0)
    y = np.array([[0.0, -1.0j], [1.0j, 0.0]]) / math.sqrt(2.0)
    return build_walk([("b", 2), ("c1", 2), ("c2", 2)],
                      [("b", "c1", x), ("b", "c2", y), ("c1", "b", np.eye(2)),
                       ("c2", "b", np.eye(2))])


def _pure_return_walk():
    """Base return map rho -> Tr(rho) psi psi^dag through two scalar
    vertices, with psi = (1, i) / sqrt 2: the Perron eigenmatrix has
    off-diagonal entries, so LAPACK may return it with any complex phase."""
    h = np.array([[0.3, 0.2], [0.2, -0.1]])
    return build_walk([("b", 2), ("a", 1), ("c", 1)],
                      [("b", "a", np.array([[1.0, 0.0]])), ("b", "c", np.array([[0.0, 1.0]])),
                       ("a", "b", _PSI), ("c", "b", _PSI)],
                      hamiltonians={"b": h})


@pytest.mark.parametrize("walk, state", [(_pauli_return_walk, np.eye(2) / 2),
                                         (_pure_return_walk, _PSI @ _PSI.conj().T)],
                         ids=["pauli-return", "pure-return"])
def test_perron_state_is_the_eigenmatrix_of_the_spectral_radius(walk, state):
    rep = classify.classify_trichotomy(walk(), "b")
    assert rep.case == classify.RECURRENT
    assert rep.spectral_radius == pytest.approx(1.0, abs=1e-9)
    assert_allclose(rep.perron_state, state, atol=1e-7)
    assert rep.perron_min_eig == pytest.approx(np.linalg.eigvalsh(state)[0], abs=1e-7)


def test_perron_state_of_a_rank_one_map():
    pure = _PSI @ _PSI.conj().T
    p = SuperOp(2, 2, 0.5 * np.outer(linalg.vec(pure), linalg.vec(np.eye(2)).conj()))
    lam, rho, min_eig = classify._perron_state(p)
    assert lam == pytest.approx(0.5, abs=1e-12)
    assert_allclose(rho, pure, atol=1e-12)
    assert min_eig == pytest.approx(0.0, abs=1e-12)
    # a map that is not positive: its leading eigenmatrix Z is traceless
    z = np.diag([1.0, -1.0])
    with pytest.raises(ConvergenceError, match="vanishing trace"):
        classify._perron_state(SuperOp(2, 2, 0.5 * np.outer(linalg.vec(z), linalg.vec(z))))


def test_classify_biased_uniform(biased_small):
    rep = classify.classify_trichotomy(biased_small, 0)
    assert rep.case == classify.TRANSIENT_UNIFORM
    assert rep.spectral_radius == pytest.approx(0.5, abs=1e-4)
    assert rep.return_spectrum[-1] == pytest.approx(0.5, abs=1e-4)


def test_classify_spin_quantum(spin_small):
    rep = classify.classify_trichotomy(spin_small, 1)
    assert rep.case == classify.TRANSIENT_QUANTUM
    assert rep.spectral_radius < 1.0 - rep.eps_spec
    assert rep.return_spectrum[-1] == pytest.approx(1.0, abs=1e-9)
    assert_allclose(rep.exhibit_state, np.diag([0.0, 1.0]), atol=1e-8)
    assert rep.exhibit_vertex == 1


def test_classify_certifies_only_the_base_map(spin_small, monkeypatch):
    choi = SuperOp.choi_min_eigenvalue
    calls = []
    monkeypatch.setattr(
        SuperOp, "choi_min_eigenvalue", lambda self: calls.append(self) or choi(self)
    )
    rep = classify.classify_trichotomy(spin_small, 1)
    assert len(rep.vertex_max_return) == len(spin_small.vertices)  # the scan ran
    assert len(calls) == 1
    assert rep.diagnostics["choi_min_eigenvalue"] >= -1e-9
    assert rep.diagnostics["trace_increase_defect"] <= 1e-9


def test_classify_base_vertex_agreement(two_site, biased_small, spin_small):
    for m, vertices in (
        (two_site, [0, 1]),
        (biased_small, [-2, 0, 3]),
        (spin_small, [0, 1, 2, 5]),
    ):
        cases = {classify.classify_trichotomy(m, v).case for v in vertices}
        assert len(cases) == 1


def test_classify_rejects_reducible():
    one = np.array([[1.0]])
    m = build_walk(
        [("a0", 1), ("a1", 1), ("b0", 1)],
        [("a0", "a1", one), ("a1", "a0", one)],
    )
    with pytest.raises(PreconditionError):
        classify.classify_trichotomy(m, "a0")


def test_classify_rejects_non_escaping_base():
    # a Hamiltonian-only vertex never decays, its dwell integral diverges
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = build_walk([(0, 2), (1, 1)], [(1, 0, np.array([[1.0], [0.0]]))],
                   hamiltonians={0: h})
    with pytest.raises(PreconditionError):
        classify.classify_trichotomy(m, 0)


def test_return_probability_extremes(two_site, biased_small, spin_small):
    lo, hi, _, vmax = classify.return_probability_extremes(two_site, 0)
    assert (lo, hi) == (pytest.approx(1.0, abs=1e-10), pytest.approx(1.0, abs=1e-10))
    lo, hi, _, _ = classify.return_probability_extremes(biased_small, 0)
    assert lo == pytest.approx(0.5, abs=1e-4)
    assert hi == pytest.approx(0.5, abs=1e-4)
    lo, hi, vlo, vhi = classify.return_probability_extremes(spin_small, 1)
    assert hi == pytest.approx(1.0, abs=1e-9)
    assert lo == pytest.approx(1.0 / 3.0, abs=2e-3)
    assert abs(vhi[1]) == pytest.approx(1.0, abs=1e-8)


def test_sure_return_block_structure(spin_small):
    # on the range of a sure-return state the adjoint return operator is
    # the identity
    p, _ = passage.first_passage_map(spin_small, 1, 1)
    m = p.adjoint_apply(np.eye(2))
    e2 = np.array([0.0, 1.0])
    assert np.linalg.norm(m @ e2 - e2) < 1e-8


def test_recurrent_iff_infinite_occupation(two_site, biased_small, spin_small, coherent):
    rng = np.random.default_rng(91)
    for m, base in ((two_site, 0), (biased_small, 0), (spin_small, 1), (coherent, 1)):
        rep = classify.classify_trichotomy(m, base)
        rho = random_density(rng, m.dim(base))
        occ = passage.expected_occupation(m, base, base, rho)
        if rep.case == classify.RECURRENT:
            assert occ == math.inf
        else:
            assert np.isfinite(occ)


def test_scalar_models_never_quantum():
    rng = np.random.default_rng(92)
    seen = 0
    for _ in range(25):
        q = random_classical_generator(rng)
        m = classical_embed(q)
        if not classify.check_irreducible(m).irreducible:
            continue
        if not all(m.is_escaping(v.id) for v in m.vertices):
            continue
        rep = classify.classify_trichotomy(m)
        seen += 1
        assert rep.case != classify.TRANSIENT_QUANTUM
    assert seen > 0


def test_random_models_classify_exclusively():
    rng = np.random.default_rng(93)
    for _ in range(10):
        m = random_classifiable_model(rng)
        rep = classify.classify_trichotomy(m)
        assert rep.case in (
            classify.RECURRENT,
            classify.TRANSIENT_UNIFORM,
            classify.TRANSIENT_QUANTUM,
        )
        # the reported data must support the case deterministically
        if rep.case == classify.RECURRENT:
            assert rep.spectral_radius >= 1.0 - rep.eps_spec
        else:
            assert rep.spectral_radius < 1.0 - rep.eps_spec
            max_m = max(rep.vertex_max_return.values())
            if rep.case == classify.TRANSIENT_QUANTUM:
                assert max_m >= 1.0 - rep.eps_spec
            else:
                assert max_m < 1.0 - rep.eps_spec



def test_sure_return_state_is_not_faithful(spin_small):
    # On a transient walk a vertex whose return is sure from some state also
    # has a state whose return is not; spin-biased-line (TransientQuantum)
    # keeps the check from being vacuous.
    rng = np.random.default_rng(94)
    models = [spin_small]
    for k in range(16):
        if k % 2:
            m = leaky_variant(rng, classical_embed(random_classical_generator(rng)))
            if all(m.is_escaping(v.id) for v in m.vertices) and classify.check_irreducible(m).irreducible:
                models.append(m)
        else:
            models.append(random_classifiable_model(rng, leak_prob=1.0))
    transient = sure = 0
    for m in models:
        rep = classify.classify_trichotomy(m)
        if rep.case == classify.RECURRENT:
            continue
        transient += 1
        for v in m.vertices:
            lo, hi, _, _ = classify.return_probability_extremes(m, v.id)
            if hi >= 1.0 - rep.eps_spec:
                sure += 1
                assert lo < 1.0 - rep.eps_spec, f"vertex {v.id!r} returns surely from every state"
    assert transient >= 9 and sure > 0


def test_planted_dark_state_is_reducible(tmp_path):
    # A numerically closed span must not hide the dark state: each of the
    # 400 draws is reducible in both senses, with a verified witness.
    rng = np.random.default_rng(0)
    models = [planted_dark_state(rng) for _ in range(400)]
    for k, m in enumerate(models):
        for check, with_dwell in (
            (classify.check_irreducible, True),
            (classify.check_discrete_irreducible, False),
        ):
            v = check(m)
            assert not v.irreducible, f"draw {k} ({check.__name__})"
            assert v.witness is not None
            assert classify._is_invariant(m, v.witness, with_dwell)
            # the forward loop span holds at most 7 of the 9 dimensions;
            # rounding must not fill it
            assert len(classify._closure(m, with_dwell, 0, adjoint=False)[0]) < 9, f"draw {k}"
    path = tmp_path / "dark.json"
    path.write_text(json.dumps(models[0].to_json_dict()))
    out = tmp_path / "verdict.json"
    assert cli.main(["irreducible", "--model", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"]["irreducible"] is False
    assert "witness_columns" in doc


def _permuted(m, rng):
    order = rng.permutation(len(m.vertices))
    return build_walk(
        [(m.vertices[k].id, m.vertices[k].dim) for k in order],
        list(m.jumps()),
        effective={v.id: m.effective(v.id) for v in m.vertices},
    )


def test_base_verdict_matches_pair_span_oracle():
    rng = np.random.default_rng(95)
    models = [
        random_model(rng, extra_edge_prob=rng.uniform(0.0, 0.5), with_hamiltonian=bool(k % 2))
        for k in range(60)
    ]
    models += [shared_block_model(rng, int(rng.integers(2, 5))) for _ in range(20)]
    verdicts = set()
    for m in models:
        for with_dwell in (True, False):
            v = classify._check(m, with_dwell)
            verdicts.add(v.irreducible)
            assert v.irreducible == pair_spans_irreducible(m, with_dwell)
            if not v.irreducible:
                assert classify._is_invariant(m, v.witness, with_dwell)
            # another vertex order puts another vertex at the base
            assert classify._check(_permuted(m, rng), with_dwell).irreducible == v.irreducible
    assert verdicts == {True, False}


def test_one_way_line_witness():
    one = np.array([[1.0]])
    n = 200
    jumps = [(k, k + 1, one) for k in range(n - 1)] + [(n - 1, n - 3, one)]
    m = build_walk([(k, 1) for k in range(n)], jumps)
    for check, with_dwell in (
        (classify.check_irreducible, True),
        (classify.check_discrete_irreducible, False),
    ):
        v = check(m)
        assert not v.irreducible
        assert 0 < v.to_json_dict()["witness_dim"] < n
        assert classify._is_invariant(m, v.witness, with_dwell)
        assert 0 not in v.witness_vertices  # nothing returns to the start


def test_irreducible_check_builds_2v_spans(monkeypatch):
    # The seeded 20-qutrit ring of the benchmark (seed 601).  A closure that
    # propagated raw path products instead of Gram-Schmidt residuals called
    # its discrete map reducible.
    sites, dim = 20, 3
    m = qudit_ring(601, sites, dim)
    closure = classify._closure
    keys = []

    def counted(*args, **kwargs):
        spans = closure(*args, **kwargs)
        keys.append(len(spans))
        return spans

    monkeypatch.setattr(classify, "_closure", counted)
    for check in (classify.check_irreducible, classify.check_discrete_irreducible):
        keys.clear()
        v = check(m)
        assert v.irreducible
        assert v.algebra_dim == (sites * dim) ** 2
        assert sum(keys) <= 2 * sites


def _assert_closure_matches_oracle(m):
    base = m.ids[0]
    for with_dwell in (True, False):
        for adjoint in (False, True):
            got = classify._closure(m, with_dwell, base, adjoint)
            want = closure_per_vector(m, with_dwell, base, adjoint)
            assert got.keys() == want.keys()
            for j, rows in got.items():
                assert rows.shape == want[j].shape, (with_dwell, adjoint, j)
                assert_allclose(rows.conj() @ rows.T, np.eye(len(rows)), atol=1e-12)
                # the spans agree as subspaces: their orthogonal projectors
                assert_allclose(rows.T @ rows.conj(), want[j].T @ want[j].conj(), atol=1e-8)


def test_block_closure_matches_per_vector_oracle_on_random_models():
    rng = np.random.default_rng(97)
    for k in range(150):
        _assert_closure_matches_oracle(
            random_model(rng, extra_edge_prob=rng.uniform(0.0, 0.5), with_hamiltonian=bool(k % 2))
        )


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_block_closure_matches_per_vector_oracle_on_fixtures(name):
    _assert_closure_matches_oracle(fixtures.get_fixture(name, None))


def test_block_closure_matches_per_vector_oracle_on_the_ring():
    _assert_closure_matches_oracle(qudit_ring(601, 20, 3))


def test_closure_decides_ranks_per_block(monkeypatch):
    # On the seeded ring of the benchmark each closure adds its 180 rows in
    # blocks: at most 2V SVDs, where the per-vector closure makes about 160
    # additions.  Every full span also needs the closure to reach it.
    sites, dim = 20, 3
    m = qudit_ring(601, sites, dim)
    svd, shapes = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(a.shape) or svd(a, *args, **kw))
    for with_dwell in (True, False):
        for adjoint in (False, True):
            shapes.clear()
            spans = classify._closure(m, with_dwell, 0, adjoint)
            assert sum(len(rows) for rows in spans.values()) == sites * dim * dim
            assert 0 < len(shapes) <= 2 * sites
            assert all(rows > 1 for rows, _ in shapes)


# -- Green scan and certificates ------------------------------------------------


def _assert_scan_matches_oracle(m, base):
    rep = classify.classify_trichotomy(m, base)
    assert rep.case != classify.RECURRENT
    vertex_max, exhibit = vertex_scan_per_vertex(m, base, rep.eps_spec)
    assert list(rep.vertex_max_return) == list(vertex_max)
    for vid, value in vertex_max.items():
        assert abs(rep.vertex_max_return[vid] - value) <= 1e-12, vid
    oracle_case = classify.TRANSIENT_UNIFORM if exhibit is None else classify.TRANSIENT_QUANTUM
    assert rep.case == oracle_case
    assert rep.exhibit_vertex == exhibit
    assert rep.diagnostics["return_scan"]["certified"]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_green_scan_matches_per_vertex_oracle_on_random_models(seed):
    m = random_classifiable_model(np.random.default_rng(seed), leak_prob=1.0)
    p, _ = passage.first_passage_map(m, m.ids[0], m.ids[0])
    assume(classify._perron_state(p)[0] < 1.0 - 1e-8)
    _assert_scan_matches_oracle(m, m.ids[0])


@pytest.mark.parametrize("window", [8, 20, 40])
def test_green_scan_matches_per_vertex_oracle_on_lattices(window):
    _assert_scan_matches_oracle(fixtures.biased_line((-window, window)), 0)
    _assert_scan_matches_oracle(fixtures.spin_biased_line((0, window)), 1)


def test_green_certificate_holds_exactly_on_transient_models():
    # Closed walks make I - Q singular: that must read as "no certificate",
    # whether or not the LU notices, and never raise.
    rng = np.random.default_rng(96)
    seen = {True: 0, False: 0}
    for _ in range(40):
        m = random_classifiable_model(rng)
        base = m.ids[0]
        p, _ = passage.first_passage_map(m, base, base)
        transient = classify._perron_state(p)[0] < 1.0 - 1e-8
        green = passage.one_step_green(m)
        assert green.holds() == transient
        seen[transient] += 1
    assert seen[True] >= 5 and seen[False] >= 5


def test_uncertified_transient_kernel_exits_3(tmp_path, monkeypatch):
    m = fixtures.biased_line((-8, 8))
    # every taboo kernel still certifies; the one-step kernel (all 17 sites) does not
    monkeypatch.setattr(passage.Green, "holds", lambda self: self.dim < len(m.vertices))
    with pytest.raises(ConvergenceError, match="lambda_min"):
        classify.classify_trichotomy(m, 0)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(m.to_json_dict()))
    assert cli.main(["classify", "--model", str(path), "--vertex", "0"]) == 3


@pytest.mark.parametrize("name, window, base", [("biased-line", 120, 0), ("spin-biased-line", 240, 1)])
def test_classify_makes_one_passage_map(monkeypatch, name, window, base):
    # The scan reads every return map off one factorization: the base map
    # is the only passage map, and no spectral radius is taken of anything
    # larger than it.
    m = fixtures.get_fixture(name, window)
    assert len(m.vertices) == 241
    calls, sizes = [], []
    fpm, radius = passage.first_passage_map, linalg.spectral_radius

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return fpm(*args, **kwargs)

    monkeypatch.setattr(passage, "first_passage_map", counted)
    monkeypatch.setattr(classify, "first_passage_map", counted)
    monkeypatch.setattr(linalg, "spectral_radius", lambda a, **kw: sizes.append(len(a)) or radius(a, **kw))
    rep = classify.classify_trichotomy(m, base)
    assert rep.case != classify.RECURRENT
    assert calls == [(base, base)]
    assert all(n <= m.dim(base) ** 2 for n in sizes)
    assert len(rep.vertex_max_return) == 241
