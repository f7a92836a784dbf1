import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ctoqw import fixtures
from ctoqw.errors import ModelError
from ctoqw.model import (
    STRUCT_TOL,
    VertexSpace,
    WalkModel,
    build_lattice,
    build_walk,
    classical_embed,
    json_to_matrix,
    matrix_to_json,
    model_from_json,
    validate,
)
from oracles import (
    build_walk_per_matrix,
    embedded_generator,
    model_from_parts,
    validate_per_vertex,
)
from strategies import (
    leaky_variant,
    random_classical_generator,
    random_hermitian,
    random_model,
)


def test_two_site_effective_generators(two_site):
    assert_allclose(two_site.effective(0), [[-0.5]], atol=1e-15)
    assert_allclose(two_site.effective(1), [[-0.5]], atol=1e-15)


def test_vertex_without_jumps_is_absorbing():
    m = build_walk([(0, 1), (1, 1)], [(0, 1, [[1.0]])])
    assert_allclose(m.effective(1), [[0.0]], atol=1e-15)


def test_hamiltonian_recovery_from_effective(coherent):
    # rebuild the coherent pair passing G instead of H and compare
    g = coherent.effective(1)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    rebuilt = build_walk(
        [(1, 2), (2, 2)],
        [(1, 2, sx), (2, 1, sx)],
        effective={1: g, 2: g},
    )
    h = rebuilt.hamiltonian(1)
    assert np.linalg.norm(h - h.conj().T) < 1e-13
    expected = np.array([[0, -1 + 1j], [-1 - 1j, 0]])
    assert_allclose(h, expected, atol=1e-12)
    # the only outgoing jump from vertex 1 is sigma_x, so sum R^dag R = Id
    zero_sum = g + g.conj().T + sx @ sx
    assert np.linalg.norm(zero_sum) < 1e-12


def test_supplied_nonhermitian_hamiltonian_rejected():
    with pytest.raises(ModelError):
        build_walk([(0, 2)], [], hamiltonians={0: [[0, 1], [0, 0]]})


def test_shape_mismatch_rejected():
    with pytest.raises(ModelError):
        build_walk([(0, 1), (1, 2)], [(0, 1, [[1.0]])])


def test_self_loop_rejected():
    with pytest.raises(ModelError):
        build_walk([(0, 1)], [(0, 0, [[1.0]])])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_build_walk_rejects_non_finite_matrices(value):
    vertices = [(0, 1), (1, 1)]
    one, bad = np.array([[1.0]]), np.array([[value]])
    for jumps, extra in (
        ([(0, 1, bad), (1, 0, one)], {}),
        ([(0, 1, one), (1, 0, one)], {"hamiltonians": {0: bad}}),
        ([(0, 1, one), (1, 0, one)], {"effective": {1: bad}}),
    ):
        with pytest.raises(ModelError, match="NaN or infinite"):
            build_walk(vertices, jumps, **extra)


def test_validate_passes_on_fixtures(two_site, coherent, biased_small, spin_small):
    for m in (two_site, coherent, biased_small, spin_small):
        rep = validate(m)
        assert rep.ok, rep.failures()


def test_validate_zero_sum_residual_on_scaled_jump(coherent):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    g = coherent.effective(1)
    broken = build_walk(
        [(1, 2), (2, 2)],
        [(1, 2, 1.1 * sx), (2, 1, sx)],
        effective={1: g, 2: coherent.effective(2)},
    )
    rep = validate(broken)
    assert not rep.ok
    zs = [c for c in rep.checks if c.name == "zero_sum" and c.vertex == 1]
    assert zs and not zs[0].passed
    assert zs[0].residual == pytest.approx(0.21, abs=1e-6)


def test_classical_embed_two_state_matches_fixture(two_site):
    q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    m = classical_embed(q)
    assert_allclose(m.effective(0), two_site.effective(0), atol=1e-15)
    assert_allclose(m.jump(0, 1), two_site.jump(0, 1), atol=1e-15)


def test_classical_embed_drift_rates(biased_small):
    # same per-site operators as the windowed drifting line, interior sites
    n = 5
    q = np.zeros((n, n))
    for k in range(n - 1):
        q[k, k + 1] = 0.75
        q[k + 1, k] = 0.25
    np.fill_diagonal(q, -q.sum(axis=1))
    m = classical_embed(q)
    assert_allclose(m.jump(1, 2), [[np.sqrt(3) / 2]], atol=1e-15)
    assert_allclose(m.jump(1, 0), [[0.5]], atol=1e-15)
    assert_allclose(m.effective(1), [[-0.5]], atol=1e-15)
    assert_allclose(biased_small.jump(0, 1), [[np.sqrt(3) / 2]], atol=1e-15)


def test_classical_embed_rejects_bad_generators():
    with pytest.raises(ModelError):
        classical_embed([[-1.0, -1.0], [1.0, -1.0]])
    with pytest.raises(ModelError):
        classical_embed([[-1.0, 0.5], [1.0, -1.0]])


def test_a_model_needs_a_vertex():
    with pytest.raises(ModelError, match=r"^a model needs at least one vertex$"):
        classical_embed(np.zeros((0, 0)))
    with pytest.raises(ModelError, match=r"^a model needs at least one vertex$"):
        model_from_json({"vertices": []})


def test_zero_generator_embeds_to_absorbing_model():
    m = classical_embed(np.zeros((3, 3)))
    assert list(m.jumps()) == []
    assert all(np.allclose(m.effective(v.id), 0) for v in m.vertices)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_classical_embed_roundtrip(seed):
    rng = np.random.default_rng(seed)
    q = random_classical_generator(rng)
    m = classical_embed(q)
    assert_allclose(embedded_generator(m), q, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_zero_sum_identity_random_models(seed):
    rng = np.random.default_rng(seed)
    m = random_model(rng)
    for v in m.vertices:
        g = m.effective(v.id)
        decay = sum(
            (r.conj().T @ r for _, r in m.out_edges(v.id)),
            np.zeros((v.dim, v.dim), dtype=complex),
        )
        assert np.linalg.norm(g + g.conj().T + decay, 2) <= 1e-10


def test_rate_constant_exposed(two_site, coherent):
    assert two_site.rate_constant == pytest.approx(2.0)
    assert coherent.rate_constant == pytest.approx(2.0)


def test_matrix_json_roundtrip():
    m = np.array([[1 + 2j, 0.5], [-1j, 3.25]])
    assert_allclose(json_to_matrix(matrix_to_json(m)), m, atol=0)
    for bad in ([[1.0, 2.0]], [[[0, 0], [1, 0]], [[1, 0]]], "x", 3, [], [[]]):
        with pytest.raises(ModelError, match="rows of \\[re, im\\] pairs"):
            json_to_matrix(bad)
    with pytest.raises(ModelError, match="bad jumps block"):
        model_from_json({"vertices": [{"id": 0, "dim": 1}], "jumps": [{"to": 0}]})


def test_model_json_roundtrip(spin_small):
    doc = json.loads(json.dumps(spin_small.to_json_dict()))
    again = model_from_json(doc)
    assert again.ids == spin_small.ids
    for v in spin_small.vertices:
        assert_allclose(again.effective(v.id), spin_small.effective(v.id), atol=1e-14)
    for src, dst, r in spin_small.jumps():
        assert_allclose(again.jump(src, dst), r, atol=1e-14)
    assert again.canonical_hash() == spin_small.canonical_hash()


def test_lattice_block_in_model_json(spin_small):
    doc = {"lattice": spin_small.meta["lattice"]}
    again = model_from_json(json.dumps(doc))
    assert again.canonical_hash() == spin_small.canonical_hash()


def test_lattice_boundary_is_substochastic(biased_small):
    assert biased_small.escaping_boundary() == [-8, 8]
    defect = biased_small.escape_defect(8)
    assert defect[0, 0].real == pytest.approx(0.75)
    assert biased_small.escape_defect(0)[0, 0] == pytest.approx(0.0)


def test_lattice_shape_mismatch_templates_skipped(spin_small):
    # no scalar template may leak onto the two-dimensional site
    assert spin_small.jump(1, 2).shape == (1, 2)
    assert spin_small.jump(0, 1).shape == (2, 1)
    assert spin_small.jump(2, 3).shape == (1, 1)
    rep = validate(spin_small)
    assert rep.ok


def _explicit_chain(site_matrices: dict) -> dict:
    """A scalar chain on [0, 3] with explicit jumps only: unit hops between
    neighbours, a hop from 3 out of the window to 4 and one from the
    outside site 5 into 2."""
    one = matrix_to_json(np.ones((1, 1)))
    hops = [(a, b) for a in range(4) for b in (a - 1, a + 1) if 0 <= b <= 3]
    return {
        "window": [0, 3],
        **site_matrices,
        "jumps": [{"from": a, "to": b, "matrix": one} for a, b in hops + [(3, 4), (5, 2)]],
    }


def test_lattice_explicit_jumps_leaving_the_window():
    eff = {"default": matrix_to_json(-np.ones((1, 1))),
           "0": matrix_to_json(-0.5 * np.ones((1, 1)))}
    pinned = build_lattice(_explicit_chain({"effective": eff}))
    # site 3 keeps the decay of its hops to 2 and 4, and loses the one to 4
    assert pinned.meta["escaping"] == [3] and pinned.escaping_boundary() == [3]
    assert pinned.escape_defect(3)[0, 0].real == pytest.approx(1.0)
    assert validate(pinned).ok
    free = build_lattice(_explicit_chain({"hamiltonians": {"default": matrix_to_json(np.zeros((1, 1)))}}))
    assert free.meta["escaping"] == [] and free.escaping_boundary() == []
    for m in (pinned, free):
        # the hop 3 -> 4 is dropped and the one from 5 ignored
        assert sorted((a, b) for a, b, _ in m.jumps()) == [
            (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]


def test_lattice_explicit_null_leaving_the_window_keeps_the_template_escape():
    spec = {
        "window": [0, 3],
        "effective": {"default": matrix_to_json(-0.5 * np.ones((1, 1)))},
        "jumps": [{"offset": 1, "matrix": matrix_to_json(np.sqrt(0.5) * np.ones((1, 1)))},
                  {"offset": -1, "matrix": matrix_to_json(np.sqrt(0.5) * np.ones((1, 1)))},
                  {"from": 0, "to": -1, "matrix": None}],
    }
    m = build_lattice(spec)
    assert m.meta["escaping"] == [0, 3] and m.escaping_boundary() == [0, 3]


def test_lattice_rejects_conflicting_blocks():
    with pytest.raises(ModelError):
        model_from_json({"lattice": {"window": [0, 1]}, "vertices": []})


# -- batched checks against the per-vertex oracle ------------------------------


def _rebuilt(m: WalkModel, effective=None, jumps=None) -> WalkModel:
    """``m`` with some dwell generators or jumps replaced and nothing
    recomputed but the decays, so that ``validate`` sees an inconsistent
    model."""
    effs = [m.effective(v.id) for v in m.vertices]
    for vid, g in (effective or {}).items():
        effs[m.position(vid)] = g
    jump_map = {(m.position(a), m.position(b)): r for a, b, r in m.jumps()}
    for (a, b), r in (jumps or {}).items():
        jump_map[(m.position(a), m.position(b))] = r
    return model_from_parts(
        m.vertices,
        [m.hamiltonian(v.id) for v in m.vertices],
        effs,
        [m.escape_defect(v.id) for v in m.vertices],
        jump_map,
        meta=m.meta,
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_validate_equals_per_vertex_oracle_on_random_models(seed):
    rng = np.random.default_rng(seed)
    m = random_model(rng, n_vertices=int(rng.integers(2, 9)), max_dim=4)
    if rng.random() < 0.5:
        m = leaky_variant(rng, m)  # an escape defect at one vertex
    tight = float(rng.choice([1e-14, 1e-10, 1e-6]))
    for model in (m, model_from_json(m.to_json_dict())):
        assert validate(model).to_json_dict() == validate_per_vertex(model)
        assert validate(model, tol=tight).to_json_dict() == validate_per_vertex(model, tol=tight)


@pytest.mark.parametrize(
    "name, window", [("biased-line", 8), ("biased-line", 40), ("spin-biased-line", 9),
                     ("spin-biased-line", 40), ("coherent-pair", None)]
)
def test_validate_equals_per_vertex_oracle_on_windows(name, window):
    m = fixtures.get_fixture(name, window)
    for model in (m, model_from_json(m.to_json_dict())):
        doc = validate(model).to_json_dict()
        assert doc == validate_per_vertex(model)
        assert doc["ok"]
        if window is not None:
            assert doc["escaping_boundary"]


def test_validate_equals_per_vertex_oracle_on_invalid_models(coherent, spin_small):
    g1 = coherent.effective(1)
    lift = np.diag([0.3, -0.1]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    broken = [
        # G + G^dag + decay has a positive eigenvalue: the defect is not PSD
        build_walk([(1, 2), (2, 2)], [(1, 2, sx), (2, 1, sx)],
                   effective={1: g1 + lift, 2: coherent.effective(2)}),
        # G no longer matches -iH - decay/2 - D/2
        _rebuilt(spin_small, effective={3: spin_small.effective(3) + 0.05j}),
        # a jump scaled after G was fixed
        _rebuilt(coherent, jumps={(1, 2): 1.1 * coherent.jump(1, 2)}),
    ]
    for m, failing in zip(broken, ("dissipative", "effective_consistent", "zero_sum")):
        doc = validate(m).to_json_dict()
        assert doc == validate_per_vertex(m)
        assert not doc["ok"]
        assert failing in {c["name"] for c in doc["checks"] if not c["passed"]}
        # the stacked decode of G alone (H and G that disagree are refused)
        file = {k: v for k, v in m.to_json_dict().items() if k != "hamiltonians"}
        decoded = model_from_json(file)
        assert validate(decoded).to_json_dict() == validate_per_vertex(decoded)


def test_build_walk_names_the_first_non_hermitian_h():
    rng = np.random.default_rng(5)
    dims = [2, 1, 3, 2, 3]
    hams = {k: random_hermitian(rng, d) for k, d in enumerate(dims)}
    hams[4] = hams[4] + np.triu(np.ones((3, 3)), 1)
    hams[2] = hams[2] + np.triu(np.ones((3, 3)), 1)
    with pytest.raises(ModelError, match=r"^H at 2 is not Hermitian$"):
        build_walk(list(enumerate(dims)), [], hamiltonians=hams)


def test_build_walk_h_and_g_disagreement_message():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ModelError, match=r"^H and G disagree at vertex 'b' beyond tolerance$"):
        build_walk(
            [("a", 2), ("b", 2)],
            [("a", "b", sx), ("b", "a", sx)],
            hamiltonians={"a": np.zeros((2, 2)), "b": np.eye(2)},
            effective={"a": -0.5 * np.eye(2), "b": -0.5 * np.eye(2)},
        )


def test_validate_svd_calls_do_not_grow_with_the_model(monkeypatch):
    """One stacked SVD per dimension group and jump shape: a per-vertex or
    per-edge loop (``np.linalg.norm(m, 2)`` runs an SVD too) fails here."""
    m = fixtures.get_fixture("biased-line", 500)
    calls = []
    original = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return original(*args, **kwargs)

    # norm looks svd up in the globals of its own (private) module
    monkeypatch.setitem(np.linalg.norm.__wrapped__.__globals__, "svd", counting)
    monkeypatch.setattr(np.linalg, "svd", counting)
    assert validate(m).ok
    assert len(m.vertices) == 1001
    # one dimension (1) and one jump shape (1, 1): validate, the rate
    # constant and the escape set take one stacked call each
    assert len(calls) <= 3, calls


@pytest.mark.parametrize("dim", ["x", 2.5, True, None, "2"])
def test_bad_vertex_dim_is_a_parse_error(tmp_path, capsys, dim):
    from ctoqw.cli import main

    doc = fixtures.two_site_exchange().to_json_dict()
    doc["vertices"][0]["dim"] = dim
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--model", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "dim" in err and "Traceback" not in err


def test_integral_float_vertex_dim_is_read_as_an_integer():
    doc = fixtures.two_site_exchange().to_json_dict()
    doc["vertices"][0]["dim"] = 1.0
    m = model_from_json(doc)
    assert m.dim(m.ids[0]) == 1 and isinstance(m.dim(m.ids[0]), int)


# -- the stacked build against the per-matrix oracle ---------------------------

# canonical_hash() and the sha256 of the `fixtures --out` bytes (which hold the
# hash in meta.generator), taken from the per-matrix build and re-taken, with the
# same floats, for the byte hash: any float that moves in a build changes both
GOLDEN_FIXTURES = {
    ("biased-line", None): (
        "13d15d788c75acfe1a53c66e6eb7c22a64602b7d78c69112a9569dede580bb49",
        "4afa82e88a178a76b7f2d91bd9b5eb81509f591dbb6aae90e705b80b54130fc4",
    ),
    ("biased-line", 8): (
        "382df413556aacbd6727b1afe5aa866ad9eaba6363ffd187c927ec75b9c9783e",
        "3df2c9ce5b1fc7ed5552f710848bcf6afa1b7069a111b0255d1d38d3fda2b862",
    ),
    ("coherent-pair", None): (
        "a26b3f6067a2d8ad1a23c5f5feb58ca2c298d29c301fe2a6d39425acccee4da2",
        "96cf11abd7ceef594c81cadcb3af18d6c2df6140a723c29703663e0c2ed53e14",
    ),
    ("spin-biased-line", None): (
        "0fb2aa3df05f30b9b19d9d096c54451f8e257bcc534b8e6ec88dfffc3c0bf029",
        "1501106459789cb9b8f29b2c9858b1a7b3bbfb27d8f13d1f3cf9a128a444af03",
    ),
    ("spin-biased-line", 8): (
        "7d752aa687569f934ffdd32c0e9cb1f832f293b791c823f092a6798e50375d41",
        "7bab2f72f420c5249053cd13bbf03095433c96f4cb19737685f18c96a21902fc",
    ),
    ("two-site-exchange", None): (
        "2a0363fbff7bdaef21f2d74e20c9d7e54d5aefd784101c896e6e1fe92e248516",
        "65a4bc150cc659c794e853d279c115a9ca511886d8cc6b91a2f0fb1eb395a13a",
    ),
}
GOLDEN_RANDOM = {
    7: "8e480d59065b7e2a12e4d9bd40bebf2b8f9fca35fbcf5f89eb82e4176bfef9c7",
    2024: "33bbefa6ccc7b3af150e43d276dd2e119369ff53de94134151ff044d4bcd7bee",
}


@pytest.mark.parametrize("name, window", sorted(GOLDEN_FIXTURES, key=str))
def test_golden_fixture_hashes(tmp_path, name, window):
    from ctoqw.cli import main

    model_hash, file_sha = GOLDEN_FIXTURES[(name, window)]
    assert fixtures.get_fixture(name, window).canonical_hash() == model_hash
    out = tmp_path / "m.json"
    argv = ["fixtures", "--name", name, "--out", str(out)]
    assert main(argv + ([] if window is None else ["--window", str(window)])) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == file_sha


@pytest.mark.parametrize("seed", sorted(GOLDEN_RANDOM))
def test_golden_random_model_hashes(seed):
    m = random_model(np.random.default_rng(seed), n_vertices=5, max_dim=3)
    assert m.canonical_hash() == GOLDEN_RANDOM[seed]


def _bits(m) -> tuple:
    m = np.asarray(m)
    return m.dtype, m.shape, m.tobytes()


def _per_matrix_json(m) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.atleast_2d(m)]


def _random_inputs(rng):
    """Vertices, jumps in shuffled order (so one vertex's decay mixes jump
    shapes out of source order), and the H and G dicts of one build."""
    n = int(rng.integers(2, 8))
    kind = rng.choice(["scalar", "qubit", "mixed"])
    dims = {"scalar": [1] * n, "qubit": [2] * n}.get(kind) or rng.integers(1, 4, n).tolist()
    jumps = []
    for a in range(n):
        for b in range(n):
            if a != b and (b == (a + 1) % n or rng.random() < 0.4):
                shape = (dims[b], dims[a])
                jumps.append((a, b, 0.6 * (rng.standard_normal(shape)
                                           + 1j * rng.standard_normal(shape))))
    jumps = [jumps[k] for k in rng.permutation(len(jumps))]
    vertices = list(enumerate(dims))
    closed = build_walk(vertices, jumps, {k: random_hermitian(rng, d) for k, d in vertices})
    if rng.random() < 0.4:
        closed = leaky_variant(rng, closed)  # an escape defect where a jump was dropped
        jumps = list(closed.jumps())
    hams = {v: closed.hamiltonian(v) for v in closed.ids}
    effs = {v: closed.effective(v) for v in closed.ids}
    form = rng.choice(["H", "G", "H+G", "per-vertex"])
    if form == "H":
        effs = {}
    elif form == "G":
        hams = {}
    elif form == "per-vertex":  # each vertex gives H, G, both or neither
        pick = rng.integers(0, 4, n)
        hams = {v: h for v, h in hams.items() if pick[v] & 1}
        effs = {v: g for v, g in effs.items() if pick[v] & 2}
    return vertices, jumps, hams, effs


def _decoded_per_matrix(doc: dict):
    """The vertices, jumps and H and G dicts of a model file, each matrix
    decoded on its own."""
    def matrix(m):
        a = np.array(m, dtype=float)
        return a[..., 0] + 1j * a[..., 1]

    vertices = [(v["id"], v["dim"]) for v in doc["vertices"]]
    by_str = {str(vid): vid for vid, _ in vertices}
    jumps = [(e["from"], e["to"], matrix(e["matrix"])) for e in doc["jumps"]]
    hams, effs = ({by_str[k]: matrix(m) for k, m in doc[name].items()}
                  for name in ("hamiltonians", "effective"))
    return vertices, jumps, hams, effs


def _assert_equals_per_matrix_oracle(m: WalkModel, vertices, jumps, hams, effs):
    oracle = build_walk_per_matrix(vertices, jumps, hams, effs)
    ids = m.ids
    for k, vid in enumerate(ids):
        assert _bits(m.hamiltonian(vid)) == _bits(oracle["ham"][k])
        assert _bits(m.effective(vid)) == _bits(oracle["eff"][k])
        assert _bits(m.escape_defect(vid)) == _bits(oracle["defect"][k])
        stacks = m.stacks[m.dim(vid)]
        assert _bits(stacks.decay[np.searchsorted(stacks.pos, k)]) == _bits(oracle["decay"][k])
    edges = [(ids[a], ids[b], r) for (a, b), r in oracle["jumps"].items()]
    assert [(a, b, _bits(r)) for a, b, r in m.jumps()] == [(a, b, _bits(r)) for a, b, r in edges]
    for a, b, r in edges:
        assert _bits(m.jump(a, b)) == _bits(r)
    for vid in ids:
        assert [(b, _bits(r)) for b, r in m.out_edges(vid)] == [
            (b, _bits(r)) for a, b, r in edges if a == vid
        ]
        assert [(a, _bits(r)) for a, r in m.in_edges(vid)] == [
            (a, _bits(r)) for a, b, r in edges if b == vid
        ]
    assert m.rate_constant == float(sum(np.linalg.norm(r @ r.conj().T, 2) for _, _, r in edges))
    assert m.escaping_boundary() == [
        vid for vid, d in zip(ids, oracle["defect"]) if np.linalg.norm(d, 2) > STRUCT_TOL
    ]
    per_matrix = {
        "vertices": [{"id": vid, "dim": d} for vid, d in vertices],
        "hamiltonians": {str(vid): _per_matrix_json(h) for vid, h in zip(ids, oracle["ham"])},
        "jumps": [{"from": a, "to": b, "matrix": _per_matrix_json(r)} for a, b, r in edges],
        "effective": {str(vid): _per_matrix_json(g) for vid, g in zip(ids, oracle["eff"])},
        "meta": m.meta,
    }
    assert json.dumps(m.to_json_dict()) == json.dumps(per_matrix)  # repr keeps the sign of 0.0
    assert validate(m).to_json_dict() == validate_per_vertex(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_stacked_build_equals_per_matrix_oracle(seed):
    rng = np.random.default_rng(seed)
    vertices, jumps, hams, effs = _random_inputs(rng)
    declared = [vid for vid, _ in vertices if rng.random() < 0.5]
    m = build_walk(vertices, jumps, hams, effs, meta={"escaping": declared})
    _assert_equals_per_matrix_oracle(m, vertices, jumps, hams, effs)
    # the stacked decode of the model's file, against its matrices decoded one by one
    doc = m.to_json_dict()
    if rng.random() < 0.5:  # a file that gives G alone
        doc["hamiltonians"] = {}
    _assert_equals_per_matrix_oracle(model_from_json(doc), *_decoded_per_matrix(doc))


def _oracle_model(vertices, jumps, hams, effs, meta=None) -> WalkModel:
    """The model of :func:`build_walk_per_matrix`, its jumps grouped by shape
    in order of first appearance."""
    o = build_walk_per_matrix(vertices, jumps, hams, effs)
    spaces = [VertexSpace(vid, d) for vid, d in vertices]
    return model_from_parts(spaces, o["ham"], o["eff"], o["defect"], o["jumps"], meta=meta)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_hash_is_one_across_builds(seed):
    rng = np.random.default_rng(seed)
    vertices, jumps, hams, effs = _random_inputs(rng)  # mixed dims, jumps shuffled
    m = build_walk(vertices, jumps, hams, effs)
    oracle = _oracle_model(vertices, jumps, hams, effs, meta={"name": "oracle"})
    assert oracle.canonical_hash() == m.canonical_hash()
    # a model file: its stacked decode, the decode of that model's own file, and
    # its matrices decoded one by one.  (A file holds G, so a model built from H
    # alone can come back with H an ulp away, recovered from G.)
    doc = json.loads(json.dumps(m.to_json_dict()))
    loaded = model_from_json(doc)
    again = model_from_json(json.loads(json.dumps(loaded.to_json_dict())))
    per_matrix = _oracle_model(*_decoded_per_matrix(doc))
    assert again.canonical_hash() == per_matrix.canonical_hash() == loaded.canonical_hash()


def _ulp(parts: list, k: int, rng) -> list:
    """``parts`` with one entry of matrix ``k`` moved up by one ulp, in its
    real or its imaginary part."""
    m = np.array(parts[k], dtype=complex)
    at = (*(int(rng.integers(n)) for n in m.shape), int(rng.integers(2)))
    floats = m.view(float).reshape(*m.shape, 2)
    floats[at] = np.nextafter(floats[at], np.inf)
    return [m if q == k else p for q, p in enumerate(parts)]


@pytest.mark.parametrize("seed", range(6))
def test_hash_sees_every_entry_id_and_jump_order(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    base = random_model(rng, max_dim=3)
    spaces = list(base.vertices)
    parts = [[base.hamiltonian(v) for v in base.ids], [base.effective(v) for v in base.ids],
             [base.escape_defect(v) for v in base.ids]]
    jumps = {(base.position(a), base.position(b)): r for a, b, r in base.jumps()}
    h = model_from_parts(spaces, *parts, jumps).canonical_hash()
    assert h == base.canonical_hash()
    # only meta changes: the same hash
    assert model_from_parts(spaces, *parts, jumps, meta={"name": "x"}).canonical_hash() == h
    # one ulp of one H or one G entry
    for which in (0, 1):
        moved = list(parts)
        moved[which] = _ulp(parts[which], int(rng.integers(len(spaces))), rng)
        assert model_from_parts(spaces, *moved, jumps).canonical_hash() != h
    # one ulp of one jump entry
    keys = list(jumps)
    k = int(rng.integers(len(keys)))
    moved_jumps = dict(zip(keys, _ulp(list(jumps.values()), k, rng)))
    assert model_from_parts(spaces, *parts, moved_jumps).canonical_hash() != h
    # two jumps swap places in jump order
    a, b = sorted(rng.choice(len(keys), 2, replace=False).tolist())
    keys[a], keys[b] = keys[b], keys[a]
    swapped = {e: jumps[e] for e in keys}
    assert model_from_parts(spaces, *parts, swapped).canonical_hash() != h
    # an int id becomes its string
    spaces[0] = VertexSpace(str(spaces[0].id), spaces[0].dim)
    assert model_from_parts(spaces, *parts, jumps).canonical_hash() != h
    # the hash formats no matrix
    monkeypatch.setattr(WalkModel, "to_json_dict", None)
    monkeypatch.setattr("ctoqw.model.matrix_to_json", None)
    assert model_from_parts(list(base.vertices), *parts, jumps).canonical_hash() == h


@pytest.mark.parametrize("name, window", sorted(GOLDEN_FIXTURES, key=str))
def test_a_fixture_hashes_as_its_own_file_does(tmp_path, name, window):
    """Built, and loaded from its ``fixtures --out`` file: two-site-exchange
    and coherent-pair hold -0.0 entries as built, +0.0 as loaded."""
    built = fixtures.get_fixture(name, window)
    loaded = model_from_json(json.loads(json.dumps(built.to_json_dict())))
    assert loaded.canonical_hash() == built.canonical_hash()


def test_hash_ignores_the_sign_of_zero_and_sees_one_ulp():
    vertices = [(0, 1), (1, 2)]

    def model(x):
        jumps = [(0, 1, [[1.0], [x]]), (1, 0, [[x, 0.5]])]
        return build_walk(vertices, jumps, hamiltonians={1: [[x, 0.3], [0.3, 1.0]]})

    h = model(0.0).canonical_hash()
    assert model(-0.0).canonical_hash() == h
    assert model(np.nextafter(0.0, 1.0)).canonical_hash() != h


def test_hash_sees_jump_ends():
    # the same H, G and jump stacks, the ring run the other way round
    one, vertices = [[1.0]], [(0, 1), (1, 1), (2, 1)]
    forward = build_walk(vertices, [(0, 1, one), (1, 2, one), (2, 0, one)])
    backward = build_walk(vertices, [(0, 2, one), (2, 1, one), (1, 0, one)])
    assert forward.canonical_hash() != backward.canonical_hash()


def test_accessors_return_read_only_views():
    m = fixtures.spin_biased_line((0, 4))
    views = [m.hamiltonian(1), m.effective(1), m.escape_defect(4), m.jump(1, 0)]
    views += [r for _, r in m.out_edges(2)] + [r for _, r in m.in_edges(2)]
    views += [r for _, _, r in m.jumps()]
    for view in views:
        assert view.base is not None and not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 1.0
