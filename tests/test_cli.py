import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import ctoqw
from ctoqw import classify, cli, fixtures, linalg, model, passage, trajectory
from ctoqw.cli import _dump_writer, main
from ctoqw.errors import ConvergenceError
from ctoqw.model import SitedState, build_walk, matrix_to_json, model_from_json
from oracles import dump_events, hermitian_json
from strategies import leaky_variant, random_density, random_model


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def two_site_file(tmp_path):
    path = tmp_path / "two_site.json"
    assert run(tmp_path, "fixtures", "--name", "two-site-exchange", "--out", path) == 0
    return path


@pytest.fixture()
def spin_file(tmp_path):
    path = tmp_path / "spin.json"
    assert run(
        tmp_path, "fixtures", "--name", "spin-biased-line", "--window", 10, "--out", path
    ) == 0
    return path


def test_fixture_roundtrip_and_validate(tmp_path, two_site_file):
    out = tmp_path / "report.json"
    assert run(tmp_path, "validate", "--model", two_site_file, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["ok"]
    assert doc["meta"]["model_hash"]
    assert doc["meta"]["version"]


def test_fixture_bytes_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(tmp_path, "fixtures", "--name", "biased-line", "--window", 6, "--out", a)
    run(tmp_path, "fixtures", "--name", "biased-line", "--window", 6, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_evolve_writes_state_and_report(tmp_path, two_site_file):
    out = tmp_path / "state.json"
    csv = tmp_path / "law.csv"
    code = run(
        tmp_path, "evolve", "--model", two_site_file, "--state", "0:e1",
        "--t", 1.0, "--out", out, "--report", csv, "--grid-points", 3,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    p0 = doc["blocks"]["0"][0][0][0]
    assert p0 == pytest.approx(0.5 * (1 + np.exp(-2.0)), abs=1e-9)
    rows = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "t,vertex,probability"
    assert len(rows) == 1 + 3 * 2


def test_evolve_report_steps_one_propagator(tmp_path, two_site_file, monkeypatch):
    expm = linalg.expm
    sizes = []
    monkeypatch.setattr(linalg, "expm", lambda a: sizes.append(len(a)) or expm(a))
    csv = tmp_path / "law.csv"
    code = run(
        tmp_path, "evolve", "--model", two_site_file, "--state", "0:e1",
        "--t", 1.5, "--out", tmp_path / "state.json", "--report", csv,
    )
    assert code == 0
    assert sizes == [2]
    rows = [l.split(",") for l in csv.read_text().splitlines()[-2:]]
    assert [r[:2] for r in rows] == [["1.5", "0"], ["1.5", "1"]]
    assert float(rows[0][2]) == pytest.approx(0.5 * (1 + np.exp(-3.0)), abs=1e-12)
    assert float(rows[1][2]) == pytest.approx(0.5 * (1 - np.exp(-3.0)), abs=1e-12)


def test_evolve_report_prints_fixed_absolute_resolution(tmp_path):
    model = tmp_path / "line.json"
    run(tmp_path, "fixtures", "--name", "biased-line", "--window", 8, "--out", model)
    csv = tmp_path / "law.csv"
    code = run(tmp_path, "evolve", "--model", model, "--state", "0:e1", "--t", 2.0,
               "--report", csv, "--out", tmp_path / "state.json")
    assert code == 0
    rows = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
    probs = [l.split(",")[2] for l in rows[1:]]
    assert all(len(p) == 17 and p.startswith("0.") or p == "1.000000000000000" for p in probs)
    # far sites are below the resolution and print as an unsigned zero
    assert "0.000000000000000" in probs and not any(p.startswith("-") for p in probs)


def test_evolve_report_prints_only_nonzero_rows_signed(tmp_path, two_site_file, monkeypatch):
    import dataclasses

    from ctoqw import semigroup

    evolve_grid = semigroup.evolve_grid

    def negative(*args, **kwargs):
        grid = evolve_grid(*args, **kwargs)
        law = np.full_like(grid.law, -1e-17)
        law[:, 1] = [-0.0, -2e-15, 0.0]
        return dataclasses.replace(grid, law=law)

    monkeypatch.setattr(semigroup, "evolve_grid", negative)
    csv = tmp_path / "law.csv"
    assert run(tmp_path, "evolve", "--model", two_site_file, "--state", "0:e1", "--t", 1.0,
               "--out", tmp_path / "state.json", "--report", csv, "--grid-points", 3) == 0
    probs = [l.split(",")[2] for l in csv.read_text().splitlines()[-6:]]
    zero = "0.000000000000000"
    assert probs == [zero, zero, zero, "-0.000000000000002", zero, zero]


@pytest.mark.parametrize("name, window", [("two-site-exchange", None), ("biased-line", 5)])
def test_evolve_that_overflows_exits_3_and_writes_nothing(tmp_path, capsys, name, window):
    # a closed model (trace check) and an escaping one (no trace check): the
    # exponential of 5e298 L is not finite on either
    model = tmp_path / "m.json"
    assert run(tmp_path, "fixtures", "--name", name, "--out", model,
               *([] if window is None else ["--window", window])) == 0
    capsys.readouterr()
    out, csv = tmp_path / "s.json", tmp_path / "law.csv"
    code = run(tmp_path, "evolve", "--model", model, "--state", "0:e1", "--t", "1e300",
               "--out", out, "--report", csv)
    assert code == 3
    err = capsys.readouterr().err
    assert err == "ConvergenceError: evolution is not finite at t = 5e+298: the exponential overflowed\n"
    assert not out.exists() and not csv.exists()


# sha256 of the --out state and the --report law of `evolve --report` (21
# points), taken when the evolution moved to real Hermitian coordinates and
# again, with the same floats, when `model_hash` (in both headers) became a hash
# of the model's bytes: name -> (window, start, t, state digest, law digest).
# The floats depend on the numpy and BLAS build.
GOLDEN_EVOLVE = {
    "two-site-exchange": (None, "0:e1", 1.5,
        "8c64c3082594690c4c54e4ecb52b965d7676d58ad77015c08178803394b7b2a5",
        "5fbacd1aa096b32085f0800f35b6ebb2270965babbce4b2703d9554517e12a5f"),
    "coherent-pair": (None, "1:e1", 2.0,
        "9fa1f6946a6fc32b5a50fce820b5446b2ad1e042c7ed2e9cbfcea6b138f0282d",
        "17e04c730d73c70916b3e1c1a7701f5a67fd131f4106b6a4b492297eb187b6cd"),
    "biased-line": (8, "0:e1", 5.0,
        "907e95758ae8e0c0e88332ca29fe05c1e139095adcf2511e24e542799fcd0af4",
        "5d75111e7fd8ceaa8668db6c909002bb6cc5451537366ad82e8d8b814decdd76"),
    "spin-biased-line": (8, "1:e2", 5.0,
        "4854875703cb4c4aff8958f5708d7a9aba5e2e50f33904c56e54c7849eccca5b",
        "d061415d681900cd5b302673dd87c5cfd6d92f3614ae4e82583091e48d4caa3a"),
    "qudit-ring": (None, "0:e1", 4.0,  # strategies.qudit_ring(101, sites=8)
        "b78201574bd1e8ba1ffb0ae3bd7e500a6abe475d53eec0d1759a96766f23bbc8",
        "c02089539038769887af4a33abb60f36edb3a570265d5abd3a4d2a46ea58c440"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EVOLVE))
def test_golden_evolve_report_artifacts(tmp_path, name):
    from strategies import qudit_ring

    window, start, t, state_sha, law_sha = GOLDEN_EVOLVE[name]
    path = tmp_path / "m.json"
    if name == "qudit-ring":
        path.write_text(json.dumps(qudit_ring(101, sites=8).to_json_dict()))
    else:
        argv = ["fixtures", "--name", name, "--out", path]
        assert run(tmp_path, *argv, *([] if window is None else ["--window", window])) == 0
    state, law = tmp_path / "s.json", tmp_path / "law.csv"
    assert run(tmp_path, "evolve", "--model", path, "--state", start, "--t", repr(t),
               "--out", state, "--report", law) == 0
    assert hashlib.sha256(state.read_bytes()).hexdigest() == state_sha
    assert hashlib.sha256(law.read_bytes()).hexdigest() == law_sha


def test_main_builds_parser_and_model_hash_once(tmp_path, two_site_file, monkeypatch):
    from ctoqw import cli, model

    calls = []
    build, digest = cli.build_parser, model._canonical_hash
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append("parser") or build())
    monkeypatch.setattr(model, "_canonical_hash", lambda m: calls.append("hash") or digest(m))
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            code = run(tmp_path, "evolve", "--model", two_site_file, "--state", "0:e1",
                       "--t", 1.0, "--out", tmp_path / "s.json", "--report", tmp_path / "r.csv")
            assert code == 0
    finally:
        cli._parser.cache_clear()
    # one parser per process, one hash per loaded model (each run loads one)
    assert calls == ["parser", "hash", "hash"]


@pytest.mark.parametrize(
    "blocks, message",
    [
        ({"1": [[[1.0, 0.0]]]}, "ModelError: block at 1 has shape (1, 1), expected (2, 2)"),
        ({"1": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-3.0, 0.0]]]},
         "ModelError: block at 1 has eigenvalue -3.000e+00"),
        ([1, 2], "ModelError: a block state must be a JSON object"),
        ({"7": [[[1.0, 0.0]]]}, "ModelError: unknown vertex 7"),
    ],
    ids=["wrong-shape", "not-psd", "not-an-object", "unknown-vertex"],
)
def test_evolve_rejects_bad_state_file(tmp_path, capsys, blocks, message):
    model = tmp_path / "pair.json"
    run(tmp_path, "fixtures", "--name", "coherent-pair", "--out", model)
    state = tmp_path / "state.json"
    state.write_text(json.dumps(blocks if isinstance(blocks, list) else {"blocks": blocks}))
    capsys.readouterr()
    code = run(tmp_path, "evolve", "--model", model, "--state", state, "--t", 1.0,
               "--out", tmp_path / "out.json")
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(message)
    assert not (tmp_path / "out.json").exists()


def test_evolve_accepts_its_own_state_file(tmp_path):
    # a window boundary lets mass escape: the written state has trace < 1
    model = tmp_path / "line.json"
    run(tmp_path, "fixtures", "--name", "biased-line", "--window", 2, "--out", model)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run(tmp_path, "evolve", "--model", model, "--state", "0:e1", "--t", 2.0, "--out", first) == 0
    assert run(tmp_path, "evolve", "--model", model, "--state", first, "--t", 1.0, "--out", second) == 0


_START_COMMANDS = {
    "simulate": ["simulate", "--start", "1:{state}", "--horizon", 1, "--n", 2],
    "evolve": ["evolve", "--state", "1:{state}", "--t", 1.0],
    "first-passage": ["first-passage", "--from", "1:{state}", "--to", "{target}"],
    "occupation": ["occupation", "--from", "1:{state}", "--at", "{target}"],
}


def _start_model(tmp_path, name):
    """A fixture whose vertex 1 is a qubit, and a target vertex."""
    path = tmp_path / f"{name}.json"
    window = ["--window", 8] if name == "spin-biased-line" else []
    assert run(tmp_path, "fixtures", "--name", name, *window, "--out", path) == 0
    return path, 1 if name == "spin-biased-line" else 2


@pytest.mark.parametrize("name", ["spin-biased-line", "coherent-pair"])
@pytest.mark.parametrize("command", sorted(_START_COMMANDS))
@pytest.mark.parametrize(
    "rho",
    [np.diag([2.0, -3.0]), np.array([[0.5, 0.5], [0.0, 0.5]]), np.eye(2), np.eye(2) / 4],
    ids=["not-psd", "not-hermitian", "trace-2", "trace-half"],
)
def test_start_state_file_must_be_a_state(tmp_path, capsys, name, command, rho):
    model, target = _start_model(tmp_path, name)
    state = tmp_path / "state.json"
    state.write_text(json.dumps(matrix_to_json(rho)))
    argv = [str(a).format(state=state, target=target) for a in _START_COMMANDS[command]]
    capsys.readouterr()
    assert run(tmp_path, *argv, "--model", model, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ModelError: initial state at vertex 1 must be a 2x2 matrix, Hermitian")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(_START_COMMANDS))
def test_start_state_file_equals_basis_spec(tmp_path, command):
    model, target = _start_model(tmp_path, "spin-biased-line")
    state = tmp_path / "state.json"
    state.write_text(json.dumps(matrix_to_json(np.diag([0.0, 1.0]))))
    outs = []
    for spec in (str(state), "e2"):
        argv = [str(a).format(state=spec, target=target) for a in _START_COMMANDS[command]]
        outs.append(tmp_path / f"out-{len(outs)}")
        assert run(tmp_path, *argv, "--model", model, "--out", outs[-1]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_simulate_deterministic_csv(tmp_path, two_site_file):
    q = tmp_path / "q.json"
    q.write_text(json.dumps([{"kind": "passage_cdf", "vertex": 0, "grid": [1.0, 2.0]}]))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        code = run(
            tmp_path, "simulate", "--model", two_site_file, "--start", "0:e1",
            "--horizon", 4, "--n", 500, "--seed", 42, "--queries", q, "--out", out,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    rows = [l for l in a.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "query_id,t,estimate,stderr,ci_lo,ci_hi,n"
    assert len(rows) == 3


def test_simulate_dump(tmp_path, spin_file, monkeypatch):
    sample = trajectory._sample
    streams = []

    def counting(*args, **kwargs):
        streams.append(list(args[5]))
        return sample(*args, **kwargs)

    monkeypatch.setattr(trajectory, "_sample", counting)
    dump = tmp_path / "events.ndjson"
    code = run(
        tmp_path, "simulate", "--model", spin_file, "--start", "1:e1",
        "--horizon", 3, "--n", 5, "--seed", 1, "--out", tmp_path / "est.csv",
        "--dump", dump,
    )
    assert code == 0
    # estimation and dumping share one run of the sampler over all walkers
    assert streams == [list(range(5))]
    lines = dump.read_text().splitlines()
    events = [json.loads(line) for line in lines]
    assert events
    # each line is json's own text of its event, keys sorted
    assert [json.dumps(ev, sort_keys=True) for ev in events] == lines
    assert set(events[0]) == {"traj", "t", "from", "to", "rho"}
    walk = model_from_json(json.loads(spin_file.read_text()))
    init = SitedState(1, np.diag([1.0, 0.0]))
    # each rho is the exact-Hermitian part of simulate(stream=k)'s state,
    # down to the text
    assert lines == [json.dumps(ev, sort_keys=True) for ev in dump_events(walk, init, 3.0, 5, seed=1)]


def test_simulate_dump_to_stdout(tmp_path, spin_file, capsys, monkeypatch):
    # "--dump -" prints the events as "--out -" prints the estimate, and
    # leaves no file named "-" behind
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--model", spin_file, "--start", "1:e1", "--horizon", 3, "--n", 5, "--seed", 1]
    assert run(tmp_path, *argv, "--out", "est1.csv", "--dump", "d1.ndjson") == 0
    capsys.readouterr()
    assert run(tmp_path, *argv, "--out", "est.csv", "--dump", "-") == 0
    out = capsys.readouterr().out
    assert out and out.encode() == (tmp_path / "d1.ndjson").read_bytes()
    assert (tmp_path / "est.csv").read_bytes() == (tmp_path / "est1.csv").read_bytes()
    assert not (tmp_path / "-").exists()


def test_query_vertices_match_ids_as_strings(tmp_path, two_site_file):
    # the JSON string "1" names vertex 1 as the int 1 does, as on the command line
    csvs = []
    for vertex in (1, "1"):
        q = tmp_path / f"q-{vertex!r}.json"
        q.write_text(json.dumps([{"kind": kind, "vertex": vertex} for kind in ("occupation", "visits")]
                                + [{"kind": "passage_cdf", "vertex": vertex, "grid": [1.0, 2.0]}]))
        csvs.append(tmp_path / f"{vertex!r}.csv")
        assert run(tmp_path, "simulate", "--model", two_site_file, "--start", "0:e1", "--horizon", 4,
                   "--n", 50, "--seed", 3, "--queries", q, "--out", csvs[-1]) == 0
    assert csvs[0].read_bytes() == csvs[1].read_bytes()
    occupation = [l.split(",") for l in csvs[0].read_text().splitlines() if l.startswith("0,")]
    assert occupation[0][1] == "1" and float(occupation[0][2]) > 0.0


def test_dump_text_of_shared_states_is_json_text(monkeypatch):
    # The sampler shares one read-only post-jump state per edge of a scalar
    # vertex.  The writer formats such a state once, found by identity, and
    # stacks the writable ones per dimension in every chunk; equal values in
    # distinct objects, -0.0 against 0.0 and states that are Hermitian only
    # to rounding all give json's text of the state's Hermitian part.
    walk = ctoqw.fixtures.spin_biased_line((0, 3))  # vertex 1 is a qubit
    shared = [np.array([[1.0 + 0.0j]]), np.array([[1.0 - 0.0j]]), np.array([[0.8, 0.4], [0.4, 0.2]]) + 0j]
    for rho in shared:
        rho.flags.writeable = False
    qubit = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2000000000000001j, 0.4]])
    events = [  # walker, time, position, state, in sampling order
        (1, 0.5, 1, qubit), (0, 0.7, 2, shared[0]), (1, 0.9, 2, shared[1]), (0, 1.1, 1, shared[2]),
        (2, 1.3, 0, np.array([[1.0 + 0.0j]])), (0, 1.5, 0, np.array([[-0.0 + 0.0j]])),
        (1, 1.7, 1, qubit.T.copy()), (0, 1.9, 1, shared[2]),
    ]
    w, t, x, rhos = (list(c) for c in zip(*events))
    ev = trajectory._Events(w, t, x, rhos, [False] * 3, [None] * 3)
    formatted = []
    texts = cli._hermitian_texts
    monkeypatch.setattr(cli, "_hermitian_texts", lambda s: formatted.append(len(s)) or texts(s))
    fh = io.StringIO()
    write = _dump_writer(fh, walk, 1)
    for first in (7, 20):  # two chunks with the same shared states
        write(first, ev)
    lines = fh.getvalue().splitlines()
    expected = []
    for first in (7, 20):
        for i in range(3):  # each walker's events in time order, after those of the walkers before it
            prev = "1"
            for wi, ti, xi, rho in events:
                if wi == i:
                    expected.append(json.dumps({"traj": first + i, "t": ti, "from": prev, "to": str(xi),
                                                "rho": hermitian_json(rho)}, sort_keys=True))
                    prev = str(xi)
    assert lines == expected
    # a lower imaginary part is its mirror's text with the sign flipped
    assert '"rho": [[[0.8, 0.0], [0.4, 0.0]], [[0.4, -0.0], [0.2, 0.0]]]' in lines[1]
    # three shared states formatted once each; four writable ones per chunk,
    # stacked by dimension
    assert sorted(formatted) == [1, 1, 1, 2, 2, 2, 2]


@settings(max_examples=25, deadline=None)
@given(hst.integers(0, 10_000), hst.booleans())
def test_dump_lines_are_json_of_the_hermitian_simulate_states(seed, leaky):
    rng = np.random.default_rng(seed)
    m = random_model(rng, max_dim=5)
    if leaky:
        m = leaky_variant(rng, m)
    v0 = m.vertices[0]
    init = SitedState(v0.id, random_density(rng, v0.dim))
    fh = io.StringIO()
    trajectory.estimate(m, init, 2.0, 6, seed=seed, queries=[{"kind": "position_law", "t": 1.0}],
                        on_chunk=_dump_writer(fh, m, v0.id))
    lines = fh.getvalue().splitlines()
    oracle = dump_events(m, init, 2.0, 6, seed)
    assert len(lines) == len(oracle)
    assert lines == [json.dumps(ev, sort_keys=True) for ev in oracle]
    for line in lines:
        rho = json.loads(line)["rho"]
        for i, row in enumerate(rho):
            assert str(row[i][1]) == "0.0"
            for j, (re, im) in enumerate(row[i + 1:], i + 1):
                # exact conjugates, down to the sign of a zero
                assert [str(re), str(-im)] == [str(z) for z in rho[j][i]]


def test_vertex_arguments_match_ids_as_strings(tmp_path, capsys):
    # vertex "5" is a string id: "5" names it, and "+5" or "05" name nothing
    doc = {
        "vertices": [{"id": "5", "dim": 1}, {"id": "a", "dim": 1}],
        "jumps": [{"from": "5", "to": "a", "matrix": [[[1.0, 0.0]]]},
                  {"from": "a", "to": "5", "matrix": [[[1.0, 0.0]]]}],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    fp, cl = tmp_path / "fp.json", tmp_path / "cl.json"
    assert run(tmp_path, "first-passage", "--model", path, "--from", "a", "--to", "5", "--out", fp) == 0
    assert json.loads(fp.read_text())["reach_probability"] == pytest.approx(1.0, abs=1e-12)
    assert run(tmp_path, "classify", "--model", path, "--vertex", "5", "--out", cl) == 0
    assert json.loads(cl.read_text())["report"]["base_vertex"] == "5"
    for text in ("+5", "05"):
        capsys.readouterr()
        assert run(tmp_path, "occupation", "--model", path, "--from", "a", "--at", text) == 1
        assert capsys.readouterr().err == f"ModelError: unknown vertex {text}\n"


def test_runaway_trajectory_is_a_convergence_exit(tmp_path, two_site_file, capsys, monkeypatch):
    monkeypatch.setattr(trajectory, "_MAX_JUMPS", 50)
    capsys.readouterr()
    code = run(
        tmp_path, "simulate", "--model", two_site_file, "--start", "0:e1",
        "--horizon", 1e6, "--n", 3, "--out", tmp_path / "est.csv",
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("ConvergenceError: trajectory exceeded 50 jumps")


def test_failure_after_a_dumped_chunk_leaves_no_dump(tmp_path, two_site_file, capsys, monkeypatch):
    sample, calls = trajectory._sample, []

    def fail_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ConvergenceError("survival inversion did not reach tolerance")
        return sample(*args, **kwargs)

    monkeypatch.setattr(trajectory, "_sample", fail_second)
    dump = tmp_path / "dump.ndjson"
    capsys.readouterr()
    code = run(tmp_path, "simulate", "--model", two_site_file, "--start", "0:e1", "--horizon", 2,
               "--n", trajectory._CHUNK + 1, "--out", tmp_path / "est.csv", "--dump", dump)
    assert (code, len(calls)) == (3, 2)
    assert capsys.readouterr().err == "ConvergenceError: survival inversion did not reach tolerance\n"
    assert not dump.exists() and not (tmp_path / "est.csv").exists()


def test_first_passage_and_occupation(tmp_path, spin_file):
    fp = tmp_path / "fp.json"
    code = run(
        tmp_path, "first-passage", "--model", spin_file, "--from", "1:e2",
        "--to", 1, "--out", fp,
    )
    assert code == 0
    doc = json.loads(fp.read_text())
    assert doc["reach_probability"] == pytest.approx(1.0, abs=1e-9)
    assert doc["diagnostics"]["choi_min_eigenvalue"] >= -1e-9
    assert doc["diagnostics"]["trace_increase_defect"] <= 1e-9
    occ = tmp_path / "occ.json"
    code = run(
        tmp_path, "occupation", "--model", spin_file, "--from", "1:e1",
        "--at", 1, "--out", occ,
    )
    assert code == 0
    doc = json.loads(occ.read_text())
    assert doc["finite"] and doc["expected_occupation"] > 0


def test_tol_is_the_validation_tolerance_only(tmp_path, spin_file, monkeypatch):
    # --tol reaches model.validate; passage maps keep their own default
    calls, tols = [], []
    fpm, occ, validate = passage.first_passage_map, passage.expected_occupation, model.validate
    monkeypatch.setattr(passage, "first_passage_map", lambda *a, **kw: calls.append(kw) or fpm(*a, **kw))
    monkeypatch.setattr(passage, "expected_occupation", lambda *a, **kw: calls.append(kw) or occ(*a, **kw))
    monkeypatch.setattr(model, "validate", lambda w, tol: tols.append(tol) or validate(w, tol=tol))
    for argv in (["first-passage", "--from", "1:e2", "--to", 1], ["occupation", "--from", "1:e1", "--at", 1]):
        assert run(tmp_path, *argv, "--model", spin_file, "--tol", 1e-6, "--out", tmp_path / "o.json") == 0
    assert calls == [{}, {}]
    assert tols == [1e-6, 1e-6]


def test_classify_report(tmp_path, spin_file):
    out = tmp_path / "cls.json"
    code = run(tmp_path, "classify", "--model", spin_file, "--vertex", 1, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["case"] == "TransientQuantum"
    assert doc["report"]["return_spectrum"][-1] == pytest.approx(1.0, abs=1e-9)
    assert doc["report"]["irreducibility"]["irreducible"]


def test_classify_window_study(tmp_path):
    model = tmp_path / "m.json"
    run(tmp_path, "fixtures", "--name", "biased-line", "--window", 6, "--out", model)
    out = tmp_path / "cls.json"
    code = run(
        tmp_path, "classify", "--model", model, "--vertex", 0,
        "--window", 6, "--out", out,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    windows = [row["window"] for row in doc["window_study"]]
    assert windows == [6, 12]
    assert "increment" in doc["window_study"][1]


def test_irreducible_commands(tmp_path):
    model = tmp_path / "coh.json"
    run(tmp_path, "fixtures", "--name", "coherent-pair", "--out", model)
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    assert run(tmp_path, "irreducible", "--model", model, "--out", out1) == 0
    assert run(tmp_path, "irreducible", "--model", model, "--discrete", "--out", out2) == 0
    assert json.loads(out1.read_text())["verdict"]["irreducible"] is True
    assert json.loads(out2.read_text())["verdict"]["irreducible"] is False


def test_reducible_witness_is_written_per_vertex(tmp_path):
    # A 1000-site one-way line: the witness is written as one block per
    # vertex (keys sorted as strings), not as dense columns of all sites.
    one = np.array([[1.0]])
    n = 1000
    m = build_walk([(k, 1) for k in range(n)], [(k, k + 1, one) for k in range(n - 1)] + [(n - 1, n - 3, one)])
    path, out = tmp_path / "line.json", tmp_path / "w.json"
    path.write_text(json.dumps(m.to_json_dict()))
    start = time.perf_counter()
    assert run(tmp_path, "irreducible", "--model", path, "--out", out) == 0
    assert time.perf_counter() - start < 1.0
    assert out.stat().st_size < 1 << 20
    doc = json.loads(out.read_text())
    columns = doc["witness_columns"]
    assert set(columns) == {str(v) for v in doc["verdict"]["witness_vertices"]}
    assert sum(len(c[0]) for c in columns.values()) == doc["verdict"]["witness_dim"]
    blocks = {int(v): np.array(c)[..., 0] + 1j * np.array(c)[..., 1] for v, c in columns.items()}
    assert classify._is_invariant(m, blocks, with_dwell=True)


def test_cli_import_leaves_scipy_linalg_unloaded():
    # tests/oracles.py imports scipy.linalg, so the check runs in a fresh
    # interpreter: the start-up of every command skips it.
    env = {**os.environ, "PYTHONPATH": str(Path(ctoqw.__file__).parents[1])}
    code = "import sys, ctoqw.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_defers_the_command_modules():
    # Each command imports its own modules: the start-up of any command
    # loads none of these, and every package re-export still resolves.
    env = {**os.environ, "PYTHONPATH": str(Path(ctoqw.__file__).parents[1])}
    code = (
        "import sys, ctoqw.cli\n"
        "mods = ('passage', 'classify', 'semigroup', 'trajectory', 'superop')\n"
        "print(sorted(m for m in mods if 'ctoqw.' + m in sys.modules))\n"
        "import ctoqw\n"
        "print(all(getattr(ctoqw, name) is not None for name in ctoqw.__all__))\n"
        "print(sorted(set(ctoqw.__all__) & set(vars(ctoqw)) - {'__version__'}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:3] == ["[]", "True", "[]"]


def test_exit_codes(tmp_path, two_site_file):
    # 1: unreadable model
    assert run(tmp_path, "validate", "--model", tmp_path / "missing.json") == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(tmp_path, "validate", "--model", bad) == 1
    # 2: structurally broken model
    doc = json.loads((two_site_file).read_text())
    doc["effective"] = {"0": [[[-0.25, 0.0]]], "1": [[[-0.5, 0.0]]]}
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert run(tmp_path, "validate", "--model", broken) == 2
    assert run(tmp_path, "classify", "--model", broken) == 2
    # 4: precondition violation (reducible model for classify)
    doc2 = json.loads(two_site_file.read_text())
    doc2["jumps"] = []
    doc2["effective"] = {"0": [[[0.0, 0.0]]], "1": [[[0.0, 0.0]]]}
    reducible = tmp_path / "reducible.json"
    reducible.write_text(json.dumps(doc2))
    assert run(tmp_path, "classify", "--model", reducible) == 4


def test_artifacts_embed_window_metadata(tmp_path, spin_file):
    out = tmp_path / "v.json"
    run(tmp_path, "validate", "--model", spin_file, "--out", out)
    doc = json.loads(out.read_text())
    assert doc["meta"]["window"] == [0, 10]
    assert doc["meta"]["escaping_boundary"] == ["10"]


def test_commands_that_do_not_sample_take_any_seed(tmp_path, two_site_file):
    # only the sampler keys Philox streams with the seed
    for seed in (-1, 2**64):
        out = tmp_path / "v.json"
        assert run(tmp_path, "validate", "--model", two_site_file, "--seed", seed, "--out", out) == 0
        assert json.loads(out.read_text())["meta"]["seed"] == seed


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_entry_is_a_parse_error(tmp_path, two_site_file, capsys, value):
    doc = json.loads(two_site_file.read_text())
    doc["jumps"][0]["matrix"][0][0][0] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv in (
        ["validate"],
        ["simulate", "--start", "0:e1", "--horizon", 1, "--n", 2],
        ["classify"],
        ["evolve", "--state", "0:e1", "--t", 1.0],
    ):
        assert run(tmp_path, *argv, "--model", bad, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("ModelError")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--start", "0:e1", "--n", 1, "--horizon"],
        ["evolve", "--state", "0:e1", "--t"],
    ],
    ids=["simulate-horizon", "evolve-t"],
)
def test_non_finite_time_is_a_precondition_error(tmp_path, two_site_file, capsys, argv, value):
    capsys.readouterr()
    code = run(tmp_path, *argv, value, "--model", two_site_file, "--out", tmp_path / "o")
    err = capsys.readouterr().err
    assert code == 4
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("PreconditionError")


@pytest.mark.parametrize("points", [0, -2])
def test_grid_points_below_one_is_a_precondition_error(tmp_path, two_site_file, capsys, points):
    out, csv = tmp_path / "state.json", tmp_path / "law.csv"
    capsys.readouterr()
    code = run(
        tmp_path, "evolve", "--model", two_site_file, "--state", "0:e1", "--t", 1.0,
        "--out", out, "--report", csv, "--grid-points", points,
    )
    err = capsys.readouterr().err
    assert code == 4
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("PreconditionError")
    assert not out.exists() and not csv.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "-1", "0"])
@pytest.mark.parametrize("where", ["global", "subcommand"])
@pytest.mark.parametrize("command", [["validate"], ["evolve", "--state", "0:e1", "--t", 1.0]])
def test_tol_must_be_positive_and_finite(tmp_path, two_site_file, capsys, value, where, command):
    doc = json.loads(two_site_file.read_text())
    for jump in doc["jumps"]:  # jumps scaled by 3: the zero-sum check fails
        jump["matrix"] = (3 * np.array(jump["matrix"])).tolist()
    scaled, out = tmp_path / "scaled.json", tmp_path / "o.json"
    scaled.write_text(json.dumps(doc))
    assert run(tmp_path, "validate", "--model", scaled, "--out", out) == 2
    out.unlink()
    tol = ["--tol", value]
    argv = [*command, "--model", scaled, "--out", out]
    capsys.readouterr()
    code = run(tmp_path, *(tol + argv if where == "global" else argv + tol))
    err = capsys.readouterr().err
    assert code == 4 and not out.exists()
    assert err == f"PreconditionError: --tol must be positive and finite, got {float(value)!r}\n"


def test_classify_eps_must_lie_in_the_unit_interval(tmp_path, capsys):
    path, out = tmp_path / "m.json", tmp_path / "c.json"
    assert run(tmp_path, "fixtures", "--name", "biased-line", "--window", 8, "--out", path) == 0
    for eps in ["2", "1", "0", "-1", "nan"]:  # --eps 2 called this transient walk recurrent
        capsys.readouterr()
        code = run(tmp_path, "classify", "--model", path, "--eps", eps, "--out", out)
        err = capsys.readouterr().err
        assert code == 4 and not out.exists()
        assert err == (f"PreconditionError: eps_spec must lie strictly between 0 and 1, "
                       f"got {float(eps)!r}\n")
    assert run(tmp_path, "classify", "--model", path, "--eps", 0.5, "--out", out) == 0
    assert json.loads(out.read_text())["report"]["case"] == "TransientUniform"


def test_linalg_error_is_a_convergence_exit(tmp_path, two_site_file, capsys, monkeypatch):
    def broken(a):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(linalg, "expm", broken)
    capsys.readouterr()
    code = run(tmp_path, "evolve", "--model", two_site_file, "--state", "0:e1", "--t", 1.0)
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert err == "LinAlgError: singular matrix\n"


@pytest.mark.parametrize("json_logs", [False, True])
def test_out_of_memory_is_a_precondition_exit(tmp_path, two_site_file, capsys, monkeypatch, json_logs):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 TiB for an array")

    monkeypatch.setattr(linalg, "expm", exhausted)
    capsys.readouterr()
    logs = ["--json-logs"] if json_logs else []
    code = run(tmp_path, *logs, "evolve", "--model", two_site_file, "--state", "0:e1", "--t", 1.0)
    err = capsys.readouterr().err
    assert code == 4
    message = "MemoryError: Unable to allocate 1.00 TiB for an array"
    assert err == (json.dumps({"error": message, "exit_code": 4}) if json_logs else message) + "\n"


def test_superlu_allocation_failure_is_a_memory_error(tmp_path, capsys, monkeypatch):
    import scipy.sparse.linalg as spla

    def exhausted(matrix):
        raise RuntimeError("SUPERLU_MALLOC fails for buf in intMalloc()")

    monkeypatch.setattr(spla, "splu", exhausted)
    with pytest.raises(MemoryError, match="SUPERLU_MALLOC"):
        passage.first_passage_map(fixtures.biased_line((-3, 3)), 0, 0)
    path = tmp_path / "line.json"
    assert run(tmp_path, "fixtures", "--name", "biased-line", "--window", 3, "--out", path) == 0
    capsys.readouterr()
    assert run(tmp_path, "classify", "--model", path, "--vertex", 0) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("MemoryError: sparse LU of a ")
    assert "SUPERLU_MALLOC" in err


_FUZZ_WINDOWS = {"two-site-exchange": [], "coherent-pair": [],
                 "biased-line": ["--window", "3"], "spin-biased-line": ["--window", "3"]}
_FUZZ_MODELS = [f"{name}.json" for name in _FUZZ_WINDOWS]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """The built-in fixtures as model files, small windows for the lattices,
    next to a file that is not JSON."""
    d = tmp_path_factory.mktemp("fuzz")
    for name, window in _FUZZ_WINDOWS.items():
        assert main(["fixtures", "--name", name, *window, "--out", str(d / f"{name}.json")]) == 0
    (d / "bad.json").write_text("{not json")
    return d


_BAD_VERTICES = ["-1", "99", "x", "", "1.5"]
# malformed starts: bad basis indices, empty parts, a state file that does
# not exist or is a directory ("{d}" is the fuzz directory)
_BAD_STARTS = ["1:e0", "1:e9", "1:e", "1:", ":", "", "x:e1", "99", "1:{d}/missing.json", "1:{d}"]
_BAD_MODELS = ["bad.json", "missing.json", ""]
# valid numbers, small so that each run is short, and the bad ones
_NUMBERS = {"tol": "1e-10", "seed": "7", "horizon": "2.5", "n": "3", "t": "1",
            "grid": "3", "eps": "1e-8", "window": "2"}
_BAD_NUMBERS = ["-1", "0", "nan", "inf", "-inf", "1e-9", "1.5", "abc"]


@settings(max_examples=300, deadline=None)
@given(data=hst.data())
def test_cli_fuzz_exits_with_a_documented_code(fuzz_dir, data):
    """A command on a built-in fixture with one input made bad (the model
    file, a vertex, the start, or one number) ends in a documented exit
    code, without a traceback."""
    draw = data.draw
    d = str(fuzz_dir)
    bad = draw(hst.sampled_from(["nothing", "model", "vertex", "start", *_NUMBERS]))
    model = draw(hst.sampled_from(_BAD_MODELS if bad == "model" else _FUZZ_MODELS))
    vertex = draw(hst.sampled_from(_BAD_VERTICES)) if bad == "vertex" else "1"
    start = draw(hst.sampled_from(_BAD_STARTS)).format(d=d) if bad == "start" else "1:e1"
    num = dict(_NUMBERS)
    if bad in num:
        num[bad] = draw(hst.sampled_from(_BAD_NUMBERS))
    # numbers go in as --name=value, so that negative ones reach the program
    window = draw(hst.sampled_from([[], [f"--window={num['window']}"]]))
    out = f"{d}/out"
    options = {
        "fixtures": ["--name", draw(hst.sampled_from(["biased-line", "spin-biased-line"]))] + window,
        "validate": [],
        "simulate": ["--start", start, f"--horizon={num['horizon']}", f"--n={num['n']}"],
        "evolve": ["--state", start, f"--t={num['t']}", f"--grid-points={num['grid']}",
                   "--report", out + ".csv"],
        "first-passage": ["--from", start, "--to", vertex] + window,
        "occupation": ["--from", start, "--at", vertex],
        "classify": ["--vertex", vertex, f"--eps={num['eps']}"] + window,
        "irreducible": draw(hst.sampled_from([[], ["--discrete"]])),
    }
    command = draw(hst.sampled_from(sorted(options)))
    model_opt = [] if command == "fixtures" else ["--model", f"{d}/{model}"]
    argv = [f"--tol={num['tol']}", f"--seed={num['seed']}", command, *model_opt,
            *options[command], "--out", out]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in {0, 1, 2, 3, 4}
    assert "Traceback" not in stderr.getvalue()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--seed=-1", "simulate", "--start", "1:e1", "--horizon", 1, "--n", 2], 4,
         "PreconditionError: seed and stream must be nonnegative"),
        (["--seed=18446744073709551616", "simulate", "--start", "0:e1", "--horizon", 1, "--n", 2],
         4, "PreconditionError: seed and stream must be nonnegative integers below 2**64"),
        (["simulate", "--start", "1:{d}", "--horizon", 1, "--n", 2], 1, "IsADirectoryError"),
        (["simulate", "--start", "1:{d}/state.json", "--horizon", 1, "--n", 2], 1,
         "ModelError: initial state at vertex 1 must be a 1x1 matrix"),
        (["validate", "--model", "{d}"], 1, "IsADirectoryError"),
        (["validate", "--out", "{d}/no/such/dir.json"], 1, "FileNotFoundError"),
        (["first-passage", "--from", "0:e1", "--to", "²"], 1, "ModelError: unknown vertex ²"),
        (["first-passage", "--from", "0:e1", "--to", "+-1"], 1, "ModelError: unknown vertex +-1"),
        (["simulate", "--start", "0:e1", "--horizon", 1, "--n", 2, "--queries", "{d}/queries.json"],
         1, "ModelError: unknown vertex 99"),
        (["simulate", "--start", "0:e1", "--horizon", 1, "--n", 2, "--queries", "{d}/nonsense.json",
          "--dump", "{d}/dump.ndjson"], 4, "PreconditionError: unknown query kind 'nonsense'"),
        # usage errors: the usage text, then one error line
        (["simulate", "--start", "0:e1", "--horizon", 1, "--n", 2, "--bogus"], 1,
         "ctoqw: error: unrecognized arguments: --bogus"),
        (["simulate", "--start", "0:e1", "--n", 2], 1,
         "ctoqw simulate: error: the following arguments are required: --horizon"),
        (["simulate", "--start", "0:e1", "--horizon", 1, "--n", "x"], 1,
         "ctoqw simulate: error: argument --n: invalid int value: 'x'"),
        (["fixtures", "--name", "biased-line", "--window", 3, 9], 1,
         "ctoqw: error: unrecognized arguments: 9"),
        # malformed model files
        (["validate", "--model", "{d}/number.json"], 1, "ModelError: a model must be a JSON object"),
        (["validate", "--model", "{d}/null.json"], 1, "ModelError: a model must be a JSON object"),
        (["validate", "--model", "{d}/meta-number.json"], 1,
         "ModelError: 'meta' must be a JSON object"),
        (["validate", "--model", "{d}/escaping-number.json"], 1,
         "ModelError: meta 'escaping' must be a list of vertex ids"),
        (["validate", "--model", "{d}/lattice-number.json"], 1,
         "ModelError: 'lattice' must be a JSON object"),
        (["validate", "--model", "{d}/hamiltonians-number.json"], 1,
         "ModelError: 'hamiltonians' must be a JSON object"),
        (["validate", "--model", "{d}/effective-list.json"], 1,
         "ModelError: 'effective' must be a JSON object"),
        (["validate", "--model", "{d}/no-vertices.json"], 1,
         "ModelError: a model needs at least one vertex"),
        (["irreducible", "--model", "{d}/no-vertices.json"], 1,
         "ModelError: a model needs at least one vertex"),
        (["classify", "--model", "{d}/no-vertices.json"], 1,
         "ModelError: a model needs at least one vertex"),
    ],
    ids=["negative-seed", "seed-past-the-key-range", "state-is-a-directory", "state-of-wrong-shape",
         "model-is-a-directory", "unwritable-out", "superscript-vertex", "double-sign-vertex",
         "unknown-query-vertex", "unknown-query-kind-with-dump", "unknown-flag", "missing-option", "bad-int", "two-windows",
         "model-is-a-number", "model-is-null", "meta-is-a-number", "escaping-is-a-number",
         "lattice-is-a-number", "hamiltonians-is-a-number", "effective-is-a-list",
         "validate-no-vertices", "irreducible-no-vertices", "classify-no-vertices"],
)
def test_bad_inputs_exit_cleanly(tmp_path, two_site_file, capsys, argv, code, message):
    (tmp_path / "state.json").write_text(json.dumps(matrix_to_json(np.eye(2) / 2)))
    doc, scalar = json.loads(two_site_file.read_text()), {"id": 0, "dim": 1}
    for name, content in {"number": 5, "null": None, "meta-number": {**doc, "meta": 5},
                          "escaping-number": {**doc, "meta": {"escaping": 5}},
                          "lattice-number": {"lattice": 5},
                          "hamiltonians-number": {"vertices": [scalar], "hamiltonians": 5},
                          "effective-list": {"vertices": [scalar], "effective": [[1]]},
                          "no-vertices": {"vertices": []}}.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
    (tmp_path / "queries.json").write_text(json.dumps(
        [{"kind": "visits", "vertex": 99}, {"kind": "occupation", "vertex": "1"}]
    ))
    (tmp_path / "nonsense.json").write_text(json.dumps([{"kind": "nonsense"}]))
    argv = [str(a).format(d=tmp_path) for a in argv]
    if "--model" not in argv and argv[0] != "fixtures":
        argv += ["--model", str(two_site_file)]
    capsys.readouterr()
    assert run(tmp_path, *argv) == code
    err = capsys.readouterr().err
    *usage, last = err.splitlines()
    assert err.endswith("\n") and last.startswith(message)
    # only a usage error prints more than its one error line: the usage first
    assert not usage or (": error: " in message and usage[0].startswith("usage: ctoqw"))
    assert not (tmp_path / "dump.ndjson").exists()  # a failed run leaves no dump behind


# a scalar vertex 0 and a qubit vertex 1, with H at 1; each case spoils one
# matrix of the file
_R01, _R10 = [[[1, 0]], [[0, 0]]], [[[0, 0], [1, 0]]]
_H1 = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]


@pytest.mark.parametrize(
    "r01, r10, h1, message",
    [
        ([[[1, 0]], [[0, 0], [0, 0]]], _R10, _H1,
         "a complex matrix must be encoded as rows of [re, im] pairs"),
        ([[[1, 0, 0]], [[0, 0]]], _R10, _H1,
         "a complex matrix must be encoded as rows of [re, im] pairs"),
        (_R01, [[["x", 0], [1, 0]]], _H1,
         "a complex matrix must be encoded as rows of [re, im] pairs"),
        ([[["INF", 0]], [[0, 0]]], _R10, _H1, "a complex matrix has a NaN or infinite entry"),
        (_R01, _R10, [[[1, 0], [0, 0]], [[0, 0], ["NAN", 0]]],
         "a complex matrix has a NaN or infinite entry"),
        ([[[1, 0]]], [[[1, 0]]], _H1, "jump 0 -> 1 must have shape (2, 1), got (1, 1)"),
        (_R01, _R10, [[[1, 0]]], "H at 1 must have shape (2, 2), got (1, 1)"),
    ],
    ids=["ragged-rows", "three-number-pair", "string-entry", "inf", "nan", "jump-shape", "h-shape"],
)
def test_malformed_matrices_exit_with_one_line(tmp_path, capsys, r01, r10, h1, message):
    doc = {"vertices": [{"id": 0, "dim": 1}, {"id": 1, "dim": 2}], "hamiltonians": {"1": h1},
           "jumps": [{"from": 0, "to": 1, "matrix": r01}, {"from": 1, "to": 0, "matrix": r10}]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc).replace('"INF"', "1e999").replace('"NAN"', "NaN"))
    capsys.readouterr()
    assert run(tmp_path, "validate", "--model", path) == 1
    assert capsys.readouterr().err == f"ModelError: {message}\n"


_SITE = matrix_to_json(np.array([[-0.5]]))


@pytest.mark.parametrize(
    "lattice, message",
    [
        ({"window": 5}, "lattice 'window' must be a list [lo, hi], got 5"),
        ({"effective": {"default": _SITE}}, "lattice 'window' must be a list [lo, hi], got None"),
        ({"window": [0, "a"], "effective": {"default": _SITE}}, "lattice window bound must be an integer"),
        ({"window": [0, 2], "dim": [1], "effective": {"default": _SITE}}, "lattice dimension must be an integer"),
        ({"window": [0, 2], "dim": 0, "effective": {"default": _SITE}}, "lattice dimension must be positive"),
        ({"window": [0, 2], "dims": 3, "effective": {"default": _SITE}}, "lattice 'dims' must be a JSON object"),
        ({"window": [0, 2], "dims": {"x": 2}, "effective": {"default": _SITE}}, "lattice 'dims' key must be"),
        ({"window": [0, 2], "effective": 5}, "lattice 'effective' must be a JSON object"),
        ({"window": [0, 2], "hamiltonians": [_SITE]}, "lattice 'hamiltonians' must be a JSON object"),
        ({"window": [0, 2], "effective": {"default": 5}}, "a complex matrix must be encoded"),
        ({"window": [0, 2], "effective": {"default": _SITE}, "jumps": 5}, "lattice 'jumps' must be a list"),
        ({"window": [0, 2], "effective": {"default": _SITE}, "jumps": [5]},
         "a lattice jump must be a JSON object, got 5"),
        ({"window": [0, 2], "effective": {"default": _SITE}, "jumps": [{"matrix": _SITE}]},
         "a lattice jump needs an 'offset', or a 'from' and a 'to'"),
        ({"window": [0, 2], "effective": {"default": _SITE}, "jumps": [{"offset": 1.5, "matrix": _SITE}]},
         "lattice jump 'offset' must be an integer"),
    ],
    ids=["window-number", "window-missing", "window-bound", "dim-list", "dim-zero", "dims-number",
         "dims-key", "effective-number", "hamiltonians-list", "template-number", "jumps-number",
         "jump-number", "jump-without-ends", "offset-fraction"],
)
def test_malformed_lattice_fields_exit_cleanly(tmp_path, capsys, lattice, message):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"lattice": lattice}))
    capsys.readouterr()
    assert run(tmp_path, "validate", "--model", path) == 1
    err = capsys.readouterr().err
    assert err.startswith("ModelError: ") and err.count("\n") == 1 and message in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["simulate", "--help"]) == 0
    assert "--model MODEL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "queries, message",
    [
        ([{"kind": "passage_cdf", "vertex": 1}], "ModelError: query 0: 'grid' must be"),
        ([{"kind": "position_law"}], "ModelError: query 0: 't' must be a finite time"),
        ([{"kind": "passage_cdf", "vertex": 1, "grid": []}], "ModelError: query 0: 'grid' must be"),
        ([{"kind": "passage_cdf", "vertex": 1, "grid": 3}], "ModelError: query 0: 'grid' must be"),
        ([{"kind": "passage_cdf", "vertex": 1, "grid": ["a"]}], "ModelError: query 0: 'grid' must be"),
        ([{"kind": "position_law", "t": "x"}], "ModelError: query 0: 't' must be a finite time"),
        ({"kind": "position_law", "t": 1.0}, "ModelError: queries must be a list of JSON objects"),
        ([5], "ModelError: queries must be a list of JSON objects"),
    ],
    ids=["no-grid", "no-t", "empty-grid", "grid-not-a-list", "grid-of-text", "t-of-text",
         "one-object", "number-entry"],
)
def test_malformed_query_file_exits_with_one_line(tmp_path, two_site_file, capsys, queries, message):
    q = tmp_path / "q.json"
    q.write_text(json.dumps(queries))
    capsys.readouterr()
    code = run(tmp_path, "simulate", "--model", two_site_file, "--start", "0:e1", "--horizon", 2,
               "--n", 5, "--queries", q, "--out", tmp_path / "est.csv")
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1 and err.startswith(message)


@pytest.mark.parametrize(
    "query, message",
    [
        ({"kind": "position_law", "t": -1}, "PreconditionError: position-law time lies before"),
        ({"kind": "passage_cdf", "vertex": 1, "grid": [1.0, -2.0]},
         "PreconditionError: passage grid holds a time before the start"),
    ],
    ids=["negative-law-time", "negative-grid-time"],
)
def test_query_time_before_the_start_exits_4(tmp_path, two_site_file, capsys, query, message):
    q = tmp_path / "q.json"
    q.write_text(json.dumps([query]))
    capsys.readouterr()
    code = run(tmp_path, "simulate", "--model", two_site_file, "--start", "0:e1", "--horizon", 2,
               "--n", 5, "--queries", q, "--out", tmp_path / "est.csv")
    err = capsys.readouterr().err
    assert code == 4 and err.count("\n") == 1 and err.startswith(message)


def test_json_logs_error_is_one_json_object(tmp_path, two_site_file, capsys):
    capsys.readouterr()
    code = run(tmp_path, "--json-logs", "occupation", "--model", two_site_file,
               "--from", "0:e1", "--at", "9")
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1
    assert json.loads(err) == {"error": "ModelError: unknown vertex 9", "exit_code": 1}
    # a usage error too: no usage text, one object
    code = run(tmp_path, "--json-logs", "simulate", "--model", two_site_file, "--start", "0:e1",
               "--horizon", 2, "--n", 5, "--bogus")
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1
    assert json.loads(err) == {"error": "ctoqw: error: unrecognized arguments: --bogus",
                               "exit_code": 1}
    code = run(tmp_path, "simulate", "--json-logs", "--model", two_site_file, "--start", "0:e1",
               "--n", "x", "--horizon", 2)
    err = capsys.readouterr().err
    assert code == 1 and json.loads(err) == {
        "error": "ctoqw simulate: error: argument --n: invalid int value: 'x'", "exit_code": 1}
    code = run(tmp_path, "--json-logs", "--seed", 2**64, "simulate", "--model", two_site_file,
               "--start", "0:e1", "--horizon", 2, "--n", 5)
    err = capsys.readouterr().err
    assert code == 4 and err.count("\n") == 1 and json.loads(err) == {
        "error": "PreconditionError: seed and stream must be nonnegative integers below 2**64",
        "exit_code": 4}
