import json

import numpy as np
import pytest

from ctoqw import trajectory
from ctoqw.cli import main
from ctoqw.model import SitedState, model_from_json


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
    simulate = trajectory.simulate
    streams = []

    def counting(*args, **kwargs):
        streams.append(kwargs["stream"])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(trajectory, "simulate", counting)
    dump = tmp_path / "events.ndjson"
    code = run(
        tmp_path, "simulate", "--model", spin_file, "--start", "1:e1",
        "--horizon", 3, "--n", 5, "--seed", 1, "--out", tmp_path / "est.csv",
        "--dump", dump,
    )
    assert code == 0
    # estimation and dumping share one pass over the trajectories
    assert streams == list(range(5))
    events = [json.loads(line) for line in dump.read_text().splitlines()]
    assert events
    assert set(events[0]) == {"traj", "t", "from", "to", "rho"}
    walk = model_from_json(json.loads(spin_file.read_text()))
    init = SitedState(1, np.diag([1.0, 0.0]))
    expected = [
        (k, ev.time, str(ev.vertex))
        for k in range(5)
        for ev in simulate(walk, init, 3.0, seed=1, stream=k).events
    ]
    assert [(ev["traj"], ev["t"], ev["to"]) for ev in events] == expected


def test_first_passage_and_occupation(tmp_path, spin_file):
    fp = tmp_path / "fp.json"
    code = run(
        tmp_path, "first-passage", "--model", spin_file, "--from", "1:e2",
        "--to", 1, "--out", fp,
    )
    assert code == 0
    doc = json.loads(fp.read_text())
    assert doc["reach_probability"] == pytest.approx(1.0, abs=1e-9)
    occ = tmp_path / "occ.json"
    code = run(
        tmp_path, "occupation", "--model", spin_file, "--from", "1:e1",
        "--at", 1, "--out", occ,
    )
    assert code == 0
    doc = json.loads(occ.read_text())
    assert doc["finite"] and doc["expected_occupation"] > 0


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
