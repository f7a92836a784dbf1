"""ctoqw benchmark: every CLI command, in-process, on seeded workloads.

    python3 perfbench/run.py --workload drift-lattice --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere; the program is imported from ``src/`` next to this
directory.  A run writes the workload's inputs (timing that set-up in fresh
interpreters), then calls ``ctoqw.cli.main(argv)`` for every command on every
model, round-robin, until ``--seconds`` have passed.  Every artifact is
checked: the exit code, the closed-form answers, agreement of the simulated
position law with the exact one, and byte-identical repeats.

A fixed reference kernel (``reference.py``) is timed between every two
timed calls, and each call's wall time is rescaled to a nominal machine
speed by the kernel times around it.  A command's time is the median of its
rescaled calls; its tail and raw wall-time median are printed beside it.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics.  The lines before it, prefixed ``#``, give the
environment, sample counts and high percentiles.  ``--smoke`` runs every
workload at a tiny size in both modes and checks that the emitted metrics
and units match ``BENCHMARK.json`` and that every traced function exists.
See README.md for the metrics and what each should move.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one BLAS thread measured lower and steadier
# timings than OpenBLAS's default of one thread per core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_EVERY = 5.0  # seconds between set-up probes during a run

sys.path.insert(0, HERE)
import inputs  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402

# name -> (unit, better); the end-to-end metrics, in report order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "classify_s": ("s", "lower"),
    "first_passage_s": ("s", "lower"),
    "occupation_s": ("s", "lower"),
    "irreducible_s": ("s", "lower"),
    "evolve_report_s": ("s", "lower"),
    "simulate_s": ("s", "lower"),
    "simulate_dump_s": ("s", "lower"),
    "mc_traj_per_s": ("1/s", "higher"),
    "mc_events_per_s": ("1/s", "higher"),
    "workload_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer metrics of one traced pass (every command once on every model).
PER_LAYER = {
    "model.model_from_json.s": ("s", "lower"),
    "model.validate.s": ("s", "lower"),
    "model.validate.calls": ("count", "lower"),
    "model.build_walk.s": ("s", "lower"),
    "linalg.expm.calls": ("count", "lower"),
    "linalg.expm.s": ("s", "lower"),
    "linalg.expm.max_n": ("count", "lower"),
    "linalg.spectral_radius.calls": ("count", "lower"),
    "linalg.spectral_radius.s": ("s", "lower"),
    "linalg.spectral_radius.max_n": ("count", "lower"),
    "linalg.power_iteration.calls": ("count", "lower"),
    "linalg.power_iteration.s": ("s", "lower"),
    "linalg.lyapunov_dwell.s": ("s", "lower"),
    "linalg.require_stable.calls": ("count", "lower"),
    "linalg.Propagator.calls": ("count", "lower"),
    "linalg.Propagator.at.calls": ("count", "lower"),
    "superop.SuperOp.choi_min_eigenvalue.s": ("s", "lower"),
    "superop.SuperOp.trace_increase_defect.s": ("s", "lower"),
    "superop.SuperOp.from_kraus.calls": ("count", "lower"),
    "passage.jump_kernel.calls": ("count", "lower"),
    "passage.jump_kernel.s": ("s", "lower"),
    "passage.jump_kernel.reuse": ("ratio", "higher"),
    "passage.jump_kernel.per_classify": ("count", "lower"),
    "passage.dwell_superop.calls": ("count", "lower"),
    "passage.first_passage_map.calls": ("count", "lower"),
    "passage.first_passage_map.s": ("s", "lower"),
    "passage.first_passage_map.self_s": ("s", "lower"),
    "passage.series_fallbacks": ("count", "lower"),
    "passage.expected_occupation.s": ("s", "lower"),
    "classify.check_irreducible.s": ("s", "lower"),
    "classify.check_discrete_irreducible.s": ("s", "lower"),
    "classify.algebra_dim": ("count", "lower"),
    "classify.classify_trichotomy.self_s": ("s", "lower"),
    "classify.scan_vertices": ("count", "lower"),
    "classify.scan_scalar_vertices": ("count", "lower"),
    "semigroup.build_block_generator.s": ("s", "lower"),
    "semigroup.block_dim": ("count", "lower"),
    "semigroup.evolve.calls": ("count", "lower"),
    "semigroup.evolve.self_s": ("s", "lower"),
    "trajectory.simulate.calls": ("count", "lower"),
    "trajectory.simulate.s": ("s", "lower"),
    "trajectory.events": ("count", "lower"),
    "trajectory.escaped": ("count", "lower"),
    "trajectory.absorbed": ("count", "lower"),
    "trajectory.estimate.self_s": ("s", "lower"),
    "trajectory.dump_resim_ratio": ("ratio", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Command kind -> end-to-end metric its time adds to.
KIND_METRIC = {
    "classify": "classify_s",
    "first_passage": "first_passage_s",
    "occupation": "occupation_s",
    "irreducible": "irreducible_s",
    "irreducible_discrete": "irreducible_s",
    "evolve_report": "evolve_report_s",
    "simulate": "simulate_s",
    "simulate_dump": "simulate_dump_s",
}

# Position-law agreement: |count - n p| <= Z * sqrt(n p (1 - p)) + SLACK,
# for every vertex and the escaped mass.  A false alarm needs a 6-sigma
# deviation, so it is rarer than 1e-8 per vertex.
LAW_Z = 6.0
LAW_SLACK = 6.0


class Op:
    """One CLI call on one model, repeated; keeps its timings and verdicts."""

    def __init__(self, spec, kind, argv, outputs):
        self.spec = spec
        self.kind = kind
        self.argv = argv
        self.outputs = outputs
        self.samples: list[float] = []  # untraced calls, wall time
        self.marks: list[int] = []  # the reference kernel call after each
        self.traced: list[float] = []  # traced calls, kept apart
        self.traced_marks: list[int] = []
        self.digest = None
        self.failures = 0
        self.wrong = False  # an artifact failed a content check
        self.messages: list[str] = []

    def label(self):
        return f"{self.spec.label}:{self.kind}"

    def median(self):
        return statistics.median(self.samples)

    def scaled(self, ref, traced=False):
        """The untraced (or traced) calls at nominal machine speed."""
        if traced:
            return [ref.at_nominal(w, k) for w, k in zip(self.traced, self.traced_marks)]
        return [ref.at_nominal(w, k) for w, k in zip(self.samples, self.marks)]

    def failed(self):
        """Failed calls; every call fails when the artifact is wrong."""
        return len(self.samples) + len(self.traced) if self.wrong else self.failures

    def artifact_bytes(self):
        return sum(os.path.getsize(p) for p in self.outputs if os.path.exists(p))


def build_ops(specs, work, seed) -> list[Op]:
    ops = []
    for spec in specs:
        model = inputs.model_path(work, spec)
        out = os.path.join(work, spec.label)
        sim = [
            "simulate", "--model", model, "--start", spec.start,
            "--horizon", repr(spec.horizon), "--n", str(spec.n_traj),
            "--seed", str(seed), "--queries", inputs.queries_path(work, spec),
        ]
        table = [
            ("classify", ["classify", "--model", model, "--vertex", spec.target], ".classify.json", []),
            ("first_passage", ["first-passage", "--model", model, "--from", spec.start, "--to", spec.target], ".passage.json", []),
            ("occupation", ["occupation", "--model", model, "--from", spec.start, "--at", spec.target], ".occupation.json", []),
            ("irreducible", ["irreducible", "--model", model], ".irreducible.json", []),
            ("irreducible_discrete", ["irreducible", "--model", model, "--discrete"], ".discrete.json", []),
            ("evolve_report", ["evolve", "--model", model, "--state", spec.start, "--t", repr(spec.t_law), "--report", out + ".law.csv"], ".state.json", [out + ".law.csv"]),
            ("simulate", sim, ".estimate.csv", []),
            ("simulate_dump", sim + ["--dump", out + ".events.ndjson"], ".dump-estimate.csv", [out + ".events.ndjson"]),
        ]
        for kind, argv, suffix, extra in table:
            ops.append(Op(spec, kind, argv + ["--out", out + suffix], [out + suffix] + extra))
    return ops


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def execute(op, cli, ref) -> None:
    """Time one call, then the reference kernel; count the call failed on a
    bad exit, an exception, or an artifact that differs from the first
    repetition."""
    gc.collect()
    start = time.perf_counter()
    try:
        rc = cli.main(op.argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        rc = None
        op.messages.append(traceback.format_exc(limit=3))
    op.samples.append(time.perf_counter() - start)
    op.marks.append(ref.mark())
    digest = {p: _sha256(p) if os.path.exists(p) else None for p in op.outputs}
    if op.digest is None:
        op.digest = digest
    if rc != 0:
        op.failures += 1
        op.messages.append(f"exit code {rc}")
    elif None in digest.values() or digest != op.digest:
        op.failures += 1
        op.messages.append("artifact missing or not byte-identical to the first run")


# -- correctness gate ---------------------------------------------------------


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _csv_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _within(value, expected, slack):
    """One-sided closeness: a window only loses mass, so the value may sit
    below the infinite-lattice answer by ``slack`` and never above it."""
    return expected - slack - 1e-9 <= value <= expected + 1e-9


def gate(ops_of) -> list[tuple[Op, str]]:
    """Check a model's first artifacts; return (op, problem) pairs."""
    spec = ops_of["classify"].spec
    want = spec.expect
    bad = []
    report = _load(ops_of["classify"].outputs[0])["report"]
    if report["case"] != want["case"]:
        bad.append((ops_of["classify"], f"case {report['case']}, want {want['case']}"))
    if "exhibit_vertex" in want and report["exhibit_vertex"] != want["exhibit_vertex"]:
        bad.append((ops_of["classify"], f"exhibit vertex {report['exhibit_vertex']}"))

    value, slack = want["reach"]
    reach = _load(ops_of["first_passage"].outputs[0])["reach_probability"]
    if not _within(reach, value, slack):
        bad.append((ops_of["first_passage"], f"reach probability {reach!r}, want {value} - {slack:.1e}"))

    occ = _load(ops_of["occupation"].outputs[0])
    if "occupation" in want:
        value, slack = want["occupation"]
        if math.isinf(value):
            ok = occ["finite"] is False
        else:
            ok = occ["finite"] and _within(occ["expected_occupation"], value, slack)
        if not ok:
            bad.append((ops_of["occupation"], f"expected occupation {occ}, want {value}"))

    for kind, key in (("irreducible", "irreducible"), ("irreducible_discrete", "discrete_irreducible")):
        if key not in want:
            continue
        doc = _load(ops_of[kind].outputs[0])
        got = doc["verdict"]["irreducible"]
        if got != want[key] or (not got and "witness_columns" not in doc):
            bad.append((ops_of[kind], f"irreducible {got}, want {want[key]} with a witness when reducible"))

    bad += [(ops_of["simulate"], p) for p in law_problems(ops_of["evolve_report"], ops_of["simulate"])]
    dump, plain = ops_of["simulate_dump"], ops_of["simulate"]
    if _sha256(dump.outputs[0]) != _sha256(plain.outputs[0]):
        bad.append((dump, "estimates of the --dump run differ from the identical run without it"))
    return bad


def law_problems(evolve_op, simulate_op) -> list[str]:
    """Compare the simulated position law at t with the exact evolve law."""
    rows = _csv_rows(evolve_op.outputs[1])
    t_end = max(float(r[0]) for r in rows)
    exact = {r[1]: float(r[2]) for r in rows if float(r[0]) == t_end}
    exact["escaped"] = max(0.0, 1.0 - sum(exact.values()))
    est = {r[1]: (float(r[2]), int(r[6])) for r in _csv_rows(simulate_op.outputs[0]) if r[0] == "0"}
    problems = []
    if set(est) != set(exact):
        return [f"position-law labels differ: {sorted(set(est) ^ set(exact))[:5]}"]
    for label, p in exact.items():
        frac, n = est[label]
        p = min(max(p, 0.0), 1.0)
        dev = abs(round(frac * n) - n * p)
        if dev > LAW_Z * math.sqrt(n * p * (1.0 - p)) + LAW_SLACK:
            problems.append(f"position law at {label}: simulated {frac:.4g}, exact {p:.4g}")
    return problems


# -- per-layer metrics from spans ----------------------------------------------


def layer_metrics(spans, lo, hi, op_ranges) -> dict:
    """Per-layer metrics of one traced pass, from spans[lo:hi]."""
    N, S, E, P, D = tracer.NAME, tracer.START, tracer.END, tracer.PARENT, tracer.DATA
    selfs = tracer.self_times(spans, lo, hi)
    calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
    data = defaultdict(list)
    root = {}
    for k in range(lo, hi):
        s = spans[k]
        calls[s[N]] += 1
        incl[s[N]] += s[E] - s[S]
        self_s[s[N]] += selfs[k - lo]
        data[s[N]].append((k, s[D]))
        root[k] = root[s[P]] if s[P] >= lo else k

    m = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            m[name] = calls[base]
        elif stat == "s":
            m[name] = incl[base]
        elif stat == "self_s":
            m[name] = self_s[base]
    m["linalg.expm.max_n"] = max((d for _, d in data["linalg.expm"]), default=0)
    m["linalg.spectral_radius.max_n"] = max((d for _, d in data["linalg.spectral_radius"]), default=0)
    jk = data["passage.jump_kernel"]
    m["passage.jump_kernel.reuse"] = len({(root[k], d) for k, d in jk}) / len(jk) if jk else 1.0
    fpm = data["passage.first_passage_map"]
    m["passage.series_fallbacks"] = sum(1 for _, d in fpm if d and d["method"] == "series")
    m["classify.algebra_dim"] = max(
        (d for name in ("classify.check_irreducible", "classify.check_discrete_irreducible")
         for _, d in data[name] if d is not None), default=0)
    # The first passage map under a classify span is the base vertex's; the
    # rest are the transient scan over the other vertices.
    scan = scalar = 0
    seen_base = set()
    for k, d in fpm:
        parent = spans[k][P]
        if parent < lo or spans[parent][N] != "classify.classify_trichotomy" or d is None:
            continue
        if parent not in seen_base:
            seen_base.add(parent)
            continue
        scan += 1
        scalar += d["dim"] == 1
    m["classify.scan_vertices"] = scan
    m["classify.scan_scalar_vertices"] = scalar
    m["semigroup.block_dim"] = max((d for _, d in data["semigroup.build_block_generator"] if d), default=0)
    sims = [d for _, d in data["trajectory.simulate"] if d]
    m["trajectory.events"] = sum(d["events"] for d in sims)
    m["trajectory.escaped"] = sum(d["escaped"] for d in sims)
    m["trajectory.absorbed"] = sum(d["absorbed"] for d in sims)

    def per_op(kind, name, scale):
        counts = [
            sum(1 for k in range(a, b) if spans[k][N] == name) / scale(op)
            for op, a, b in op_ranges if op.kind == kind
        ]
        return statistics.mean(counts) if counts else 0.0

    m["passage.jump_kernel.per_classify"] = per_op("classify", "passage.jump_kernel", lambda op: 1)
    m["trajectory.dump_resim_ratio"] = per_op(
        "simulate_dump", "trajectory.simulate", lambda op: op.spec.n_traj
    )
    m["cli.artifact_bytes"] = sum(op.artifact_bytes() for op, _, _ in op_ranges)
    return m


# -- one workload run ------------------------------------------------------------


def time_setup(argv, ref) -> tuple[float, int]:
    """Wall time of a fresh interpreter writing and validating the inputs,
    and the reference kernel call after it; every call rewrites the same
    files."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired as exc:
        raise SetupError(f"set-up took longer than {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise SetupError(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    wall = time.perf_counter() - start
    return wall, ref.mark()


class SetupError(RuntimeError):
    pass


def run_workload(workload, seed, seconds, trace, tiny=False) -> dict:
    """Run one workload and return the result document."""
    work = os.path.join(WORK, f"{workload}-s{seed}{'-tiny' if tiny else ''}-t{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    setup_argv = [sys.executable, os.path.join(HERE, "inputs.py"), workload, str(seed), work]
    if tiny:
        setup_argv.append("--tiny")
    ref = reference.Reference()
    setup = [time_setup(setup_argv, ref)]

    import ctoqw.cli as cli
    from ctoqw import model

    specs = inputs.workload_models(workload, tiny)
    problems = []
    for spec in specs:
        if spec.fixture is None:
            with open(inputs.model_path(work, spec)) as fh:
                problems += inputs.check_ring(model.model_from_json(json.load(fh)))
    if problems:
        raise SetupError("; ".join(problems))

    ops = build_ops(specs, work, seed)
    tr = tracer.Tracer()
    layer_passes = []

    def full_pass(traced):
        lo = len(tr.spans)
        ranges = []
        start = time.perf_counter()
        for op in ops:
            a = len(tr.spans)
            if traced:
                with tr:
                    execute(op, cli, ref)
                op.traced.append(op.samples.pop())
                op.traced_marks.append(op.marks.pop())
            else:
                execute(op, cli, ref)
            ranges.append((op, a, len(tr.spans)))
        if traced:
            layer_passes.append(layer_metrics(tr.spans, lo, len(tr.spans), ranges))
        return time.perf_counter() - start

    t0 = time.perf_counter()
    deadline = t0 + seconds
    last = {False: full_pass(False)}
    by_model = defaultdict(dict)
    for op in ops:
        by_model[op.spec.label][op.kind] = op
    for ops_of in by_model.values():
        try:
            verdicts = gate(ops_of)
        except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            # an unreadable artifact fails every command of the model
            verdicts = [(op, f"gate could not read artifacts: {exc!r}") for op in ops_of.values()]
        for op, why in verdicts:
            op.wrong = True
            op.messages.append(why)

    if trace:
        last[True] = full_pass(True)
        mode = False
        while time.perf_counter() + last[mode] <= deadline:
            last[mode] = full_pass(mode)
            mode = not mode
    else:
        # Set-up probes are spread over the run like the commands.
        last_probe = t0
        while True:
            ran = False
            for op in ops:
                now = time.perf_counter()
                if now - last_probe >= SETUP_EVERY and now + statistics.median(w for w, _ in setup) <= deadline:
                    setup.append(time_setup(setup_argv, ref))
                    last_probe = time.perf_counter()
                if time.perf_counter() + op.median() <= deadline:
                    execute(op, cli, ref)
                    ran = True
            if not ran:
                break
    measured = time.perf_counter() - t0

    attempted = sum(len(op.samples) + len(op.traced) for op in ops)
    failed = sum(op.failed() for op in ops)
    dump_lines = {}
    for op in ops:
        if op.kind == "simulate_dump" and os.path.exists(op.outputs[1]):  # failed calls write none
            with open(op.outputs[1]) as fh:
                dump_lines[op.spec.label] = sum(1 for _ in fh)

    scaled = {op.label(): op.scaled(ref) for op in ops}
    setup_scaled = [ref.at_nominal(w, k) for w, k in setup]
    sums = defaultdict(float)
    for op in ops:
        sums[KIND_METRIC[op.kind]] += statistics.median(scaled[op.label()])
    sim = sums["simulate_s"]
    e2e = {
        "setup_s": statistics.median(setup_scaled),
        **{name: sums[name] for name in dict.fromkeys(KIND_METRIC.values())},
        "mc_traj_per_s": sum(s.n_traj for s in specs) / sim,
        "mc_events_per_s": sum(dump_lines.values()) / sim,
        "workload_s": sum(statistics.median(v) for v in scaled.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    doc = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "measured_s": measured,
        "trace": bool(trace),
        "environment": environment(),
        "attempted": attempted,
        "failed": failed,
        "setup_samples": [w for w, _ in setup],
        "setup_scaled": setup_scaled,
        "reference": {"nominal_s": reference.NOMINAL_S, "times": ref.times},
        "ops": {
            op.label(): {
                "samples": op.samples,
                "scaled_samples": scaled[op.label()],
                "traced_samples": op.traced,
                "failures": op.failed(),
                "messages": op.messages[:5],
            }
            for op in ops
        },
        "dump_lines": dump_lines,
        "end_to_end": e2e,
    }
    if trace:
        untraced = sum(statistics.median(v) for v in scaled.values())
        traced = sum(statistics.median(op.scaled(ref, traced=True)) for op in ops)
        layers = {
            name: statistics.median(p[name] for p in layer_passes) for name in PER_LAYER
            if name != "trace.overhead_ratio"
        }
        layers["trace.overhead_ratio"] = traced / untraced
        doc["per_layer"] = layers
        doc["traced_passes"] = len(layer_passes)
        with open(os.path.join(work, "spans.json"), "w") as fh:
            json.dump(tr.spans, fh)
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or commit
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ctoqw")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "machine": platform.machine(),
    }


# -- reporting -------------------------------------------------------------------


def tail_percentile(samples):
    """Highest of p50..p99 with at least ten samples beyond it, and its value."""
    n = len(samples)
    best = None
    for q in (50, 75, 90, 95, 99):
        if n * (1 - q / 100) >= 10:
            best = (q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1])
    return best


def report_lines(doc) -> list[str]:
    env = doc["environment"]
    lines = [
        f"# ctoqw benchmark: workload={doc['workload']} seed={doc['seed']} "
        f"seconds={doc['seconds']} trace={int(doc['trace'])} measured={doc['measured_s']:.1f}s",
        "# env: " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    scaled, wall = defaultdict(list), defaultdict(list)  # metric -> one sample list per model
    for label, op in doc["ops"].items():
        name = KIND_METRIC[label.rsplit(":", 1)[1]]
        scaled[name].append(op["scaled_samples"])
        wall[name].append(op["samples"])
    scaled["setup_s"].append(doc["setup_scaled"])
    wall["setup_s"].append(doc["setup_samples"])
    for name, value in doc["end_to_end"].items():
        line = f"# {name} = {value:.6g} {END_TO_END[name][0]}"
        if name in scaled:
            tails = [tail_percentile(v) for v in scaled[name]]
            tail = "-" if None in tails else f"p{min(q for q, _ in tails)}={sum(v for _, v in tails):.4g}"
            line += (
                f"  samples/model={min(len(v) for v in scaled[name])}  tail={tail}"
                f"  wall median={sum(statistics.median(v) for v in wall[name]):.4g}"
            )
        lines.append(line)
    rt = doc["reference"]["times"]
    lines.append(
        f"# reference kernel: median={statistics.median(rt):.4g} s over {len(rt)} calls,"
        f" nominal={doc['reference']['nominal_s']} s"
    )
    if doc["trace"]:
        for name, value in doc["per_layer"].items():
            lines.append(f"# {name} = {value:.6g} {PER_LAYER[name][0]}")
    ratio = doc["failed"] / doc["attempted"]
    lines.append(f"# failed_ratio = {doc['failed']}/{doc['attempted']} = {ratio:.4g}")
    for label, op in doc["ops"].items():
        if op["failures"]:
            why = " | ".join(m.strip().replace("\n", " / ") for m in op["messages"])
            lines.append(f"# FAILED {label} x{op['failures']}: {why}")
    return lines


def result_line(doc) -> dict:
    table = PER_LAYER if doc["trace"] else END_TO_END
    values = doc["per_layer"] if doc["trace"] else doc["end_to_end"]
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": values[name], "unit": table[name][0]} for name in table},
    }


# -- smoke test ------------------------------------------------------------------


def smoke() -> int:
    """Every workload at a tiny size, both modes; checks metric names and
    units against BENCHMARK.json and that every traced function exists."""
    problems = []
    try:
        tracer.resolve()
    except AttributeError as exc:
        problems.append(str(exc))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if [w["name"] for w in bench["workloads"]] != list(inputs.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from inputs.WORKLOADS")
    for workload in inputs.WORKLOADS:
        for trace in (0, 1):
            doc = run_workload(workload, 1, 0.5, trace, tiny=True)
            res = result_line(doc)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{workload} trace={trace}: metrics {got} != BENCHMARK.json {declared[trace]}")
            if not res["correct"]:
                problems.append(f"{workload} trace={trace}: {res['failed']} failed operations")
            bad = [k for k, v in res["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{workload} trace={trace}: non-finite {bad}")
            print(f"# smoke {workload} trace={trace}: {res['attempted']} operations, {res['failed']} failed")
    for p in problems:
        print(f"# SMOKE FAILURE: {p}")
    print("# smoke " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny self-test of the benchmark")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ctoqw", "cli.py")):
        print(f"no ctoqw sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    try:
        doc = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 3
    for line in report_lines(doc):
        print(line)
    print(json.dumps(result_line(doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
