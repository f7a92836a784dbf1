"""Command-line interface.

Subcommands: ``validate``, ``evolve``, ``simulate``, ``first-passage``,
``occupation``, ``classify``, ``irreducible``, ``fixtures``.  Every
artifact embeds the model hash, the seed, the tolerances and the tool
version, and contains no timestamps, so re-running a command reproduces
its outputs byte for byte.

Exit codes: 1 parse error, 2 validation failure, 3 numerical
non-convergence, 4 precondition violation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from . import __version__, classify, fixtures, model, passage, semigroup, trajectory
from .errors import ConvergenceError, ModelError, PreconditionError

EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_PRECONDITION = 4


def _meta(args, walk=None, extra=None) -> dict:
    info = {
        "tool": "ctoqw",
        "version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "tolerance": getattr(args, "tol", None),
    }
    if walk is not None:
        info["model_hash"] = walk.canonical_hash()
        if walk.meta.get("window"):
            info["window"] = walk.meta["window"]
        esc = walk.escaping_boundary()
        if esc:
            info["escaping_boundary"] = [str(v) for v in esc]
    if extra:
        info.update(extra)
    return info


def _write_json(path: str | None, doc: dict):
    payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w") as fh:
            fh.write(payload)


def _write_csv(path: str | None, header_meta: dict, columns: list[str], rows):
    lines = [f"# {k} = {v}" for k, v in sorted(header_meta.items())]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    payload = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w") as fh:
            fh.write(payload)


def _load_model(path: str) -> model.WalkModel:
    with open(path) as fh:
        doc = json.load(fh)
    return model.model_from_json(doc)


def _parse_start(spec: str, walk: model.WalkModel) -> model.SitedState:
    """Parse ``vertex[:state]`` where state is ``eK`` (basis projector,
    1-based), ``maxmixed`` (default), or a JSON file with a matrix."""
    if ":" in spec:
        vpart, spart = spec.split(":", 1)
    else:
        vpart, spart = spec, "maxmixed"
    vertex: model.VertexId = int(vpart) if vpart.lstrip("+-").isdigit() else vpart
    d = walk.dim(vertex)
    if spart == "maxmixed":
        rho = np.eye(d) / d
    elif spart.startswith("e") and spart[1:].isdigit():
        k = int(spart[1:]) - 1
        if not 0 <= k < d:
            raise ModelError(f"basis index {spart} out of range for dimension {d}")
        rho = np.zeros((d, d), dtype=complex)
        rho[k, k] = 1.0
    else:
        with open(spart) as fh:
            rho = model.json_to_matrix(json.load(fh))
    return model.SitedState(vertex, rho)


def _windowed_rebuild(walk: model.WalkModel, window: int) -> model.WalkModel:
    spec = walk.meta.get("lattice")
    if spec is None:
        raise PreconditionError(
            "--window requires a model built from a lattice block"
        )
    lo, hi = (int(x) for x in spec["window"])
    if lo == 0:
        return model.build_lattice(spec, window=(0, window))
    return model.build_lattice(spec, window=(-window, window))


# -- subcommand implementations ----------------------------------------------


def _cmd_fixtures(args) -> int:
    window = None if args.window is None else args.window[0]
    walk = fixtures.get_fixture(args.name, window)
    doc = walk.to_json_dict()
    doc.setdefault("meta", {})
    doc["meta"] = {k: v for k, v in doc["meta"].items() if not k.startswith("_")}
    doc["meta"]["generator"] = _meta(args, walk)
    _write_json(args.out, doc)
    return 0


def _cmd_validate(args) -> int:
    walk = _load_model(args.model)
    report = model.validate(walk, tol=args.tol)
    doc = {"meta": _meta(args, walk), "report": report.to_json_dict()}
    _write_json(args.out, doc)
    return 0 if report.ok else EXIT_VALIDATION


def _require_valid(walk: model.WalkModel, tol: float):
    report = model.validate(walk, tol=tol)
    if not report.ok:
        names = sorted({c.name for c in report.failures()})
        raise _ValidationFailed(f"model fails validation checks: {names}")


class _ValidationFailed(Exception):
    pass


def _cmd_evolve(args) -> int:
    walk = _load_model(args.model)
    _require_valid(walk, args.tol)
    if ":" not in args.state and args.state.endswith(".json"):
        with open(args.state) as fh:
            mu = model.state_from_json(json.load(fh), walk)
    else:
        sited = _parse_start(args.state, walk)
        mu = model.sited_block_state(walk, sited.vertex, sited.rho)
    gen = semigroup.build_block_generator(walk)
    out = semigroup.evolve(walk, mu, args.t, generator=gen)
    doc = model.state_to_json(out)
    doc["meta"] = _meta(args, walk, {"t": args.t})
    _write_json(args.out, doc)
    if args.report:
        grid = np.linspace(0.0, args.t, args.grid_points)
        rows = []
        for tg in grid:
            dist = semigroup.position_distribution(
                semigroup.evolve(walk, mu, float(tg), generator=gen)
            )
            for vid, p in dist.items():
                rows.append((f"{tg:.12g}", vid, f"{p:.12g}"))
        _write_csv(
            args.report,
            _meta(args, walk),
            ["t", "vertex", "probability"],
            rows,
        )
    return 0


def _dump_record(fh, k: int, rec: trajectory.TrajectoryRecord):
    prev = rec.initial.vertex
    for ev in rec.events:
        fh.write(
            json.dumps(
                {
                    "traj": k,
                    "t": ev.time,
                    "from": str(prev),
                    "to": str(ev.vertex),
                    "rho": model.matrix_to_json(ev.rho),
                },
                sort_keys=True,
            )
            + "\n"
        )
        prev = ev.vertex


def _cmd_simulate(args) -> int:
    walk = _load_model(args.model)
    _require_valid(walk, args.tol)
    init = _parse_start(args.start, walk)
    if args.queries:
        with open(args.queries) as fh:
            queries = json.load(fh)
    else:
        queries = [{"kind": "position_law", "t": args.horizon / 2.0}]
    with open(args.dump, "w") if args.dump else contextlib.nullcontext() as dump:
        reports = trajectory.estimate(
            walk, init, args.horizon, args.n, seed=args.seed, queries=queries,
            on_record=None if dump is None else functools.partial(_dump_record, dump),
        )
    rows = []
    for qi, rep in enumerate(reports):
        for p in rep.points:
            rows.append(
                (
                    qi,
                    p.label,
                    f"{p.estimate:.12g}",
                    f"{p.stderr:.12g}",
                    f"{p.ci_low:.12g}",
                    f"{p.ci_high:.12g}",
                    rep.n,
                )
            )
    _write_csv(
        args.out,
        _meta(args, walk, {"horizon": args.horizon, "n_traj": args.n}),
        ["query_id", "t", "estimate", "stderr", "ci_lo", "ci_hi", "n"],
        rows,
    )
    return 0


def _window_study(walk, args, compute):
    """Rerun ``compute`` on rebuilt windows and tabulate the results."""
    table = []
    for w in args.window:
        for win in (w, 2 * w):
            rebuilt = _windowed_rebuild(walk, win)
            table.append({"window": win, **compute(rebuilt)})
    return table


def _cmd_first_passage(args) -> int:
    walk = _load_model(args.model)
    _require_valid(walk, args.tol)
    start = _parse_start(getattr(args, "from"), walk)
    target: model.VertexId = (
        int(args.to) if str(args.to).lstrip("+-").isdigit() else args.to
    )
    p_map, diag = passage.first_passage_map(walk, start.vertex, target, tol=args.tol)
    prob = passage.reach_probability(p_map, start.rho)
    doc = {
        "meta": _meta(args, walk, {"from": str(start.vertex), "to": str(target)}),
        "reach_probability": prob,
        "diagnostics": diag,
        "map_matrix": model.matrix_to_json(p_map.matrix),
    }
    if args.window:
        def compute(rebuilt):
            pm, _ = passage.first_passage_map(rebuilt, start.vertex, target, tol=args.tol)
            return {"reach_probability": passage.reach_probability(pm, start.rho)}

        study = _window_study(walk, args, compute)
        for k in range(0, len(study), 2):
            study[k + 1]["increment"] = abs(
                study[k + 1]["reach_probability"] - study[k]["reach_probability"]
            )
        doc["window_study"] = study
    _write_json(args.out, doc)
    return 0


def _cmd_occupation(args) -> int:
    walk = _load_model(args.model)
    _require_valid(walk, args.tol)
    start = _parse_start(getattr(args, "from"), walk)
    target: model.VertexId = (
        int(args.at) if str(args.at).lstrip("+-").isdigit() else args.at
    )
    value = passage.expected_occupation(
        walk, start.vertex, target, start.rho, tol=args.tol
    )
    doc = {
        "meta": _meta(args, walk, {"from": str(start.vertex), "at": str(target)}),
        "finite": bool(np.isfinite(value)),
        "expected_occupation": value if np.isfinite(value) else None,
    }
    _write_json(args.out, doc)
    return 0


def _cmd_classify(args) -> int:
    walk = _load_model(args.model)
    _require_valid(walk, args.tol)
    base = None
    if args.vertex is not None:
        base = int(args.vertex) if str(args.vertex).lstrip("+-").isdigit() else args.vertex
    report = classify.classify_trichotomy(walk, base, eps_spec=args.eps)
    doc = {"meta": _meta(args, walk, {"eps_spec": args.eps}), "report": report.to_json_dict()}
    if args.window:
        def compute(rebuilt):
            r = classify.classify_trichotomy(rebuilt, base, eps_spec=args.eps)
            return {"case": r.case, "spectral_radius": r.spectral_radius}

        study = _window_study(walk, args, compute)
        for k in range(0, len(study), 2):
            study[k + 1]["increment"] = abs(
                study[k + 1]["spectral_radius"] - study[k]["spectral_radius"]
            )
        doc["window_study"] = study
    _write_json(args.out, doc)
    return 0


def _cmd_irreducible(args) -> int:
    walk = _load_model(args.model)
    _require_valid(walk, args.tol)
    if args.discrete:
        verdict = classify.check_discrete_irreducible(walk)
    else:
        verdict = classify.check_irreducible(walk)
    doc = {
        "meta": _meta(args, walk, {"discrete": bool(args.discrete)}),
        "verdict": verdict.to_json_dict(),
    }
    if verdict.witness is not None:
        doc["witness_columns"] = model.matrix_to_json(verdict.witness)
    _write_json(args.out, doc)
    return 0


# -- parser --------------------------------------------------------------------


class _SubParser(argparse.ArgumentParser):
    def __init__(self, *a, **kw):
        kw.setdefault("allow_abbrev", False)
        super().__init__(*a, **kw)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ctoqw",
        description="Continuous-time open quantum walks: evolve, simulate, "
        "classify.",
        allow_abbrev=False,
    )
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="structural validation tolerance")
    p.add_argument("--json-logs", action="store_true",
                   help="emit errors as JSON on stderr")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_SubParser)

    def out_opt(sp):
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        # global flags are also accepted after the subcommand
        sp.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        sp.add_argument("--tol", type=float, default=argparse.SUPPRESS)
        sp.add_argument("--json-logs", action="store_true", default=argparse.SUPPRESS)

    sp = sub.add_parser("fixtures", help="emit a built-in model")
    sp.add_argument("--name", required=True, choices=sorted(fixtures.FIXTURES))
    sp.add_argument("--window", type=int, nargs="+", default=None)
    out_opt(sp)
    sp.set_defaults(func=_cmd_fixtures)

    sp = sub.add_parser("validate", help="check the structural invariants")
    sp.add_argument("--model", required=True)
    out_opt(sp)
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("evolve", help="propagate a block state exactly")
    sp.add_argument("--model", required=True)
    sp.add_argument("--state", required=True,
                    help="state file, or 'vertex:eK', or 'vertex:maxmixed'")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--report", default=None,
                    help="also write a (t, vertex, probability) CSV here")
    sp.add_argument("--grid-points", type=int, default=21)
    out_opt(sp)
    sp.set_defaults(func=_cmd_evolve)

    sp = sub.add_parser("simulate", help="Monte Carlo estimates from trajectories")
    sp.add_argument("--model", required=True)
    sp.add_argument("--start", required=True)
    sp.add_argument("--horizon", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--queries", default=None, help="JSON file with query list")
    sp.add_argument("--dump", default=None, help="line-delimited event dump path")
    out_opt(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("first-passage", help="exact reach probability operator")
    sp.add_argument("--model", required=True)
    sp.add_argument("--from", required=True, dest="from")
    sp.add_argument("--to", required=True)
    sp.add_argument("--window", type=int, nargs="+", default=None,
                    help="window convergence study sizes N (each run at N and 2N)")
    out_opt(sp)
    sp.set_defaults(func=_cmd_first_passage)

    sp = sub.add_parser("occupation", help="expected total time at a vertex")
    sp.add_argument("--model", required=True)
    sp.add_argument("--from", required=True, dest="from")
    sp.add_argument("--at", required=True)
    out_opt(sp)
    sp.set_defaults(func=_cmd_occupation)

    sp = sub.add_parser("classify", help="recurrence/transience trichotomy")
    sp.add_argument("--model", required=True)
    sp.add_argument("--vertex", default=None, help="base vertex")
    sp.add_argument("--eps", type=float, default=1e-8)
    sp.add_argument("--window", type=int, nargs="+", default=None)
    out_opt(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("irreducible", help="irreducibility verdict with witness")
    sp.add_argument("--model", required=True)
    sp.add_argument("--discrete", action="store_true",
                    help="check the jump-only map instead of the semigroup")
    out_opt(sp)
    sp.set_defaults(func=_cmd_irreducible)

    return p


def _fail(args, code: int, exc: Exception) -> int:
    msg = f"{type(exc).__name__}: {exc}"
    if getattr(args, "json_logs", False):
        sys.stderr.write(json.dumps({"error": msg, "exit_code": code}) + "\n")
    else:
        sys.stderr.write(msg + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (json.JSONDecodeError, FileNotFoundError, ModelError) as exc:
        return _fail(args, EXIT_PARSE, exc)
    except _ValidationFailed as exc:
        return _fail(args, EXIT_VALIDATION, exc)
    except ConvergenceError as exc:
        return _fail(args, EXIT_NONCONVERGENCE, exc)
    except PreconditionError as exc:
        return _fail(args, EXIT_PRECONDITION, exc)


if __name__ == "__main__":
    sys.exit(main())
