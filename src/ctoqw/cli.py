"""Command-line interface.

Subcommands: ``validate``, ``evolve``, ``simulate``, ``first-passage``,
``occupation``, ``classify``, ``irreducible``, ``fixtures``.  Every
artifact embeds the model hash, the seed, the tolerances and the tool
version, and contains no timestamps, so re-running a command reproduces
its outputs byte for byte.

Exit codes: 1 parse error (including a file that cannot be read or
written), 2 validation failure, 3 numerical non-convergence (including a
failed dense factorization), 4 precondition violation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, fixtures, model
from .errors import ConvergenceError, ModelError, PreconditionError

if TYPE_CHECKING:
    from . import trajectory

EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_PRECONDITION = 4


def _meta(args, walk, extra=None) -> dict:
    info = {
        "tool": "ctoqw",
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "tolerance": args.tol,
        "model_hash": walk.canonical_hash(),
    }
    if walk.meta.get("window"):
        info["window"] = walk.meta["window"]
    esc = walk.escaping_boundary()
    if esc:
        info["escaping_boundary"] = [str(v) for v in esc]
    if extra:
        info.update(extra)
    return info


def _write(path: str | None, payload: str):
    """Write an artifact to ``path``, or to stdout when it is None or ``-``."""
    if path is None or path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w") as fh:
            fh.write(payload)


def _write_json(path: str | None, doc: dict):
    _write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_csv(path: str | None, header_meta: dict, columns: list[str], rows: str):
    """Write the ``# key = value`` header, the column names and ``rows``,
    the text of the formatted lines."""
    lines = [f"# {k} = {v}\n" for k, v in sorted(header_meta.items())]
    _write(path, "".join(lines) + ",".join(columns) + "\n" + rows)


def _parse_start(spec: str, walk: model.WalkModel) -> model.SitedState:
    """Parse ``vertex[:state]`` where state is ``eK`` (basis projector,
    1-based), ``maxmixed`` (default), or a JSON file with a matrix, which
    must be a state of the vertex: Hermitian and positive semidefinite to
    ``1e-10`` (:func:`model.check_block_state`) with unit trace to ``1e-8``."""
    if ":" in spec:
        vpart, spart = spec.split(":", 1)
    else:
        vpart, spart = spec, "maxmixed"
    vertex = walk.named(vpart)
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
        try:
            model.check_block_state(walk, model.BlockState({vertex: rho}))
            trace = np.trace(rho).real
            if abs(trace - 1.0) > 1e-8:
                raise ModelError(f"trace {trace!r}")
        except ModelError as exc:
            raise ModelError(
                f"initial state at vertex {vertex!r} must be a {d}x{d} matrix, Hermitian, "
                f"positive semidefinite and of unit trace: {exc}"
            ) from None
    return model.SitedState(vertex, rho)


def _windowed_rebuild(walk: model.WalkModel, window: int) -> model.WalkModel:
    spec = walk.meta.get("lattice")
    if spec is None:
        raise PreconditionError("--window requires a model built from a lattice block")
    lo = int(spec["window"][0])
    return model.build_lattice(spec, window=(0 if lo == 0 else -window, window))


# -- subcommand implementations ----------------------------------------------


def _cmd_fixtures(args) -> int:
    walk = fixtures.get_fixture(args.name, args.window)
    doc = walk.to_json_dict()
    doc["meta"] = {k: v for k, v in doc.get("meta", {}).items() if not k.startswith("_")}
    doc["meta"]["generator"] = _meta(args, walk)
    _write_json(args.out, doc)
    return 0


def _cmd_validate(args, walk: model.WalkModel, report: model.ValidationReport) -> int:
    doc = {"meta": _meta(args, walk), "report": report.to_json_dict()}
    _write_json(args.out, doc)
    return 0 if report.ok else EXIT_VALIDATION


class _ValidationFailed(Exception):
    pass


def _cmd_evolve(args, walk: model.WalkModel) -> int:
    from . import semigroup

    if ":" not in args.state and args.state.endswith(".json"):
        with open(args.state) as fh:
            mu = model.state_from_json(json.load(fh), walk)
    else:
        sited = _parse_start(args.state, walk)
        mu = model.sited_block_state(walk, sited.vertex, sited.rho)
    # one grid before any artifact, so a bad --grid-points writes neither;
    # --out is its last point, unless a one-point grid holds t = 0 only
    points = args.grid_points if args.report else 2
    gen = semigroup.build_block_generator(walk)
    grid = semigroup.evolve_grid(walk, mu, args.t, points, generator=gen)
    out = grid.state(-1) if points > 1 else semigroup.evolve(walk, mu, args.t, generator=gen)
    doc = model.state_to_json(out)
    doc["meta"] = _meta(args, walk, {"t": args.t})
    _write_json(args.out, doc)
    if args.report:
        # Probabilities are accurate to about 1e-16 absolute, so they print at
        # a fixed absolute resolution, and a row that rounds to zero prints
        # without a sign.
        rows = []
        for tk, law in zip(grid.times.tolist(), grid.law.tolist()):
            tk = f"{tk:.12g}"
            rows += [f"{tk},{v},{p:.15f}\n" for v, p in zip(walk.ids, law)]
        rows = "".join(rows).replace(",-0.000000000000000\n", ",0.000000000000000\n")
        _write_csv(args.report, _meta(args, walk), ["t", "vertex", "probability"], rows)
    return 0


@functools.cache
def _hermitian_template(d: int) -> tuple[str, np.ndarray, np.ndarray]:
    """The ``str.format`` text of a ``d x d`` Hermitian matrix in the form of
    :func:`model.matrix_to_json`, and the row and column indices of its upper
    triangle.  The text's fields are the diagonal real parts, the real parts
    above the diagonal, their imaginary parts (row by row), and then the text
    of those imaginary parts with the sign flipped."""
    rows, cols = np.triu_indices(d, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    upper = {ij: q for q, ij in enumerate(zip(rows.tolist(), cols.tolist()))}
    p, n = len(upper), d * d

    def entry(i, j):
        if i == j:
            return f"[{{{i}}}, 0.0]"
        q = upper[min(i, j), max(i, j)]
        return f"[{{{d + q}}}, {{{d + p + q if i < j else n + q}}}]"

    text = "[" + ", ".join("[" + ", ".join(entry(i, j) for j in range(d)) + "]"
                           for i in range(d)) + "]"
    return text, rows, cols


def _hermitian_texts(states: np.ndarray) -> list[str]:
    """The json text of the Hermitian part ``(rho + rho^dag) / 2`` of each
    of a stack of ``d x d`` states: ``d^2`` float ``repr`` per state, json's
    text of a finite float.  A lower entry is the exact conjugate of its
    mirror: its imaginary part is the mirror's text with the sign flipped."""
    m, d = states.shape[:2]
    template, i, j = _hermitian_template(d)
    h = 0.5 * (states + states.conj().swapaxes(1, 2))
    diag = np.diagonal(h, axis1=1, axis2=2)
    floats = np.concatenate([diag.real, h.real[:, i, j], h.imag[:, i, j]], axis=1)
    reprs = list(map(repr, floats.ravel().tolist()))
    n, p = d * d, i.size
    out = []
    for a in range(0, m * n, n):
        fields = reprs[a:a + n]
        fields += [s[1:] if s[0] == "-" else "-" + s for s in fields[n - p:]]
        out.append(template.format(*fields))
    return out


def _dump_writer(fh, walk: model.WalkModel, start: model.VertexId):
    """``on_chunk`` of ``simulate --dump``: one JSON line per event, written
    one chunk at a time, each walker's lines in time order after those of
    the walkers before it.  Each line is the text of ``json.dumps(...,
    sort_keys=True)`` on ``{"traj", "t", "from", "to", "rho"}``, where
    ``rho`` is ``matrix_to_json`` of the Hermitian part of the post-jump
    state (:func:`_hermitian_texts`).  The states of a chunk are stacked
    once per dimension, except read-only ones, such as the post-jump state
    the sampler shares among all jumps along an edge of a scalar vertex:
    those are formatted once, found by identity."""
    labels = [json.dumps(str(v)) for v in walk.ids]
    k0 = walk.position(start)
    shared: dict[int, tuple[np.ndarray, str]] = {}  # id -> (state, text); the state keeps its id

    def write(first: int, ev: trajectory._Events):
        texts: list = [None] * len(ev.rho)
        stacks: dict[int, list[int]] = {}  # dimension -> events of writable states
        for j, rho in enumerate(ev.rho):
            hit = shared.get(id(rho))
            if hit is not None:
                texts[j] = hit[1]
            elif rho.flags.writeable:
                stacks.setdefault(rho.shape[0], []).append(j)
            else:
                texts[j] = _hermitian_texts(rho[None])[0]
                shared[id(rho)] = (rho, texts[j])
        for js in stacks.values():
            for j, text in zip(js, _hermitian_texts(np.stack([ev.rho[j] for j in js]))):
                texts[j] = text
        lines, last = [], -1
        for j in np.argsort(ev.walker, kind="stable").tolist():
            i = ev.walker[j]
            if i != last:
                prev, last = labels[k0], i
            to = labels[ev.pos[j]]
            lines.append(f'{{"from": {prev}, "rho": {texts[j]}, "t": {ev.time[j]!r}, '
                         f'"to": {to}, "traj": {first + i}}}\n')
            prev = to
        fh.write("".join(lines))

    return write


def _cmd_simulate(args, walk: model.WalkModel) -> int:
    from . import trajectory

    init = _parse_start(args.start, walk)
    if args.queries:
        with open(args.queries) as fh:
            queries = json.load(fh)
        for q in queries:  # estimate checks the shape of every query
            if isinstance(q, dict) and "vertex" in q:
                q["vertex"] = walk.named(str(q["vertex"]))
    else:
        queries = [{"kind": "position_law", "t": args.horizon / 2.0}]
    to_file = bool(args.dump) and args.dump != "-"
    stdout = sys.stdout if args.dump == "-" else None
    dump = open(args.dump, "w") if to_file else contextlib.nullcontext(stdout)
    try:
        with dump as fh:
            reports = trajectory.estimate(
                walk, init, args.horizon, args.n, seed=args.seed, queries=queries,
                on_chunk=None if fh is None else _dump_writer(fh, walk, init.vertex),
            )
        rows = []
        for qi, rep in enumerate(reports):
            for p in rep.points:
                rows.append(f"{qi},{p.label},{p.estimate:.12g},{p.stderr:.12g},"
                            f"{p.ci_low:.12g},{p.ci_high:.12g},{rep.n}\n")
        _write_csv(
            args.out,
            _meta(args, walk, {"horizon": args.horizon, "n_traj": args.n}),
            ["query_id", "t", "estimate", "stderr", "ci_lo", "ci_hi", "n"],
            "".join(rows),
        )
    except BaseException:
        if to_file:  # a failed run leaves no dump file behind
            with contextlib.suppress(OSError):
                os.remove(args.dump)
        raise
    return 0


def _window_study(walk, args, compute, key):
    """Rerun ``compute`` on rebuilt windows and tabulate the results.

    Each study size N runs at N and 2N; the 2N row also records the
    ``increment`` of ``key`` from N to 2N.
    """
    table = []
    for w in args.window:
        for win in (w, 2 * w):
            rebuilt = _windowed_rebuild(walk, win)
            table.append({"window": win, **compute(rebuilt)})
        table[-1]["increment"] = abs(table[-1][key] - table[-2][key])
    return table


def _cmd_first_passage(args, walk: model.WalkModel) -> int:
    from . import passage

    start = _parse_start(getattr(args, "from"), walk)
    target = walk.named(args.to)
    p_map, diag = passage.first_passage_map(walk, start.vertex, target)
    diag = passage.with_certificates(p_map, diag)
    prob = passage.reach_probability(p_map, start.rho)
    doc = {
        "meta": _meta(args, walk, {"from": str(start.vertex), "to": str(target)}),
        "reach_probability": prob,
        "diagnostics": diag,
        "map_matrix": model.matrix_to_json(p_map.matrix),
    }
    if args.window:
        def compute(rebuilt):
            pm, _ = passage.first_passage_map(rebuilt, start.vertex, target)
            return {"reach_probability": passage.reach_probability(pm, start.rho)}

        doc["window_study"] = _window_study(walk, args, compute, "reach_probability")
    _write_json(args.out, doc)
    return 0


def _cmd_occupation(args, walk: model.WalkModel) -> int:
    from . import passage

    start = _parse_start(getattr(args, "from"), walk)
    target = walk.named(args.at)
    value = passage.expected_occupation(walk, start.vertex, target, start.rho)
    doc = {
        "meta": _meta(args, walk, {"from": str(start.vertex), "at": str(target)}),
        "finite": bool(np.isfinite(value)),
        "expected_occupation": value if np.isfinite(value) else None,
    }
    _write_json(args.out, doc)
    return 0


def _cmd_classify(args, walk: model.WalkModel) -> int:
    from . import classify

    base = None if args.vertex is None else walk.named(args.vertex)
    report = classify.classify_trichotomy(walk, base, eps_spec=args.eps)
    doc = {"meta": _meta(args, walk, {"eps_spec": args.eps}), "report": report.to_json_dict()}
    if args.window:
        def compute(rebuilt):
            r = classify.classify_trichotomy(rebuilt, base, eps_spec=args.eps)
            return {"case": r.case, "spectral_radius": r.spectral_radius}

        doc["window_study"] = _window_study(walk, args, compute, "spectral_radius")
    _write_json(args.out, doc)
    return 0


def _cmd_irreducible(args, walk: model.WalkModel) -> int:
    from . import classify

    if args.discrete:
        verdict = classify.check_discrete_irreducible(walk)
    else:
        verdict = classify.check_irreducible(walk)
    doc = {
        "meta": _meta(args, walk, {"discrete": bool(args.discrete)}),
        "verdict": verdict.to_json_dict(),
    }
    if verdict.witness is not None:
        doc["witness_columns"] = {
            str(v): model.matrix_to_json(q) for v, q in verdict.witness.items()
        }
    _write_json(args.out, doc)
    return 0


# -- parser --------------------------------------------------------------------


class _UsageError(Exception):
    """A command line argparse rejects: ``(usage text, error line)``."""


class _Parser(argparse.ArgumentParser):
    """The parser of ``ctoqw`` and of each subcommand: a usage error raises
    :class:`_UsageError`, which :func:`main` writes and exits ``EXIT_PARSE``
    with."""

    def error(self, message):
        raise _UsageError(self.format_usage(), f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="ctoqw",
        description="Continuous-time open quantum walks: evolve, simulate, "
        "classify.",
        allow_abbrev=False,
    )
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed in [0, 2**64); trajectory k uses Philox4x64-10 keyed by (seed, k)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="structural validation tolerance")
    p.add_argument("--json-logs", action="store_true",
                   help="emit errors as JSON on stderr")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    with_model = argparse.ArgumentParser(add_help=False)
    with_model.add_argument("--model", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    # global flags are also accepted after the subcommand
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    common.add_argument("--json-logs", action="store_true", default=argparse.SUPPRESS)

    def command(name, summary, model=True):
        return sub.add_parser(name, help=summary, allow_abbrev=False,
                              parents=[with_model, common] if model else [common])

    sp = command("fixtures", "emit a built-in model", model=False)
    sp.add_argument("--name", required=True, choices=sorted(fixtures.FIXTURES))
    sp.add_argument("--window", type=int, default=None,
                    help="lattice size N: sites [-N, N] (biased-line) or [0, N] (spin-biased-line)")

    command("validate", "check the structural invariants")

    sp = command("evolve", "propagate a block state exactly")
    sp.add_argument("--state", required=True,
                    help="state file, or 'vertex:eK', or 'vertex:maxmixed'")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--report", default=None,
                    help="also write a (t, vertex, probability) CSV here")
    sp.add_argument("--grid-points", type=int, default=21,
                    help="points of the uniform report grid on [0, t], at least 1")

    sp = command("simulate", "Monte Carlo estimates from trajectories")
    sp.add_argument("--start", required=True)
    sp.add_argument("--horizon", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--queries", default=None, help="JSON file with query list")
    sp.add_argument("--dump", default=None,
                    help="also write one JSON line per jump here ('-' for stdout): traj, t, from, "
                    "to and rho, the Hermitian part of the post-jump state; a dump file is "
                    "removed if the run fails")

    sp = command("first-passage", "exact reach probability operator")
    sp.add_argument("--from", required=True, dest="from")
    sp.add_argument("--to", required=True)
    sp.add_argument("--window", type=int, nargs="+", default=None,
                    help="window convergence study sizes N (each run at N and 2N)")

    sp = command("occupation", "expected total time at a vertex")
    sp.add_argument("--from", required=True, dest="from")
    sp.add_argument("--at", required=True)

    sp = command("classify", "recurrence/transience trichotomy")
    sp.add_argument("--vertex", default=None, help="base vertex")
    sp.add_argument("--eps", type=float, default=1e-8)
    sp.add_argument("--window", type=int, nargs="+", default=None)

    sp = command("irreducible", "irreducibility verdict with witness")
    sp.add_argument("--discrete", action="store_true",
                    help="check the jump-only map instead of the semigroup")

    return p


# the commands that require the model's checks to pass
_COMMANDS = {"evolve": _cmd_evolve, "simulate": _cmd_simulate,
             "first-passage": _cmd_first_passage, "occupation": _cmd_occupation,
             "classify": _cmd_classify, "irreducible": _cmd_irreducible}


def _fail(json_logs: bool, code: int, error) -> int:
    """Write ``error``, an exception or a usage error's line, as one line on
    stderr, or with ``--json-logs`` as one JSON object; return ``code``."""
    msg = error if isinstance(error, str) else f"{type(error).__name__}: {error}"
    if json_logs:
        sys.stderr.write(json.dumps({"error": msg, "exit_code": code}) + "\n")
    else:
        sys.stderr.write(msg + "\n")
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code.  Every command but
    ``fixtures`` has its model loaded and checked here, once: ``validate``
    reports the checks, every other command requires them to pass."""
    argv = sys.argv[1:] if argv is None else argv
    json_logs = "--json-logs" in argv  # read before argparse may reject the line
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except _UsageError as exc:
        usage, line = exc.args
        if not json_logs:
            sys.stderr.write(usage)
        return _fail(json_logs, EXIT_PARSE, line)
    try:
        if args.command == "fixtures":
            return _cmd_fixtures(args)
        with open(args.model) as fh:
            walk = model.model_from_json(json.load(fh))
        report = model.validate(walk, tol=args.tol)
        if args.command == "validate":
            return _cmd_validate(args, walk, report)
        if not report.ok:
            names = sorted({c.name for c in report.failures()})
            raise _ValidationFailed(f"model fails validation checks: {names}")
        return _COMMANDS[args.command](args, walk)
    except (json.JSONDecodeError, OSError, ModelError) as exc:
        return _fail(json_logs, EXIT_PARSE, exc)
    except _ValidationFailed as exc:
        return _fail(json_logs, EXIT_VALIDATION, exc)
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        return _fail(json_logs, EXIT_NONCONVERGENCE, exc)
    except PreconditionError as exc:
        return _fail(json_logs, EXIT_PRECONDITION, exc)
    except MemoryError as exc:  # the model or the window is too large for this machine
        return _fail(json_logs, EXIT_PRECONDITION, exc if str(exc) else "MemoryError: out of memory")


if __name__ == "__main__":
    sys.exit(main())
