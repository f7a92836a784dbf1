"""Walk models on graphs with vertex-local internal Hilbert spaces.

A model is a finite vertex set V, a complex space of dimension ``d_i`` at
each vertex, a Hermitian on-site operator ``H_i``, and jump operators
``R[i->j]`` of shape ``(d_j, d_i)`` for ordered pairs of distinct vertices.
Each vertex carries the effective dwell generator

    G_i = -i H_i - (1/2) sum_j R[i->j]^dag R[i->j] - (1/2) D_i,

where ``D_i`` is a positive semidefinite *escape defect*.  Closed models
have ``D_i = 0`` at every vertex, so ``G_i + G_i^dag + sum_j R^dag R = 0``
exactly and total probability is conserved.  Models obtained by clipping an
infinite lattice to a finite window carry ``D_i > 0`` on boundary vertices:
the weight of the dropped outward jumps, through which the walker escapes
the window.  Scalar internal spaces (``d_i = 1`` everywhere) reproduce
classical continuous-time Markov chains.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ModelError

STRUCT_TOL = 1e-10

VertexId = int | str


@dataclass(frozen=True)
class VertexSpace:
    """A vertex label together with its internal dimension."""

    id: VertexId
    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ModelError(f"vertex {self.id!r}: dimension must be an integer >= 1")


@dataclass(frozen=True)
class SitedState:
    """An initial condition: a vertex plus a density matrix on its space."""

    vertex: VertexId
    rho: np.ndarray

    def __post_init__(self):
        rho = np.atleast_2d(np.asarray(self.rho, dtype=complex))
        object.__setattr__(self, "rho", rho)
        if rho.shape[0] != rho.shape[1]:
            raise ModelError("sited state density matrix must be square")


@dataclass
class BlockState:
    """A vertex-indexed family of positive matrices with total trace one.

    Blocks are stored in model vertex order; missing vertices are implicitly
    zero.  Construction does not validate, use :func:`check_block_state`.
    """

    blocks: dict[VertexId, np.ndarray] = field(default_factory=dict)

    def block(self, vertex: VertexId, dim: int | None = None) -> np.ndarray:
        if vertex in self.blocks:
            return self.blocks[vertex]
        if dim is None:
            raise KeyError(vertex)
        return np.zeros((dim, dim), dtype=complex)

    def total_trace(self) -> float:
        return float(sum(np.trace(b).real for b in self.blocks.values()))

    def copy(self) -> "BlockState":
        return BlockState({k: v.copy() for k, v in self.blocks.items()})


def sited_block_state(model: "WalkModel", vertex: VertexId, rho) -> BlockState:
    rho = np.atleast_2d(np.asarray(rho, dtype=complex))
    d = model.dim(vertex)
    if rho.shape != (d, d):
        raise ModelError(
            f"state at vertex {vertex!r} must be {d}x{d}, got {rho.shape}"
        )
    blocks = {v.id: np.zeros((v.dim, v.dim), dtype=complex) for v in model.vertices}
    blocks[vertex] = rho.astype(complex)
    return BlockState(blocks)


def classical_block_state(model: "WalkModel", weights: dict[VertexId, float]) -> BlockState:
    blocks = {}
    for v in model.vertices:
        w = float(weights.get(v.id, 0.0))
        blocks[v.id] = (w / v.dim) * np.eye(v.dim, dtype=complex)
    return BlockState(blocks)


def check_block_state(model: "WalkModel", mu: BlockState, atol: float = 1e-10) -> None:
    tr = 0.0
    for v in model.vertices:
        b = mu.block(v.id, v.dim)
        if b.shape != (v.dim, v.dim):
            raise ModelError(f"block at {v.id!r} has shape {b.shape}, expected {(v.dim, v.dim)}")
        if np.linalg.norm(b - b.conj().T) > 1e-8 * (1 + np.linalg.norm(b)):
            raise ModelError(f"block at {v.id!r} is not Hermitian")
        if v.dim > 0 and np.any(b):
            mineig = float(np.min(np.linalg.eigvalsh(linalg.herm(b))))
            if mineig < -atol:
                raise ModelError(f"block at {v.id!r} has eigenvalue {mineig:.3e} < -{atol:.1e}")
        tr += float(np.trace(b).real)
    if abs(tr - 1.0) > atol:
        raise ModelError(f"total trace {tr!r} differs from 1 beyond {atol:.1e}")


class WalkModel:
    """Immutable container for a validated-shape walk model.

    Use :func:`build_walk`, :func:`classical_embed`, :func:`build_lattice`
    or :func:`model_from_json` to construct instances.
    """

    def __init__(self, vertices, hamiltonians, effective, defects, jumps, meta=None):
        self.vertices: tuple[VertexSpace, ...] = tuple(vertices)
        self._index = {v.id: k for k, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise ModelError("vertex ids must be unique")
        if len({str(v.id) for v in self.vertices}) != len(self.vertices):
            raise ModelError("vertex ids must remain unique as strings")
        self._ham = tuple(hamiltonians)
        self._eff = tuple(effective)
        self._defect = tuple(defects)
        self._jumps = dict(jumps)  # (from_pos, to_pos) -> matrix
        self.meta = dict(meta or {})
        self._out = {k: [] for k in range(len(self.vertices))}
        self._in = {k: [] for k in range(len(self.vertices))}
        for (a, b), r in self._jumps.items():
            self._out[a].append((b, r))
            self._in[b].append((a, r))

    # -- lookups ---------------------------------------------------------

    @property
    def ids(self) -> list[VertexId]:
        return [v.id for v in self.vertices]

    def position(self, vertex: VertexId) -> int:
        try:
            return self._index[vertex]
        except KeyError:
            raise ModelError(f"unknown vertex {vertex!r}") from None

    def dim(self, vertex: VertexId) -> int:
        return self.vertices[self.position(vertex)].dim

    @property
    def total_dim(self) -> int:
        return sum(v.dim for v in self.vertices)

    def hamiltonian(self, vertex: VertexId) -> np.ndarray:
        return self._ham[self.position(vertex)]

    def effective(self, vertex: VertexId) -> np.ndarray:
        return self._eff[self.position(vertex)]

    def escape_defect(self, vertex: VertexId) -> np.ndarray:
        return self._defect[self.position(vertex)]

    def jump(self, src: VertexId, dst: VertexId) -> np.ndarray | None:
        return self._jumps.get((self.position(src), self.position(dst)))

    def jumps(self):
        """Iterate (src_id, dst_id, matrix) in deterministic order."""
        for (a, b), r in self._jumps.items():
            yield self.vertices[a].id, self.vertices[b].id, r

    def out_edges(self, vertex: VertexId):
        return [(self.vertices[b].id, r) for b, r in self._out[self.position(vertex)]]

    def in_edges(self, vertex: VertexId):
        return [(self.vertices[a].id, r) for a, r in self._in[self.position(vertex)]]

    # -- derived quantities ------------------------------------------------

    @property
    def rate_constant(self) -> float:
        """C = sum over ordered pairs of ||R R^dag||; the total jump
        intensity is bounded by C, so the expected number of jumps in a
        window of length m is at most m*C."""
        return float(
            sum(linalg.opnorm(r @ r.conj().T) for r in self._jumps.values())
        )

    def is_escaping(self, vertex: VertexId, eps_stab: float = 1e-9) -> bool:
        return linalg.spectral_abscissa(self.effective(vertex)) < -eps_stab

    def escaping_boundary(self) -> list[VertexId]:
        """Vertices with a nonzero escape defect (sub-stochastic boundary)."""
        out = []
        for v, d in zip(self.vertices, self._defect):
            if linalg.opnorm(d) > STRUCT_TOL:
                out.append(v.id)
        return out

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        doc: dict = {
            "vertices": [{"id": v.id, "dim": v.dim} for v in self.vertices],
            "hamiltonians": {
                str(v.id): matrix_to_json(h) for v, h in zip(self.vertices, self._ham)
            },
            "jumps": [
                {"from": src, "to": dst, "matrix": matrix_to_json(r)}
                for src, dst, r in self.jumps()
            ],
            "effective": {
                str(v.id): matrix_to_json(g) for v, g in zip(self.vertices, self._eff)
            },
        }
        if self.meta:
            doc["meta"] = self.meta
        return doc

    def canonical_hash(self) -> str:
        doc = self.to_json_dict()
        doc.pop("meta", None)
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


# -- complex matrix (de)serialization: rows of [re, im] pairs ---------------


def matrix_to_json(m: np.ndarray) -> list:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def json_to_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ModelError(
            "a complex matrix must be encoded as rows of [re, im] pairs"
        )
    if not np.isfinite(arr).all():
        raise ModelError("a complex matrix has a NaN or infinite entry")
    return arr[..., 0] + 1j * arr[..., 1]


# -- construction ------------------------------------------------------------


def _as_vertex(v) -> VertexSpace:
    if isinstance(v, VertexSpace):
        return v
    if isinstance(v, dict):
        return VertexSpace(v["id"], int(v["dim"]))
    vid, dim = v
    return VertexSpace(vid, int(dim))


def build_walk(
    vertices,
    jumps,
    hamiltonians: dict | None = None,
    effective: dict | None = None,
    meta: dict | None = None,
    tol: float = STRUCT_TOL,
) -> WalkModel:
    """Assemble a model from vertex spaces, jumps, and (H or G) per vertex.

    ``jumps`` is an iterable of ``(src, dst, matrix)`` with ``src != dst``
    and matrix shape ``(d_dst, d_src)``.  Provide either ``hamiltonians``
    (missing entries default to zero) or ``effective`` dwell generators, or
    both.  When only ``G_i`` is given, the on-site Hamiltonian is recovered
    from its skew part as ``H_i = i/2 (A - A^dag)`` with
    ``A = G_i + 1/2 sum R^dag R``; the leftover Hermitian part of ``A``
    becomes the escape defect ``D_i = -(A + A^dag)``, which is zero for
    closed models.  Validity of the defect (positive semidefiniteness) is
    judged by :func:`validate`, not here.
    """
    vspaces = [_as_vertex(v) for v in vertices]
    index = {v.id: k for k, v in enumerate(vspaces)}
    if len(index) != len(vspaces):
        raise ModelError("vertex ids must be unique")
    dims = [v.dim for v in vspaces]

    jump_map: dict[tuple[int, int], np.ndarray] = {}
    for src, dst, r in jumps:
        if src not in index or dst not in index:
            raise ModelError(f"jump references unknown vertex: {src!r} -> {dst!r}")
        a, b = index[src], index[dst]
        if a == b:
            raise ModelError(f"self-loop jump at vertex {src!r} is not allowed")
        r = np.atleast_2d(np.asarray(r, dtype=complex))
        want = (dims[b], dims[a])
        if r.shape != want:
            raise ModelError(
                f"jump {src!r} -> {dst!r} must have shape {want}, got {r.shape}"
            )
        if (a, b) in jump_map:
            raise ModelError(f"duplicate jump {src!r} -> {dst!r}")
        jump_map[(a, b)] = r

    hamiltonians = dict(hamiltonians or {})
    effective = dict(effective or {})

    hams, effs, defects = [], [], []
    for k, v in enumerate(vspaces):
        d = v.dim
        decay = np.zeros((d, d), dtype=complex)
        for (a, b), r in jump_map.items():
            if a == k:
                decay += r.conj().T @ r
        h_in = hamiltonians.get(v.id)
        g_in = effective.get(v.id)
        if h_in is not None:
            h = np.atleast_2d(np.asarray(h_in, dtype=complex))
            if h.shape != (d, d):
                raise ModelError(f"H at {v.id!r} must be {d}x{d}, got {h.shape}")
            if not linalg.is_hermitian(h, rtol=1e-12):
                raise ModelError(f"H at {v.id!r} is not Hermitian")
        else:
            h = None
        if g_in is not None:
            g = np.atleast_2d(np.asarray(g_in, dtype=complex))
            if g.shape != (d, d):
                raise ModelError(f"G at {v.id!r} must be {d}x{d}, got {g.shape}")
            a_mat = g + 0.5 * decay
            h_rec = 0.5j * (a_mat - a_mat.conj().T)
            defect = -(a_mat + a_mat.conj().T)
            if h is not None:
                if np.linalg.norm(h - h_rec) > tol * (1.0 + np.linalg.norm(h)):
                    raise ModelError(
                        f"H and G disagree at vertex {v.id!r} beyond tolerance"
                    )
            h = h_rec
        else:
            if h is None:
                h = np.zeros((d, d), dtype=complex)
            g = -1j * h - 0.5 * decay
            defect = np.zeros((d, d), dtype=complex)
        hams.append(h)
        effs.append(g)
        defects.append(linalg.herm(defect))

    return WalkModel(vspaces, hams, effs, defects, jump_map, meta=meta)


def classical_embed(q: np.ndarray, ids=None, meta: dict | None = None) -> WalkModel:
    """Embed a classical continuous-time Markov chain generator.

    ``q`` must have nonnegative off-diagonal entries and zero row sums.
    Every vertex gets a one-dimensional internal space, ``H_i = 0`` and
    ``R[i->j] = sqrt(q[i, j])``, so the position process of the resulting
    walk is the chain generated by ``q``.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ModelError("generator must be a square matrix")
    n = q.shape[0]
    if ids is None:
        ids = list(range(n))
    if len(ids) != n:
        raise ModelError("ids must match the generator size")
    for i in range(n):
        for j in range(n):
            if i != j and q[i, j] < 0:
                raise ModelError(f"negative off-diagonal rate q[{i},{j}] = {q[i, j]}")
    rowsums = q.sum(axis=1)
    if np.max(np.abs(rowsums)) > 1e-12 * (1.0 + np.max(np.abs(q))):
        raise ModelError("generator rows must sum to zero")
    jumps = []
    for i in range(n):
        for j in range(n):
            if i != j and q[i, j] > 0:
                jumps.append((ids[i], ids[j], np.array([[np.sqrt(q[i, j])]])))
    return build_walk([(v, 1) for v in ids], jumps, meta=meta)


def embedded_generator(model: WalkModel) -> np.ndarray:
    """Read back the classical generator of a scalar model, q_ij = |R|^2."""
    n = len(model.vertices)
    if any(v.dim != 1 for v in model.vertices):
        raise ModelError("only scalar models embed a classical chain")
    q = np.zeros((n, n))
    for src, dst, r in model.jumps():
        q[model.position(src), model.position(dst)] = abs(r[0, 0]) ** 2
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


# -- validation --------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    vertex: VertexId | None
    passed: bool
    residual: float
    note: str = ""


@dataclass
class ValidationReport:
    checks: list[CheckResult]
    escaping_boundary: list[VertexId]
    tolerance: float

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "escaping_boundary": [str(v) for v in self.escaping_boundary],
            "checks": [
                {
                    "name": c.name,
                    "vertex": None if c.vertex is None else str(c.vertex),
                    "passed": c.passed,
                    "residual": c.residual,
                    "note": c.note,
                }
                for c in self.checks
            ],
        }


def validate(model: WalkModel, tol: float = STRUCT_TOL) -> ValidationReport:
    """Run the structural invariant checks and report residuals.

    A model is usable only if every check passes.  Boundary vertices of a
    declared window may be sub-stochastic: there the conservativity check
    is replaced by positivity of the escape defect, and the vertex is
    reported in ``escaping_boundary``.
    """
    checks: list[CheckResult] = []
    declared = set(model.meta.get("escaping", []))

    for v in model.vertices:
        h = model.hamiltonian(v.id)
        res_h = float(np.linalg.norm(h - h.conj().T, 2))
        checks.append(
            CheckResult(
                "hamiltonian_hermitian",
                v.id,
                res_h <= 1e-12 * (1.0 + linalg.opnorm(h)),
                res_h,
            )
        )

        g = model.effective(v.id)
        decay = np.zeros((v.dim, v.dim), dtype=complex)
        for _, r in model.out_edges(v.id):
            decay += r.conj().T @ r
        rebuilt = -1j * h - 0.5 * decay - 0.5 * model.escape_defect(v.id)
        res_g = float(np.linalg.norm(g - rebuilt, 2))
        checks.append(
            CheckResult(
                "effective_consistent",
                v.id,
                res_g <= tol * (1.0 + linalg.opnorm(g)),
                res_g,
            )
        )

        zero_sum = g + g.conj().T + decay
        res_zs = float(np.linalg.norm(zero_sum, 2))
        defect_min = float(np.min(np.linalg.eigvalsh(linalg.herm(-zero_sum))))
        checks.append(
            CheckResult(
                "dissipative",
                v.id,
                defect_min >= -tol,
                max(0.0, -defect_min),
                "escape defect must be positive semidefinite",
            )
        )
        if v.id in declared:
            checks.append(
                CheckResult(
                    "zero_sum",
                    v.id,
                    defect_min >= -tol,
                    res_zs,
                    "window boundary vertex, walker escapes at this rate",
                )
            )
        else:
            checks.append(CheckResult("zero_sum", v.id, res_zs <= tol, res_zs))

    c = model.rate_constant
    checks.append(
        CheckResult("rate_constant_finite", None, bool(np.isfinite(c)), 0.0, f"C = {c:.6g}")
    )

    return ValidationReport(checks, model.escaping_boundary(), tol)


# -- lattice window shorthand -------------------------------------------------


def build_lattice(spec: dict, window: tuple[int, int] | None = None) -> WalkModel:
    """Expand a one-dimensional windowed lattice description.

    Schema::

        {
          "window": [lo, hi],
          "dim": 1,                      # default internal dimension
          "dims": {"1": 2},              # per-site overrides (keys: str(site))
          "effective": {"default": M, "1": M},     # per-site G
          "hamiltonians": {"default": M, ...},     # alternative to G
          "jumps": [
            {"offset": 1, "matrix": M},            # template i -> i+1
            {"offset": -1, "matrix": M},
            {"from": 0, "to": 1, "matrix": M}      # explicit overrides
          ]
        }

    Sites are the integers ``lo..hi``.  Offset templates apply to each
    in-window pair whose endpoint dimensions match the template shape and
    which has no explicit entry.  Jumps leaving the window are dropped; the
    affected boundary sites keep their declared ``G`` and therefore become
    sub-stochastic (the walker escapes there), which is recorded in the
    model metadata.
    """
    spec = dict(spec)
    lo, hi = (int(x) for x in (window if window is not None else spec["window"]))
    if hi < lo:
        raise ModelError("window must satisfy lo <= hi")
    sites = list(range(lo, hi + 1))
    default_dim = int(spec.get("dim", 1))
    dims = {s: default_dim for s in sites}
    for key, d in (spec.get("dims") or {}).items():
        s = int(key)
        if lo <= s <= hi:
            dims[s] = int(d)

    def _site_matrices(block_name):
        block = spec.get(block_name) or {}
        default = block.get("default")
        out = {}
        for s in sites:
            entry = block.get(str(s), default)
            if entry is None:
                continue
            m = json_to_matrix(entry) if not isinstance(entry, np.ndarray) else entry
            if m.shape == (dims[s], dims[s]):
                out[s] = m
        return out

    eff = _site_matrices("effective")
    ham = _site_matrices("hamiltonians")
    if not eff and not ham:
        raise ModelError("lattice spec needs 'effective' or 'hamiltonians'")

    explicit: dict[tuple[int, int], np.ndarray | None] = {}
    templates: list[tuple[int, np.ndarray]] = []
    for entry in spec.get("jumps", []):
        m = entry.get("matrix")
        mat = None if m is None else (m if isinstance(m, np.ndarray) else json_to_matrix(m))
        if "offset" in entry:
            if mat is None:
                raise ModelError("offset template requires a matrix")
            templates.append((int(entry["offset"]), mat))
        else:
            explicit[(int(entry["from"]), int(entry["to"]))] = mat

    jumps = []
    escaping: set[int] = set()
    seen: set[tuple[int, int]] = set()

    for (a, b), mat in explicit.items():
        if a < lo or a > hi:
            continue
        if b < lo or b > hi:
            if mat is not None:
                escaping.add(a)
            continue
        seen.add((a, b))
        if mat is not None:
            jumps.append((a, b, mat))

    for off, mat in templates:
        for a in sites:
            b = a + off
            if (a, b) in seen:
                continue
            if b < lo or b > hi:
                if mat.shape[1] == dims[a]:
                    escaping.add(a)
                continue
            if mat.shape == (dims[b], dims[a]):
                seen.add((a, b))
                jumps.append((a, b, mat))

    # Only sites whose G is pinned while losing jump weight are sub-stochastic.
    escaping = {s for s in escaping if s in eff}

    meta = {
        "lattice": spec,
        "window": [lo, hi],
        "escaping": sorted(escaping),
    }
    return build_walk(
        [(s, dims[s]) for s in sites],
        jumps,
        hamiltonians=ham or None,
        effective=eff or None,
        meta=meta,
    )


# -- whole-model JSON ---------------------------------------------------------


def model_from_json(doc: dict | str) -> WalkModel:
    if isinstance(doc, str):
        doc = json.loads(doc)
    if "lattice" in doc:
        extra = {"vertices", "hamiltonians", "jumps", "effective"} & set(doc)
        if extra:
            raise ModelError(f"'lattice' cannot be combined with {sorted(extra)}")
        return build_lattice(doc["lattice"])
    try:
        vertices = [(_coerce_id(v["id"]), int(v["dim"])) for v in doc["vertices"]]
    except (KeyError, TypeError) as exc:
        raise ModelError(f"bad vertices block: {exc}") from exc
    by_str = {str(vid): vid for vid, _ in vertices}

    def _per_vertex(block_name):
        block = doc.get(block_name) or {}
        out = {}
        for key, m in block.items():
            if key not in by_str:
                raise ModelError(f"{block_name} references unknown vertex {key!r}")
            out[by_str[key]] = json_to_matrix(m)
        return out

    jumps = []
    for entry in doc.get("jumps", []):
        src = _coerce_id(entry["from"])
        dst = _coerce_id(entry["to"])
        jumps.append((src, dst, json_to_matrix(entry["matrix"])))
    return build_walk(
        vertices,
        jumps,
        hamiltonians=_per_vertex("hamiltonians") or None,
        effective=_per_vertex("effective") or None,
        meta=doc.get("meta"),
    )


def _coerce_id(v) -> VertexId:
    if isinstance(v, bool):
        raise ModelError("vertex ids must be integers or strings")
    if isinstance(v, (int, str)):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise ModelError(f"vertex id {v!r} must be an integer or string")


def state_to_json(mu: BlockState) -> dict:
    return {"blocks": {str(k): matrix_to_json(v) for k, v in mu.blocks.items()}}


def state_from_json(doc: dict | str, model: WalkModel) -> BlockState:
    if isinstance(doc, str):
        doc = json.loads(doc)
    by_str = {str(v.id): v.id for v in model.vertices}
    blocks = {v.id: np.zeros((v.dim, v.dim), dtype=complex) for v in model.vertices}
    for key, m in doc.get("blocks", {}).items():
        if key not in by_str:
            raise ModelError(f"state references unknown vertex {key!r}")
        blocks[by_str[key]] = json_to_matrix(m)
    return BlockState(blocks)
