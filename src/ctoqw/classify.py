"""Irreducibility checks and the recurrence/transience trichotomy.

Irreducibility is decided exactly through a reachability closure: for every
ordered vertex pair ``(i, j)`` we grow the linear span of all operators
``h_i -> h_j`` realizable as products of dwell-generator powers and jump
operators along paths from ``i`` to ``j``.  The walk admits no nontrivial
jointly invariant subspace precisely when every pair span is the full
operator space, in which case the summed span dimension equals
``(sum_i d_i)**2``.

An irreducible walk is then classified from spectral data of the return
maps ``P[j->j]``:

- spectral radius ``lambda >= 1``: recurrent, every occupation expectation
  is infinite and every return is sure;
- otherwise the walk is transient; if some vertex carries a state whose
  return probability is one (a unit eigenvalue of ``M = P^*[j->j](Id)``,
  necessarily with a non-faithful eigenstate), returns are sure from that
  state only; otherwise return probabilities are uniformly below one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import PreconditionError
from .model import VertexId, WalkModel
from .passage import first_passage_map
from .superop import SuperOp

RECURRENT = "Recurrent"
TRANSIENT_UNIFORM = "TransientUniform"
TRANSIENT_QUANTUM = "TransientQuantum"


# -- pair-span reachability closure -------------------------------------------


def _pair_spans(model: WalkModel, with_dwell: bool):
    """Orthonormal bases of the path-operator spans, per ordered pair.

    Seeds each diagonal pair with the identity and closes under
    left-multiplication by dwell generators (when ``with_dwell``) and by
    jump operators.  Every span is capped at full dimension d_i * d_j.
    """
    ids = model.ids
    dims = {v.id: v.dim for v in model.vertices}
    spans: dict[tuple[VertexId, VertexId], list[np.ndarray]] = {}
    queue: list[tuple[VertexId, VertexId, np.ndarray]] = []

    def try_add(i, j, mat):
        key = (i, j)
        basis = spans.setdefault(key, [])
        cap = dims[i] * dims[j]
        if len(basis) >= cap:
            return
        v = mat.reshape(-1)
        for b in basis:
            v = v - np.vdot(b, v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-10:
            v = v / norm
            basis.append(v)
            queue.append((i, j, v.reshape(mat.shape)))

    for vid in ids:
        try_add(vid, vid, np.eye(dims[vid], dtype=complex))

    while queue:
        i, j, mat = queue.pop()
        if with_dwell:
            try_add(i, j, model.effective(j) @ mat)
        for dst, r in model.out_edges(j):
            try_add(i, dst, r @ mat)
    return spans, dims


@dataclass
class IrreducibilityVerdict:
    irreducible: bool
    algebra_dim: int
    witness: np.ndarray | None = None  # orthonormal columns spanning an
    # invariant subspace of the summed space, None when irreducible
    witness_vertices: list[VertexId] = field(default_factory=list)
    deficient_pairs: list[tuple[VertexId, VertexId]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "irreducible": self.irreducible,
            "algebra_dim": self.algebra_dim,
            "witness_dim": 0 if self.witness is None else int(self.witness.shape[1]),
            "witness_vertices": [str(v) for v in self.witness_vertices],
            "deficient_pairs": [[str(a), str(b)] for a, b in self.deficient_pairs],
        }


def _global_operators(model: WalkModel, with_dwell: bool):
    """Generators embedded in the summed space, for witness verification."""
    offs: dict[VertexId, slice] = {}
    pos = 0
    for v in model.vertices:
        offs[v.id] = slice(pos, pos + v.dim)
        pos += v.dim
    mats = []
    if with_dwell:
        g_all = np.zeros((pos, pos), dtype=complex)
        for v in model.vertices:
            g_all[offs[v.id], offs[v.id]] = model.effective(v.id)
        mats.append(g_all)
    for src, dst, r in model.jumps():
        m = np.zeros((pos, pos), dtype=complex)
        m[offs[dst], offs[src]] = r
        mats.append(m)
    return mats, offs, pos


def _witness_from_seed(model, spans, dims, seed_vertex, phi, offs, total):
    """Orthonormal basis of the smallest invariant subspace containing
    ``phi`` sitting at ``seed_vertex``; None when it is everything."""
    cols = []
    vertices = []
    dim_w = 0
    for j in [v.id for v in model.vertices]:
        basis = spans.get((seed_vertex, j), [])
        if not basis:
            continue
        dj = dims[j]
        vecs = [b.reshape(dj, dims[seed_vertex]) @ phi for b in basis]
        block = np.array(vecs).T  # (dj, n)
        q, r = np.linalg.qr(block)
        keep = [k for k in range(r.shape[0]) if abs(r[k, k]) > 1e-10]
        if keep:
            vertices.append(j)
        for k in keep:
            col = np.zeros(total, dtype=complex)
            col[offs[j]] = q[:, k]
            cols.append(col)
        dim_w += len(keep)
    if dim_w == 0 or dim_w >= total:
        return None
    return np.array(cols).T, vertices


def _find_witness(model, spans, dims, with_dwell):
    mats, offs, total = _global_operators(model, with_dwell)
    rng = np.random.default_rng(20240517)
    best = None
    for v in model.vertices:
        i = v.id
        d = dims[i]
        candidates = [np.eye(d, dtype=complex)[:, k] for k in range(d)]
        diag = spans.get((i, i), [])
        sample = [b.reshape(d, d) for b in diag]
        for _ in range(6):
            if sample:
                coeffs = rng.standard_normal(len(sample)) + 1j * rng.standard_normal(len(sample))
                sample.append(sum(c * m for c, m in zip(coeffs, sample)))
        for m in sample:
            vals, vecs = np.linalg.eig(m)
            candidates.extend(vecs.T)
        for _ in range(8):
            candidates.append(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        for phi in candidates:
            n = np.linalg.norm(phi)
            if n < 1e-12:
                continue
            got = _witness_from_seed(model, spans, dims, i, phi / n, offs, total)
            if got is None:
                continue
            w, verts = got
            if best is not None and w.shape[1] >= best[0].shape[1]:
                continue
            if _is_invariant(w, mats, total):
                best = (w, verts)
    if best is None:
        return None, []
    return best


def _is_invariant(w: np.ndarray, mats, total: int) -> bool:
    p = w @ w.conj().T
    comp = np.eye(total) - p
    for m in mats:
        if np.linalg.norm(comp @ m @ p) > 1e-10 * (1.0 + np.linalg.norm(m)):
            return False
    return True


def _check(model: WalkModel, with_dwell: bool) -> IrreducibilityVerdict:
    spans, dims = _pair_spans(model, with_dwell)
    ids = model.ids
    algebra_dim = 0
    deficient = []
    for i in ids:
        for j in ids:
            have = len(spans.get((i, j), []))
            algebra_dim += have
            if have < dims[i] * dims[j]:
                deficient.append((i, j))
    if not deficient:
        return IrreducibilityVerdict(True, algebra_dim)
    witness, verts = _find_witness(model, spans, dims, with_dwell)
    return IrreducibilityVerdict(False, algebra_dim, witness, verts, deficient)


def check_irreducible(model: WalkModel) -> IrreducibilityVerdict:
    """Irreducibility of the continuous evolution (dwell generators and
    jumps together)."""
    return _check(model, with_dwell=True)


def check_discrete_irreducible(model: WalkModel) -> IrreducibilityVerdict:
    """Irreducibility of the jump-only map ``mu -> sum S mu S^dag``.

    This is strictly stronger than continuous irreducibility: walks exist
    that are irreducible as semigroups while the bare jump map is not.
    """
    return _check(model, with_dwell=False)


# -- trichotomy ---------------------------------------------------------------


@dataclass
class ClassificationReport:
    case: str
    base_vertex: VertexId
    spectral_radius: float
    perron_state: np.ndarray
    perron_min_eig: float
    return_operator: np.ndarray  # M = adjoint return map at identity
    return_spectrum: np.ndarray
    eps_spec: float
    irreducibility: IrreducibilityVerdict
    vertex_max_return: dict[VertexId, float]
    exhibit_vertex: VertexId | None = None
    exhibit_state: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        from .model import matrix_to_json

        return {
            "case": self.case,
            "base_vertex": str(self.base_vertex),
            "spectral_radius": self.spectral_radius,
            "perron_state": matrix_to_json(self.perron_state),
            "perron_min_eig": self.perron_min_eig,
            "return_operator": matrix_to_json(self.return_operator),
            "return_spectrum": [float(x) for x in self.return_spectrum],
            "eps_spec": self.eps_spec,
            "irreducibility": self.irreducibility.to_json_dict(),
            "vertex_max_return": {
                str(k): float(v) for k, v in self.vertex_max_return.items()
            },
            "exhibit_vertex": None
            if self.exhibit_vertex is None
            else str(self.exhibit_vertex),
            "exhibit_state": None
            if self.exhibit_state is None
            else matrix_to_json(self.exhibit_state),
            "diagnostics": self.diagnostics,
        }


def _perron_state(p_map: SuperOp, tol: float = 1e-10):
    """Leading eigenvalue and normalized PSD eigenmatrix of a CP map."""
    ok = False
    if p_map.matrix.shape[0] > 4096:
        lam, v, ok, _ = linalg.power_iteration(p_map.matrix, tol=tol, max_iter=2000)
    if not ok:
        vals, vecs = np.linalg.eig(p_map.matrix)
        k = int(np.argmax(np.abs(vals)))
        lam = float(np.abs(vals[k]))
        v = vecs[:, k]
    rho = linalg.unvec(v, (p_map.source_dim, p_map.source_dim))
    rho = linalg.herm(rho)
    tr = np.trace(rho).real
    if abs(tr) < 1e-14:
        # fall back to the positive part when the trace cancels
        vals_h, vecs_h = np.linalg.eigh(rho)
        rho = vecs_h @ np.diag(np.clip(vals_h, 0, None)) @ vecs_h.conj().T
        tr = np.trace(rho).real
    rho = rho / tr
    if np.trace(rho).real < 0:
        rho = -rho
    min_eig = float(np.min(np.linalg.eigvalsh(rho)))
    return float(lam), rho, min_eig


def return_probability_extremes(
    model: WalkModel, i: VertexId, tol: float = 1e-8
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Extremes over internal states of the probability of returning to i.

    The return probability is linear in the state, ``Tr(rho M)`` with
    ``M`` the adjoint return map at the identity, so the extremes are the
    edge eigenvalues of ``M``; the extremizing pure states are returned as
    eigenvectors.
    """
    p_ii, _ = first_passage_map(model, i, i, tol=tol)
    m = linalg.herm(p_ii.adjoint_apply(np.eye(model.dim(i))))
    vals, vecs = np.linalg.eigh(m)
    return float(vals[0]), float(vals[-1]), vecs[:, 0], vecs[:, -1]


def classify_trichotomy(
    model: WalkModel,
    base_vertex: VertexId | None = None,
    eps_spec: float = 1e-8,
    tol: float = 1e-8,
) -> ClassificationReport:
    """Decide which of the three recurrence classes the walk belongs to.

    Requires an irreducible walk with finite-dimensional vertex spaces and
    an escaping base vertex.  Recurrence is read off the spectral radius of
    the base return map (the verdict is base-independent); for transient
    walks the sure-return class is detected by scanning every vertex for a
    unit eigenvalue of the adjoint return operator at the identity.
    """
    verdict = check_irreducible(model)
    if not verdict.irreducible:
        raise PreconditionError(
            "the walk is reducible; the trichotomy assumes irreducibility"
        )
    if base_vertex is None:
        base_vertex = model.vertices[0].id
    if not model.is_escaping(base_vertex):
        raise PreconditionError(
            f"base vertex {base_vertex!r} is not escaping; its return map "
            "is not defined by a convergent dwell integral"
        )

    p_base, diag = first_passage_map(model, base_vertex, base_vertex, tol=tol)
    lam, perron, perron_min = _perron_state(p_base)
    m_base = linalg.herm(p_base.adjoint_apply(np.eye(model.dim(base_vertex))))
    spectrum = np.linalg.eigvalsh(m_base)

    vertex_max: dict[VertexId, float] = {base_vertex: float(spectrum[-1])}
    case = None
    exhibit_vertex = None
    exhibit_state = None

    if lam >= 1.0 - eps_spec:
        case = RECURRENT
    else:
        scan = [base_vertex] + [v.id for v in model.vertices if v.id != base_vertex]
        for vid in scan:
            if vid == base_vertex:
                m = m_base
            else:
                if not model.out_edges(vid):
                    vertex_max[vid] = 0.0
                    continue
                if not model.is_escaping(vid):
                    raise PreconditionError(
                        f"vertex {vid!r} is not escaping; cannot scan its returns"
                    )
                p_v, _ = first_passage_map(model, vid, vid, tol=tol)
                m = linalg.herm(p_v.adjoint_apply(np.eye(model.dim(vid))))
            vals, vecs = np.linalg.eigh(m)
            vertex_max[vid] = float(vals[-1])
            if vals[-1] >= 1.0 - eps_spec and case is None:
                case = TRANSIENT_QUANTUM
                exhibit_vertex = vid
                vec = vecs[:, -1]
                exhibit_state = np.outer(vec, vec.conj())
        if case is None:
            case = TRANSIENT_UNIFORM

    return ClassificationReport(
        case=case,
        base_vertex=base_vertex,
        spectral_radius=lam,
        perron_state=perron,
        perron_min_eig=perron_min,
        return_operator=m_base,
        return_spectrum=spectrum,
        eps_spec=eps_spec,
        irreducibility=verdict,
        vertex_max_return=vertex_max,
        exhibit_vertex=exhibit_vertex,
        exhibit_state=exhibit_state,
        diagnostics=diag,
    )
