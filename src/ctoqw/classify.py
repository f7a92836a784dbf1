"""Irreducibility checks and the recurrence/transience trichotomy.

Irreducibility is decided exactly from one base vertex ``b`` (the first
vertex).  Two closures grow linear spans of path operators, products of
dwell generators and jump operators along paths of the walk: the forward
closure spans, at each vertex ``j``, the operators ``h_b -> h_j`` along paths
from ``b`` to ``j``; the adjoint closure spans the adjoints of the operators
``h_j -> h_b`` along paths from ``j`` back to ``b``.  The walk admits no
nontrivial jointly invariant subspace ``W = (+)_j W_j`` precisely when all
``2V`` spans are full:

- the loop span at ``b`` is all of ``M(h_b)``, so ``W_b`` is 0 or ``h_b``;
- if ``W_b = h_b``, a full span ``(b, j)`` forces ``W_j = h_j``;
- if ``W_b = 0``, every operator of the span ``(j, b)`` maps ``W_j`` into
  ``W_b = 0``; a full span annihilates no nonzero vector, so ``W_j = 0``.

Conversely the operators of an irreducible walk generate the full matrix
algebra of the summed space (Burnside), whose ``(b, j)`` and ``(j, b)``
blocks are these spans.  An irreducible walk then reports the algebra
dimension ``(sum_i d_i)**2``.  A reducible one gets a witness, an invariant
subspace verified edge by edge.

Each closure is a work list of vertices.  A popped vertex multiplies the
block of rows it gained since its last pop by each of its step operators
once, skipping targets whose span is already full.  The target projects the
block off its stored rows twice (block Gram-Schmidt) and keeps the right
singular vectors of the residual whose singular value exceeds ``_RANK_TOL``,
at most its free dimension; a one-row block is kept when its norm, its one
singular value, exceeds ``_RANK_TOL``.

An irreducible walk is then classified from spectral data of the return
maps ``P[j->j]``:

- spectral radius ``lambda >= 1``: recurrent, every occupation expectation
  is infinite and every return is sure;
- otherwise the walk is transient; if some vertex carries a state whose
  return probability is one (a unit eigenvalue of ``M = P^*[j->j](Id)``,
  necessarily with a non-faithful eigenstate), returns are sure from that
  state only; otherwise return probabilities are uniformly below one.

The base return map is one taboo passage map.  The transient scan reads the
return maps of all vertices off one certified Green factorization of the
one-step kernel, ``P[j->j] = I - G_jj^-1``.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ConvergenceError, PreconditionError
from .model import VertexId, WalkModel
from .passage import first_passage_map, return_operators, with_certificates
from .superop import SuperOp

RECURRENT = "Recurrent"
TRANSIENT_UNIFORM = "TransientUniform"
TRANSIENT_QUANTUM = "TransientQuantum"

# Rank threshold of the closures and the witness blocks.  It is absolute:
# each product is one jump or dwell operator applied to a unit-norm basis
# element.  A threshold relative to the product's own norm would let
# rounding-level products such as ``R P phi ~ 1e-17`` into a span.
_RANK_TOL = 1e-10


# -- base-vertex path-operator closure ----------------------------------------


def _closure(model: WalkModel, with_dwell: bool, base: VertexId, adjoint: bool):
    """Orthonormal bases of the path-operator spans between ``base`` and
    every vertex, keyed by vertex; unreached vertices are absent.

    Each basis element is a flattened ``(d_j, d_base)`` matrix, a row of the
    ``(r, d_j * d_base)`` array of its vertex.  The forward closure seeds
    ``I`` at ``base`` and multiplies on the left by ``G_j`` (when
    ``with_dwell``) and by ``R[j->k]``; the adjoint closure seeds ``I`` at
    ``base`` and multiplies on the left by ``G_j^dag`` and by ``R[k->j]^dag``
    along reversed edges.  Every span is capped at full dimension
    ``d_j * d_base``.  The work list and the rank rule are those of the
    module docstring.
    """
    db = model.dim(base)
    full = {v.id: v.dim * db for v in model.vertices}
    steps = {}
    for v in model.ids:
        g = model.effective(v)
        dwell = [(v, g.conj().T if adjoint else g)] if with_dwell else []
        if adjoint:
            steps[v] = dwell + [(src, r.conj().T) for src, r in model.in_edges(v)]
        else:
            steps[v] = dwell + model.out_edges(v)
    rows: dict[VertexId, np.ndarray] = {}  # (full, full) per reached vertex, filled to count
    conj: dict[VertexId, np.ndarray] = {}  # the conjugate transpose of rows, while not full
    count: dict[VertexId, int] = {}
    done: dict[VertexId, int] = {}  # rows already multiplied out
    queue: collections.deque = collections.deque()

    def add(j, block):
        c = count.get(j, 0)
        if c:
            q, qh = rows[j][:c], conj[j][:, :c]
            for _ in range(2):  # block Gram-Schmidt twice keeps the rows orthonormal
                block = block - (block @ qh) @ q
        if len(block) == 1:  # the norm is the one singular value
            norm = np.linalg.norm(block)
            new = block / norm if norm > _RANK_TOL else block[:0]
        else:
            _, s, vh = np.linalg.svd(block, full_matrices=False)
            new = vh[:min(int(np.sum(s > _RANK_TOL)), full[j] - c)]
        if not len(new):
            return
        if not c:
            rows[j], done[j] = np.empty((full[j], full[j]), complex), 0
        end = count[j] = c + len(new)
        rows[j][c:end] = new
        if end < full[j]:
            if j not in conj:
                conj[j] = np.empty_like(rows[j])
            conj[j][:, c:end] = new.conj().T
        if done[j] == c:
            queue.append(j)

    add(base, np.eye(db, dtype=complex).reshape(1, -1))
    while queue:
        j = queue.popleft()
        a, b = done[j], count[j]
        done[j] = b
        block = rows[j][a:b].reshape(b - a, -1, db)
        for k, op in steps[j]:
            if count.get(k, 0) < full[k]:
                add(k, (op @ block).reshape(b - a, -1))
    return {j: rows[j][:c] for j, c in count.items()}


def _column_space(model: WalkModel, spans, base: VertexId, j: VertexId):
    """Left singular vectors of the span at ``j`` (its operators side by
    side) and the rank of their joint column space in ``h_j``."""
    dj, db = model.dim(j), model.dim(base)
    basis = spans.get(j)
    if basis is None:
        return np.eye(dj, dtype=complex), 0
    u, s, _ = np.linalg.svd(np.hstack([b.reshape(dj, db) for b in basis]))
    return u, int(np.sum(s > _RANK_TOL))


@dataclass
class IrreducibilityVerdict:
    """Irreducible walks report ``algebra_dim = (sum_i d_i)**2``, the
    dimension of the full operator algebra, and no pairs.  Reducible ones
    report the ``2V`` base spans of the first vertex ``b``: ``algebra_dim``
    is the sum of their dimensions (the loop span at ``b`` counted once per
    closure), and ``deficient_pairs`` lists the pairs ``(b, j)`` whose
    forward span is not full, then the pairs ``(j, b)`` whose adjoint span
    is not full, with ``(b, b)`` listed once."""

    irreducible: bool
    algebra_dim: int
    # an invariant subspace ``(+)_j W_j`` of the summed space as orthonormal
    # columns ``{j: (d_j, dim W_j)}`` over the vertices with ``W_j != 0``;
    # None when irreducible
    witness: dict[VertexId, np.ndarray] | None = None
    deficient_pairs: list[tuple[VertexId, VertexId]] = field(default_factory=list)

    @property
    def witness_vertices(self) -> list[VertexId]:
        return [] if self.witness is None else list(self.witness)

    def to_json_dict(self) -> dict:
        return {
            "irreducible": self.irreducible,
            "algebra_dim": self.algebra_dim,
            "witness_dim": 0 if self.witness is None else _witness_dim(self.witness),
            "witness_vertices": [str(v) for v in self.witness_vertices],
            "deficient_pairs": [[str(a), str(b)] for a, b in self.deficient_pairs],
        }


def _witness_dim(blocks: dict) -> int:
    return sum(q.shape[1] for q in blocks.values())


def _is_invariant(model: WalkModel, blocks: dict, with_dwell: bool) -> bool:
    """Whether the subspace with orthonormal columns ``blocks[j]`` at each
    vertex ``j`` (zero at the vertices absent from ``blocks``) is invariant
    under every jump (and every dwell generator when ``with_dwell``),
    checked edge by edge."""
    ops = list(model.jumps())
    if with_dwell:
        ops += [(v, v, model.effective(v)) for v in model.ids]
    for src, dst, op in ops:
        if src not in blocks:
            continue
        x = op @ blocks[src]
        q = blocks.get(dst)
        if q is not None:
            x = x - q @ (q.conj().T @ x)
        if np.linalg.norm(x) > 1e-10 * (1.0 + np.linalg.norm(op)):
            return False
    return True


def _witness_from_seed(model, fwd, base, phi):
    """Per-vertex blocks of the smallest invariant subspace containing
    ``phi`` at ``base``; None when it is everything."""
    blocks = {}
    db = model.dim(base)
    for v in model.vertices:
        basis = fwd.get(v.id)
        if basis is None:
            continue
        vecs = [b.reshape(v.dim, db) @ phi for b in basis]
        q, r = np.linalg.qr(np.array(vecs).T)  # (d_j, n)
        keep = [k for k in range(r.shape[0]) if abs(r[k, k]) > _RANK_TOL]
        if keep:
            blocks[v.id] = q[:, keep]
    dim_w = _witness_dim(blocks)
    if dim_w == 0 or dim_w >= model.total_dim:
        return None
    return blocks


def _base_witness(model, with_dwell, base, fwd, adj, rng):
    """An invariant subspace found from one base vertex, as per-vertex
    blocks, or None.

    Tried in order: the forward span of ``h_base`` when it is proper, the
    common kernel of the adjoint closure (the vectors every path operator
    back to ``base`` annihilates) when it is nonzero, and the subspace
    generated from the first seed in ``h_base`` that gives a proper one, the
    seeds being basis vectors, eigenvectors of random loop-span elements and
    random vectors.  Each candidate must pass :func:`_is_invariant`.
    """
    fwd_cs = [(j, *_column_space(model, fwd, base, j)) for j in model.ids]
    adj_cs = [(j, *_column_space(model, adj, base, j)) for j in model.ids]
    for blocks in (
        {j: u[:, :r] for j, u, r in fwd_cs if r},
        {j: u[:, r:] for j, u, r in adj_cs if r < len(u)},
    ):
        if 0 < _witness_dim(blocks) < model.total_dim and _is_invariant(model, blocks, with_dwell):
            return blocks

    d = model.dim(base)
    candidates = [np.eye(d, dtype=complex)[:, k] for k in range(d)]
    sample = [b.reshape(d, d) for b in fwd[base]]
    for _ in range(6):
        coeffs = rng.standard_normal(len(sample)) + 1j * rng.standard_normal(len(sample))
        sample.append(sum(c * m for c, m in zip(coeffs, sample)))
    for m in sample:
        candidates.extend(np.linalg.eig(m)[1].T)
    for _ in range(8):
        candidates.append(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    for phi in candidates:
        n = np.linalg.norm(phi)
        if n < 1e-12:
            continue
        blocks = _witness_from_seed(model, fwd, base, phi / n)
        if blocks is not None and _is_invariant(model, blocks, with_dwell):
            return blocks
    return None


def _check(model: WalkModel, with_dwell: bool) -> IrreducibilityVerdict:
    ids = model.ids
    base = ids[0]
    fwd = _closure(model, with_dwell, base, adjoint=False)
    adj = _closure(model, with_dwell, base, adjoint=True)
    full = {j: model.dim(j) * model.dim(base) for j in ids}
    short = {j for j in ids if len(fwd.get(j, [])) < full[j]}
    back = {j for j in ids if len(adj.get(j, [])) < full[j]}
    if not short and not back:
        return IrreducibilityVerdict(True, model.total_dim**2)
    deficient = [(base, j) for j in ids if j in short] + [(j, base) for j in ids if j in back]
    deficient = list(dict.fromkeys(deficient))  # the loop pair (b, b) once
    algebra_dim = sum(len(s) for s in fwd.values()) + sum(len(s) for s in adj.values())
    rng = np.random.default_rng(20240517)
    for b in ids:
        if b != base:
            fwd = _closure(model, with_dwell, b, adjoint=False)
            adj = _closure(model, with_dwell, b, adjoint=True)
        got = _base_witness(model, with_dwell, b, fwd, adj, rng)
        if got is not None:
            return IrreducibilityVerdict(False, algebra_dim, got, deficient)
    return IrreducibilityVerdict(False, algebra_dim, deficient_pairs=deficient)


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


def _perron_state(p_map: SuperOp):
    """Spectral radius and trace-one Perron eigenmatrix of a CP map, with
    the least eigenvalue of that eigenmatrix.

    The spectral radius of a positive map is itself an eigenvalue with a
    PSD eigenmatrix (Evans and Hoegh-Krohn 1978), so it is the eigenvalue
    of largest real part; one of largest modulus may be ``-r`` or a
    rotation of ``r``.  The eigenvector comes with an arbitrary complex
    phase, which dividing by its complex trace removes.
    """
    vals, vecs = np.linalg.eig(p_map.matrix)
    k = int(np.argmax(vals.real))
    rho = linalg.unvec(vecs[:, k], (p_map.source_dim, p_map.source_dim))
    tr = np.trace(rho)
    if abs(tr) < 1e-14:
        raise ConvergenceError("the Perron eigenmatrix of the return map has vanishing trace")
    rho = linalg.herm(rho / tr)
    return float(np.abs(vals[k])), rho, float(np.min(np.linalg.eigvalsh(rho)))


def return_probability_extremes(
    model: WalkModel, i: VertexId
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Extremes over internal states of the probability of returning to i.

    The return probability is linear in the state, ``Tr(rho M)`` with
    ``M`` the adjoint return map at the identity, so the extremes are the
    edge eigenvalues of ``M``; the extremizing pure states are returned as
    eigenvectors.
    """
    p_ii, _ = first_passage_map(model, i, i)
    m = p_ii.adjoint_at_identity()
    vals, vecs = np.linalg.eigh(m)
    return float(vals[0]), float(vals[-1]), vecs[:, 0], vecs[:, -1]


def classify_trichotomy(
    model: WalkModel,
    base_vertex: VertexId | None = None,
    eps_spec: float = 1e-8,
) -> ClassificationReport:
    """Decide which of the three recurrence classes the walk belongs to.

    Requires an irreducible walk with finite-dimensional vertex spaces and
    an escaping base vertex.  Recurrence is read off the spectral radius of
    the base return map (the verdict is base-independent); for transient
    walks the sure-return class is detected by scanning every vertex for a
    unit eigenvalue of the adjoint return operator at the identity.  The
    scan reads every return map off one certified Green factorization of
    the one-step kernel (:func:`passage.return_operators`); a transient base
    whose kernel cannot be certified raises ``ConvergenceError``.
    """
    if not 0.0 < eps_spec < 1.0:  # NaN fails too
        raise PreconditionError(f"eps_spec must lie strictly between 0 and 1, got {eps_spec!r}")
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

    p_base, diag = first_passage_map(model, base_vertex, base_vertex)
    diag = with_certificates(p_base, diag)
    lam, perron, perron_min = _perron_state(p_base)
    m_base = p_base.adjoint_at_identity()
    spectrum = np.linalg.eigvalsh(m_base)

    vertex_max: dict[VertexId, float] = {base_vertex: float(spectrum[-1])}
    case = None
    exhibit_vertex = None
    exhibit_state = None

    if lam >= 1.0 - eps_spec:
        case = RECURRENT
    else:
        # Irreducibility gives every vertex an outgoing jump, and the base
        # return map has already checked that each one escapes.
        ms, diag["return_scan"] = return_operators(model)
        ms[base_vertex] = m_base  # the reported return operator
        scan = [base_vertex] + [v.id for v in model.vertices if v.id != base_vertex]
        for vid in scan:
            vals, vecs = np.linalg.eigh(ms[vid])
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
