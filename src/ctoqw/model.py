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

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import accumulate
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import ModelError

STRUCT_TOL = 1e-10

VertexId = int | str
_IDS = {int, str}  # the vertex id types that JSON gives as they are


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
    """A vertex-indexed family of positive matrices with total trace at most
    one.

    Blocks are stored in model vertex order; missing vertices are implicitly
    zero.  Construction does not validate, use :func:`check_block_state`.
    """

    blocks: dict[VertexId, np.ndarray] = field(default_factory=dict)

    def block(self, vertex: VertexId, dim: int) -> np.ndarray:
        """The block at ``vertex``, zero ``dim x dim`` where it is missing."""
        if vertex in self.blocks:
            return self.blocks[vertex]
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


def check_block_state(model: "WalkModel", mu: BlockState) -> None:
    """Raise :class:`ModelError` unless every block has its vertex's shape
    (checked first, for all vertices) and is Hermitian and positive
    semidefinite, and the traces add up to at most one (less once mass has
    escaped through a window boundary), all to ``STRUCT_TOL``."""
    for v in model.vertices:
        b = mu.block(v.id, v.dim)
        if b.shape != (v.dim, v.dim):
            raise ModelError(f"block at {v.id!r} has shape {b.shape}, expected {(v.dim, v.dim)}")
    tr = 0.0
    for v in model.vertices:
        b = mu.block(v.id, v.dim)
        if np.linalg.norm(b - b.conj().T) > 1e-8 * (1 + np.linalg.norm(b)):
            raise ModelError(f"block at {v.id!r} is not Hermitian")
        if np.any(b):
            mineig = float(np.min(np.linalg.eigvalsh(linalg.herm(b))))
            if mineig < -STRUCT_TOL:
                raise ModelError(f"block at {v.id!r} has eigenvalue {mineig:.3e} < -{STRUCT_TOL:.1e}")
        tr += float(np.trace(b).real)
    if tr > 1.0 + STRUCT_TOL:
        raise ModelError(f"total trace {tr!r} exceeds 1 beyond {STRUCT_TOL:.1e}")


class _Stacks(NamedTuple):
    """The vertices of one internal dimension: their positions, increasing,
    and ``H``, ``G``, the escape defect ``D`` and the decay
    ``sum_j R[i->j]^dag R[i->j]`` of each, stacked in that order."""

    pos: np.ndarray
    ham: np.ndarray
    eff: np.ndarray
    defect: np.ndarray
    decay: np.ndarray


class WalkModel:
    """Immutable walk model, held as stacks of equally shaped matrices.

    Per internal dimension one :class:`_Stacks`; per jump shape one stack of
    the jumps of that shape in jump order.  Every matrix an accessor returns
    is a read-only view of a stack.  Use :func:`build_walk`,
    :func:`classical_embed`, :func:`build_lattice` or
    :func:`model_from_json` to construct instances.

    Read-only views for stacked work: ``stacks`` and ``jump_stacks`` (as
    passed to the constructor), ``ends``, the ``(E, 2)`` jump ends, and
    ``starts``, the direct sum of the vectorized vertex spaces: vertex ``p``
    holds ``starts[p]:starts[p + 1]``, and ``starts[-1] = sum_i d_i**2``.
    """

    def __init__(self, vertices, stacks, ends, jumps, meta=None):
        """``stacks`` maps each dimension to its :class:`_Stacks`; ``ends``
        lists the ``(src, dst)`` vertex positions of every jump in jump
        order, and ``jumps`` holds one ``(ks, stack)`` per jump shape, the
        increasing jump-order indices ``ks`` of the stack's matrices."""
        self.vertices: tuple[VertexSpace, ...] = tuple(vertices)
        self._ids = tuple(v.id for v in self.vertices)
        n = len(self._ids)
        self._index = dict(zip(self._ids, range(n)))
        if len(self._index) != n:
            raise ModelError("vertex ids must be unique")
        self._by_text = dict(zip(map(str, self._ids), self._ids))
        if len(self._by_text) != n:
            raise ModelError("vertex ids must remain unique as strings")
        self.stacks: MappingProxyType[int, _Stacks] = MappingProxyType(dict(stacks))
        for s in self.stacks.values():
            for stack in s:
                stack.flags.writeable = False
        self._row = _rows([s.pos for s in self.stacks.values()], n).tolist()
        sizes = np.array([v.dim for v in self.vertices], dtype=int) ** 2
        self.starts = np.concatenate(([0], np.cumsum(sizes)))
        self.ends = np.asarray(ends, dtype=int).reshape(-1, 2)
        self.starts.flags.writeable = self.ends.flags.writeable = False
        src, dst = self.ends.T
        self._src, self._dst = src.tolist(), dst.tolist()
        # the jumps from position p, in jump order, are _by_src[_out[p]:_out[p + 1]],
        # those into p likewise; _jump_at maps the key src * n + dst of a jump to k
        self._by_src, self._by_dst = (k.argsort(kind="stable").tolist() for k in (src, dst))
        self._out, self._in = ([0, *accumulate(np.bincount(k, minlength=n).tolist())]
                               for k in (src, dst))
        pairs = (src * n + dst).tolist()
        self._jump_at = dict(zip(pairs, range(len(pairs))))
        if len(self._jump_at) != len(pairs):  # the dict kept the last of a duplicate
            k = next(k for k, e in enumerate(pairs) if self._jump_at[e] != k)
            a, b = self._ids[self._src[k]], self._ids[self._dst[k]]
            raise ModelError(f"duplicate jump {a!r} -> {b!r}")
        self.jump_stacks: tuple[tuple[np.ndarray, np.ndarray], ...] = tuple(jumps)
        which, row = np.empty((2, len(self._src)), dtype=int)  # jump k is row[k] of stack which[k]
        for w, (ks, stack) in enumerate(self.jump_stacks):
            ks.flags.writeable = stack.flags.writeable = False
            which[ks], row[ks] = w, np.arange(len(ks))
        self._jump_stack, self._jump_row = which.tolist(), row.tolist()
        self.meta = dict(meta or {})
        self._derived: dict = {}

    # -- lookups ---------------------------------------------------------

    @property
    def ids(self) -> list[VertexId]:
        return list(self._ids)

    def position(self, vertex: VertexId) -> int:
        try:
            return self._index[vertex]
        except KeyError:
            raise ModelError(f"unknown vertex {vertex!r}") from None

    def named(self, text: str) -> VertexId:
        """The vertex whose id, written as a string, is ``text``."""
        try:
            return self._by_text[text]
        except KeyError:
            raise ModelError(f"unknown vertex {text}") from None

    def dim(self, vertex: VertexId) -> int:
        return self.vertices[self.position(vertex)].dim

    @property
    def total_dim(self) -> int:
        return sum(v.dim for v in self.vertices)

    def _at(self, vertex: VertexId) -> tuple[_Stacks, int]:
        p = self.position(vertex)
        return self.stacks[self.vertices[p].dim], self._row[p]

    def hamiltonian(self, vertex: VertexId) -> np.ndarray:
        s, r = self._at(vertex)
        return s.ham[r]

    def effective(self, vertex: VertexId) -> np.ndarray:
        s, r = self._at(vertex)
        return s.eff[r]

    def escape_defect(self, vertex: VertexId) -> np.ndarray:
        s, r = self._at(vertex)
        return s.defect[r]

    def _jump(self, k: int) -> np.ndarray:
        return self.jump_stacks[self._jump_stack[k]][1][self._jump_row[k]]

    def jump(self, src: VertexId, dst: VertexId) -> np.ndarray | None:
        k = self._jump_at.get(self.position(src) * len(self._ids) + self.position(dst))
        return None if k is None else self._jump(k)

    def jumps(self):
        """Iterate (src_id, dst_id, matrix) in deterministic order."""
        ids = self._ids
        for k, (a, b) in enumerate(zip(self._src, self._dst)):
            yield ids[a], ids[b], self._jump(k)

    def out_edges(self, vertex: VertexId):
        p = self.position(vertex)
        ids, dst = self._ids, self._dst
        return [(ids[dst[k]], self._jump(k)) for k in self._by_src[self._out[p]:self._out[p + 1]]]

    def in_edges(self, vertex: VertexId):
        p = self.position(vertex)
        ids, src = self._ids, self._src
        return [(ids[src[k]], self._jump(k)) for k in self._by_dst[self._in[p]:self._in[p + 1]]]

    # -- derived quantities ------------------------------------------------

    @property
    def rate_constant(self) -> float:
        """C = sum over ordered pairs of ||R R^dag||; the total jump
        intensity is bounded by C, so the expected number of jumps in a
        window of length m is at most m*C.  Computed once per model, summed
        in jump order."""
        return self.derived("rate_constant", _rate_constant)

    def is_escaping(self, vertex: VertexId) -> bool:
        return linalg.spectral_abscissa(self.effective(vertex)) < -linalg.STABILITY_MARGIN

    def derived(self, key: str, build):
        """Per-model data computed once: ``build(self)`` on the first call
        with ``key``, the stored result afterwards."""
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build(self)
            return value

    def escaping_boundary(self) -> list[VertexId]:
        """Vertices with a nonzero escape defect (sub-stochastic boundary),
        found once per model."""
        return list(self.derived("escaping_boundary", _escaping_boundary))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        hams, effs = [None] * len(self.vertices), [None] * len(self.vertices)
        for s in self.stacks.values():
            for p, h, g in zip(s.pos.tolist(), matrix_to_json(s.ham), matrix_to_json(s.eff)):
                hams[p], effs[p] = h, g
        mats = [None] * len(self._src)
        for ks, stack in self.jump_stacks:
            for k, r in zip(ks.tolist(), matrix_to_json(stack)):
                mats[k] = r
        ids = self._ids
        doc: dict = {
            "vertices": [{"id": v.id, "dim": v.dim} for v in self.vertices],
            "hamiltonians": {str(vid): h for vid, h in zip(ids, hams)},
            "jumps": [
                {"from": ids[a], "to": ids[b], "matrix": r}
                for a, b, r in zip(self._src, self._dst, mats)
            ],
            "effective": {str(vid): g for vid, g in zip(ids, effs)},
        }
        if self.meta:
            doc["meta"] = self.meta
        return doc

    def canonical_hash(self) -> str:
        """sha256 of the model's JSON without ``meta``, computed once per model."""
        return self.derived("canonical_hash", _canonical_hash)


# -- stacked matrix work -------------------------------------------------------
#
# Per-vertex and per-edge work runs on stacks of equally shaped matrices.
# LAPACK factors each matrix of a stack on its own, with the routine it uses
# for a lone matrix, and matmul and elementwise arithmetic treat each matrix
# of a stack as they treat it alone, so every float below is the one computed
# matrix by matrix.


def _dagger(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _rows(groups, n: int) -> np.ndarray:
    """The row of each of ``n`` vertices in its group, given the positions
    of each group."""
    row = np.empty(n, dtype=int)
    for pos in groups:
        row[pos] = np.arange(len(pos))
    return row


def _decays(groups: dict, src_rows: np.ndarray, jumps) -> dict[int, np.ndarray]:
    """Per dimension, the decay ``sum_j R[i->j]^dag R[i->j]`` of each of its
    vertices, added up in jump order by one unbuffered ``np.add.at`` over
    the flat entries; ``src_rows`` holds the row of each jump's source in
    its group."""
    parts: dict[int, list] = {}
    for ks, r in jumps:
        parts.setdefault(r.shape[-1], []).append((ks, _dagger(r) @ r))
    decays = {d: np.zeros((len(pos), d, d), dtype=complex) for d, pos in groups.items()}
    for d, found in parts.items():
        ks = np.concatenate([k for k, _ in found])
        order = np.argsort(ks, kind="stable")
        at = (src_rows[ks[order], None] * d * d + np.arange(d * d)).ravel()
        np.add.at(decays[d].reshape(-1), at, np.concatenate([p for _, p in found])[order].ravel())
    return decays


def _canonical_hash(model: WalkModel) -> str:
    doc = model.to_json_dict()
    doc.pop("meta", None)
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False)
    return hashlib.sha256(payload.encode()).hexdigest()


def _rate_constant(model: WalkModel) -> float:
    norms = np.empty(len(model._src))
    for ks, r in model.jump_stacks:
        norms[ks] = linalg.opnorm(r @ _dagger(r))
    return float(sum(norms.tolist()))


def _escaping_boundary(model: WalkModel) -> tuple:
    norms = np.empty(len(model.vertices))
    for s in model.stacks.values():
        norms[s.pos] = linalg.opnorm(s.defect)
    return tuple(vid for vid, x in zip(model._ids, norms.tolist()) if x > STRUCT_TOL)


# -- complex matrix (de)serialization: rows of [re, im] pairs ---------------


def matrix_to_json(m: np.ndarray) -> list:
    """A matrix as rows of ``[re, im]`` pairs; a stack gives the list of its
    matrices."""
    m = np.ascontiguousarray(np.atleast_2d(np.asarray(m, dtype=complex)))
    return m.view(float).reshape(m.shape + (2,)).tolist()


def json_to_matrix(data) -> np.ndarray:
    return _json_stacks([data])[0][1][0]


def _json_stacks(items) -> list[tuple[np.ndarray, np.ndarray]]:
    """Decode matrices stored as rows of [re, im] pairs into one complex
    ``(ks, stack)`` per shape, with one array conversion if all share one."""
    encoding = "a complex matrix must be encoded as rows of [re, im] pairs"
    nonfinite = "a complex matrix has a NaN or infinite entry"
    try:
        whole, groups = np.asarray(items, dtype=float), {(): np.arange(len(items))} if items else {}
    except (TypeError, ValueError, OverflowError):  # the shapes differ, or an entry is bad
        whole, groups = None, {}
        try:
            for k, m in enumerate(items):
                groups.setdefault((len(m), len(m[0])), []).append(k)
        except (TypeError, IndexError, KeyError):
            raise ModelError(encoding) from None
    out = []
    for ks in groups.values():
        try:
            arr = np.asarray([items[k] for k in ks], dtype=float) if whole is None else whole
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: a huge integer
            raise ModelError(nonfinite if isinstance(exc, OverflowError) else encoding) from None
        if arr.ndim != 4 or arr.shape[-1] != 2:
            raise ModelError(encoding)
        if not np.isfinite(arr).all():
            raise ModelError(nonfinite)
        out.append((np.asarray(ks), arr[..., 0] + 1j * arr[..., 1]))
    return out


# -- construction ------------------------------------------------------------


class Stacked(NamedTuple):
    """Matrices grouped by shape, one ``(ks, stack)`` each, and the vertex id
    of each matrix (for jumps, the lists of source and of destination ids)."""

    keys: list
    stacks: list


def _stacked(mats) -> list:
    """Per-matrix input as complex stacks, one ``(ks, stack)`` per shape; a
    scalar or vector is read as a matrix as ``np.atleast_2d`` reads it."""
    groups: dict[tuple, list[int]] = {}
    for k, m in enumerate(mats):
        shape = m.shape if isinstance(m, np.ndarray) else np.shape(m)
        groups.setdefault((1,) * (2 - len(shape)) + shape, []).append(k)
    return [(np.array(ks), np.array([mats[k] for k in ks], dtype=complex).reshape(-1, *shape))
            for shape, ks in groups.items()]


def _check_stacks(stacks, where: np.ndarray, rows: np.ndarray, cols: np.ndarray, name) -> None:
    """Raise naming (``name(where[k])``) the matrix least in ``where`` with a
    NaN or infinite entry, else the least not of shape ``(rows[k], cols[k])``."""
    nonfinite, misshapen = [], []
    for ks, stack in stacks:
        shape = stack.shape[1:]
        fits = (rows[ks] == shape[-2]) & (cols[ks] == shape[-1]) & (len(shape) == 2)
        if fits.all() and np.isfinite(stack).all():
            continue
        nonfinite.extend(where[ks[~np.isfinite(stack).reshape(len(ks), -1).all(axis=1)]].tolist())
        bad = ks[~fits]
        misshapen.extend((w, k, shape) for w, k in zip(where[bad].tolist(), bad.tolist()))
    if nonfinite:
        raise ModelError(f"{name(min(nonfinite))} has a NaN or infinite entry")
    if misshapen:
        w, k, shape = min(misshapen)
        raise ModelError(f"{name(w)} must have shape {(int(rows[k]), int(cols[k]))}, got {shape}")


def build_walk(
    vertices,
    jumps,
    hamiltonians: dict | Stacked | None = None,
    effective: dict | Stacked | None = None,
    meta: dict | None = None,
) -> WalkModel:
    """Assemble a model from ``(id, dim)`` vertex pairs, jumps, and (H or G)
    per vertex.

    ``jumps`` is an iterable of ``(src, dst, matrix)`` with ``src != dst``
    and matrix shape ``(d_dst, d_src)``.  Provide either ``hamiltonians``
    (missing entries default to zero) or ``effective`` dwell generators, or
    both.  When only ``G_i`` is given, the on-site Hamiltonian is recovered
    from its skew part as ``H_i = i/2 (A - A^dag)`` with
    ``A = G_i + 1/2 sum R^dag R``; the leftover Hermitian part of ``A``
    becomes the escape defect ``D_i = -(A + A^dag)``, which is zero for
    closed models.  Validity of the defect (positive semidefiniteness) is
    judged by :func:`validate`, not here.  The matrices are grouped by shape
    (or come so, as :class:`Stacked`) and computed on as stacks, each float
    as it is matrix by matrix.
    """
    vspaces = [VertexSpace(vid, int(dim)) for vid, dim in vertices]
    if not vspaces:
        raise ModelError("a model needs at least one vertex")
    ids = [v.id for v in vspaces]
    index = dict(zip(ids, range(len(ids))))
    if len(index) != len(ids):
        raise ModelError("vertex ids must be unique")
    dims = np.array([v.dim for v in vspaces], dtype=int)

    stacked = isinstance(jumps, Stacked)
    srcs, dsts, mats = (*jumps.keys, None) if stacked else list(zip(*jumps)) or ((), (), ())
    ends = [[index.get(a, -1) for a in srcs], [index.get(b, -1) for b in dsts]]  # -1: unknown
    src, dst = np.array(ends, dtype=int).reshape(2, -1)
    for k in np.flatnonzero((src < 0) | (dst < 0) | (src == dst))[:1].tolist():  # the first bad
        if src[k] < 0 or dst[k] < 0:
            raise ModelError(f"jump references unknown vertex: {srcs[k]!r} -> {dsts[k]!r}")
        raise ModelError(f"self-loop jump at vertex {srcs[k]!r} is not allowed")
    jump_stacks = jumps.stacks if stacked else _stacked(mats)
    _check_stacks(jump_stacks, np.arange(len(src)), dims[dst], dims[src],
                  lambda k: f"jump {ids[src[k]]!r} -> {ids[dst[k]]!r}")

    groups = {d: np.flatnonzero(dims == d) for d in sorted(set(dims.tolist()))}
    row = _rows(groups.values(), len(ids))
    decays = _decays(groups, row[src], jump_stacks)

    def given(name, supplied):  # the position of each matrix, and the stacks
        if not isinstance(supplied, Stacked):
            keys = [vid for vid, m in supplied.items() if m is not None and vid in index]
            supplied = Stacked(keys, _stacked([supplied[vid] for vid in keys]))
        pos = np.array([index[vid] for vid in supplied.keys], dtype=int)
        shapes = dims[pos]
        _check_stacks(supplied.stacks, pos, shapes, shapes, lambda p: f"{name} at {ids[p]!r}")
        return pos, supplied.stacks

    h_pos, h_given = given("H", hamiltonians or {})
    bad = []  # the supplied H not Hermitian to a relative 1e-12 in spectral norm
    for ks, h in h_given:
        res, size = linalg.opnorm(np.concatenate([h - _dagger(h), h])).reshape(2, -1)
        bad.extend(h_pos[ks[~(res <= 1e-12 * (1.0 + size))]].tolist())
    if bad:
        raise ModelError(f"H at {ids[min(bad)]!r} is not Hermitian")
    g_pos, g_given = given("G", effective or {})

    hams = {d: np.zeros((len(pos), d, d), dtype=complex) for d, pos in groups.items()}
    has_h = np.zeros(len(ids), dtype=bool)
    for ks, h in h_given:
        hams[h.shape[-1]][row[h_pos[ks]]] = h
        has_h[h_pos[ks]] = True
    stacks = {d: _Stacks(pos, h, -1j * h - 0.5 * decays[d], np.zeros_like(h), decays[d])
              for (d, pos), h in zip(groups.items(), hams.values())}
    disagree, norm = [], np.linalg.norm
    for ks, g in g_given:
        s = stacks[g.shape[-1]]
        rows = row[g_pos[ks]]
        a_mat = g + 0.5 * s.decay[rows]
        h_rec = 0.5j * (a_mat - _dagger(a_mat))
        minus = -(a_mat + _dagger(a_mat))
        h = s.ham[rows]
        far = norm(h - h_rec, axis=(-2, -1)) > STRUCT_TOL * (1.0 + norm(h, axis=(-2, -1)))
        disagree.extend(g_pos[ks][has_h[g_pos[ks]] & far].tolist())
        s.ham[rows], s.eff[rows], s.defect[rows] = h_rec, g, 0.5 * (minus + _dagger(minus))
    if disagree:
        raise ModelError(f"H and G disagree at vertex {ids[min(disagree)]!r} beyond tolerance")

    return WalkModel(vspaces, stacks, np.array([src, dst]).T, jump_stacks, meta=meta)


def classical_embed(q: np.ndarray) -> WalkModel:
    """Embed a classical continuous-time Markov chain generator.

    ``q`` must have nonnegative off-diagonal entries and zero row sums.
    Vertex ``i`` is row ``i``; every vertex gets a one-dimensional internal
    space, ``H_i = 0`` and ``R[i->j] = sqrt(q[i, j])``, so the position
    process of the resulting walk is the chain generated by ``q``.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ModelError("generator must be a square matrix")
    n = q.shape[0]
    off = ~np.eye(n, dtype=bool)
    for i, j in np.argwhere(off & (q < 0))[:1].tolist():  # the first negative rate
        raise ModelError(f"negative off-diagonal rate q[{i},{j}] = {q[i, j]}")
    if np.abs(q.sum(axis=1)).max(initial=0.0) > 1e-12 * (1.0 + np.abs(q).max(initial=0.0)):
        raise ModelError("generator rows must sum to zero")
    src, dst = np.nonzero(off & (q > 0))
    rates = np.sqrt(q[src, dst]).astype(complex).reshape(-1, 1, 1)
    stacks = [(np.arange(len(src)), rates)] if len(src) else []
    return build_walk([(v, 1) for v in range(n)], Stacked((src.tolist(), dst.tolist()), stacks))


# -- validation --------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    vertex: VertexId | None
    passed: bool
    residual: float
    note: str = ""


# the checks of each vertex, in report order, and their notes
_CHECKS = (("hamiltonian_hermitian", ""), ("effective_consistent", ""),
           ("dissipative", "escape defect must be positive semidefinite"), ("zero_sum", ""))
_EDGE_NOTE = "window boundary vertex, walker escapes at this rate"


@dataclass(eq=False)
class ValidationReport:
    """The checks of :func:`validate`, held as one row of ``residuals`` and
    of ``passes`` per kind of ``_CHECKS``, over the vertices; the
    :class:`CheckResult` list is built when first read."""

    ids: tuple
    residuals: np.ndarray
    passes: np.ndarray
    boundary: list[bool]  # the declared window-boundary vertices, by position
    rate_constant: float
    escaping_boundary: list[VertexId]
    tolerance: float

    @property
    def ok(self) -> bool:
        return bool(self.passes.all()) and math.isfinite(self.rate_constant)

    @functools.cached_property
    def checks(self) -> list[CheckResult]:
        rows = zip(self.ids, self.residuals.T.tolist(), self.passes.T.tolist(), self.boundary)
        checks = [CheckResult(name, vid, p, r, _EDGE_NOTE if edge and name == "zero_sum" else note)
                  for vid, res, ok, edge in rows for (name, note), r, p in zip(_CHECKS, res, ok)]
        c = self.rate_constant
        return checks + [CheckResult("rate_constant_finite", None, math.isfinite(c), 0.0,
                                     f"C = {c:.6g}")]

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "escaping_boundary": [str(v) for v in self.escaping_boundary],
            "checks": [{**vars(c), "vertex": None if c.vertex is None else str(c.vertex)}
                       for c in self.checks],
        }


def validate(model: WalkModel, tol: float = STRUCT_TOL) -> ValidationReport:
    """Run the structural invariant checks and report residuals.

    A model is usable only if every check passes.  Boundary vertices of a
    declared window may be sub-stochastic: there the conservativity check
    is replaced by positivity of the escape defect, and the vertex is
    reported in ``escaping_boundary``.
    """
    declared = set(model.meta.get("escaping", []))
    boundary = [vid in declared for vid in model._ids]
    # per vertex: |H - H^dag|, |H|, |G - rebuilt G|, |G|, |G + G^dag + decay|,
    # and the least eigenvalue of the escape defect -(G + G^dag + decay)
    cols = np.empty((6, len(model.vertices)))
    for ks, h, g, defect, decay in model.stacks.values():
        rebuilt = -1j * h - 0.5 * decay - 0.5 * defect
        zero_sum = g + _dagger(g) + decay
        stacked = np.concatenate([h - _dagger(h), h, g - rebuilt, g, zero_sum])
        cols[:5, ks] = linalg.opnorm(stacked).reshape(5, -1)
        minus = -zero_sum
        cols[5, ks] = np.linalg.eigvalsh(0.5 * (minus + _dagger(minus))).min(axis=-1)
    res_h, norm_h, res_g, norm_g, res_zs, defect_min = cols
    psd, lack = defect_min >= -tol, -defect_min
    passes = [res_h <= 1e-12 * (1.0 + norm_h), res_g <= tol * (1.0 + norm_g), psd,
              np.where(boundary, psd, res_zs <= tol)]
    # the dissipative residual is max(0.0, lack) as Python takes it
    residuals = [res_h, res_g, np.where(lack > 0.0, lack, 0.0), res_zs]
    return ValidationReport(model._ids, np.array(residuals), np.array(passes), boundary,
                            model.rate_constant, model.escaping_boundary(), tol)


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

    Sites are the integers ``lo..hi``.  An explicit entry between two
    in-window sites overrides the templates for that pair (a ``null``
    matrix removes the jump); offset templates apply to every other
    in-window pair whose endpoint dimensions match the template shape.
    Explicit entries from a site outside the window are ignored.  Jumps
    leaving the window, explicit or templated, are dropped, and their
    source site with a declared ``G`` keeps it and therefore becomes
    sub-stochastic (the walker escapes there), which is recorded in the
    model metadata.  An explicit entry to a site outside the window does
    not stop a template from marking its source this way.
    """
    spec = dict(spec)
    if window is None:
        window = spec.get("window")
        if not (isinstance(window, (list, tuple)) and len(window) == 2):
            raise ModelError(f"lattice 'window' must be a list [lo, hi], got {window!r}")
    lo, hi = (_lattice_int(x, "window bound") for x in window)
    if hi < lo:
        raise ModelError("window must satisfy lo <= hi")
    sites = list(range(lo, hi + 1))
    default_dim = _lattice_dim(spec.get("dim", 1))
    dims = {s: default_dim for s in sites}
    for key, d in _lattice_block(spec, "dims").items():
        s = _lattice_int(key, "'dims' key")
        if lo <= s <= hi:
            dims[s] = _lattice_dim(d)

    def _site_matrices(block_name):
        # each template is decoded once and shared by the sites it covers
        block = _lattice_block(spec, block_name)
        keys = [k for k in ("default", *map(str, sites)) if block.get(k) is not None]
        mats = {keys[k]: m for ks, stack in _json_stacks([block[k] for k in keys])
                for k, m in zip(ks.tolist(), stack)}
        out = {}
        for s in sites:
            m = mats.get(str(s)) if str(s) in block else mats.get("default")
            if m is not None and m.shape == (dims[s], dims[s]):
                out[s] = m
        return out

    eff = _site_matrices("effective")
    ham = _site_matrices("hamiltonians")
    if not eff and not ham:
        raise ModelError("lattice spec needs 'effective' or 'hamiltonians'")

    explicit: dict[tuple[int, int], np.ndarray | None] = {}
    templates: list[tuple[int, np.ndarray]] = []
    entries = spec.get("jumps") or []
    if not isinstance(entries, list):
        raise ModelError("lattice 'jumps' must be a list")
    for entry in entries:
        if not isinstance(entry, dict):
            raise ModelError(f"a lattice jump must be a JSON object, got {entry!r}")
        m = entry.get("matrix")
        mat = None if m is None else json_to_matrix(m)
        if "offset" in entry:
            if mat is None:
                raise ModelError("offset template requires a matrix")
            templates.append((_lattice_int(entry["offset"], "jump 'offset'"), mat))
        elif "from" in entry and "to" in entry:
            ends = (_lattice_int(entry["from"], "jump 'from'"), _lattice_int(entry["to"], "jump 'to'"))
            explicit[ends] = mat
        else:
            raise ModelError("a lattice jump needs an 'offset', or a 'from' and a 'to'")

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

    meta = {"lattice": spec, "window": [lo, hi], "escaping": sorted(escaping)}
    return build_walk([(s, dims[s]) for s in sites], jumps, ham, eff, meta=meta)


def _lattice_int(value, what: str) -> int:
    """An integer field of a lattice block: an int, an integral float, or a
    decimal string (as a JSON object key is)."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ModelError(f"lattice {what} must be an integer, got {value!r}")


def _lattice_dim(value) -> int:
    d = _lattice_int(value, "dimension")
    if d < 1:
        raise ModelError(f"lattice dimension must be positive, got {d}")
    return d


def _lattice_block(spec: dict, name: str) -> dict:
    """The JSON object ``spec[name]``, empty where it is missing or null."""
    block = spec.get(name)
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ModelError(f"lattice '{name}' must be a JSON object")
    return block


# -- whole-model JSON ---------------------------------------------------------


def model_from_json(doc: dict | str) -> WalkModel:
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ModelError("a model must be a JSON object")
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ModelError("'meta' must be a JSON object")
    escaping = (meta or {}).get("escaping", [])
    if not (isinstance(escaping, list) and all(isinstance(x, (int, float, str)) for x in escaping)):
        raise ModelError("meta 'escaping' must be a list of vertex ids")
    if "lattice" in doc:
        extra = {"vertices", "hamiltonians", "jumps", "effective"} & set(doc)
        if extra:
            raise ModelError(f"'lattice' cannot be combined with {sorted(extra)}")
        if not isinstance(doc["lattice"], dict):
            raise ModelError("'lattice' must be a JSON object")
        return build_lattice(doc["lattice"])
    try:
        ids, dims = _fields(doc["vertices"], ("id", _coerce_id, _IDS), ("dim", _coerce_dim, {int}))
    except (KeyError, TypeError) as exc:
        raise ModelError(f"bad vertices block: {exc}") from exc
    by_str = dict(zip(map(str, ids), ids))
    blocks = {name: {} if doc.get(name) is None else doc[name]
              for name in ("hamiltonians", "effective")}
    for name, block in blocks.items():
        if not isinstance(block, dict):
            raise ModelError(f"'{name}' must be a JSON object")
        for key in block:
            if key not in by_str:
                raise ModelError(f"{name} references unknown vertex {key!r}")
    try:
        src, dst, mats = _fields(doc.get("jumps", []), ("from", _coerce_id, _IDS),
                                 ("to", _coerce_id, _IDS), ("matrix", lambda m: m, {list}))
    except (KeyError, TypeError) as exc:
        raise ModelError(f"bad jumps block: {exc}") from exc
    hams, effs = (list(block.values()) for block in blocks.values())
    # one decode for the whole file, cut into the H, G and jump stacks
    cuts = [0, *accumulate(map(len, (hams, effs, mats)))]
    parts: list[list] = [[], [], []]
    for ks, stack in _json_stacks(hams + effs + mats):
        at = np.searchsorted(ks, cuts).tolist()
        for part, lo, a, b in zip(parts, cuts, at, at[1:]):
            if a < b:
                part.append((ks[a:b] - lo, stack[a:b]))
    h, g = (Stacked([by_str[key] for key in block], part)
            for block, part in zip(blocks.values(), parts))
    return build_walk(list(zip(ids, dims)), Stacked((src, dst), parts[2]), h, g, meta=meta)


def _fields(items, *spec) -> list[list]:
    """The columns ``key`` of ``items``, JSON objects, through ``coerce``: one
    type scan per column (``plain``, the types it keeps), else item by item,
    so that the first bad field raises as it would alone."""
    try:
        cols = [[item[key] for item in items] for key, _, _ in spec]
        if all(set(map(type, col)) <= plain for (_, _, plain), col in zip(spec, cols)):
            return cols
    except (KeyError, TypeError):
        pass
    rows = [[coerce(item[key]) for key, coerce, _ in spec] for item in items]
    return [list(col) for col in zip(*rows)]


def _coerce_id(v) -> VertexId:
    if isinstance(v, bool):
        raise ModelError("vertex ids must be integers or strings")
    if isinstance(v, (int, str)):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise ModelError(f"vertex id {v!r} must be an integer or string")


def _coerce_dim(d) -> int:
    if isinstance(d, int) and not isinstance(d, bool):
        return d
    if isinstance(d, float) and d.is_integer():
        return int(d)
    raise ModelError(f"vertex dim {d!r} must be an integer")


def state_to_json(mu: BlockState) -> dict:
    return {"blocks": {str(k): matrix_to_json(v) for k, v in mu.blocks.items()}}


def state_from_json(doc: dict, model: WalkModel) -> BlockState:
    """The block state of a ``{"blocks": {vertex: matrix}}`` document,
    checked by :func:`check_block_state`; missing vertices are zero."""
    if not isinstance(doc, dict) or not isinstance(doc.get("blocks", {}), dict):
        raise ModelError('a block state must be a JSON object {"blocks": {vertex: matrix}}')
    blocks = {v.id: np.zeros((v.dim, v.dim), dtype=complex) for v in model.vertices}
    for key, m in doc.get("blocks", {}).items():
        blocks[model.named(key)] = json_to_matrix(m)
    mu = BlockState(blocks)
    check_block_state(model, mu)
    return mu
