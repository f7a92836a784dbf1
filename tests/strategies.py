"""Random model generation shared by property tests and the fuzz suite."""

from __future__ import annotations

import numpy as np

from ctoqw.classify import check_irreducible
from ctoqw.model import WalkModel, build_walk


def random_hermitian(rng, d, scale=1.0):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * 0.5 * (m + m.conj().T)


def random_density(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_model(
    rng: np.random.Generator,
    n_vertices: int | None = None,
    max_dim: int = 3,
    extra_edge_prob: float = 0.45,
    with_hamiltonian: bool = True,
) -> WalkModel:
    """A random closed model on a ring plus random chords.

    Built from (H, R), so the zero-sum identity holds exactly by
    construction.  Not guaranteed irreducible or escaping; see
    :func:`random_classifiable_model` for that.
    """
    n = int(rng.integers(2, 7)) if n_vertices is None else n_vertices
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(n)]
    edges = {(k, (k + 1) % n) for k in range(n)}
    for a in range(n):
        for b in range(n):
            if a != b and rng.random() < extra_edge_prob:
                edges.add((a, b))
    jumps = []
    for a, b in sorted(edges):
        r = rng.standard_normal((dims[b], dims[a])) + 1j * rng.standard_normal(
            (dims[b], dims[a])
        )
        r *= rng.uniform(0.3, 1.0) / np.sqrt(dims[a])
        jumps.append((a, b, r))
    hams = None
    if with_hamiltonian:
        hams = {k: random_hermitian(rng, dims[k], scale=0.7) for k in range(n)}
    return build_walk(list(enumerate(dims)), jumps, hamiltonians=hams)


def leaky_variant(rng, m: WalkModel) -> WalkModel:
    """Drop one jump while keeping every dwell generator.

    The removed jump weight becomes a positive escape defect at its source
    vertex, the same mechanism as a clipped lattice window, which is how
    transient behavior arises on a finite vertex set.
    """
    edges = list(m.jumps())
    if len(edges) <= len(m.vertices):
        return m
    drop = rng.integers(0, len(edges))
    src_d, dst_d, _ = edges[drop]
    kept = [(a, b, r) for k, (a, b, r) in enumerate(edges) if k != drop]
    out_counts = {}
    for a, b, r in kept:
        out_counts[a] = out_counts.get(a, 0) + 1
    if out_counts.get(src_d, 0) == 0:
        return m  # keep every vertex able to move on
    return build_walk(
        [(v.id, v.dim) for v in m.vertices],
        kept,
        effective={v.id: m.effective(v.id) for v in m.vertices},
        meta={"escaping": [src_d]},
    )


def random_classifiable_model(rng, max_dim=3, max_tries=60, leak_prob=0.5) -> WalkModel:
    """Random model that is irreducible with every vertex escaping.

    With probability ``leak_prob`` a jump is dropped against fixed dwell
    generators; closed finite models are always recurrent, so the leak is
    what exercises the transient classes.
    """
    for _ in range(max_tries):
        m = random_model(rng, max_dim=max_dim)
        if rng.random() < leak_prob:
            m = leaky_variant(rng, m)
        if not all(m.is_escaping(v.id) for v in m.vertices):
            continue
        if check_irreducible(m).irreducible:
            return m
    raise RuntimeError("could not draw a classifiable model")


def planted_dark_state(rng) -> WalkModel:
    """Random walk on 3-5 vertices with a dark state at vertex 0.

    Vertex 0 is a qutrit, the others have dimension 1..3.  The edges are a
    ring plus every other ordered pair with probability 1/2, each jump is
    0.5 times a complex normal matrix, and every jump out of vertex 0 is
    right-multiplied by ``I - phi phi^dag`` for a random unit ``phi``.
    Without a Hamiltonian ``G_0 phi = 0`` too, so ``span{phi at vertex 0}``
    is invariant and the walk is reducible, continuous and discrete alike.
    """
    n = int(rng.integers(3, 6))
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi /= np.linalg.norm(phi)
    dims = [3] + [int(rng.integers(1, 4)) for _ in range(n - 1)]
    edges = {(k, (k + 1) % n) for k in range(n)}
    for a in range(n):
        for b in range(n):
            if a != b and rng.random() < 0.5:
                edges.add((a, b))
    dark = np.eye(3) - np.outer(phi, phi.conj())
    jumps = []
    for a, b in sorted(edges):
        shape = (dims[b], dims[a])
        r = 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        jumps.append((a, b, r @ dark if a == 0 else r))
    return build_walk(list(enumerate(dims)), jumps)


def shared_block_model(rng, n: int) -> WalkModel:
    """Random walk on random edges (no guaranteed ring) whose operators are
    all block diagonal, ``C (+) C^(d-1)``, in a random frame per vertex.

    The first frame vector of every vertex spans an invariant subspace, so
    the walk is reducible even where its graph is strongly connected.
    """
    dims = [int(rng.integers(2, 4)) for _ in range(n)]
    frames = [
        np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        for d in dims
    ]

    def split(m):
        m[1:, 0] = 0
        m[0, 1:] = 0
        return m

    jumps = []
    for a in range(n):
        for b in range(n):
            if a != b and rng.random() < 0.4:
                shape = (dims[b], dims[a])
                r = split(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                jumps.append((a, b, 0.5 * frames[b] @ r @ frames[a].conj().T))
    hams = {
        k: frames[k] @ split(random_hermitian(rng, d)) @ frames[k].conj().T
        for k, d in enumerate(dims)
    }
    return build_walk(list(enumerate(dims)), jumps, hamiltonians=hams)


def qudit_ring(seed: int, sites: int = 20, dim: int = 3) -> WalkModel:
    """The seeded closed qudit ring of the benchmark (``perfbench/inputs.py``):
    jumps to ``i+1``, ``i-1`` and ``i+2``, rescaled so that every site decays
    by ``diag(linspace(0.75, 1.25, dim))``, and a random Hamiltonian per
    site."""
    rng = np.random.default_rng(seed)
    decay_sqrt = np.diag(np.sqrt(np.linspace(0.75, 1.25, dim)))

    def gaussian():
        return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)

    jumps, hams = [], {}
    for i in range(sites):
        mats = [gaussian() for _ in range(3)]
        vals, vecs = np.linalg.eigh(sum(r.conj().T @ r for r in mats))
        fix = vecs @ np.diag(vals**-0.5) @ vecs.conj().T @ decay_sqrt
        jumps += [(i, (i + off) % sites, r @ fix) for off, r in zip((1, -1, 2), mats)]
        a = gaussian()
        hams[i] = 0.5 * (a + a.conj().T)
    return build_walk([(i, dim) for i in range(sites)], jumps, hamiltonians=hams)


def random_classical_generator(rng, n=None) -> np.ndarray:
    n = int(rng.integers(2, 6)) if n is None else n
    q = rng.uniform(0.0, 2.0, size=(n, n))
    # keep a ring so the chain is irreducible
    for k in range(n):
        q[k, (k + 1) % n] += 0.3
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q
