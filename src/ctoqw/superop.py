"""Completely positive maps between matrix spaces.

A :class:`SuperOp` stores the vectorized matrix of a linear map from
d_s x d_s matrices to d_t x d_t matrices (column-stacking convention) and
offers Kraus and Choi views for positivity certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

KRAUS_TOL = 1e-12  # least Choi eigenvalue kept as a Kraus factor


@dataclass(frozen=True)
class SuperOp:
    source_dim: int
    target_dim: int
    matrix: np.ndarray  # shape (target_dim**2, source_dim**2)

    def __post_init__(self):
        expected = (self.target_dim**2, self.source_dim**2)
        if self.matrix.shape != expected:
            raise ValueError(f"superoperator matrix must have shape {expected}")

    @staticmethod
    def from_kraus(ops) -> "SuperOp":
        """The map ``rho -> sum_k A_k rho A_k^dag`` of a non-empty Kraus family."""
        ops = [np.atleast_2d(np.asarray(k, dtype=complex)) for k in ops]
        target_dim, source_dim = ops[0].shape
        m = np.zeros((target_dim**2, source_dim**2), dtype=complex)
        for k in ops:
            m += linalg.sandwich_matrix(k)
        return SuperOp(source_dim, target_dim, m)

    @staticmethod
    def zero(source_dim: int, target_dim: int) -> "SuperOp":
        return SuperOp(
            source_dim,
            target_dim,
            np.zeros((target_dim**2, source_dim**2), dtype=complex),
        )

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.atleast_2d(np.asarray(rho, dtype=complex))
        out = self.matrix @ linalg.vec(rho)
        return linalg.unvec(out, (self.target_dim, self.target_dim))

    def adjoint_apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the Hilbert-Schmidt adjoint (Heisenberg picture)."""
        x = np.atleast_2d(np.asarray(x, dtype=complex))
        out = self.matrix.conj().T @ linalg.vec(x)
        return linalg.unvec(out, (self.source_dim, self.source_dim))

    def choi(self) -> np.ndarray:
        """Choi matrix on source (x) target index order.

        For a map with Kraus family {A_k} this equals
        sum_k vec(A_k) vec(A_k)^dag, so complete positivity is equivalent
        to this matrix being positive semidefinite.
        """
        ds, dt = self.source_dim, self.target_dim
        m4 = self.matrix.reshape(dt, dt, ds, ds)
        # matrix[(a,b),(c,d)] = sum_k conj(A_k)[a,c] A_k[b,d]
        # choi[(c,b),(d,a)] = sum_k A_k[b,c] conj(A_k[a,d]) = matrix[(a,b),(d,c)]
        choi = m4.transpose(3, 1, 2, 0).reshape(ds * dt, ds * dt)
        return choi

    def choi_min_eigenvalue(self) -> float:
        c = linalg.herm(self.choi())
        return float(np.min(np.linalg.eigvalsh(c)))

    def kraus(self) -> list[np.ndarray]:
        """Kraus factors from the Choi eigenvectors of eigenvalues above ``KRAUS_TOL``."""
        ds, dt = self.source_dim, self.target_dim
        vals, vecs = np.linalg.eigh(linalg.herm(self.choi()))
        ops = []
        for w, v in zip(vals, vecs.T):
            if w > KRAUS_TOL:
                # choi row index is (source col c, target row b)
                a = np.sqrt(w) * v.reshape(ds, dt).T
                ops.append(a)
        return ops

    def adjoint_at_identity(self) -> np.ndarray:
        return linalg.herm(self.adjoint_apply(np.eye(self.target_dim)))

    def trace_increase_defect(self) -> float:
        """How far the map is from being trace-nonincreasing.

        Equals max eig of the adjoint applied to the identity, minus one;
        values <= 0 certify a sub-stochastic map.
        """
        vals = np.linalg.eigvalsh(self.adjoint_at_identity())
        return float(np.max(vals) - 1.0)
