"""SPD metrics, weighted norms and spectral norms.

Everything is finite-dimensional.  A dense SPD metric caches its
Cholesky factor and extremal eigenvalues at construction, so weighted
norms and inverse-metric solves inside the iteration loops are cheap
and deterministic.  A scaled identity c I holds only its scalar c:
`weighted_norm` and `solve` read c directly, with no `apply` call and
no dense matrix, and skip the multiply or divide when c == 1.0, where
it is exact.  Their results equal the dense metric's bit for bit
wherever the dense route rounds once.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve

__all__ = [
    "ContractViolation",
    "SpdMetric",
    "weighted_norm",
    "extremal_eig_bounds",
    "spectral_norm",
]


class ContractViolation(ValueError):
    """Raised when an operation is called outside its contract."""


def extremal_eig_bounds(w: np.ndarray, tol: float = 1e-12) -> tuple[float, float]:
    """Extremal eigenvalues of a symmetric matrix.

    Dense symmetric eigendecomposition; intended for desk-scale
    matrices (n <= 500).  Raises on non-symmetric input.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ContractViolation("matrix must be square")
    scale = max(1.0, float(np.abs(w).max()))
    if np.abs(w - w.T).max() > max(tol, 1e-12) * scale:
        raise ContractViolation("matrix is not symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (w + w.T))
    return float(eigs[0]), float(eigs[-1])


def spectral_norm(m: np.ndarray) -> float:
    """||M||_2 as sqrt(lambda_max) of the smaller Gram matrix of M.

    One dense symmetric eigenvalue solve instead of an SVD; an empty or
    zero matrix gives exactly 0.0.
    """
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    gram = m.T @ m if m.shape[0] >= m.shape[1] else m @ m.T
    return float(np.sqrt(max(0.0, float(np.linalg.eigvalsh(gram)[-1]))))


class SpdMetric:
    """Symmetric positive definite metric with cached factorization.

    Input is symmetrized and rejected unless lambda_min > 1e-12 *
    lambda_max.  `apply` computes W x and `solve` computes W^{-1} v via
    the cached Cholesky factor.  `identity` and `scaled_identity` hold
    the scalar c of W = c I instead, so building, applying and solving
    cost O(1), O(n) and O(n); the dense matrix is formed only when
    `matrix` is read.  At c = 1, `solve` returns v itself.
    """

    def __init__(self, matrix):
        w = np.asarray(matrix, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ContractViolation("metric must be a square matrix")
        scale = max(1.0, float(np.abs(w).max()))
        if np.abs(w - w.T).max() > 1e-12 * scale:
            raise ContractViolation("metric is not symmetric to 1e-12 relative")
        w = 0.5 * (w + w.T)
        lam_min, lam_max = extremal_eig_bounds(w)
        if lam_min <= 1e-12 * lam_max or lam_max <= 0.0:
            raise ContractViolation("metric is not positive definite")
        self._matrix = w
        self._scale = None
        self.dim = w.shape[0]
        self.lam_min = lam_min
        self.lam_max = lam_max
        self._chol = cho_factor(w, lower=True)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self._scale * np.eye(self.dim)
        return self._matrix

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self._scale is None:
            return self._matrix @ x
        return self._scale * x

    def solve(self, v: np.ndarray) -> np.ndarray:
        c = self._scale
        if c is None:
            return cho_solve(self._chol, v)
        return v if c == 1.0 else v / c

    @classmethod
    def identity(cls, n: int) -> "SpdMetric":
        return cls.scaled_identity(1.0, n)

    @classmethod
    def scaled_identity(cls, c: float, n: int) -> "SpdMetric":
        c = float(c)
        if not c > 0.0:
            raise ContractViolation("metric is not positive definite")
        metric = cls.__new__(cls)
        metric._matrix = None
        metric._scale = c
        metric.dim = int(n)
        metric.lam_min = metric.lam_max = c
        return metric


def weighted_norm(w: SpdMetric, x: np.ndarray) -> float:
    """sqrt(<x, W x>); for W = c I summed as x @ (c x), as the dense
    product W x rounds."""
    if x.shape[0] != w.dim:
        raise ContractViolation("dimension mismatch")
    c = w._scale
    if c is None:
        wx = w.apply(x)
    else:
        wx = x if c == 1.0 else c * x
    return math.sqrt(max(float(x @ wx), 0.0))
