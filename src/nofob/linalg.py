"""SPD metrics, weighted norms, spectral norms and the tolerance table.

The tolerance table is the block of `*_TOL` constants below: every
round-off and contract tolerance of the package, each named once with
its reason and read by name where it is used.  It lives here because
every other module already imports `ContractViolation` from this one.

Everything is finite-dimensional.  A dense SPD metric caches its
Cholesky factor and extremal eigenvalues at construction, so weighted
norms and inverse-metric solves inside the iteration loops are cheap
and deterministic.  Its `solve` calls LAPACK's dpotrs on the factor
directly, the routine scipy's `cho_solve` calls: the same bits without
the checks and conversions that take most of `cho_solve`'s 11.7 us on a
6 x 6 metric, where dpotrs alone takes 1.8 us (one BLAS thread, 2-vCPU
host).  A scaled identity c I holds only its scalar c:
its norm and `solve` read c directly, with no dense matrix, and skip
the multiply or divide when c == 1.0, where it is exact.  Their results
equal the dense metric's bit for bit wherever the dense route rounds
once.  Every metric binds its norm x -> sqrt(<x, W x>) once, at
construction, for its kind (c = 1, c I or dense): `norm` makes no shape
check and no dispatch on the kind, so the step's three norms cost one
dot product each.  `weighted_row_norms` takes the norms of all rows of
a k x n stack at once, bit for bit the per-row `norm`, and
`matvec_rows` the product of a matrix with every row, bit for bit the
per-row `a @ row`.  Their dense products are row-blocked per-row GEMVs:
a matrix of more than _MATVEC_BLOCK_BYTES is taken in blocks of rows,
each read from cache by every row of the stack.  They are bit for bit
under one BLAS thread; a multithreaded BLAS may move odd sizes above
the block by a few ulps.  A metric must have finite entries: a NaN compares
False, so it would pass the symmetry test and stop the eigensolver
with a foreign error.  Its symmetric part is taken as 0.5 w + 0.5 w^T,
which cannot overflow on finite entries.

`spectral_norm` and `largest_eig` read one extremal eigenvalue.  Below
_LANCZOS_MIN_DIM they take it from a dense symmetric eigensolve; from
there on from a Lanczos run (`_lanczos_max`) with full
reorthogonalization from a fixed pseudo-random start vector, stopped
when the Ritz residual beta_j |s_j| is at most 4 eps |theta|, which
agrees with the dense value to about 1e-15 relative.  A breakdown
(beta_j = 0) means the Krylov space is invariant, so its Ritz values
are eigenvalues exactly and the run returns; it takes at most n steps.
Each step's Ritz pair comes from LAPACK's dstebz and dstein, called
directly with the arguments of scipy's `eigh_tridiagonal`, which returns
the same bits but adds its checks and conversions to every step.  Both
functions reject a matrix with a NaN or infinite entry, which the direct
calls would not check.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs, dstebz, dstein

from .rng import Lcg64

__all__ = [
    "COINCIDENCE_TOL",
    "NOISE_TOL",
    "AUDIT_TOL",
    "MU_BOUNDS_TOL",
    "SYMMETRY_TOL",
    "SPD_TOL",
    "SKEW_TOL",
    "MONOTONE_TOL",
    "RESOLVENT_TOL",
    "FIXED_STEP_TOL",
    "CERTIFICATE_TOL",
    "SUPPORT_TOL",
    "SUBGRADIENT_TOL",
    "GRAPH_TOL",
    "PS_EQUIVALENCE_TOL",
    "STOP_TOL",
    "GAMMA_BOUND_TOL",
    "ContractViolation",
    "SpdMetric",
    "weighted_row_norms",
    "matvec_rows",
    "spectral_norm",
    "largest_eig",
]

# The tolerance table (see the module docstring): the paper's guarantees hold in
# exact arithmetic, and these values decide what counts as round-off.
# "Relative" scales a value by max(1, max |entry|) of the matrix tested.
# Null step: ||x - x_hat||_S <= this * (1 + ||x||_S) is x_hat = x up to round-off.
COINCIDENCE_TOL = 1e-14
# A failed separation at a residual <= this * (1 + ||x||_S) is round-off; above, raise.
# So is a rise of at most this * (1 + r) in a certified-nonexpansive run's residual r.
NOISE_TOL = 1e-9
# Fejer and separation audits: absolute slack, plus this times the squared norm.
AUDIT_TOL = 1e-9
# mu-bounds audit: absolute slack, as both ends of the interval are eigenvalue ratios.
MU_BOUNDS_TOL = 1e-10
# A metric or matrix is symmetric at max |w - w^T| <= this, relative.
SYMMETRY_TOL = 1e-12
# A metric is positive definite at lambda_min > this * lambda_max: condition below 1e12.
SPD_TOL = 1e-12
# A skew map's matrix is skew at max |k + k^T| <= this, relative.
SKEW_TOL = 1e-12
# An affine B x = H x + b is monotone at lambda_min((H + H^T) / 2) >= -this, relative.
MONOTONE_TOL = 1e-10
# The nonlinear resolvent stops at (1 + ell) max |r| <= this, its inclusion residual.
RESOLVENT_TOL = 1e-12
# AFBA's unit step passes its operator condition at lambda_min >= -this (O(1) entries).
FIXED_STEP_TOL = 1e-10
# An oracle z* is certified at a fixed-point residual <= this: closed forms, dense solves.
CERTIFICATE_TOL = 1e-10
# The active-set oracle's coordinates with |x_i| <= this are off the l1 support.
SUPPORT_TOL = 1e-9
# The active-set oracle meets its l1 subgradient inclusion to this, coordinatewise.
SUBGRADIENT_TOL = 1e-8
# A prox pair is on its operator's graph to this * (1 + ||point||).
GRAPH_TOL = 1e-10
# ps-explicit and ps-resolvent agree when no x_next entry differs by more than this.
PS_EQUIVALENCE_TOL = 1e-10
# The default stopping residual ||x - x_hat||_S of a run (run_algorithm and --tol).
STOP_TOL = 1e-8
# A gamma within this above the conservative bound, an ulp or so, does not warn.
GAMMA_BOUND_TOL = 1e-15

# The size from which Lanczos replaces the dense eigensolve, at the
# measured crossover.  Timed with one BLAS thread on a 2-core host, in two
# host states: the dense solve won below 256; at n = 300 a skew spectral
# norm took 3.3-6.0 ms by Lanczos against 4.2-5.6 ms dense; at n = 400,
# 4.9-12.5 against 7.8-14.9 ms; at n = 800, 18-53 against 40-90 ms.  The
# largest eigenvalue of an SPD matrix takes one product per step but more
# steps: it lost at n = 300 (4.1-8.9 against 3.8-4.9 ms), was about even
# at n = 400 and twice as fast at n = 800.
_LANCZOS_MIN_DIM = 300
# The seed of the Lanczos start vector.  A constant vector such as
# ones / sqrt(n) would not do: it is an eigenvector of every matrix with
# equal row sums, so on a nonzero skew matrix with zero row sums (a
# cyclic difference) the run breaks down at once and reads 0.
_LANCZOS_SEED = 0
# The size of `matvec_rows`' row blocks, rounded down to a multiple of 64
# rows (at least 64): 128 rows at n = 800.  Timed with one BLAS thread on
# a 2-core host with 2 MiB of L2 per core, median ms of 45 stacked rows,
# unblocked against blocks of 512 KiB / 1 MiB / 1.5 MiB: n = 512, 2.75
# against 2.14 / 2.15 / 2.22; n = 800, 9.89 against 4.61 / 4.53 / 4.65;
# n = 1000, 15.2 against 7.80 / 7.71 / 7.87; at n <= 400 all within 5%.
_MATVEC_BLOCK_BYTES = 1 << 20
_EPS = float(np.finfo(float).eps)


class ContractViolation(ValueError):
    """Raised when an operation is called outside its contract."""


def _symmetric_metric(w: np.ndarray) -> np.ndarray:
    """The symmetric part of w as 0.5 w + 0.5 w^T, raising unless w is
    square and nonempty, has finite entries and is symmetric to
    SYMMETRY_TOL relative.
    0.5 w + 0.5 w^T has the bits of 0.5 (w + w^T) away from the subnormal
    range, and does not overflow on finite entries."""
    _require_square(w, "metric")
    top = float(np.abs(w).max())
    if not top < math.inf:  # a NaN fails this test too
        raise ContractViolation("metric entries must be finite")
    if np.abs(w - w.T).max() > SYMMETRY_TOL * max(1.0, top):
        raise ContractViolation(f"metric is not symmetric to {SYMMETRY_TOL:g} relative")
    return 0.5 * w + 0.5 * w.T


def _lanczos_max(matvec, n: int) -> float:
    """Largest eigenvalue of the symmetric linear map `matvec` on R^n.

    Lanczos from the unit vector along Lcg64(_LANCZOS_SEED).vector(n),
    each new vector orthogonalized against all earlier ones by two
    classical Gram-Schmidt passes.  Step j stops at the largest Ritz
    pair (theta, s) of the tridiagonal T_j once beta_j |s_j| <=
    4 eps |theta|; beta_j = 0 (breakdown) always stops, as does j = n.
    The Ritz pair comes from `_top_ritz_pair`.  The map's values are not
    checked: its callers reject a matrix with a non-finite entry first.
    """
    basis = np.empty((n, n))  # rows are touched only as the run reaches them
    start = Lcg64(_LANCZOS_SEED).vector(n)
    basis[0] = start / np.linalg.norm(start)
    alpha = np.empty(n)
    beta = np.empty(n)
    for j in range(n):
        q = basis[j]
        w = matvec(q)
        alpha[j] = q @ w
        done = basis[:j + 1]
        for _ in range(2):
            w -= done.T @ (done @ w)
        b = float(np.linalg.norm(w))
        theta, s_j = _top_ritz_pair(alpha[:j + 1], beta[:j])
        if b * abs(s_j) <= 4.0 * _EPS * abs(theta) or j + 1 == n:
            return theta
        beta[j] = b
        basis[j + 1] = w / b


def _top_ritz_pair(alpha: np.ndarray, beta: np.ndarray) -> tuple[float, float]:
    """The largest eigenvalue of the k x k symmetric tridiagonal matrix
    with diagonal alpha and off-diagonal beta, and the last entry of its
    unit eigenvector: LAPACK's bisection (dstebz) for the k-th eigenvalue
    and inverse iteration (dstein) for its vector, with the arguments
    scipy's `eigh_tridiagonal(alpha, beta, select="i", select_range=(k - 1,
    k - 1))` passes them, and its pair (alpha_0, 1) at k = 1, so bit for
    bit its result, without its checks and array conversions (finite
    float64 input)."""
    k = len(alpha)
    if k == 1:
        return float(alpha[0]), 1.0
    m, w, iblock, isplit, info = dstebz(alpha, beta, 2, 0.0, 1.0, k, k, 0.0, "B")
    if info == 0:
        z, info = dstein(alpha, beta, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal eigensolve failed (info {info})")
    return float(w[0]), float(z[-1, 0])


def _size(n, what: str, below_one: str = "") -> int:
    """n as an int, raising ContractViolation unless it is a Python or
    numpy integer of at least 1: int() would truncate a float, and a bool,
    which is an int, is not a size.  Below 1 the message is `below_one`,
    by default that `what` must not be empty."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ContractViolation(f"{what} size must be an integer, got {n!r}")
    if n < 1:
        raise ContractViolation(below_one or f"{what} must not be empty")
    return int(n)


def _require_square(m: np.ndarray, what: str):
    """Raise unless m is a nonempty square matrix: an eigensolver would
    stop on any other with a foreign error."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolation(f"{what} must be square")
    if m.size == 0:
        raise ContractViolation(f"{what} must not be empty")


def _require_finite(m: np.ndarray):
    """Raise unless every entry of m is finite: a NaN or an infinity would
    stop an eigensolver with a foreign error, or pass a test unseen."""
    if not np.isfinite(m).all():
        raise ContractViolation("matrix entries must be finite")


def spectral_norm(m: np.ndarray) -> float:
    """||M||_2 as sqrt(lambda_max) of the smaller Gram matrix of M.

    Below _LANCZOS_MIN_DIM on the smaller side, one dense symmetric
    eigenvalue solve of the formed Gram matrix; from there on
    `_lanczos_max` on x -> M^T (M x), or M (M^T x) for a wide M, which
    forms no Gram matrix.  An empty or zero matrix gives exactly 0.0; an
    array that is not 2-D, or a non-finite entry, raises ContractViolation.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ContractViolation("spectral norm needs a 2-D matrix")
    if m.size == 0:
        return 0.0
    _require_finite(m)
    tall = m.shape[0] >= m.shape[1]
    if min(m.shape) < _LANCZOS_MIN_DIM:
        gram = m.T @ m if tall else m @ m.T
        lam = float(np.linalg.eigvalsh(gram)[-1])
    elif tall:
        lam = _lanczos_max(lambda x: m.T @ (m @ x), m.shape[1])
    else:
        lam = _lanczos_max(lambda x: m @ (m.T @ x), m.shape[0])
    return float(np.sqrt(max(0.0, lam)))


def largest_eig(w: np.ndarray) -> float:
    """lambda_max of a symmetric matrix (symmetry is not checked).

    Dense below _LANCZOS_MIN_DIM, `_lanczos_max` on x -> W x from there on.
    A matrix that is not square, is empty or has a non-finite entry
    raises ContractViolation.
    """
    w = np.asarray(w, dtype=float)
    _require_square(w, "matrix")
    _require_finite(w)
    if w.shape[0] < _LANCZOS_MIN_DIM:
        return float(np.linalg.eigvalsh(w)[-1])
    return _lanczos_max(lambda x: w @ x, w.shape[0])


class SpdMetric:
    """Symmetric positive definite metric with cached factorization.

    Input is rejected unless it is square and nonempty, its entries are
    finite and it is symmetric to SYMMETRY_TOL relative, then symmetrized
    and rejected unless lambda_min > SPD_TOL * lambda_max; a scalar c
    must be finite and positive, and its size n a Python or numpy
    integer of at least 1, not a bool.  `solve`
    computes W^{-1} v for a vector v, or W^{-1} V for an n x k matrix V,
    by one dpotrs call on the cached Cholesky factor, bit for bit
    `cho_solve`; every metric raises
    ContractViolation("dimension mismatch") for a v of another length.
    `identity` and `scaled_identity` hold the scalar c of W = c I
    instead, so building and solving cost O(1) and O(n); the dense matrix
    is formed only when `matrix` is read.  At c = 1, `solve` returns v
    itself.  `norm(x)` is ||x||_W for a vector x of length `dim`, which
    it does not check.
    """

    def __init__(self, matrix):
        w = _symmetric_metric(np.asarray(matrix, dtype=float))
        eigs = np.linalg.eigvalsh(w)
        lam_min, lam_max = float(eigs[0]), float(eigs[-1])
        if lam_min <= SPD_TOL * lam_max or lam_max <= 0.0:
            raise ContractViolation("metric is not positive definite")
        self._matrix = w
        self._scale = None
        self.dim = w.shape[0]
        self.lam_min = lam_min
        self.lam_max = lam_max
        self._chol = cho_factor(w, lower=True)
        self.norm = partial(_dense_norm, w)

    @property
    def is_unit(self) -> bool:
        """Whether W is I held as the scalar 1, where `solve` returns v itself."""
        return self._scale == 1.0

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self._scale * np.eye(self.dim)
        return self._matrix

    def solve(self, v: np.ndarray) -> np.ndarray:
        if len(v) != self.dim:
            raise ContractViolation("dimension mismatch")
        c = self._scale
        if c is None:
            # no finiteness check: a non-finite v gives a non-finite
            # result, which the loop reports
            return dpotrs(self._chol[0], v, lower=1)[0]
        return v if c == 1.0 else v / c

    @classmethod
    def identity(cls, n: int) -> "SpdMetric":
        return cls.scaled_identity(1.0, n)

    @classmethod
    def scaled_identity(cls, c: float, n: int) -> "SpdMetric":
        n = _size(n, "metric")
        c = float(c)
        if not c < math.inf:
            raise ContractViolation("metric entries must be finite")
        if not c > 0.0:
            raise ContractViolation("metric is not positive definite")
        metric = cls.__new__(cls)
        metric._matrix = None
        metric._scale = c
        metric.dim = n
        metric.lam_min = metric.lam_max = c
        metric.norm = _unit_norm if c == 1.0 else partial(_scaled_norm, c)
        return metric


# The bound norms, sqrt(<x, W x>), bound to their metric by `partial`,
# which keeps the metric picklable.  On vectors `a.dot(b)` rounds as
# `a @ b` does (both are numpy's one vector dot) without the ufunc
# dispatch of `@`; the clamp keeps Python's `max(d, 0.0)`, so a NaN
# stays NaN.  For c I the sum is x @ (c x), as the dense W x rounds.


def _unit_norm(x: np.ndarray) -> float:
    return math.sqrt(max(x.dot(x), 0.0))


def _scaled_norm(c: float, x: np.ndarray) -> float:
    return math.sqrt(max(x.dot(c * x), 0.0))


def _dense_norm(w: np.ndarray, x: np.ndarray) -> float:
    return math.sqrt(max(x.dot(w @ x), 0.0))


def weighted_row_norms(w: SpdMetric, rows: np.ndarray) -> np.ndarray:
    """`w.norm(row)` of every row of a k x n stack, bit for bit.

    W x is `c * rows` (rows itself at c = 1) or `matvec_rows(W, rows)`,
    and each <x, W x> an `np.vecdot`; both round as the per-row `W @ x`
    and `x @ wx` do.  The clamp at 0 keeps
    Python's `max(d, 0.0)`, so a NaN stays NaN.
    """
    if rows.ndim != 2 or rows.shape[1] != w.dim:
        raise ContractViolation("dimension mismatch")
    c = w._scale
    if c is None:
        wx = matvec_rows(w._matrix, rows)
    else:
        wx = rows if c == 1.0 else c * rows
    d = np.vecdot(rows, wx)
    return np.sqrt(np.where(0.0 > d, 0.0, d))


def matvec_rows(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`a @ row` of every row of a k x n stack, bit for bit under one
    BLAS thread.

    Stacked matrix-vector products, `matmul(a, rows[:, :, None])`, which
    numpy runs as a GEMV per row, the routine of the per-row `a @ row`.
    The GEMM `rows @ a.T` computes the same values but can round them
    differently.  A C-contiguous `a` of more than _MATVEC_BLOCK_BYTES is
    taken in blocks of a multiple of 64 rows, each against every row
    before the next, so that each block is read from cache k times
    rather than all of `a` from memory; the last block takes the
    remainder, and a remainder of one row joins the block before it,
    since numpy takes a one-row product as a dot product, which rounds
    otherwise.  Each row of a block rounds as in the full GEMV, which
    handles rows in groups that the 64-row edges do not cut.  A
    multithreaded BLAS can split the full GEMV inside a group, so there
    a product with more rows than a block can differ from the per-row
    one by a few ulps (seen at n = 801 and 803 under two threads).
    """
    col = rows[:, :, None]
    if not a.flags.c_contiguous or a.nbytes <= _MATVEC_BLOCK_BYTES:
        return np.matmul(a, col)[:, :, 0]
    m = a.shape[0]
    b = max(64, _MATVEC_BLOCK_BYTES // (a.itemsize * a.shape[1]) // 64 * 64)
    out = np.empty((rows.shape[0], m), dtype=np.result_type(a, rows))
    start = 0
    for stop in (*range(b, m - 1, b), m):
        out[:, start:stop] = np.matmul(a[start:stop], col)[:, :, 0]
        start = stop
    return out
