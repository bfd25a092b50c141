"""Operator oracles: resolvents, Lipschitz/cocoercive maps, skew maps,
and nonlinear strongly monotone kernels with a separable resolvent solver.

The prox catalog covers the closed forms used by the problem
generators: zero, affine/quadratic (linear solve), l1 soft-threshold,
box normal cone, and a combined "l1 plus diagonal affine" used by the
nonlinear-kernel demo.  Inverse operators are always derived from the
primal prox through Moreau's identity, never specified independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .linalg import ContractViolation
from .rng import Lcg64

__all__ = [
    "ProxOperator",
    "LipschitzMap",
    "CocoerciveMap",
    "SkewMap",
    "NonlinearKernel",
    "BlockProx",
    "zero_operator",
    "affine_operator",
    "quadratic_operator",
    "l1_subdifferential",
    "box_normal_cone",
    "l1_plus_diag_affine",
    "inverse_via_moreau",
    "moreau_dual_resolvent",
    "check_skew",
    "separable_nonlinear_resolvent",
    "worst_lipschitz_ratio",
    "worst_cocoercivity_deficit",
    "worst_strong_monotonicity_deficit",
]


@dataclass(frozen=True)
class ProxOperator:
    """Resolvent oracle for a maximally monotone set-valued operator B.

    evaluator(gamma, y) computes (I + gamma*B)^{-1} y.  Separable
    operators additionally expose diag_evaluator(steps, y) with one
    positive step per coordinate.  Affine operators carry (affine_h,
    affine_b) so metric resolvents can be computed by a linear solve.
    """

    evaluator: Callable[[float, np.ndarray], np.ndarray]
    descriptor: str
    separable: bool = False
    diag_evaluator: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    affine_h: Optional[np.ndarray] = None
    affine_b: Optional[np.ndarray] = None

    def __call__(self, gamma: float, y: np.ndarray) -> np.ndarray:
        return self.evaluator(gamma, y)


@dataclass(frozen=True)
class LipschitzMap:
    """Single-valued map with a declared Lipschitz constant."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    lipschitz_constant: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator(x)


@dataclass(frozen=True)
class CocoerciveMap:
    """Single-valued map with declared inverse cocoercivity beta >= 0.

    <Ex - Ey, x - y> >= (1/beta) ||Ex - Ey||^2; beta = 0 forces the map
    to be constant.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    inverse_cocoercivity: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator(x)


class SkewMap:
    """Linear skew-adjoint map given by its dense matrix."""

    def __init__(self, matrix):
        k = np.asarray(matrix, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ContractViolation("skew map must be a square matrix")
        scale = max(1.0, float(np.abs(k).max()))
        if np.abs(k + k.T).max() > 1e-12 * scale:
            raise ContractViolation("matrix is not skew-adjoint to 1e-12")
        self.matrix = k
        self.operator_norm = float(np.linalg.norm(k, 2)) if k.size else 0.0

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    @classmethod
    def zero(cls, n: int) -> "SkewMap":
        return cls(np.zeros((n, n)))


@dataclass(frozen=True)
class NonlinearKernel:
    """Coordinatewise scalar kernel phi with declared moduli.

    phi is applied elementwise; each coordinate function is
    nondecreasing with strong-monotonicity modulus sigma > 0 and
    Lipschitz constant ell.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    sigma: float
    ell: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.phi(np.asarray(x, dtype=float))


class BlockProx:
    """Blockwise-separable monotone operator given by per-block resolvents."""

    def __init__(self, ops, dims):
        if len(ops) != len(dims) or not ops:
            raise ContractViolation("one prox per block required")
        if any(d < 1 for d in dims):
            raise ContractViolation("block dimensions must be positive")
        self.ops = tuple(ops)
        self.dims = tuple(int(d) for d in dims)
        self.offsets = tuple(np.cumsum((0,) + self.dims))
        self.dim = int(sum(self.dims))

    def split(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        return [x[a:b] for a, b in zip(self.offsets[:-1], self.offsets[1:])]

    def evaluator(self, gamma: float, y: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [op.evaluator(gamma, yb) for op, yb in zip(self.ops, self.split(y))]
        )

    def block_resolve(self, weights, v: np.ndarray) -> np.ndarray:
        """Per-block (w_i I + B_i)^{-1} v_i = J_{B_i / w_i}(v_i / w_i)."""
        if len(weights) != len(self.ops):
            raise ContractViolation("one weight per block required")
        out = []
        for w, op, vb in zip(weights, self.ops, self.split(v)):
            if w <= 0:
                raise ContractViolation("block weights must be positive")
            out.append(op.evaluator(1.0 / w, vb / w))
        return np.concatenate(out)


# ---------------------------------------------------------------------------
# prox catalog


def zero_operator(n: int) -> ProxOperator:
    """B = 0; the resolvent is the identity."""
    return ProxOperator(
        evaluator=lambda gamma, y: np.asarray(y, dtype=float).copy(),
        descriptor="zero",
        separable=True,
        diag_evaluator=lambda steps, y: np.asarray(y, dtype=float).copy(),
        affine_h=np.zeros((n, n)),
        affine_b=np.zeros(n),
    )


def affine_operator(h: np.ndarray, b: np.ndarray) -> ProxOperator:
    """B x = H x + b with H + H^T positive semidefinite (monotone)."""
    h = np.asarray(h, dtype=float)
    b = np.asarray(b, dtype=float)
    sym = 0.5 * (h + h.T)
    if np.linalg.eigvalsh(sym)[0] < -1e-10 * max(1.0, np.abs(h).max()):
        raise ContractViolation("affine operator is not monotone")
    eye = np.eye(h.shape[0])

    def ev(gamma, y):
        return np.linalg.solve(eye + gamma * h, np.asarray(y, float) - gamma * b)

    return ProxOperator(evaluator=ev, descriptor="affine", affine_h=h, affine_b=b)


def quadratic_operator(h: np.ndarray, b: np.ndarray) -> ProxOperator:
    """Gradient of the quadratic 0.5 x'Hx + b'x, H symmetric PSD."""
    h = np.asarray(h, dtype=float)
    if np.abs(h - h.T).max() > 1e-12 * max(1.0, np.abs(h).max()):
        raise ContractViolation("quadratic operator needs a symmetric matrix")
    op = affine_operator(h, b)
    return ProxOperator(
        evaluator=op.evaluator,
        descriptor="quadratic",
        affine_h=op.affine_h,
        affine_b=op.affine_b,
    )


def _soft(z: np.ndarray, t) -> np.ndarray:
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def l1_subdifferential(weight: float) -> ProxOperator:
    """B = weight * subdifferential of the l1 norm (soft threshold)."""
    if weight < 0:
        raise ContractViolation("l1 weight must be nonnegative")
    return ProxOperator(
        evaluator=lambda gamma, y: _soft(np.asarray(y, float), gamma * weight),
        descriptor="soft-threshold",
        separable=True,
        diag_evaluator=lambda steps, y: _soft(np.asarray(y, float), steps * weight),
    )


def box_normal_cone(lo, hi) -> ProxOperator:
    """Normal cone of the box [lo, hi]; the resolvent clamps."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return ProxOperator(
        evaluator=lambda gamma, y: np.clip(np.asarray(y, float), lo, hi),
        descriptor="box-normal-cone",
        separable=True,
        diag_evaluator=lambda steps, y: np.clip(np.asarray(y, float), lo, hi),
    )


def l1_plus_diag_affine(lam: float, d: np.ndarray, b: np.ndarray) -> ProxOperator:
    """B x = lam * subdiff ||x||_1 + diag(d) x - b, d >= 0 elementwise."""
    d = np.asarray(d, dtype=float)
    b = np.asarray(b, dtype=float)
    if lam < 0 or np.any(d < 0):
        raise ContractViolation("l1_plus_diag_affine needs lam >= 0, d >= 0")

    def ev(gamma, y):
        return _soft(np.asarray(y, float) + gamma * b, gamma * lam) / (1.0 + gamma * d)

    def dev(steps, y):
        return _soft(np.asarray(y, float) + steps * b, steps * lam) / (1.0 + steps * d)

    return ProxOperator(
        evaluator=ev, descriptor="l1-plus-diag-affine", separable=True,
        diag_evaluator=dev,
    )


def inverse_via_moreau(prox: ProxOperator) -> ProxOperator:
    """Resolvent of B^{-1} derived from the resolvent of B.

    J_{gamma B^{-1}}(z) = z - gamma J_{gamma^{-1} B}(z / gamma).
    """

    def ev(gamma, z):
        z = np.asarray(z, dtype=float)
        return z - gamma * prox.evaluator(1.0 / gamma, z / gamma)

    return ProxOperator(evaluator=ev, descriptor=f"inv({prox.descriptor})")


def moreau_dual_resolvent(prox: ProxOperator, tau: float, z: np.ndarray) -> np.ndarray:
    """J_{tau^{-1} A^{-1}}(tau^{-1} z) computed as (z - J_{tau A} z) / tau."""
    if tau <= 0:
        raise ContractViolation("tau must be positive")
    z = np.asarray(z, dtype=float)
    return (z - prox.evaluator(tau, z)) / tau


# ---------------------------------------------------------------------------
# skew helpers


def check_skew(k: SkewMap, samples: int, seed: int) -> float:
    """max over sampled x of |<Kx, x>| / max(1, ||x||^2)."""
    if samples < 1:
        raise ContractViolation("samples must be >= 1")
    worst = 0.0
    for x in Lcg64(seed).matrix(samples, k.dim):
        worst = max(worst, abs(float(x @ (k.matrix @ x))) / max(1.0, float(x @ x)))
    return worst


# ---------------------------------------------------------------------------
# declared-modulus honesty samplers


def _sampled_pairs(n: int, samples: int, seed: int, scale: float):
    """Pairs drawn in the order x_0, y_0, x_1, y_1, ... of the seed's stream."""
    for row in Lcg64(seed).matrix(samples, 2 * n):
        yield scale * row[:n], scale * row[n:]


def worst_lipschitz_ratio(fn, lipschitz_constant, n, samples, seed, scale=1.0):
    """max ||fx - fy|| / (L ||x - y||) over sampled pairs; honest maps stay <= 1."""
    worst = 0.0
    for x, y in _sampled_pairs(n, samples, seed, scale):
        dx = float(np.linalg.norm(x - y))
        if dx == 0.0:
            continue
        df = float(np.linalg.norm(np.asarray(fn(x)) - np.asarray(fn(y))))
        if lipschitz_constant == 0.0:
            # 0/0 = 0 and alpha/0 = +inf: only constant maps are 0-Lipschitz
            worst = max(worst, 0.0 if df == 0.0 else np.inf)
        else:
            worst = max(worst, df / (lipschitz_constant * dx))
    return worst


def worst_cocoercivity_deficit(fn, beta, n, samples, seed, scale=1.0):
    """max of (1/beta)||fx-fy||^2 - <fx-fy, x-y> over sampled pairs.

    beta = 0 is handled by the 0/0 = 0 and alpha/0 = +inf conventions:
    the deficit is +inf unless the map is constant on the sample.
    """
    worst = -np.inf
    for x, y in _sampled_pairs(n, samples, seed, scale):
        d = np.asarray(fn(x)) - np.asarray(fn(y))
        sq = float(d @ d)
        if beta == 0.0:
            quad = 0.0 if sq == 0.0 else np.inf
        else:
            quad = sq / beta
        worst = max(worst, quad - float(d @ (x - y)))
    return worst


def worst_strong_monotonicity_deficit(fn, sigma, n, samples, seed, scale=1.0):
    """max of sigma||x-y||^2 - <fx-fy, x-y> over sampled pairs."""
    worst = -np.inf
    for x, y in _sampled_pairs(n, samples, seed, scale):
        d = x - y
        inner = float((np.asarray(fn(x)) - np.asarray(fn(y))) @ d)
        worst = max(worst, sigma * float(d @ d) - inner)
    return worst


# ---------------------------------------------------------------------------
# separable nonlinear resolvent


def separable_nonlinear_resolvent(
    kernel: NonlinearKernel,
    prox_spec: ProxOperator,
    y: np.ndarray,
    tol: float = 1e-12,
) -> np.ndarray:
    """Solve phi_i(x_i) + A_i(x_i) containing y_i, coordinatewise.

    Uses safeguarded bisection on r(x) = x - J_A(x + y - phi(x)), which
    is nondecreasing for nondecreasing phi and a firmly nonexpansive
    separable resolvent J_A, with the bracket grown geometrically from
    y / sigma.  The returned point carries an exact element of A, so the
    inclusion residual is bounded by (1 + ell) * |r|.
    """
    if not prox_spec.separable:
        raise ContractViolation("prox_spec must be coordinate-separable")
    if kernel.sigma <= 0:
        raise ContractViolation("kernel needs a positive strong-monotonicity modulus")
    y = np.asarray(y, dtype=float)

    def resid(x):
        return x - prox_spec.evaluator(1.0, x + y - kernel(x))

    center = y / kernel.sigma
    half = np.maximum(1.0, np.abs(center))
    lo = center - half
    hi = center + half
    doublings = 0
    while True:
        bad_lo = resid(lo) > 0.0
        bad_hi = resid(hi) < 0.0
        if not bad_lo.any() and not bad_hi.any():
            break
        doublings += 1
        if doublings > 1000:
            raise RuntimeError(
                "nonlinear resolvent bracket failed to close; "
                "check the declared strong-monotonicity modulus"
            )
        half = half * 2.0
        lo = np.where(bad_lo, center - half, lo)
        hi = np.where(bad_hi, center + half, hi)

    slack = (1.0 + kernel.ell)
    mid = 0.5 * (lo + hi)
    for _ in range(4000):
        r = resid(mid)
        if slack * float(np.abs(r).max()) <= tol:
            break
        lo = np.where(r < 0.0, mid, lo)
        hi = np.where(r >= 0.0, mid, hi)
        mid = 0.5 * (lo + hi)
    else:
        raise RuntimeError("nonlinear resolvent bisection did not converge")
    return prox_spec.evaluator(1.0, mid + y - kernel(mid))
