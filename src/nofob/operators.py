"""Operator oracles: resolvents, Lipschitz/cocoercive maps, skew maps,
and the separable resolvent solver of a nonlinear kernel.

A linear D or an affine E declares its matrix, and E its shift, when
built through `LipschitzMap.linear(matrix, L)` or
`CocoerciveMap.affine(matrix, shift, beta)`.  The evaluator is built
from the same matrix, so the two cannot disagree, and the kernel views of
`fourop` may sum declared matrices into one product.  A `SkewMap` always
holds its matrix.  A map built from an evaluator alone declares none and
is called as it is.  A declared matrix, and the H of an affine
resolvent, must be square, nonempty and finite, as a `SkewMap`'s must.
A declared constant (a Lipschitz constant, an inverse cocoercivity, a
given skew norm) that is not finite, or out of its range, raises
ContractViolation when the map is built.

The prox catalog covers the closed forms the problem generators use:
zero, affine (linear solve), l1 soft-threshold, and a combined "l1 plus
diagonal affine" used by the nonlinear-kernel demo.  A run calls a
resolvent with one gamma throughout, so the affine and the l1 plus
diagonal affine resolvents keep the arrays they form from gamma (such
as I + gamma H) for the gamma of their last call, and form them again
only when it changes.  The affine resolvent solves with numpy's `solve1`
gufunc, the one `np.linalg.solve` runs on a float64 vector, called
directly: the same bits without the wrapper's per-call checks.  Its
first solve at each gamma goes through `np.linalg.solve`, which raises
LinAlgError on a singular I + gamma H.  The soft threshold forms its
value in the buffer of |z|, with the bits of the plain expression, and
the l1 plus diagonal affine resolvent scales that buffer in place.  A
`BlockProx` forms its block slices once, when it is built, and rejects
a vector of another length.  Inverse operators are always
derived from the primal prox through Moreau's identity
(`inverse_via_moreau`), never specified independently.

The separable nonlinear resolvent is a bracketed Anderson-Bjorck secant
solve, per coordinate, inside a bracket that strong monotonicity gives
from one residual.  It reads phi, sigma and ell from the kernel spec
(`fourop.SeparableNonlinear`), which declares and checks them.  Started
at the four-op oracle's own x, with the phi(x) the oracle holds handed
in, it takes about 4.2 prox evaluations per call on the
nonlinear-kernel demo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.linalg._umath_linalg import solve1

from .linalg import (MONOTONE_TOL, RESOLVENT_TOL, SKEW_TOL, ContractViolation,
                     _require_finite, _require_square, _size, spectral_norm)

__all__ = [
    "ProxOperator",
    "LipschitzMap",
    "CocoerciveMap",
    "SkewMap",
    "BlockProx",
    "zero_operator",
    "affine_operator",
    "l1_subdifferential",
    "l1_plus_diag_affine",
    "inverse_via_moreau",
    "separable_nonlinear_resolvent",
]


@dataclass(frozen=True)
class ProxOperator:
    """Resolvent oracle for a maximally monotone set-valued operator B.

    evaluator(gamma, y) computes (I + gamma*B)^{-1} y.  `separable`
    declares B coordinatewise, as the nonlinear resolvent requires.
    """

    evaluator: Callable[[float, np.ndarray], np.ndarray]
    descriptor: str
    separable: bool = False
    # not a field and always None: perfbench/tracing.py hooks it by name
    diag_evaluator = None


def _declared(value, what: str) -> None:
    """Raise ContractViolation unless a declared constant is finite and >= 0."""
    if not 0.0 <= float(value) < math.inf:  # a NaN fails this test too
        raise ContractViolation(f"{what} must be finite and nonnegative, got {value!r}")


@dataclass(frozen=True)
class LipschitzMap:
    """Single-valued map with a declared Lipschitz constant.

    is_zero declares the map zero, so that callers may skip it.  `matrix`
    is set only by `linear`, and is None for a map given by its evaluator.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    lipschitz_constant: float
    is_zero: bool = False
    matrix: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        _declared(self.lipschitz_constant, "lipschitz_constant")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator(x)

    @classmethod
    def linear(cls, matrix, lipschitz_constant: float) -> "LipschitzMap":
        """x -> matrix @ x, with its matrix declared: square, nonempty and
        finite."""
        a = np.asarray(matrix, dtype=float)
        _require_square(a, "a declared matrix")
        _require_finite(a)
        out = cls(lambda x: a @ x, lipschitz_constant)
        object.__setattr__(out, "matrix", a)
        return out


@dataclass(frozen=True)
class CocoerciveMap:
    """Single-valued map with declared inverse cocoercivity beta >= 0.

    <Ex - Ey, x - y> >= (1/beta) ||Ex - Ey||^2; beta = 0 forces the map
    to be constant.  is_zero declares the map zero, so that callers may
    skip it.  `matrix` and `shift` are set only by `affine`, and are None
    for a map given by its evaluator.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    inverse_cocoercivity: float
    is_zero: bool = False
    matrix: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                         compare=False)
    shift: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        _declared(self.inverse_cocoercivity, "inverse_cocoercivity")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator(x)

    @classmethod
    def affine(cls, matrix, shift, inverse_cocoercivity: float) -> "CocoerciveMap":
        """x -> matrix @ x + shift, with its matrix declared, square,
        nonempty and finite, and its shift a finite vector of the
        matrix's size."""
        a = np.asarray(matrix, dtype=float)
        _require_square(a, "a declared matrix")
        _require_finite(a)
        c = np.asarray(shift, dtype=float)
        if c.shape != (a.shape[0],):
            raise ContractViolation("the shift must be a vector of the matrix's size")
        if not np.isfinite(c).all():
            raise ContractViolation("shift entries must be finite")
        out = cls(lambda x: a @ x + c, inverse_cocoercivity)
        object.__setattr__(out, "matrix", a)
        object.__setattr__(out, "shift", c)
        return out


class SkewMap:
    """Linear skew-adjoint map given by its dense matrix.

    An all-zero map sets `is_zero`, so that callers may skip it, and
    `operator_norm` = 0.0 without a norm solve.  A caller that already
    knows ||K||_2 passes it as `norm`, and no norm solve runs either.
    An empty matrix, a matrix with a non-finite entry, or a given norm
    that is not finite and nonnegative, raises ContractViolation.
    `zero(n)` builds it without forming, checking or storing an n x n
    matrix, and raises ContractViolation unless n is a Python or numpy
    integer other than a bool, and like an empty matrix for n < 1; `matrix` is formed only
    when it is read.
    """

    def __init__(self, matrix, norm: Optional[float] = None):
        if norm is not None:
            _declared(norm, "skew map norm")
        k = np.asarray(matrix, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ContractViolation("skew map must be a square matrix")
        if k.size == 0:
            raise ContractViolation("skew map must not be empty")
        top = float(np.abs(k).max())
        if not top < np.inf:  # a NaN fails this test too
            raise ContractViolation("skew map entries must be finite")
        if np.abs(k + k.T).max() > SKEW_TOL * max(1.0, top):
            raise ContractViolation(f"matrix is not skew-adjoint to {SKEW_TOL:g}")
        self._matrix = k
        self.dim = k.shape[0]
        self.is_zero = not k.any()
        if self.is_zero:
            self.operator_norm = 0.0
        else:
            self.operator_norm = spectral_norm(k) if norm is None else float(norm)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.zeros((self.dim, self.dim))
        return self._matrix

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    @classmethod
    def zero(cls, n: int) -> "SkewMap":
        k = cls.__new__(cls)
        k._matrix = None
        k.dim = _size(n, "skew map")
        k.is_zero = True
        k.operator_norm = 0.0
        return k


class BlockProx:
    """Blockwise-separable monotone operator given by per-block resolvents.

    The block slices and the (evaluator, slice) pairs are formed once,
    when it is built.  `split` and `evaluator` take a vector of length
    `dim`, and raise ContractViolation("dimension mismatch") on another
    length."""

    def __init__(self, ops, dims):
        if len(ops) != len(dims) or not ops:
            raise ContractViolation("one prox per block required")
        self.dims = tuple(_size(d, "block", below_one="block dimensions must be positive")
                          for d in dims)
        self.ops = tuple(ops)
        self.offsets = tuple(np.cumsum((0,) + self.dims))
        self.dim = sum(self.dims)
        self.blocks = tuple((op.evaluator, slice(a, b)) for op, a, b
                            in zip(self.ops, self.offsets[:-1], self.offsets[1:]))

    def split(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        if len(x) != self.dim:
            raise ContractViolation("dimension mismatch")
        return [x[cut] for _, cut in self.blocks]

    def evaluator(self, gamma: float, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if len(y) != self.dim:
            raise ContractViolation("dimension mismatch")
        return np.concatenate([ev(gamma, y[cut]) for ev, cut in self.blocks])


# ---------------------------------------------------------------------------
# prox catalog


def zero_operator() -> ProxOperator:
    """B = 0; the resolvent is the identity."""
    return ProxOperator(
        evaluator=lambda gamma, y: np.array(y, dtype=float),
        descriptor="zero",
        separable=True,
    )


def affine_operator(h: np.ndarray, b: np.ndarray) -> ProxOperator:
    """B x = H x + b with H square, nonempty and finite, H + H^T positive
    semidefinite (monotone), and b a finite vector of H's size."""
    h = np.asarray(h, dtype=float)
    _require_square(h, "a declared matrix")
    _require_finite(h)
    b = np.asarray(b, dtype=float)
    if b.shape != (h.shape[0],):
        raise ContractViolation("the shift b must be a vector of H's size")
    if not np.isfinite(b).all():
        raise ContractViolation("shift b entries must be finite")
    sym = 0.5 * (h + h.T)
    if np.linalg.eigvalsh(sym)[0] < -MONOTONE_TOL * max(1.0, np.abs(h).max()):
        raise ContractViolation("affine operator is not monotone")
    eye = np.eye(h.shape[0])
    # Each solve calls the gufunc np.linalg.solve runs on a float64 vector,
    # so it gives the wrapper's bits: on the 6 x 6 and 8 x 8 saddle blocks
    # the wrapper takes 7.6 and 9.3 us, the gufunc alone 2.0 and 3.7 (one
    # BLAS thread, 2-vCPU host).  The bare gufunc returns NaN with a
    # RuntimeWarning on a singular matrix, where the wrapper raises
    # LinAlgError; singularity depends on I + gamma H alone, so the first
    # solve at each gamma goes through the wrapper and a raise keeps that
    # gamma out of the memo.  The LU factors are not kept: scipy's
    # lu_factor + lu_solve (dgetrf + dgetrs) round differently from gesv in
    # 1050 of 60000 solves on the saddle matrices (seeds 0-19, both blocks,
    # gamma 1, 0.37 and 2.5, 500 seeded right-hand sides each, one BLAS
    # thread), so a kept factor would break the bit-for-bit runs.
    memo = (None, None, None)  # gamma, I + gamma H, gamma b

    def ev(gamma, y):
        nonlocal memo
        if memo[0] == gamma:
            _, lhs, shift = memo
            return solve1(lhs, np.asarray(y, float) - shift, signature="dd->d")
        lhs, shift = eye + gamma * h, gamma * b
        x = np.linalg.solve(lhs, np.asarray(y, float) - shift)
        memo = (gamma, lhs, shift)
        return x

    return ProxOperator(evaluator=ev, descriptor="affine")


def _soft(z: np.ndarray, t) -> np.ndarray:
    """sign(z) max(|z| - t, 0), formed in the buffer of |z|: the bits of
    the plain expression, with sign(z) kept as the first factor, so a NaN
    keeps its payload and z = -0.0 gives +0.0.  A 0-d z, whose |z| is a
    scalar without a buffer, takes the plain expression."""
    a = np.abs(z)
    if a.ndim == 0:
        return np.sign(z) * np.maximum(a - t, 0.0)
    a -= t
    return np.multiply(np.sign(z), np.maximum(a, 0.0, out=a), out=a)


def l1_subdifferential(weight: float) -> ProxOperator:
    """B = weight * subdifferential of the l1 norm (soft threshold), with
    weight finite and nonnegative."""
    _declared(weight, "l1 weight")
    return ProxOperator(
        evaluator=lambda gamma, y: _soft(np.asarray(y, float), gamma * weight),
        descriptor="soft-threshold",
        separable=True,
    )


def l1_plus_diag_affine(lam: float, d: np.ndarray, b: np.ndarray) -> ProxOperator:
    """B x = lam * subdiff ||x||_1 + diag(d) x - b, with lam and every
    entry of d finite and nonnegative, and every entry of b finite."""
    d = np.asarray(d, dtype=float)
    b = np.asarray(b, dtype=float)
    _declared(lam, "lam")
    if not np.all((0.0 <= d) & (d < math.inf)):  # a NaN fails this test too
        raise ContractViolation("every entry of d must be finite and nonnegative")
    if not np.isfinite(b).all():
        raise ContractViolation("every entry of b must be finite")
    memo = (None, None, None)  # gamma, gamma b, 1 + gamma d

    def ev(gamma, y):
        nonlocal memo
        if memo[0] != gamma:
            memo = (gamma, gamma * b, 1.0 + gamma * d)
        _, shift, scale = memo
        x = _soft(np.asarray(y, float) + shift, gamma * lam)
        x /= scale  # in place, except on a scalar
        return x

    return ProxOperator(evaluator=ev, descriptor="l1-plus-diag-affine", separable=True)


def inverse_via_moreau(prox: ProxOperator) -> ProxOperator:
    """Resolvent of B^{-1} derived from the resolvent of B.

    J_{gamma B^{-1}}(z) = z - gamma J_{gamma^{-1} B}(z / gamma).
    """

    def ev(gamma, z):
        z = np.asarray(z, dtype=float)
        return z - gamma * prox.evaluator(1.0 / gamma, z / gamma)

    return ProxOperator(evaluator=ev, descriptor=f"inv({prox.descriptor})")


# ---------------------------------------------------------------------------
# separable nonlinear resolvent

# cap on the root-finding steps; bisection alone needs at most about 2100 to
# reach adjacent doubles from any finite bracket
_RESOLVENT_STEPS = 4000
# steps before the round-off floor is tested; where RESOLVENT_TOL can be met
# the secant meets it in a few steps, so those solves never pay for the test
_FLOOR_AFTER = 32


def separable_nonlinear_resolvent(
    spec,
    prox_spec: ProxOperator,
    y: np.ndarray,
    start: np.ndarray,
    phi_start: np.ndarray,
) -> np.ndarray:
    """Solve phi_i(x_i) + A_i(x_i) containing y_i, coordinatewise.

    `spec` is the kernel (`fourop.SeparableNonlinear`): phi, its modulus
    sigma and its Lipschitz constant ell are read from it.  Finds the
    root x* of r(x) = x - J_A(x + y - phi(x)), which is increasing for
    nondecreasing phi and a firmly nonexpansive separable resolvent J_A.
    The search starts at `start`, a point near which the root is
    expected, and needs no bracket from the caller: one residual anywhere
    bounds the root.  The caller hands in phi(start) as `phi_start`, so
    the first residual does not evaluate phi again.  Take any x0 and
    u = J_A(x0 + y - phi(x0)), so r0 = r(x0) = x0 - u.  Then y - e lies
    in (phi + A)(u), with
    e = (u - x0) + (phi(x0) - phi(u)) and |e| <= (1 + ell)|r0|.  phi + A
    is sigma-strongly monotone, so coordinatewise

        |x* - u| <= delta = (1 + ell)|r0| / sigma

    (the error bound for strongly monotone inclusions; Bauschke and
    Combettes, "Convex Analysis and Monotone Operator Theory", 2nd ed.,
    2017).  The solve returns u at once if (1 + ell) max|r0| <= tol, where
    tol is RESOLVENT_TOL from the tolerance table in `linalg`.
    Otherwise it evaluates r(u), which the same stopping rule may accept.
    Where r0 and r(u) share no strict sign, x0 and u bracket the root;
    elsewhere the a-priori end u - delta or u + delta, on the side r(u)
    points to, closes the bracket (delta is at least one ulp of u).  An
    end that fails its sign test, to round-off or to an overstated sigma,
    is moved out by doubling its distance from u, at most 1000 times.

    Inside the bracket the Anderson-Bjorck iteration (Anderson and
    Bjorck, "A new high order method of regula falsi type for computing
    a root of an equation", BIT 13, 1973) starts from u and the other
    end.  It takes the regula falsi point, and where the new point lands
    on the latest point's side it scales the kept end's residual by
    m = 1 - r / r_latest (by 1/2 where m is not positive), so that end
    cannot hold convergence to a linear rate.  Started at the four-op
    oracle's own x it takes about 4.2 prox evaluations per call on the
    nonlinear-kernel demo, against about 4.8 for the Illinois halving
    (Dowell and Jarratt, BIT 11, 1971).  A coordinate whose point leaves
    the closed bracket, or is not finite, takes the bracket midpoint
    instead.  The iteration stops once (1 + ell) max|r| <= tol, or once
    every coordinate above tol has reached the round-off floor: its
    bracket ends are adjacent doubles, as happens for |x| above about
    1e3.  The returned point is the J_A point of the last residual, so it
    carries an exact element of A and the inclusion residual is bounded
    by (1 + ell) * |r|.  The result depends on the arguments alone.
    """
    if not prox_spec.separable:
        raise ContractViolation("prox_spec must be coordinate-separable")
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ContractViolation("resolvent input must be finite")
    x0 = np.asarray(start, dtype=float)
    if x0.shape != y.shape:
        raise ContractViolation("resolvent start must have the input's shape")
    if not np.isfinite(x0).all():
        raise ContractViolation("resolvent start must be finite")
    phi, prox = spec.phi, prox_spec.evaluator

    def resid(x):
        j = prox(1.0, x + y - phi(x))
        return x - j, j

    slack = 1.0 + spec.ell
    if np.shape(phi_start) != y.shape:
        raise ContractViolation("phi_start must have the input's shape")
    u = prox(1.0, x0 + y - phi_start)
    r0 = x0 - u
    if slack * float(np.abs(r0).max()) <= RESOLVENT_TOL:
        return u
    r_u, j_u = resid(u)
    if slack * float(np.abs(r_u).max()) <= RESOLVENT_TOL:
        return j_u
    # a is the other bracket end: x0 where it brackets the root with u,
    # the a-priori end u -/+ delta on the side r(u) points to elsewhere;
    # the product of the signs, not of r0 and r(u), which may underflow
    a, fa = x0, r0
    outside = np.sign(r0) * np.sign(r_u) > 0.0
    if outside.any():
        side = np.sign(r_u)
        delta = np.maximum(slack * np.abs(r0) / spec.sigma, np.spacing(np.abs(u)))
        doublings = 0
        while True:
            a = np.where(outside, u - side * delta, x0)
            fa, _ = resid(a)
            bad = outside & ~(side * fa <= 0.0)
            if not bad.any():
                break
            doublings += 1
            if doublings > 1000:
                raise RuntimeError(
                    "nonlinear resolvent found no sign change of its residual; "
                    "check the declared strong-monotonicity modulus"
                )
            delta = np.where(bad, 2.0 * delta, delta)

    # b is the latest point and a the kept end, so r(a) and r(b) never share
    # a strict sign; fa is r(a) scaled each time a new point lands on b's side.
    b, fb = u, r_u
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(_RESOLVENT_STEPS):
            x = b - fb * (b - a) / (fb - fa)
            # closed bracket: a solved coordinate (fb = 0) keeps x = b
            inside = (x - a) * (x - b) <= 0.0
            if not inside.all():
                x = np.where(inside, x, 0.5 * (a + b))
            r, j = resid(x)
            if slack * float(np.abs(r).max()) <= RESOLVENT_TOL:
                break
            cross = np.signbit(r) != np.signbit(fb)
            a = np.where(cross, b, a)
            # m is NaN or -inf where fb = 0
            m = 1.0 - r / fb
            fa = np.where(cross, fb, np.where(m > 0.0, m, 0.5) * fa)
            b, fb = x, r
            if step >= _FLOOR_AFTER and np.all(
                    (slack * np.abs(r) <= RESOLVENT_TOL) | (np.nextafter(a, b) == b)):
                break
        else:
            raise RuntimeError(
                f"nonlinear resolvent did not reach tol {RESOLVENT_TOL:.1e} in "
                f"{_RESOLVENT_STEPS} steps"
            )
    return j
