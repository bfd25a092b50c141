"""Splitting for inclusions 0 in Bx + Dx + Ex + Kx.

B has a cheap resolvent, D is Lipschitz, E is cocoercive, K is linear
skew-adjoint.  The bundle's dimension is K's (`SkewMap.zero(n)` or K's
matrix states it), and the bundle rejects a declared part of another
size.  D, E, K are all handled forward; the backward step solves
(Q + B)^{-1} for one of four kernel families, each fixed for the run:

  ScalarStep          Q = gamma^{-1} I, plain prox
  BlockDiag           Q = blockdiag(w_i I), per-block prox
  AffinePlusSkew      AFBA's Q = [[tau1 I, 0], [2 L^T, tau2^{-1} I]] on
                      the stacked saddle problem, Gauss-Seidel sweep
  SeparableNonlinear  Q x = phi(x) coordinatewise, phi with its declared
                      moduli sigma and ell; a bracketed secant
                      (Anderson-Bjorck) solve started at the oracle's
                      own x with its phi(x), about 4.2 prox evaluations
                      a call, inside a bracket strong monotonicity
                      guarantees

A kernel family is four methods: `check` (the bundle fits it), `bind`
(Q and the resolvent, with the family's per-run constants read once),
`q_metric` and `q_norm`.  `as_nofob` views any of them as the kernel of
the corrected step in core, runs the check and binds once per view, and
is the one place where a view's P, beta and L_M are derived;
`fbs_view` views relaxed forward-backward as one.  A D, E or K that is
zero by construction (`zero_forward`, `zero_cocoercive`, an all-zero
`SkewMap`) says so through `is_zero`, and `FourOpProblem.forward` and
both views never evaluate it; the sums they skip would only add zeros.

Both views apply the live maps that declare a matrix (a D built by
`LipschitzMap.linear`, an E built by `CocoerciveMap.affine`, and K) as a
`LinearPart`, summed once per bundle (`FourOpProblem.forward_parts`):
F = D + K + H, with E's shift, in the oracle's forward step, and
G = D + K in the kernel, so that one iteration makes two dense products
and one audited kernel difference one.  A part of one map is that map's
own matrix, not a sum.  A live D or E that declares no matrix, such as
a nonlinear D, is still called map by map, and the kernel difference at
the oracle's own x reuses the oracle's D x.  Each view composes its
forward sum once, when it is built.  `FourOpProblem.forward` keeps a
map-by-map sum, composed by `_summed` as the views compose theirs: it
serves the oracle certificate, where it is an independent cross-check
of the summed matrices.  The kernel difference forms x - x_hat once:
the step and the separation audit form it and hand it in, and the
linear kernels (ScalarStep, BlockDiag, AffinePlusSkew) and G apply to
that difference; a nonlinear Q and a D without a matrix read x and
x_hat.

Every kernel map, a bound Q and a `LinearPart`, takes a vector or a
k x n stack of rows, so one kernel difference body serves the step and,
on stacks, the separation audit (see `core.NofobProblem`).  Each row
rounds as the vector does: x - x_hat, the division by gamma, BlockDiag's
per-block weights and a coordinatewise phi are elementwise, and a dense
product on a stack is row-blocked per-row GEMVs (`linalg.matvec_rows`),
not a GEMM: bit for bit under one BLAS thread, while a multithreaded
BLAS may move odd sizes above the block by a few ulps.  A live D that
declares no matrix takes only vectors, and the view applies it to a
stack row by row.

Also provides the step-size bound formulas and the fixed-relaxation
positive semidefiniteness check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import NofobProblem
from .linalg import FIXED_STEP_TOL, ContractViolation, SpdMetric, matvec_rows
from .operators import (
    BlockProx,
    CocoerciveMap,
    LipschitzMap,
    ProxOperator,
    SkewMap,
    separable_nonlinear_resolvent,
)

__all__ = [
    "FourOpProblem",
    "KernelSpec",
    "ScalarStep",
    "BlockDiag",
    "AffinePlusSkew",
    "SeparableNonlinear",
    "StepParameterWarning",
    "LinearPart",
    "zero_forward",
    "zero_cocoercive",
    "as_nofob",
    "gamma_bound_long",
    "gamma_bound_conservative",
    "epsbar_delta",
    "afba_fixed_step_check",
    "fbs_view",
]


class StepParameterWarning(UserWarning):
    """Step size outside its sufficient convergence bound."""


def zero_forward() -> LipschitzMap:
    return LipschitzMap(np.zeros_like, 0.0, is_zero=True)


def zero_cocoercive() -> CocoerciveMap:
    return CocoerciveMap(np.zeros_like, 0.0, is_zero=True)


@dataclass(frozen=True)
class FourOpProblem:
    """0 in Bx + Dx + Ex + Kx on R^n, where n is K's dimension.

    A declared D or E matrix, E's shift and the `dim` of a `BlockProx` B
    must be of that size, or the bundle raises ContractViolation when it
    is built; a map that declares no matrix is not checked."""

    b: Union[ProxOperator, BlockProx]
    d: LipschitzMap
    e: CocoerciveMap
    k: SkewMap

    def __post_init__(self):
        n = self.dim
        declared = (self.d.matrix, self.e.matrix, self.e.shift)
        if getattr(self.b, "dim", n) != n or any(
                a is not None and len(a) != n for a in declared):
            raise ContractViolation(f"every part of the bundle must be of K's dimension {n}")

    @property
    def dim(self) -> int:
        return self.k.dim

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(D + K + E) x, summed map by map in that order over the maps
        that are not zero.

        The views apply the linear maps as summed matrices instead; this
        sum serves the oracle certificate, where it stays an independent
        cross-check of theirs."""
        total = _summed(None if op.is_zero else op for op in (self.d, self.k, self.e))
        return np.zeros(self.dim) if total is None else total(x)

    @cached_property
    def forward_parts(self):
        """(G, F, D, E) of both views, summed once per bundle.

        G = D + K and F = G + H, with E's shift, sum in that order the
        live maps that declare a matrix; a part of one map holds that
        map's own arrays, F is G where E declares none, and None stands
        for no part.  D and E are the live maps among them that declare
        no matrix, to be called one by one, or None.  The sums live as
        long as the bundle: two n x n arrays where D, K and E all
        declare one."""
        def declared(op):
            return not op.is_zero and op.matrix is not None

        g = None
        for op in (self.d, self.k):
            if declared(op):
                g = LinearPart(op.matrix if g is None else g.matrix + op.matrix)
        f = g
        if declared(self.e):
            h = self.e.matrix
            f = LinearPart(h if g is None else g.matrix + h, self.e.shift)
        d, e = (None if op.is_zero or op.matrix is not None else op
                for op in (self.d, self.e))
        return g, f, d, e


@dataclass(frozen=True)
class LinearPart:
    """x -> matrix @ x + shift: linear maps of a bundle applied as one
    dense product, with no shift where none of them declares one."""

    matrix: np.ndarray
    shift: Optional[np.ndarray] = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The map at a vector, or at every row of a k x n stack."""
        y = self.matrix @ x if x.ndim == 1 else matvec_rows(self.matrix, x)
        return y if self.shift is None else y + self.shift


def _summed(maps):
    """x -> the sum of the values at x of the maps that are not None,
    left to right, composed once: a single map is itself, and no map
    gives None.  The views sum (D + K + E) x as D x of a D without a
    matrix, then F x, then E x of an E without one."""
    maps = [op for op in maps if op is not None]
    if len(maps) <= 1:
        return maps[0] if maps else None
    first, *rest = maps

    def total(x):
        out = first(x)
        for op in rest:
            out = out + op(x)
        return out

    return total


class KernelSpec:
    """What one kernel family supplies: a structural check on the bundle,
    the map Q and the resolvent (Q + B)^{-1} bound to a bundle, a lower
    metric W of Q's symmetric part (<Qx - Qy, x - y> >= ||x - y||_W^2)
    and a bound on Q's Lipschitz constant.  `as_nofob` runs the check
    once, then binds once, and derives the view's constants from the
    rest."""

    # Q is linear, so Q x - Q x_hat is evaluated as Q (x - x_hat), which
    # avoids catastrophic cancellation
    linear = False

    def check(self, prob: FourOpProblem) -> None:
        """Raise ContractViolation when the bundle does not fit the kernel."""

    def bind(self, prob: FourOpProblem):
        """(q, resolvent) for a bundle that passed the check, with the
        per-run constants read once.  q(x) is Q x at a vector, or at every
        row of a k x n stack, each row bit for bit the vector's value.
        resolvent(v, start, q_start) is (Q + B)^{-1} v at a vector; start
        is a point near which the answer lies and q_start is Q start, both
        of which only an iterative solve uses."""
        raise NotImplementedError

    def q_metric(self, prob: FourOpProblem) -> SpdMetric:
        raise NotImplementedError

    def q_norm(self) -> float:
        raise NotImplementedError


def _positive(value, what: str) -> float:
    v = float(value)
    if not 0.0 < v < math.inf:
        raise ContractViolation(f"{what} must be positive and finite")
    return v


class ScalarStep(KernelSpec):
    """Q = gamma^{-1} I."""

    linear = True

    def __init__(self, gamma: float):
        self.gamma = _positive(gamma, "gamma")

    def bind(self, prob):
        g, ev = self.gamma, prob.b.evaluator
        return (lambda x: x / g), (lambda v, start, q_start: ev(g, g * v))

    def q_metric(self, prob):
        return SpdMetric.scaled_identity(1.0 / self.gamma, prob.dim)

    def q_norm(self):
        return 1.0 / self.gamma


class BlockDiag(KernelSpec):
    """Q = blockdiag(w_i I) over the blocks of a BlockProx B."""

    linear = True

    def __init__(self, weights: Sequence[float]):
        if len(weights) == 0:
            raise ContractViolation("at least one block weight required")
        self.weights = tuple(_positive(w, "block weights") for w in weights)

    def check(self, prob):
        if not isinstance(prob.b, BlockProx):
            raise ContractViolation("BlockDiag kernels need a block-separable B")
        if len(prob.b.ops) != len(self.weights):
            raise ContractViolation("one weight per B block required")

    def bind(self, prob):
        """Per block (w_i I + B_i)^{-1} v_i = J_{B_i / w_i}(v_i / w_i); the
        weights are positive and one per block since the check."""
        blocks = [(w, 1.0 / w, ev, cut) for w, (ev, cut) in zip(self.weights, prob.b.blocks)]

        def resolvent(v, start, q_start):
            return np.concatenate([ev(r, v[cut] / w) for w, r, ev, cut in blocks])

        return (lambda x: np.concatenate([w * x[..., cut] for w, _, _, cut in blocks], axis=-1),
                resolvent)

    def q_metric(self, prob):
        return SpdMetric.scaled_identity(min(self.weights), prob.dim)

    def q_norm(self):
        return max(self.weights)


class AffinePlusSkew(KernelSpec):
    """AFBA's constant kernel on the stacked saddle problem p = (w, x):
    Q = [[tau1 I, 0], [2 L^T, tau2^{-1} I]], with L: R^n -> R^m.

    Q = P + G with P its symmetric part, positive definite exactly when
    tau1^{-1} tau2 ||L||^2 < 1, and G its skew part.  Q is
    block-lower-triangular over the two-block B = (A_1^{-1}, A_2) with
    scalar diagonal blocks, so (Q + B)^{-1} is one Gauss-Seidel sweep.
    """

    linear = True

    def __init__(self, l_matrix, tau1: float, tau2: float):
        tau1, tau2 = _positive(tau1, "tau1"), _positive(tau2, "tau2")
        l = np.asarray(l_matrix, dtype=float)
        m, n = l.shape
        q = np.zeros((m + n, m + n))
        q[:m, :m] = tau1 * np.eye(m)
        q[m:, m:] = np.eye(n) / tau2
        q[m:, :m] = 2.0 * l.T
        # the symmetric part as SpdMetric takes it, with no overflow
        self.p = SpdMetric(0.5 * q + 0.5 * q.T)
        self.q_matrix = q
        self.dims = (m, n)

    def check(self, prob):
        if not isinstance(prob.b, BlockProx) or len(prob.b.ops) != 2:
            raise ContractViolation("Gauss-Seidel solver needs a two-block B")
        if prob.b.dims != self.dims:
            raise ContractViolation("B block dims do not match the kernel blocks")

    def bind(self, prob):
        # Q's diagonal blocks are w1 I and w2 I: w1 = tau1, w2 = 1 / tau2
        qm, d1 = self.q_matrix, self.dims[0]
        w1, w2, q21 = qm[0, 0], qm[d1, d1], qm[d1:, :d1]
        r1, r2 = 1.0 / w1, 1.0 / w2
        (ev1, _), (ev2, _) = prob.b.blocks

        def resolvent(v, start, q_start):
            x1 = ev1(r1, v[:d1] / w1)
            return np.concatenate([x1, ev2(r2, (v[d1:] - q21 @ x1) / w2)])

        return (lambda x: qm @ x if x.ndim == 1 else matvec_rows(qm, x)), resolvent

    def q_metric(self, prob):
        return self.p

    def q_norm(self):
        return float(np.linalg.norm(self.q_matrix, 2))


@dataclass(frozen=True)
class SeparableNonlinear(KernelSpec):
    """Coordinatewise nonlinear kernel Q x = phi(x).

    phi acts elementwise; each coordinate function is nondecreasing with
    strong-monotonicity modulus sigma and Lipschitz constant ell,
    declared with 0 < sigma <= ell < inf; other values raise
    ContractViolation.  Requires a coordinate-separable B so that the
    backward step phi(x) + Bx containing v splits into scalar root
    problems.  D and K stay forward: the resolvent never sees them, and
    `as_nofob` takes L_D off the metric.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    sigma: float
    ell: float

    def __post_init__(self):
        if not 0.0 < float(self.sigma) < math.inf:
            raise ContractViolation(
                f"kernel sigma must be positive and finite, got {self.sigma!r}")
        if not self.sigma <= float(self.ell) < math.inf:
            raise ContractViolation(
                f"kernel ell must be finite and at least sigma, got {self.ell!r}")

    def check(self, prob):
        if not getattr(prob.b, "separable", False):
            raise ContractViolation("nonlinear kernels require a separable B")

    def bind(self, prob):
        # the solve is looked up at each call, where a tracer may have replaced it
        return self.phi, lambda v, start, q_start: separable_nonlinear_resolvent(
            self, prob.b, v, start=start, phi_start=q_start)

    def q_metric(self, prob):
        return SpdMetric.scaled_identity(self.sigma, prob.dim)

    def q_norm(self):
        return self.ell


# ---------------------------------------------------------------------------
# generic four-operator step


def _less_l_d(w: SpdMetric, l_d: float) -> SpdMetric:
    """P = W - L_D I, the metric in which Q - D - K is strongly monotone."""
    if l_d == 0.0:
        return w
    if not w.lam_min > l_d:
        raise ContractViolation(
            f"the kernel's metric minus L_D I is not positive definite "
            f"(lambda_min {w.lam_min:.6g}, L_D {l_d:.6g})"
        )
    if w.lam_min == w.lam_max:
        return SpdMetric.scaled_identity(w.lam_min - l_d, w.dim)
    return SpdMetric(w.matrix - l_d * np.eye(w.dim))


def as_nofob(prob: FourOpProblem, spec: KernelSpec, s: SpdMetric) -> NofobProblem:
    """View the four-operator method as a corrected forward-backward solve.

    The kernel is M = Q - D - K, and the view holds it only as the
    difference kernel_diff(x, x_hat, d) = M x - M x_hat, with d the
    caller's x - x_hat, the one form the step reads.  A linear Q and G
    apply to d; a nonlinear Q and a D without a matrix read x and x_hat.
    The spec's check runs once, here, and the constants come from the
    spec's metric W and bound ||Q||:
    P = W - L_D I (raising unless positive definite),
    beta = beta_E / lambda_min(P) and L_M = ||Q|| + L_D + ||K||.

    The linear live maps are applied as F = D + K + H in the oracle and
    G = D + K in the kernel difference.  The spec binds its Q and its
    resolvent once, here.  The oracle starts the backward solve at its
    own x and hands it its Q x, and the kernel difference at the
    oracle's own x array reuses the oracle's D x of a D without a matrix
    and, on a nonlinear kernel, its Q x.  So kernel_diff depends on its
    arguments alone only while nothing writes to that array between the
    two calls; the step never does."""
    spec.check(prob)
    q, resolvent = spec.bind(prob)
    l_d = prob.d.lipschitz_constant
    p = _less_l_d(spec.q_metric(prob), l_d)
    be = prob.e.inverse_cocoercivity
    g, f, d_map, e = prob.forward_parts
    linear = spec.linear
    last = (None, None, None)  # the oracle's x, its D x and its Q x
    oracle_dx = None

    def d_at_oracle(x):
        nonlocal oracle_dx
        oracle_dx = d_map(x)
        return oracle_dx

    def d_of(x):
        return d_map(x) if x.ndim == 1 else np.array([d_map(row) for row in x])

    forward = _summed((None if d_map is None else d_at_oracle, f, e))

    def fb(x):
        nonlocal last
        x = np.asarray(x, dtype=float)
        v = q(x)
        y = v if forward is None else v - forward(x)
        last = (x, oracle_dx, v)
        return resolvent(y, x, v)

    def kernel_diff(x, x_hat, d):
        last_x, last_dx, last_qx = last
        at_last = x is last_x
        if linear:
            m = q(d)
        else:
            m = (last_qx if at_last else q(x)) - q(x_hat)
        if d_map is not None:
            dx = last_dx if at_last else d_of(x)
            m = m - (dx - d_of(x_hat))
        if g is not None:
            m = m - g(d)
        return m

    return NofobProblem(
        fb_oracle=fb,
        p_metric=p,
        s_metric=s,
        beta=0.0 if be == 0.0 else be / p.lam_min,
        kernel_lipschitz=spec.q_norm() + l_d + prob.k.operator_norm,
        kernel_diff=kernel_diff,
    )


# ---------------------------------------------------------------------------
# step-size bounds and constants


def _check_eps(eps: float):
    # eps = 0 is accepted as the limiting value with 1/0 = +inf
    if not (0.0 <= eps < 1.0):
        raise ContractViolation("eps must lie in [0, 1)")


def _safe_div(a: float, b: float) -> float:
    if b == 0.0:
        return 0.0 if a == 0.0 else np.inf
    return a / b


def gamma_bound_long(beta_e: float, l_d: float, eps: float) -> float:
    """Sufficient long-step range: min{(4 - eps)/(beta_E + 4 L_D), 1/eps}."""
    _check_eps(eps)
    return min(_safe_div(4.0 - eps, beta_e + 4.0 * l_d), _safe_div(1.0, eps))


def gamma_bound_conservative(
    beta_e: float, l_d: float, k_norm: float, eps: float
) -> float:
    """Sufficient short-step range with the forward Lipschitz pair folded in."""
    _check_eps(eps)
    root = np.sqrt(beta_e * beta_e + 16.0 * (l_d + k_norm) ** 2)
    return min(_safe_div(4.0 - eps, beta_e + root), _safe_div(1.0, eps))


def epsbar_delta(
    eps: float, beta_e: float, l_d: float, k_norm: float
) -> tuple:
    """Constants (eps_bar, delta) certifying gamma/(2 - delta) <= mu.

    delta in (0, 1) whenever 1/eps >= beta_E L_D eps / (2 (1 - eps)).
    """
    if not (0.0 < eps < 1.0):
        raise ContractViolation("eps must lie in (0, 1)")
    if 1.0 / eps < beta_e * l_d * eps / (2.0 * (1.0 - eps)):
        raise ContractViolation("eps violates the short-step hypothesis")
    root = np.sqrt(beta_e * beta_e + 16.0 * (l_d + k_norm) ** 2)
    eps_bar = eps * ((8.0 - eps) * root + eps * beta_e) / (4.0 * (8.0 - eps))
    delta = eps_bar / (
        2.0 * (1.0 / eps + l_d + k_norm - beta_e * l_d * eps / (4.0 * (1.0 - eps)))
    )
    if not (0.0 < delta < 1.0):
        raise ContractViolation("derived delta left (0, 1); inputs inconsistent")
    return float(eps_bar), float(delta)


def afba_fixed_step_check(
    p: SpdMetric, q, k: SkewMap, s: SpdMetric, beta: float, eps_theta: float
) -> bool:
    """Whether (1 - beta/4) P - (Q - K)^T S^{-1} (Q - K)/(2 - eps_theta) >= 0.

    This is the operator condition under which unit step-through
    (theta_k mu_k = 1) keeps the correction Fejer monotone; it holds when
    the smallest eigenvalue is at least -FIXED_STEP_TOL.
    """
    if not (0.0 < eps_theta < 2.0):
        raise ContractViolation("eps_theta must lie in (0, 2)")
    q = np.asarray(q, dtype=float)
    t = q - k.matrix
    expr = (1.0 - beta / 4.0) * p.matrix - (t.T @ s.solve(t)) / (2.0 - eps_theta)
    expr = 0.5 * (expr + expr.T)
    return bool(np.linalg.eigvalsh(expr)[0] >= -FIXED_STEP_TOL)


# ---------------------------------------------------------------------------
# relaxed forward-backward


def fbs_view(prob: FourOpProblem, gamma: float) -> NofobProblem:
    """Forward-backward as a kernel view: M = gamma^{-1} I, D, K, E forward.

    P = gamma^{-1} I, S = I and beta = beta_E gamma.  The corrected step on
    this view with step length mu_hat = gamma and relaxation theta c, where
    c = 1 - beta_E gamma / 4, is x_next = (1 - theta c) x + theta c x_hat,
    the relaxed forward-backward update, which holds only in the metric
    S = I; theta = 1/c gives plain forward-backward.  The halfspace
    separates only when D = K = 0; otherwise the whole forward part is
    treated as if it were cocoercive.  The kernel difference
    kernel_diff(x, x_hat, d) is d / gamma, d being the caller's
    x - x_hat.
    """
    _positive(gamma, "gamma")
    _, f, d, e = prob.forward_parts
    forward, ev = _summed((d, f, e)), prob.b.evaluator

    def fb(x):
        x = np.asarray(x, dtype=float)
        y = x if forward is None else x - gamma * forward(x)
        return np.asarray(ev(gamma, y), dtype=float)

    def kernel_diff(x, x_hat, d):
        return d / gamma

    return NofobProblem(
        fb_oracle=fb, kernel_diff=kernel_diff,
        p_metric=SpdMetric.scaled_identity(1.0 / gamma, prob.dim),
        s_metric=SpdMetric.identity(prob.dim),
        beta=prob.e.inverse_cocoercivity * gamma, kernel_lipschitz=1.0 / gamma,
    )
