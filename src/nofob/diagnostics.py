"""Invariant checkers over finished trajectories.

Each checker is a pure function returning a CheckReport; the suite
turns the method's convergence guarantees into assertions: the distance
to the solution must be nonincreasing up to the relaxed projection gap,
the constructed halfspaces must separate the iterate from the solution,
and the projection step lengths must stay inside their a priori
interval.  A least-squares rate fit supports the local linear-rate
claims on strongly monotone instances.

The checkers read a trajectory's arrays as they are: the chain of
iterates x, the candidates x_hat and the scalar columns, with every
norm, inner product, guard and violation computed elementwise and no
gathering.  The kernel differences Mx - Mx_hat are one `kernel_diff`
call on the stacks per trajectory.  Fejer measures the k + 1 points of
the chain in one stack, and the mu bounds build no record index when no
record is a null step.  A report whose violations all pass costs two
reductions, their max and min; only a report with a failing, NaN or
infinite violation tests each violation to find the first.  The
primitives (`linalg.weighted_row_norms`, `linalg.matvec_rows`,
`np.vecdot`, elementwise arithmetic in the per-record order) round as
the per-record `x @ y` and `W @ x` do, so the reports equal those of the
per-record transcriptions in `tests/conftest.py` bit for bit under one
BLAS thread.  The dense products are row-blocked per-row GEMVs; a
multithreaded BLAS may move odd sizes above the block by a few ulps.  A
z* that is not a vector of the metric's dimension, or a trajectory of
another dimension, raises ContractViolation("dimension mismatch")
before any product.

The tolerances come from the tolerance table in `linalg`: AUDIT_TOL,
absolute plus relative to the squared distance or gap, for Fejer and
separation, and MU_BOUNDS_TOL, absolute, for the mu bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .core import NofobProblem, Trajectory
from .linalg import (AUDIT_TOL, MU_BOUNDS_TOL, ContractViolation, SpdMetric,
                     weighted_row_norms)

__all__ = [
    "CheckReport",
    "check_fejer",
    "check_separation",
    "check_mu_bounds",
    "fit_rate",
]


@dataclass(frozen=True)
class CheckReport:
    name: str
    max_violation: float
    first_violating_iter: Optional[int]
    passed: bool
    tolerance: float = AUDIT_TOL

    def line(self) -> str:
        state = "pass" if self.passed else "FAIL"
        where = ("" if self.first_violating_iter is None
                 else f" first at iter {self.first_violating_iter}")
        return (f"{self.name:<16} {state}  max violation "
                f"{self.max_violation:.3e} (tol {self.tolerance:.1e}){where}")


def _report(name, violations, tol, index=None):
    """A non-finite violation fails and is reported as inf or nan.

    index gives the record of each violation when the checker skipped
    records; without it the violations are the records in order.  A
    passing trajectory costs two reductions: when the largest violation
    is at most tol and the smallest is not -inf, no violation is NaN or
    infinite, so the report is the largest one and no record fails.
    """
    v = np.asarray(violations, dtype=float)
    if v.size == 0:
        return CheckReport(name, 0.0, None, True, tol)
    worst = v.max()
    if worst <= tol and v.min() > -math.inf:
        return CheckReport(name, float(worst), None, True, tol)
    finite = np.isfinite(v)
    failing = ~finite | (v > tol)
    first = int(np.argmax(failing)) if failing.any() else None
    if first is not None and index is not None:
        first = int(index[first])
    worst = float(np.max(np.where(finite, v, np.abs(v))))
    return CheckReport(name, worst, first, first is None, tol)


def _solution(z_star, n: int) -> np.ndarray:
    """z* as a float vector of length n; a scalar, which would broadcast,
    or any other shape is a dimension mismatch."""
    z = np.asarray(z_star, dtype=float)
    if z.shape != (n,):
        raise ContractViolation("dimension mismatch")
    return z


def _check_width(traj: Trajectory, n: int):
    """A trajectory of another dimension than n is a dimension mismatch."""
    if traj.x.shape[1] != n:
        raise ContractViolation("dimension mismatch")


def _worse(a, b):
    """Elementwise max(a, b) as Python takes it (a unless b > a), except
    that a NaN in either wins."""
    return np.where((b > a) | np.isnan(b), b, a)


def _squares(norms: np.ndarray) -> np.ndarray:
    """norm ** 2 by the C library's pow, as the per-record `norm ** 2`
    rounds; for about 1 norm in 1000 it differs from norm * norm in the
    last bit."""
    return np.fromiter(map(math.pow, norms.tolist(), repeat(2.0)), float, len(norms))


def check_fejer(traj: Trajectory, z_star: np.ndarray, s: SpdMetric) -> CheckReport:
    """Distance decrease: ||x+ - z||_S^2 <= ||x - z||_S^2 - th(2-th) gap^2.

    The projection gap ||x - Pi_H x||_S is reconstructed from the
    recorded step length as mu * ||Mx - Mx_hat||_{S^{-1}}, which is
    exact for the halfspace projection formula.  The k + 1 points of the
    chain are measured in one stack: record i's distance after is record
    i + 1's distance before.
    """
    z = _solution(z_star, s.dim)
    if traj.iterations == 0:
        return _report("fejer", (), AUDIT_TOL)
    _check_width(traj, s.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = _squares(weighted_row_norms(s, traj.x - z))
        before, after = sq[:-1], sq[1:]
        theta = traj.theta
        gap = traj.mu * traj.normal_inv_norm
        guard = AUDIT_TOL * (1.0 + before)
        violations = (after - before + theta * (2.0 - theta) * gap * gap - guard
                      + AUDIT_TOL)
    return _report("fejer", violations, AUDIT_TOL)


def check_separation(traj: Trajectory, prob: NofobProblem,
                     z_star: np.ndarray) -> CheckReport:
    """The halfspace cuts off the iterate and contains the solution.

    Requires psi(x) >= (1 - beta/4)||x - x_hat||_P^2 and psi(z*) <= 0 for
    psi(z) = <Mx - Mx_hat, z - x_hat> - (beta/4)||x - x_hat||_P^2, both
    recomputed from the kernel rather than trusted from the records, by
    one `prob.kernel_diff` call on the stacks x[:-1] and x_hat, handed
    the x - x_hat that the gap is measured on.  A NaN in either
    condition fails.
    """
    n = prob.p_metric.dim
    z = _solution(z_star, n)
    if traj.iterations == 0:
        return _report("separation", (), AUDIT_TOL)
    _check_width(traj, n)
    x, x_hat = traj.x[:-1], traj.x_hat
    with np.errstate(over="ignore", invalid="ignore"):
        d = x - x_hat
        m = prob.kernel_diff(x, x_hat, d)
        gap = weighted_row_norms(prob.p_metric, d)
        q = 0.25 * prob.beta * gap * gap
        at_x = np.vecdot(m, d) - q
        at_z = np.vecdot(m, z - x_hat) - q
        guard = AUDIT_TOL * (1.0 + gap * gap)
        lower = (1.0 - prob.beta / 4.0) * gap * gap
        violations = _worse(lower - at_x - guard + AUDIT_TOL, at_z - guard + AUDIT_TOL)
    return _report("separation", violations, AUDIT_TOL)


def check_mu_bounds(traj: Trajectory, beta: float, p: SpdMetric, s: SpdMetric,
                    kernel_lipschitz: float) -> CheckReport:
    """Step lengths stay within the a priori interval.

    mu in [(1 - beta/4) lam_min(P) / (L_M^2 lam_max(S^{-1})),
           lam_max(S) / lam_min(P)] for every iteration that moved.  The
    steps that did not move are the null steps of core's tolerance
    policy (core.null_record), the only records with mu = 0; a trajectory
    without one is checked whole, with no record index.  An L_M^2 that
    overflows is inf, and lo is 0.
    """
    try:
        lipschitz_sq = kernel_lipschitz ** 2
    except OverflowError:
        lipschitz_sq = math.inf
    lo = (1.0 - beta / 4.0) * p.lam_min / (lipschitz_sq / s.lam_min)
    hi = s.lam_max / p.lam_min
    mu = traj.mu
    moved = None
    if not mu.all():
        moved = np.flatnonzero(mu)
        mu = mu[moved]
    return _report("mu-bounds", _worse(lo - mu, mu - hi), MU_BOUNDS_TOL, moved)


def fit_rate(residuals: Sequence[float]):
    """Least-squares slope of log(residual) against iteration on the tail,
    the second half of the residuals.

    Returns (slope, r_squared); a geometric sequence c^k yields slope
    ln c with r_squared 1.  Non-positive and non-finite residuals in the
    tail are dropped; fewer than 10 usable points is an error.
    """
    r = np.asarray(residuals, dtype=float)
    start = len(r) // 2
    tail = r[start:]
    ks = np.arange(start, len(r))
    keep = np.isfinite(tail) & (tail > 0.0)
    ks, tail = ks[keep], tail[keep]
    if len(tail) < 10:
        raise ContractViolation("need at least 10 positive finite tail residuals")
    logs = np.log(tail)
    slope, intercept = np.polyfit(ks, logs, 1)
    fit = slope * ks + intercept
    ss_res = float(np.sum((logs - fit) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)
