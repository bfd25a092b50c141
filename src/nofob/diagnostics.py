"""Invariant checkers over finished trajectories.

Each checker is a pure function returning a CheckReport; the suite
turns the method's convergence guarantees into assertions: the distance
to the solution must be nonincreasing up to the relaxed projection gap,
the constructed halfspaces must separate the iterate from the solution,
and the projection step lengths must stay inside their a priori
interval.  A least-squares rate fit supports the local linear-rate
claims on strongly monotone instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import NofobProblem, Trajectory, psi_value
from .linalg import ContractViolation, SpdMetric, weighted_norm

__all__ = [
    "CheckReport",
    "check_fejer",
    "check_separation",
    "check_mu_bounds",
    "fit_rate",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class CheckReport:
    name: str
    max_violation: float
    first_violating_iter: Optional[int]
    passed: bool
    tolerance: float = DEFAULT_TOL

    def line(self) -> str:
        state = "pass" if self.passed else "FAIL"
        where = ("" if self.first_violating_iter is None
                 else f" first at iter {self.first_violating_iter}")
        return (f"{self.name:<16} {state}  max violation "
                f"{self.max_violation:.3e} (tol {self.tolerance:.1e}){where}")


def _report(name, violations, tol):
    """A non-finite violation fails and is reported as inf or nan."""
    if not violations:
        return CheckReport(name, 0.0, None, True, tol)
    v = np.asarray(violations, dtype=float)
    finite = np.isfinite(v)
    failing = ~finite | (v > tol)
    first = int(np.argmax(failing)) if failing.any() else None
    worst = float(np.max(np.where(finite, v, np.abs(v))))
    return CheckReport(name, worst, first, first is None, tol)


def check_fejer(traj: Trajectory, z_star: np.ndarray, s: SpdMetric,
                tol: float = DEFAULT_TOL) -> CheckReport:
    """Distance decrease: ||x+ - z||_S^2 <= ||x - z||_S^2 - th(2-th) gap^2.

    The projection gap ||x - Pi_H x||_S is reconstructed from the
    recorded step length as mu * ||Mx - Mx_hat||_{S^{-1}}, which is
    exact for the halfspace projection formula.
    """
    z = np.asarray(z_star, dtype=float)
    violations = []
    for rec in traj.records:
        before = weighted_norm(s, rec.x - z) ** 2
        after = weighted_norm(s, rec.x_next - z) ** 2
        gap = rec.mu * rec.normal_inv_norm
        guard = tol * (1.0 + before)
        violations.append(
            after - before + rec.theta * (2.0 - rec.theta) * gap * gap - guard + tol
        )
    return _report("fejer", violations, tol)


def check_separation(traj: Trajectory, prob: NofobProblem, z_star: np.ndarray,
                     tol: float = DEFAULT_TOL) -> CheckReport:
    """The halfspace cuts off the iterate and contains the solution.

    Requires psi(x) >= (1 - beta/4)||x - x_hat||_P^2 and psi(z*) <= 0,
    both recomputed from the kernel evaluator rather than trusted from
    the records.
    """
    z = np.asarray(z_star, dtype=float)
    violations = []
    for rec in traj.records:
        gap = weighted_norm(prob.p_metric, rec.x - rec.x_hat)
        at_x = psi_value(prob, rec.k, rec.x, rec.x_hat, rec.x)
        at_z = psi_value(prob, rec.k, rec.x, rec.x_hat, z)
        guard = tol * (1.0 + gap * gap)
        lower = (1.0 - prob.beta / 4.0) * gap * gap
        violations.append(max(lower - at_x - guard + tol, at_z - guard + tol))
    return _report("separation", violations, tol)


def check_mu_bounds(traj: Trajectory, beta: float, p: SpdMetric, s: SpdMetric,
                    kernel_lipschitz: float, tol: float = 1e-10) -> CheckReport:
    """Step lengths stay within the a priori interval.

    mu in [(1 - beta/4) lam_min(P) / (L_M^2 lam_max(S^{-1})),
           lam_max(S) / lam_min(P)] for every iteration that moved.  The
    steps that did not move are the null steps of core's tolerance
    policy (core.null_record), the only records with mu = 0.
    """
    lo = (1.0 - beta / 4.0) * p.lam_min / (kernel_lipschitz ** 2 / s.lam_min)
    hi = s.lam_max / p.lam_min
    violations = []
    for rec in traj.records:
        if rec.mu == 0.0:
            continue
        violations.append(max(lo - rec.mu, rec.mu - hi))
    return _report("mu-bounds", violations, tol)


def fit_rate(residuals: Sequence[float], tail_fraction: float = 0.5):
    """Least-squares slope of log(residual) against iteration on the tail.

    Returns (slope, r_squared); a geometric sequence c^k yields slope
    ln c with r_squared 1.  Non-positive residuals in the tail are
    dropped; fewer than 10 usable points is an error.
    """
    if not (0.0 < tail_fraction <= 1.0):
        raise ContractViolation("tail_fraction must lie in (0, 1]")
    r = np.asarray(residuals, dtype=float)
    start = int(np.floor(len(r) * (1.0 - tail_fraction)))
    tail = r[start:]
    ks = np.arange(start, len(r))
    keep = tail > 0.0
    ks, tail = ks[keep], tail[keep]
    if len(tail) < 10:
        raise ContractViolation("need at least 10 positive tail residuals")
    logs = np.log(tail)
    slope, intercept = np.polyfit(ks, logs, 1)
    fit = slope * ks + intercept
    ss_res = float(np.sum((logs - fit) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)
