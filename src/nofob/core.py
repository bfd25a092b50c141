"""The corrected forward-backward step and the loop that drives it.

One iteration: evaluate the forward-backward oracle to get a candidate
x_hat, build the separating halfspace from the kernel values at x and
x_hat, then relax-project the current iterate onto it in the metric S.
Every named algorithm is this step with its own kernel, step length and
relaxation.

One tolerance policy covers coincidence and round-off: a residual at or
below COINCIDENCE_TOL * (1 + ||x||) is a null step, and so is a failed
separation at or below NOISE_TOL * (1 + ||x||); a failed separation
above that raises.  A run whose step is certified nonexpansive may see
its residual r rise by NOISE_TOL * (1 + r) from one record to the next;
a larger rise ends it `violated`.  Both constants are read from the
tolerance table in `linalg`.  Null steps, and only they, record mu = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

# the tolerances are imported by name: `coincides` and `separation_fails`
# run every iteration and read them as plain module globals
from .linalg import COINCIDENCE_TOL, NOISE_TOL, ContractViolation, SpdMetric

__all__ = [
    "NofobProblem",
    "IterRecord",
    "Trajectory",
    "coincides",
    "separation_fails",
    "null_record",
    "corrected_step",
    "run_loop",
]


@dataclass(frozen=True)
class NofobProblem:
    """Data defining one solve: the backward oracle, the kernel, and metrics.

    The kernel M is fixed for the run.  fb_oracle(x) returns
    x_hat = (M + A)^{-1} (M - C) x.  P lower-bounds the strong
    monotonicity of M; beta in [0, 4) is the inverse cocoercivity of C
    relative to P; S is the projection metric; kernel_lipschitz bounds M
    in the norm pair.

    M enters the step only through kernel_diff(x, x_hat, d), which
    returns M x - M x_hat, the normal of the halfspace, free of the
    cancellation the plain difference of M x and M x_hat suffers
    (eps * ||x|| / ||x - x_hat|| digits); the step and the separation
    audit both take it from here.  d is x - x_hat as the caller formed
    it, so that a linear kernel applies M to d and forms no difference
    of its own.  A view may have it reuse the oracle's work at the
    oracle's own x array (the four-op views do), so it is a function of
    its arguments alone as long as nothing writes to x between the two
    calls; the step never does.  It takes vectors, or k x n stacks that
    it treats row by row, each row bit for bit the vector's value: the
    step calls it on vectors, the separation audit once on the stacked
    records of a trajectory.
    """

    fb_oracle: Callable[[np.ndarray], np.ndarray]
    p_metric: SpdMetric
    s_metric: SpdMetric
    beta: float
    kernel_lipschitz: float
    kernel_diff: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    # not a field and always None: perfbench/tracing.py hooks it by name
    kernel_eval = None

    def __post_init__(self):
        if not (0.0 <= self.beta < 4.0):
            raise ContractViolation("beta must lie in [0, 4)")
        if not 0.0 < self.kernel_lipschitz < math.inf:  # a NaN fails this test too
            raise ContractViolation("kernel Lipschitz bound must be positive and finite")
        if self.p_metric.dim != self.s_metric.dim:
            raise ContractViolation("dimension mismatch")


# Slotted and not frozen: a frozen record pays object.__setattr__ per
# field, which made building one cost about 1.5 us against 0.3 us on a
# 2-vCPU x86 host, once per iteration.  Nothing writes to a record after
# the step returns it; `dataclasses.replace` builds a new one.
@dataclass(slots=True)
class IterRecord:
    x: np.ndarray
    x_hat: np.ndarray
    x_next: np.ndarray
    mu: float
    theta: float
    residual_s: float
    psi_at_x: float
    normal_inv_norm: float


@dataclass(frozen=True)
class Trajectory:
    """A run's records, record k being iteration k, and how it ended."""

    records: List[IterRecord]
    # converged | max_iter | error (a non-finite value) | violated (a
    # residual rose where the step is certified nonexpansive; see run_loop)
    status: str

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def final_x(self) -> np.ndarray:
        """The last record's x; run_loop keeps at least one record."""
        return self.records[-1].x


def coincides(residual: float, x_norm: float) -> bool:
    """Whether x_hat coincides with x, which makes the step null.

    An overflowed norm never coincides: a diverging run keeps moving
    until the loop sees its non-finite state.
    """
    return residual <= COINCIDENCE_TOL * (1.0 + x_norm) < np.inf


def separation_fails(num: float, den: float, residual: float, x_norm: float) -> bool:
    """Whether the halfspace fails to cut off x, which makes the step null.

    num and den are the separation value at x and the squared dual norm
    of its normal.  A failure at or below the noise level is round-off;
    above it the kernel or the oracle breaks its contract, and this
    raises.  NaN values pass, so the loop reports the non-finite state.
    """
    if den <= 0.0 or num / den <= 0.0:
        if residual <= NOISE_TOL * (1.0 + x_norm) < np.inf:
            return True
        raise ContractViolation(
            "separation failed: the candidate does not cut off the iterate"
        )
    return False


def null_record(x, x_hat, theta: float, residual: float) -> IterRecord:
    """The record of a step that leaves x where it is."""
    return IterRecord(x, x_hat, x.copy(), 0.0, theta, residual, 0.0, 0.0)


def corrected_step(prob: NofobProblem, theta: float,
                   mu_hat: Optional[float] = None) -> Callable[[np.ndarray], IterRecord]:
    """The corrected step on one view, bound once: x -> the IterRecord of
    one step from x (oracle, separation, relaxed metric projection).  The
    record's iteration is its place in the trajectory.

    x_next = x - theta * t * S^{-1}(Mx - Mx_hat), where the step length t
    is the explicit projection length mu, or mu_hat when one is given.
    The caller is responsible for mu_hat being a valid lower bound on mu;
    the record then stores the explicit mu and the effective relaxation
    theta * mu_hat / mu, so the Fejer and step-bound checkers stay exact.

    The view's oracle, kernel difference, bound norms, S's dimension and
    beta / 4 are read here, once per run, and mu_hat is checked here.
    Each step makes one dimension check, of x - x_hat against S (the view
    checked P against S), and hands that difference to `kernel_diff`.  In
    S = I, S^{-1} m is m itself, which is what `SpdMetric.solve` returns
    there, so the step skips the call; m.dot(x - x_hat) has already
    required m to be of that length.  On vectors `a.dot(b)` rounds as
    `a @ b`, without its ufunc dispatch.
    """
    if mu_hat is not None and not mu_hat > 0.0:
        raise ContractViolation("mu_hat must be positive")
    oracle, kernel_diff, asarray = prob.fb_oracle, prob.kernel_diff, np.asarray
    s = prob.s_metric
    s_norm, p_norm, dim = s.norm, prob.p_metric.norm, s.dim
    s_solve = None if s.is_unit else s.solve
    # q * pg * pg rounds as 0.25 * beta * pg * pg, left to right
    q = 0.25 * prob.beta

    def step(x: np.ndarray) -> IterRecord:
        x = asarray(x, dtype=float)
        x_hat = asarray(oracle(x), dtype=float)
        diff = x - x_hat
        if diff.shape[0] != dim:
            raise ContractViolation("dimension mismatch")
        residual = s_norm(diff)
        x_norm = s_norm(x)
        if coincides(residual, x_norm):
            return null_record(x, x_hat, theta, residual)
        m = kernel_diff(x, x_hat, diff)
        pg = p_norm(diff)
        num = float(m.dot(diff)) - q * pg * pg
        s_inv_m = m if s_solve is None else s_solve(m)
        den = float(m.dot(s_inv_m))
        if separation_fails(num, den, residual, x_norm):
            return null_record(x, x_hat, theta, residual)
        mu = num / den
        if mu_hat is None:
            return IterRecord(x, x_hat, x - theta * mu * s_inv_m, mu, theta, residual,
                              num, math.sqrt(den))
        return IterRecord(x, x_hat, x - theta * mu_hat * s_inv_m, mu, theta * mu_hat / mu,
                          residual, num, math.sqrt(den))

    return step


def run_loop(
    step: Callable[[np.ndarray], IterRecord],
    x0: np.ndarray,
    tol: float,
    max_iter: int,
    monotone_residual: bool = False,
) -> Trajectory:
    """Drive a step, a function of the current iterate alone, from the
    vector x0 to the residual tolerance.

    Convergence is checked on the oracle residual of the current
    iterate before the update is applied, so a point that already
    satisfies the fixed-point equation terminates with zero steps taken
    past it.  The run ends `error` at the first record whose residual,
    step length, separation value, normal norm or next iterate is not
    finite, and keeps that record; numpy's overflow and invalid-value
    warnings are silenced for the run, since that status reports them.

    With `monotone_residual` the caller certifies that the step is a
    nonexpansive map R, x_next = R x, whose residual x - x_next is a
    fixed multiple of the recorded x - x_hat.  Then
    ||x_{k+1} - R x_{k+1}|| = ||R x_k - R x_{k+1}|| <= ||x_k - x_{k+1}||,
    so the recorded residual cannot rise, and the run ends `violated` at
    the first record whose residual exceeds the previous one by more
    than NOISE_TOL * (1 + r_{k-1}), keeping that record: the rise proves
    the premise of the certificate false, with no z* to compare against.
    The relaxed forward-backward map R = (1 - theta c) I + theta c T,
    T = J_{gamma B}(I - gamma F), is such a map whenever F is
    1/beta_E-cocoercive, beta_E gamma < 4 and theta <= 2: T is conically
    1/(2c)-averaged with c = 1 - beta_E gamma / 4 (Combettes and Yamada,
    J. Math. Anal. Appl. 425, 2015, for beta_E gamma < 2; Bartz, Dao and
    Phan, "Conical averagedness and convergence analysis of fixed point
    algorithms", J. Global Optim. 82, 2022, up to 4), so
    R = (1 - theta / 2) I + (theta / 2) N with N nonexpansive.  A run
    that never rises computes exactly what it computes unchecked.
    """
    if max_iter < 0:
        raise ContractViolation("max_iter must be nonnegative")
    if not 0.0 <= tol < math.inf:
        raise ContractViolation(f"tol must be finite and nonnegative, got {tol}")
    x = np.asarray(x0, dtype=float).copy()
    # x_next is finite exactly when x_next . 0 is: an inf or a NaN entry
    # makes it NaN, and finite entries, however large, make it 0 (a sum
    # or a norm would overflow on them)
    zeros = np.zeros(x.shape)
    records: List[IterRecord] = []
    ceiling = math.inf  # the highest residual the next record may have
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter + 1):
            rec = step(x)
            records.append(rec)
            if not (math.isfinite(rec.residual_s) and math.isfinite(rec.mu)
                    and math.isfinite(rec.psi_at_x)
                    and math.isfinite(rec.normal_inv_norm)
                    and math.isfinite(rec.x_next.dot(zeros))):
                return Trajectory(records, "error")
            if rec.residual_s <= tol:
                return Trajectory(records, "converged")
            if rec.residual_s > ceiling:
                return Trajectory(records, "violated")
            if monotone_residual:
                ceiling = rec.residual_s + NOISE_TOL * (1.0 + rec.residual_s)
            x = rec.x_next
    return Trajectory(records, "max_iter")
