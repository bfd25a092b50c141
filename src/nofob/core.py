"""The corrected forward-backward step and the loop that drives it.

One iteration: evaluate the forward-backward oracle to get a candidate
x_hat, build the separating halfspace from the kernel values at x and
x_hat, then relax-project the current iterate onto it in the metric S.
Every named algorithm is this step with its own kernel, step length and
relaxation.

The step returns a plain tuple, and the loop keeps the run as arrays: a
Trajectory holds the (k + 1) x n chain of iterates, the k x n candidates
and one column per record scalar, each written once when the run ends.
Its `records` are row views built on access.

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
from .linalg import (COINCIDENCE_TOL, NOISE_TOL, ContractViolation, SpdMetric, _nonnegative,
                     _operand, _positive, _size)

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
    step calls it on vectors, the separation audit once on a trajectory's
    iterates and candidates as k x n stacks.
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
        _positive(self.kernel_lipschitz, "kernel Lipschitz bound")
        if self.p_metric.dim != self.s_metric.dim:
            raise ContractViolation("dimension mismatch")


# Slotted and not frozen: a frozen record pays object.__setattr__ per
# field, which made building one cost about 1.5 us against 0.3 us on a
# 2-vCPU x86 host.  A trajectory builds its records only when they are
# read; `dataclasses.replace` builds a new one.
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
    """A run as arrays, row k being iteration k, and how it ended.

    x is the (k + 1) x n chain of iterates: record k steps from x[k] to
    x[k + 1], so each point is stored once.  x_hat is k x n, and mu,
    theta, residual_s, psi_at_x and normal_inv_norm are length-k columns
    of the record scalars.  Each array run_loop builds owns exactly its
    rows.  Arrays of other shapes raise ContractViolation("dimension
    mismatch").
    """

    x: np.ndarray
    x_hat: np.ndarray
    mu: np.ndarray
    theta: np.ndarray
    residual_s: np.ndarray
    psi_at_x: np.ndarray
    normal_inv_norm: np.ndarray
    # converged | max_iter | error (a non-finite value) | violated (a
    # residual rose where the step is certified nonexpansive) | stalled (a
    # null step above tol, whose successor is itself; see run_loop)
    status: str

    def __post_init__(self):
        k, n = len(self.mu), self.x.shape[-1]
        if not (self.x.shape == (k + 1, n) and self.x_hat.shape == (k, n)
                and self.mu.shape == self.theta.shape == self.residual_s.shape
                == self.psi_at_x.shape == self.normal_inv_norm.shape == (k,)):
            raise ContractViolation("dimension mismatch")

    @property
    def iterations(self) -> int:
        return len(self.mu)

    @property
    def final_x(self) -> np.ndarray:
        """The last record's x; run_loop keeps at least one record."""
        return self.x[-2]

    @property
    def records(self) -> List[IterRecord]:
        """The records as row views, built on each access: record k holds
        x[k], x_hat[k], x[k + 1] and the k-th scalars."""
        x, x_hat = self.x, self.x_hat
        scalars = zip(self.mu.tolist(), self.theta.tolist(), self.residual_s.tolist(),
                      self.psi_at_x.tolist(), self.normal_inv_norm.tolist())
        return [IterRecord(x[k], x_hat[k], x[k + 1], *row) for k, row in enumerate(scalars)]


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


def null_record(x, x_hat, theta: float, residual: float) -> tuple:
    """The step tuple of a step that leaves x where it is."""
    return x_hat, x.copy(), 0.0, theta, residual, 0.0, 0.0


def corrected_step(prob: NofobProblem, theta: float,
                   mu_hat: Optional[float] = None) -> Callable[[np.ndarray], tuple]:
    """The corrected step on one view, bound once: x -> one step from x
    (oracle, separation, relaxed metric projection) as the tuple
    (x_hat, x_next, mu, theta, residual_s, psi_at_x, normal_inv_norm),
    the fields of an IterRecord after x: `IterRecord(x, *step(x))` is the
    record of the step.  A tuple costs about a quarter of a record to
    build.

    x_next = x - theta * t * S^{-1}(Mx - Mx_hat), where the step length t
    is the explicit projection length mu, or mu_hat when one is given.
    The caller is responsible for mu_hat being a valid lower bound on mu;
    the step then returns the explicit mu and the effective relaxation
    theta * mu_hat / mu, so the Fejer and step-bound checkers stay exact.

    The view's oracle, kernel difference, bound norms, S's dimension and
    beta / 4 are read here, once per run, and mu_hat is checked here.
    Each step checks that x, and then x_hat, is a vector of S's
    dimension (the view checked P against S): a length-1 x_hat would
    broadcast through x - x_hat.  In S = I, S^{-1} m is m itself, which
    is what `SpdMetric.solve` returns there, so the step skips the call;
    m.dot(x - x_hat) has already required m to be of that length.  The
    step calls numpy's kernels directly (see `linalg._operand`): theta *
    mu_hat is bound once, as a 0-d array.
    """
    if mu_hat is not None:
        mu_hat = _positive(mu_hat, "mu_hat")
    oracle, kernel_diff, asarray = prob.fb_oracle, prob.kernel_diff, np.asarray
    s = prob.s_metric
    s_norm, p_norm, shape = s.norm, prob.p_metric.norm, (s.dim,)
    s_solve = None if s.is_unit else s.solve
    # q * pg * pg rounds as 0.25 * beta * pg * pg, left to right
    q = 0.25 * prob.beta
    step_hat = None if mu_hat is None else _operand(theta * mu_hat)

    def step(x: np.ndarray) -> tuple:
        x = asarray(x, dtype=float)
        if x.shape != shape:
            raise ContractViolation("dimension mismatch")
        x_hat = asarray(oracle(x), dtype=float)
        if x_hat.shape != shape:
            raise ContractViolation("dimension mismatch")
        diff = x - x_hat
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
            return x_hat, x - theta * mu * s_inv_m, mu, theta, residual, num, math.sqrt(den)
        return (x_hat, x - step_hat * s_inv_m, mu, theta * mu_hat / mu, residual,
                num, math.sqrt(den))

    return step


def _stack(vectors, n: int) -> np.ndarray:
    """Vectors of length n as the rows of one array that owns exactly
    them: np.stack is about four times slower, and an array grown by
    doubling would hold slack rows, which perfbench's result_mb counts."""
    return np.concatenate(vectors).reshape(-1, n)


def run_loop(
    step: Callable[[np.ndarray], tuple],
    x0: np.ndarray,
    tol: float,
    max_iter: int,
    monotone_residual: bool = False,
) -> Trajectory:
    """Drive a step, a function of the current iterate alone that returns
    the tuple `corrected_step`'s step does, from the vector x0 to the
    residual tolerance.  The loop keeps the tuples in a list and makes
    them the trajectory's arrays once, when the run ends; the step must
    return x_hat and x_next of x0's length.

    Convergence is checked on the oracle residual of the current
    iterate before the update is applied, so a point that already
    satisfies the fixed-point equation terminates with zero steps taken
    past it.  The run ends `error` at the first record whose residual,
    step length, separation value, normal norm or next iterate is not
    finite, and keeps that record; numpy's overflow and invalid-value
    warnings are silenced for the run, since that status reports them.

    The run also ends at the first null record, the step's mu = 0,
    which the step records on a null step and only there, and keeps it:
    `converged` if its residual is within tol, `violated` if it rose
    (below), and otherwise `stalled`.  Proof that going on would only
    repeat it: a null step's x_next equals its x, and the step is a
    function of the current iterate alone, so the record after a null
    record is the null record again, and by induction so is every later
    one, up to the budget.

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
    max_iter = _size(max_iter, "max_iter", least=0)
    tol = _nonnegative(tol, "tol")
    x = x0 = np.asarray(x0, dtype=float).copy()
    # x_next is finite exactly when x_next . 0 is: an inf or a NaN entry
    # makes it NaN, and finite entries, however large, make it 0 (a sum
    # or a norm would overflow on them)
    zeros = np.zeros(x.shape)
    steps = []  # the step tuples, made columns once the run ends
    status = "max_iter"
    ceiling = math.inf  # the highest residual the next record may have
    isfinite = math.isfinite
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter + 1):
            out = step(x)
            steps.append(out)
            _, x_next, mu, _, residual, psi, inv_norm = out
            if not (isfinite(residual) and isfinite(mu) and isfinite(psi)
                    and isfinite(inv_norm) and isfinite(x_next.dot(zeros))):
                status = "error"
                break
            if residual <= tol:
                status = "converged"
                break
            if residual > ceiling:
                status = "violated"
                break
            if mu == 0.0:
                status = "stalled"
                break
            if monotone_residual:
                ceiling = residual + NOISE_TOL * (1.0 + residual)
            x = x_next
    n = len(x0)
    x_hats, nexts, *scalars = zip(*steps)
    return Trajectory(_stack((x0,) + nexts, n), _stack(x_hats, n),
                      *(np.array(c, dtype=float) for c in scalars), status)
