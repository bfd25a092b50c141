import warnings

import numpy as np
import pytest

from nofob.core import IterRecord, coincides, null_record, separation_fails
from nofob.fourop import StepParameterWarning, gamma_bound_conservative
from nofob.linalg import ContractViolation


def _long_step_reference(prob, gamma, x, theta, s):
    """The scalar-kernel long step written out by hand: (x_next, mu).

    x_hat = J_{gamma B}(x - gamma (D + K + E) x), M = gamma^{-1} I - D - K,
    and the separation penalty (beta_E / 4) ||x - x_hat||^2, which equals
    (beta / 4) ||x - x_hat||_P^2 for the scalar kernel's P.
    """
    x = np.asarray(x, dtype=float)
    x_hat = prob.b.evaluator(gamma, x - gamma * prob.forward(x))
    diff = x - x_hat
    m = diff / gamma - (prob.d(x) - prob.d(x_hat)) - prob.k(diff)
    num = float(m @ diff) - 0.25 * prob.e.inverse_cocoercivity * float(diff @ diff)
    s_inv_m = s.solve(m)
    mu = num / float(m @ s_inv_m)
    return x - theta * mu * s_inv_m, mu


@pytest.fixture
def long_step_reference():
    """Independent transcription the generic scalar-kernel step is checked against."""
    return _long_step_reference


# ---------------------------------------------------------------------------
# conservative short step written out by hand (cross-check transcription)


def _scalar_kernel_diff(prob, gamma, x, x_hat):
    """(M x - M x_hat) for M = gamma^{-1} I - D - K."""
    diff = x - x_hat
    return diff / gamma - (prob.d(x) - prob.d(x_hat)) - prob.k(diff)


def _conservative_iterate(prob, gamma, k, x):
    """Short-step variant: x_next = x_hat - gamma ((D+K) x_hat - (D+K) x).

    Tseng's forward-backward-forward step, and with E != 0 the
    forward-backward-half-forward step of Briceno-Arias and Davis, as
    published.  It is the corrected step with S = I, step length gamma
    and unit relaxation, since x - gamma (Mx - M x_hat) telescopes to the
    formula above; `fbf` and `fbhf` run that step, and this transcription
    cross-checks it.  The record stores the explicit mu and the effective
    relaxation theta = gamma / mu.
    """
    if gamma <= 0:
        raise ContractViolation("gamma must be positive")
    limit = gamma_bound_conservative(
        prob.e.inverse_cocoercivity, prob.d.lipschitz_constant,
        prob.k.operator_norm, 0.0,
    )
    if gamma > limit + 1e-15:
        warnings.warn(
            "gamma exceeds the sufficient conservative bound; proceeding",
            StepParameterWarning, stacklevel=2,
        )
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(prob.b.evaluator(gamma, x - gamma * prob.forward(x)), dtype=float)
    residual = float(np.linalg.norm(x - x_hat))
    x_norm = float(np.linalg.norm(x))
    if coincides(residual, x_norm):
        return null_record(k, x, x_hat, 1.0, residual, gamma)
    dk_gap = (prob.d(x_hat) + prob.k(x_hat)) - (prob.d(x) + prob.k(x))
    x_next = x_hat - gamma * dk_gap
    diff = x - x_hat
    m = _scalar_kernel_diff(prob, gamma, x, x_hat)
    num = float(m @ diff) - 0.25 * prob.e.inverse_cocoercivity * float(diff @ diff)
    den = float(m @ m)
    if separation_fails(num, den, residual, x_norm):
        return null_record(k, x, x_hat, 1.0, residual, gamma)
    mu = num / den
    return IterRecord(
        k=k, x=x, x_hat=x_hat, x_next=x_next, mu=mu, theta=gamma / mu,
        residual_s=residual, psi_at_x=num, normal_inv_norm=float(np.sqrt(den)),
        mu_hat=gamma,
    )


def _conservative_oracle(bundle, x0):
    """Solution of the inclusion by a long run of the conservative step.

    Half the conservative bound, until the forward-backward residual
    reaches 1e-14, or stops improving at or below 1e-12.
    """
    bound = gamma_bound_conservative(
        bundle.e.inverse_cocoercivity, bundle.d.lipschitz_constant,
        bundle.k.operator_norm, 0.0,
    )
    gamma = 1.0 if not np.isfinite(bound) else 0.5 * bound
    x = np.asarray(x0, dtype=float).copy()
    best, best_res, stale = None, np.inf, 0
    for k in range(200000):
        rec = _conservative_iterate(bundle, gamma, k, x)
        if rec.residual_s < best_res:
            best, best_res, stale = rec.x_hat, rec.residual_s, 0
        else:
            stale += 1
        if best_res <= 1e-14 or (stale > 200 and best_res <= 1e-12):
            return best
        x = rec.x_next
    raise AssertionError("reference run failed to reach the oracle tolerance")


@pytest.fixture
def conservative_reference():
    """Independent transcription of the fbf/fbhf step the corrected step is checked against."""
    return _conservative_iterate


@pytest.fixture
def conservative_oracle():
    """Long conservative run the exact instance oracles are checked against."""
    return _conservative_oracle


# ---------------------------------------------------------------------------
# bisection solve of the separable nonlinear resolvent (cross-check reference)


def _bisection_resolvent(kernel, prox_spec, y, tol=1e-12):
    """phi_i(x_i) + A_i(x_i) containing y_i, by bisection on
    r(x) = x - J_A(x + y - phi(x)) inside the same geometrically grown
    bracket and to the same stopping rule (1 + ell) max|r| <= tol as
    `separable_nonlinear_resolvent`, one halving per step."""
    y = np.asarray(y, dtype=float)

    def resid(x):
        return x - prox_spec.evaluator(1.0, x + y - kernel(x))

    center = y / kernel.sigma
    half = np.maximum(1.0, np.abs(center))
    lo = center - half
    hi = center + half
    for _ in range(1000):
        bad_lo = resid(lo) > 0.0
        bad_hi = resid(hi) < 0.0
        if not bad_lo.any() and not bad_hi.any():
            break
        half = half * 2.0
        lo = np.where(bad_lo, center - half, lo)
        hi = np.where(bad_hi, center + half, hi)
    else:
        raise AssertionError("reference bracket failed to close")

    slack = 1.0 + kernel.ell
    mid = 0.5 * (lo + hi)
    for _ in range(4000):
        r = resid(mid)
        if slack * float(np.abs(r).max()) <= tol:
            return prox_spec.evaluator(1.0, mid + y - kernel(mid))
        lo = np.where(r < 0.0, mid, lo)
        hi = np.where(r >= 0.0, mid, hi)
        mid = 0.5 * (lo + hi)
    raise AssertionError("reference bisection did not converge")


@pytest.fixture
def bisection_resolvent_reference():
    """Bisection solve the nonlinear resolvent's secant iteration is checked against."""
    return _bisection_resolvent
