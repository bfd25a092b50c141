import numpy as np
import pytest


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
