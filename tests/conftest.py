import dataclasses
import importlib.util
import math
import os
import subprocess
import sys
import warnings
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from nofob.algorithms import ROWS
from nofob.core import (IterRecord, Trajectory, coincides, corrected_step, null_record,
                        run_loop, separation_fails)
from nofob.diagnostics import CheckReport
from nofob.fourop import (
    BlockDiag,
    FourOpProblem,
    SeparableNonlinear,
    StepParameterWarning,
    as_nofob,
    fbs_view,
    gamma_bound_conservative,
    zero_cocoercive,
)
from nofob.linalg import (
    AUDIT_TOL,
    MU_BOUNDS_TOL,
    RESOLVENT_TOL,
    STOP_TOL,
    ContractViolation,
    SpdMetric,
    _LANCZOS_SEED,
)
from nofob.operators import LipschitzMap, SkewMap, l1_plus_diag_affine
from nofob.problems import ProblemInstance
from nofob.projective import ps_explicit_oracle
from nofob.rng import Lcg64


def accepted(inst, audited=False) -> tuple:
    """The rows of the row table that run on `inst`, in table order; with
    `audited`, only those whose step also has a separation to audit there.
    A plain function, not a fixture, so that parametrize lists can call it:
    `from conftest import accepted`."""
    return tuple(name for name, row in ROWS.items() if row.rejects(inst) is None
                 and (not audited or row.no_audit(inst) is None))


# The step tuple of a record: its fields after x, in the order
# corrected_step's step returns them, so `step_tuple(IterRecord(x, *out))`
# is `out` again.  A step that builds or edits records is handed to
# run_loop through it.
step_tuple = attrgetter("x_hat", "x_next", "mu", "theta", "residual_s", "psi_at_x",
                        "normal_inv_norm")


def one_record(step, x) -> IterRecord:
    """The record of one step from x: `IterRecord(x, *step(x))`, with x
    the float array the step reads."""
    x = np.asarray(x, dtype=float)
    return IterRecord(x, *step(x))


def trajectory_of(records, status: str) -> Trajectory:
    """The Trajectory of hand-built records, as run_loop would keep them.

    Every record's x, x_hat and x_next must be a vector of the first
    record's length, or ContractViolation("dimension mismatch"); the
    records must chain, each x equal to the previous record's x_next (a
    NaN equal to a NaN), or ContractViolation("records do not chain"):
    an edit that moves a point must move both records that carry it.
    """
    n = len(records[0].x)
    if any(np.shape(a) != (n,) for r in records for a in (r.x, r.x_hat, r.x_next)):
        raise ContractViolation("dimension mismatch")
    if not all(np.array_equal(a.x_next, b.x, equal_nan=True)
               for a, b in zip(records, records[1:])):
        raise ContractViolation("records do not chain")
    chain = [r.x for r in records] + [records[-1].x_next]
    scalars = list(zip(*map(step_tuple, records)))[2:]
    return Trajectory(np.array(chain, dtype=float),
                      np.array([r.x_hat for r in records], dtype=float),
                      *(np.array(c, dtype=float) for c in scalars), status)


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


def _conservative_iterate(prob, gamma, x):
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
        return IterRecord(x, *null_record(x, x_hat, 1.0, residual))
    dk_gap = (prob.d(x_hat) + prob.k(x_hat)) - (prob.d(x) + prob.k(x))
    x_next = x_hat - gamma * dk_gap
    diff = x - x_hat
    m = _scalar_kernel_diff(prob, gamma, x, x_hat)
    num = float(m @ diff) - 0.25 * prob.e.inverse_cocoercivity * float(diff @ diff)
    den = float(m @ m)
    if separation_fails(num, den, residual, x_norm):
        return IterRecord(x, *null_record(x, x_hat, 1.0, residual))
    mu = num / den
    return IterRecord(
        x=x, x_hat=x_hat, x_next=x_next, mu=mu, theta=gamma / mu,
        residual_s=residual, psi_at_x=num, normal_inv_norm=float(np.sqrt(den)),
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
    for _ in range(200000):
        rec = _conservative_iterate(bundle, gamma, x)
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


def _bisection_resolvent(kernel, prox_spec, y, tol=RESOLVENT_TOL):
    """phi_i(x_i) + A_i(x_i) containing y_i, by bisection on
    r(x) = x - J_A(x + y - phi(x)), one halving per step, to the stopping
    rule (1 + ell) max|r| <= tol of `separable_nonlinear_resolvent`.

    The bracket is grown geometrically around y / sigma from a start of
    half-width max(1, |y / sigma|), with no start point and no a-priori
    bound, so this is an independent cross-check of the solver's warm
    start and its bracket, not a copy of them.  Where tol cannot be met,
    as for roots of |x| above about 1e3, it stops once every coordinate
    above tol has a bracket of two adjacent doubles."""
    y = np.asarray(y, dtype=float)

    def resid(x):
        return x - prox_spec.evaluator(1.0, x + y - kernel.phi(x))

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
        met = slack * np.abs(r) <= tol
        if met.all() or np.all(met | (np.nextafter(lo, hi) == hi)):
            return prox_spec.evaluator(1.0, mid + y - kernel.phi(mid))
        lo = np.where(r < 0.0, mid, lo)
        hi = np.where(r >= 0.0, mid, hi)
        mid = 0.5 * (lo + hi)
    raise AssertionError("reference bisection did not converge")


@pytest.fixture
def bisection_resolvent_reference():
    """Bisection solve the nonlinear resolvent's secant iteration is checked against."""
    return _bisection_resolvent


# ---------------------------------------------------------------------------
# soft threshold (cross-check reference)


def _soft_threshold(z, t):
    """sign(z) max(|z| - t, 0) as one plain expression, with its
    temporaries; the in-place `operators._soft` must give the same bytes."""
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


@pytest.fixture
def soft_threshold_reference():
    """Plain soft-threshold transcription the l1 resolvents are checked against."""
    return _soft_threshold


# ---------------------------------------------------------------------------
# relaxed forward-backward step in the metric I (cross-check reference)


def _fbs_relaxed_step(b, e, gamma, theta, x):
    """x_next = (1 - theta c) x + theta c J_{gamma B}(x - gamma E x),
    c = 1 - beta_E gamma / 4, written out by hand; theta = 1/c gives the
    plain forward-backward step.  The corrected step on the scalar kernel
    with D = K = 0 reduces to this update (`fbs` and `fbs-relaxed` run it
    on `fourop.fbs_view`), and the tests check the reduction against it."""
    x = np.asarray(x, dtype=float)
    c = 1.0 - 0.25 * e.inverse_cocoercivity * gamma
    x_hat = b.evaluator(gamma, x - gamma * e(x))
    return (1.0 - theta * c) * x + theta * c * x_hat


@pytest.fixture
def fbs_relaxed_reference():
    """Relaxed forward-backward transcription the corrected step is checked against."""
    return _fbs_relaxed_step


def _fbs_unchecked(inst, gamma=None, theta=None, tol=STOP_TOL, max_iter=1000):
    """The `fbs` run (`fbs-relaxed` at a given theta) with the loop's
    residual check off: run_loop on fourop.fbs_view with the default step
    size 0.9 * 2 / beta_E (1 when beta_E = 0), the step length gamma and
    the relaxation theta c that run_algorithm applies, theta = 1/c by
    default."""
    beta_e = inst.constants["beta_e"]
    if gamma is None:
        gamma = 1.0 if beta_e == 0.0 else 0.9 * (2.0 / beta_e)
    c = 1.0 - 0.25 * inst.bundle.e.inverse_cocoercivity * gamma
    th = 1.0 / c if theta is None else theta
    view = fbs_view(inst.bundle, gamma)
    return run_loop(corrected_step(view, th * c, gamma), inst.x0, tol, max_iter)


@pytest.fixture
def perfbench_workloads(monkeypatch):
    """`perfbench/workloads.py`, loaded from its file with no bytecode
    written beside it, for the tests that guard what the benchmark reads."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


@pytest.fixture
def fbs_unchecked():
    """The fbs rows' loop as it runs without the monotone-residual check."""
    return _fbs_unchecked


# ---------------------------------------------------------------------------
# published explicit projective-splitting numerator (cross-check reference)


def _ps_mu_terms(ps, p, p_hat, taus=None):
    """The values behind one explicit step from the stacked vector p with
    candidate p_hat, at the per-block step sizes taus (by default all 1):
    (num_published, num_weighted, den_explicit, den_weighted).

    num_published is Johnstone and Eckstein's inner-product combination
    sum_i (<t_i, w_i> - <v_i, w_hat_i>) + <t*, x> - <y_hat, x_hat>, with
    v_i = L_i x + tau_i (w_i - w_hat_i), y_hat = (x - x_hat) / tau_n -
    sum_i L_i^T w_i, t_i = v_i - L_i x_hat and t* = y_hat + sum_i L_i^T w_hat_i;
    num_weighted is ||p - p_hat||_Q^2 in the resolvent view.  den_explicit
    is sum_i ||t_i||^2 + ||t*||^2 and den_weighted ||(Q - K)(p - p_hat)||^2.
    All four agree pairwise in exact arithmetic.
    """
    taus = (1.0,) * ps.n if taus is None else tuple(taus)
    split = ps.stacked.b.split
    *duals, x = split(p)
    *w_hats, x_hat = split(p_hat)
    lsw = sum(m.T @ w for m, w in zip(ps.l_maps, duals))
    y_hat = (x - x_hat) / taus[-1] - lsw
    v_hats = [m @ x + tau * (w - wh)
              for m, tau, w, wh in zip(ps.l_maps, taus, duals, w_hats)]
    t_list = [vh - m @ x_hat for vh, m in zip(v_hats, ps.l_maps)]
    t_star = y_hat + sum(m.T @ wh for m, wh in zip(ps.l_maps, w_hats))
    num_published = (
        sum(float(t @ w) - float(vh @ wh)
            for t, w, vh, wh in zip(t_list, duals, v_hats, w_hats))
        + float(t_star @ x) - float(y_hat @ x_hat)
    )
    den_explicit = sum(float(t @ t) for t in t_list) + float(t_star @ t_star)

    diff = p - p_hat
    weights = (*taus[:-1], 1.0 / taus[-1])
    q_diff = np.concatenate([w * xb for w, xb in zip(weights, split(diff))])
    m_vec = q_diff - ps.stacked.k(diff)
    return num_published, float(q_diff @ diff), den_explicit, float(m_vec @ m_vec)


@pytest.fixture
def ps_mu_terms_reference():
    """Published explicit numerator and denominator, checked against the weighted forms."""
    return _ps_mu_terms


# ---------------------------------------------------------------------------
# the explicit projective-splitting step, shared by the equivalence tests


def _ps_explicit_step(ps, p, theta, taus=None, s=None):
    """One `ps-explicit` step from the stacked vector p at the per-block
    step sizes taus (by default all 1): the corrected step in the metric
    s (by default S = I, as the row takes it) on the block-diagonal view,
    with Johnstone and Eckstein's explicit oracle swapped in, as a record."""
    taus = (1.0,) * ps.n if taus is None else tuple(taus)
    s = SpdMetric.identity(ps.stacked.dim) if s is None else s
    view = as_nofob(ps.stacked, BlockDiag((*taus[:-1], 1.0 / taus[-1])), s)
    view = dataclasses.replace(view, fb_oracle=ps_explicit_oracle(ps, taus))
    p = np.asarray(p, dtype=float)
    return IterRecord(p, *corrected_step(view, theta)(p))


@pytest.fixture
def ps_explicit_step():
    """The explicit projective-splitting step the equivalence tests run."""
    return _ps_explicit_step


# ---------------------------------------------------------------------------
# declared-modulus honesty samplers (cross-check references)


def _sampled_pairs(n, samples, seed, scale):
    """Pairs drawn in the order x_0, y_0, x_1, y_1, ... of the seed's stream."""
    for row in Lcg64(seed).matrix(samples, 2 * n):
        yield scale * row[:n], scale * row[n:]


def _worst_lipschitz_ratio(fn, lipschitz_constant, n, samples, seed, scale=1.0):
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


def _worst_cocoercivity_deficit(fn, beta, n, samples, seed, scale=1.0):
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


def _worst_strong_monotonicity_deficit(fn, sigma, n, samples, seed, scale=1.0):
    """max of sigma||x-y||^2 - <fx-fy, x-y> over sampled pairs."""
    worst = -np.inf
    for x, y in _sampled_pairs(n, samples, seed, scale):
        d = x - y
        inner = float((np.asarray(fn(x)) - np.asarray(fn(y))) @ d)
        worst = max(worst, sigma * float(d @ d) - inner)
    return worst


@pytest.fixture
def honesty_samplers():
    """Sampled checks that declared moduli hold: the instances' constants are checked against them."""
    return SimpleNamespace(
        pairs=_sampled_pairs,
        lipschitz_ratio=_worst_lipschitz_ratio,
        cocoercivity_deficit=_worst_cocoercivity_deficit,
        strong_monotonicity_deficit=_worst_strong_monotonicity_deficit,
    )


# ---------------------------------------------------------------------------
# a bundle with a nonlinear D and a planted solution

_ARCTAN_KERNEL = SeparableNonlinear(phi=lambda x: x + np.arctan(x), sigma=1.0, ell=2.0)


def _planted_nonlinear_drift(n, seed, w_square=0.3, lam=0.3):
    """A bundle for the kernel phi - D - K, nonlinear and nonsymmetric at
    once, with a planted solution z*; not a registered problem.

    phi(t) = t + arctan t (sigma = 1, ell = 2).  D(x) = G x + W^T tanh(W x)
    with G = 0.2 I + a skew part of norm 0.2: monotone, since W^T tanh(W x)
    is the gradient of a convex function, and L_D = ||G|| + ||W||^2, about
    0.58 at the default ||W||^2 = 0.3.  K is a seeded skew map, E = 0 and
    B = lam subdiff ||.||_1 + diag(d) x - b.  With v in the subdifferential
    of ||.||_1 at a sparse z*, b = lam v + d z* + D z* + K z* makes z* exact.
    """
    rng = Lcg64(seed)
    r = rng.matrix(n, n)
    g = 0.2 * np.eye(n) + 0.2 * (r - r.T) / np.linalg.norm(r - r.T, 2)
    w = rng.matrix(n // 2, n)
    w *= np.sqrt(w_square) / np.linalg.norm(w, 2)
    l_d = float(np.linalg.norm(g, 2)) + w_square
    d = LipschitzMap(lambda x: g @ x + w.T @ np.tanh(w @ x), l_d)
    r = rng.matrix(n, n)
    k = SkewMap(0.5 * (r - r.T) / np.sqrt(n))
    picks = rng.vector(n)
    z_star = np.where(np.abs(picks) > 0.5, 2.0 * picks, 0.0)
    v = np.where(z_star != 0.0, np.sign(z_star), 0.9 * rng.vector(n))
    d_diag = 0.5 + rng.vector(n) ** 2
    b_vec = lam * v + d_diag * z_star + d(z_star) + k(z_star)
    bundle = FourOpProblem(b=l1_plus_diag_affine(lam, d_diag, b_vec), d=d,
                           e=zero_cocoercive(), k=k)
    return ProblemInstance(
        name="nonlinear-drift", bundle=bundle, oracle=z_star,
        sigma_of=lambda: float(d_diag.min()), x0=rng.vector(n),
        nonlinear_spec=_ARCTAN_KERNEL,
    )


@pytest.fixture
def planted_nonlinear_drift():
    """Builder of the nonlinear-drift bundle: a D that declares no matrix,
    which the view applies to the audit's stacks row by row."""
    return _planted_nonlinear_drift


# ---------------------------------------------------------------------------
# per-record audits written out term by term (cross-check references)


def _report(name, violations, tol, index=None):
    """The report assembly of `diagnostics._report` with no fast path:
    every violation is tested for finiteness and against tol, the first
    failing one found by argmax, and the worst taken over the finite
    violations and the magnitudes of the others."""
    v = np.asarray(violations, dtype=float)
    if v.size == 0:
        return CheckReport(name, 0.0, None, True, tol)
    finite = np.isfinite(v)
    failing = ~finite | (v > tol)
    first = int(np.argmax(failing)) if failing.any() else None
    if first is not None and index is not None:
        first = int(index[first])
    worst = float(np.max(np.where(finite, v, np.abs(v))))
    return CheckReport(name, worst, first, first is None, tol)


def _psi_value(prob, x, x_hat, z):
    """Separating function <Mx - Mx_hat, z - x_hat> - (beta/4)||x - x_hat||_P^2,
    with its own kernel difference and P-norm on every call."""
    m = prob.kernel_diff(x, x_hat, x - x_hat)
    gap = prob.p_metric.norm(x - x_hat)
    return float(m @ (z - x_hat)) - 0.25 * prob.beta * gap * gap


def _fejer_reference(traj, z_star, s, tol=AUDIT_TOL):
    """`check_fejer` with both distances measured afresh on every record."""
    z = np.asarray(z_star, dtype=float)
    violations = []
    for rec in traj.records:
        before = s.norm(rec.x - z) ** 2
        after = s.norm(rec.x_next - z) ** 2
        gap = rec.mu * rec.normal_inv_norm
        guard = tol * (1.0 + before)
        violations.append(
            after - before + rec.theta * (2.0 - rec.theta) * gap * gap - guard + tol
        )
    return _report("fejer", violations, tol)


def _worse(a, b):
    """max(a, b), except that a NaN in either wins."""
    return b if b > a or b != b else a


def _separation_reference(traj, prob, z_star, tol=AUDIT_TOL):
    """`check_separation` through `_psi_value`, at x and at z* separately."""
    z = np.asarray(z_star, dtype=float)
    violations = []
    for rec in traj.records:
        gap = prob.p_metric.norm(rec.x - rec.x_hat)
        at_x = _psi_value(prob, rec.x, rec.x_hat, rec.x)
        at_z = _psi_value(prob, rec.x, rec.x_hat, z)
        guard = tol * (1.0 + gap * gap)
        lower = (1.0 - prob.beta / 4.0) * gap * gap
        violations.append(_worse(lower - at_x - guard + tol, at_z - guard + tol))
    return _report("separation", violations, tol)


def _mu_bounds_reference(traj, beta, p, s, kernel_lipschitz, tol=MU_BOUNDS_TOL):
    """`check_mu_bounds` one record at a time, skipping the null steps."""
    lo = (1.0 - beta / 4.0) * p.lam_min / (kernel_lipschitz ** 2 / s.lam_min)
    hi = s.lam_max / p.lam_min
    violations, index = [], []
    for i, rec in enumerate(traj.records):
        if rec.mu != 0.0:
            violations.append(_worse(lo - rec.mu, rec.mu - hi))
            index.append(i)
    return _report("mu-bounds", violations, tol, index)


@pytest.fixture
def psi_value():
    """The separating function value the corrected step's halfspace is checked with."""
    return _psi_value


@pytest.fixture
def audit_reference():
    """Per-record audits the array-form audits are checked against, and
    the report assembly `diagnostics._report` is checked against."""
    return SimpleNamespace(fejer=_fejer_reference, separation=_separation_reference,
                           mu_bounds=_mu_bounds_reference, report=_report)


# ---------------------------------------------------------------------------
# the corrected step through the metrics' dense matrices (cross-check reference)


def _reference_weighted_norm(w, x):
    """sqrt(<x, W x>) with W x the product of the metric's dense `matrix`,
    after the dimension check; for c I the product rounds as c x does,
    since every other term of its sums is an exact zero."""
    if x.shape[0] != w.dim:
        raise ContractViolation("dimension mismatch")
    return math.sqrt(max(float(x @ (w.matrix @ x)), 0.0))


def _reference_iterate(prob, x, theta, mu_hat=None):
    """One corrected step as `core` wrote it before the metrics bound
    their norms: a checked norm through the dense metric per norm, the
    view's `kernel_diff` and every inner product by `@`.  It returns the
    step's tuple, and the step must equal it bit for bit."""
    if mu_hat is not None and not mu_hat > 0.0:
        raise ContractViolation("mu_hat must be positive")
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(prob.fb_oracle(x), dtype=float)
    diff = x - x_hat
    residual = _reference_weighted_norm(prob.s_metric, diff)
    x_norm = _reference_weighted_norm(prob.s_metric, x)
    if coincides(residual, x_norm):
        return null_record(x, x_hat, theta, residual)
    m = prob.kernel_diff(x, x_hat, diff)
    pg = _reference_weighted_norm(prob.p_metric, diff)
    num = float(m @ diff) - 0.25 * prob.beta * pg * pg
    s_inv_m = prob.s_metric.solve(m)
    den = float(m @ s_inv_m)
    if separation_fails(num, den, residual, x_norm):
        return null_record(x, x_hat, theta, residual)
    mu = num / den
    if mu_hat is None:
        x_next = x - theta * mu * s_inv_m
    else:
        x_next = x - theta * mu_hat * s_inv_m
        theta = theta * mu_hat / mu
    return x_hat, x_next, mu, theta, residual, num, math.sqrt(den)


@pytest.fixture
def reference_iterate():
    """The step transcription every record of the one step is checked against."""
    return _reference_iterate


# ---------------------------------------------------------------------------
# the LCG stepped once per draw (cross-check reference)


def _uniform(gen):
    """Uniform double in [0, 1) from the top 53 bits of the next state:
    one step of the MMIX LCG, s <- (A s + C) mod 2^64, on `gen.state`."""
    gen.state = (6364136223846793005 * gen.state + 1442695040888963407) % 2 ** 64
    return (gen.state >> 11) * (1.0 / (1 << 53))


def _uniform_signed(gen):
    """Uniform double in [-1, 1): the one-at-a-time draw `Lcg64.vector`
    is checked against."""
    return 2.0 * _uniform(gen) - 1.0


@pytest.fixture
def scalar_draws():
    """Single draws from an `Lcg64`, one LCG step each, sharing its state."""
    return SimpleNamespace(uniform=_uniform, uniform_signed=_uniform_signed)


# ---------------------------------------------------------------------------
# one-level block fill of the LCG stream (cross-check reference)


def _block_fill_table(block):
    """(A^j, C_j) for j = 1..block as uint64 arrays, C_j = C (A^(j-1) + ... + 1),
    for the MMIX multiplier A and increment C."""
    a, c, mult, add = 1, 0, [], []
    for _ in range(block):
        a = 6364136223846793005 * a % 2 ** 64
        c = (6364136223846793005 * c + 1442695040888963407) % 2 ** 64
        mult.append(a)
        add.append(c)
    return np.array(mult, dtype=np.uint64), np.array(add, dtype=np.uint64)


_BLOCK_FILL_MULT, _BLOCK_FILL_ADD = _block_fill_table(512)


def _block_fill(gen, n):
    """`gen.vector(n)` by jump-ahead one 512-state block at a time, each
    block from the last state of the one before: the fill `Lcg64.vector`
    used before block starts came from a second table."""
    states = np.empty(n, dtype=np.uint64)
    s = gen.state
    for start in range(0, n, 512):
        block = states[start:start + 512]
        m = len(block)
        np.multiply(_BLOCK_FILL_MULT[:m], np.uint64(s), out=block)
        block += _BLOCK_FILL_ADD[:m]
        s = int(block[-1])
    gen.state = s
    return (states >> np.uint64(11)) * (1.0 / (1 << 52)) - 1.0


@pytest.fixture
def block_fill_reference():
    """One-level block fill the two-level `Lcg64.vector` is checked against."""
    return _block_fill


# ---------------------------------------------------------------------------
# Lanczos with scipy's tridiagonal eigensolver per step (cross-check reference)


def _lanczos_reference(matvec, n):
    """`linalg._lanczos_max` with the Ritz pair of every step from
    `scipy.linalg.eigh_tridiagonal(select="i")`, the call it made before it
    called LAPACK's dstebz and dstein itself; returns (theta, steps)."""
    basis = np.empty((n, n))
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
        theta, s = eigh_tridiagonal(alpha[:j + 1], beta[:j], select="i", select_range=(j, j))
        theta = float(theta[0])
        if b * abs(float(s[j, 0])) <= 4.0 * np.finfo(float).eps * abs(theta) or j + 1 == n:
            return theta, j + 1
        beta[j] = b
        basis[j + 1] = w / b


@pytest.fixture
def lanczos_reference():
    """Per-step eigh_tridiagonal Lanczos the direct LAPACK one is checked against."""
    return _lanczos_reference


# ---------------------------------------------------------------------------
# the active-set oracle's Newton path from x = 0 (cross-check transcription)


def _cold_start_oracle(a_mat, rhs, lam, t):
    """`problems._oracle_by_active_set` as it ran before its forward-backward
    warm start: damped semismooth Newton on F(x) = x - soft(u, t lam),
    u = x - t (A x - rhs), from x = 0.  Returns (x, full solves)."""
    tl = t * lam

    def u_and_residual(x):
        u = x - t * (a_mat @ x - rhs)
        return u, float(np.linalg.norm(x - np.sign(u) * np.maximum(np.abs(u) - tl, 0.0)))

    x = np.zeros_like(rhs)
    u, f_norm = u_and_residual(x)
    for solves in range(1, 101):
        act = np.abs(u) > tl
        shift = lam * np.sign(u[act])
        x_n = np.zeros_like(rhs)
        x_n[act] = np.linalg.solve(a_mat[np.ix_(act, act)], rhs[act] - shift)
        u_t, f_t = u_and_residual(x_n)
        if np.array_equal(np.abs(u_t) > tl, act) and np.array_equal(lam * np.sign(u_t[act]), shift):
            return x_n, solves
        x_t, alpha = x_n, 1.0
        while f_t > (1.0 - 1e-4 * alpha) * f_norm and alpha >= 1e-9:
            alpha *= 0.5
            x_t = x + alpha * (x_n - x)
            u_t, f_t = u_and_residual(x_t)
        x, u, f_norm = x_t, u_t, f_t
    raise AssertionError("the cold-start path did not settle in 100 Newton steps")


@pytest.fixture
def cold_start_oracle():
    """The Newton path from x = 0 the warm-started oracle is checked against."""
    return _cold_start_oracle


# ---------------------------------------------------------------------------
# a fresh interpreter with a chosen BLAS thread count


def _python_with_blas_threads(code, threads):
    """Run `code` in a fresh interpreter with `threads` BLAS threads and
    nofob's source and this directory on its path; its standard output,
    after asserting that it exited 0."""
    import nofob

    src = Path(nofob.__file__).resolve().parent.parent
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, (str(src), str(here), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture
def python_with_blas_threads():
    """Runs code where the BLAS thread count, fixed when numpy loads, is set."""
    return _python_with_blas_threads
