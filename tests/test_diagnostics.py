import dataclasses

import numpy as np
import pytest

from nofob.algorithms import run_algorithm
from nofob.core import NofobProblem, Trajectory, nofob_iterate, run_loop
from nofob.diagnostics import check_fejer, check_mu_bounds, check_separation, fit_rate
from nofob.linalg import ContractViolation, SpdMetric
from nofob.problems import get_instance
from nofob.rng import Lcg64


def identity_kernel_problem(n=4):
    # A = I, C = 0, M = I: x_hat = (I + I)^{-1} x = x / 2
    return NofobProblem(
        fb_oracle=lambda k, x: np.asarray(x) / 2.0,
        kernel_eval=lambda k, x: np.asarray(x, dtype=float),
        p_metric=SpdMetric.identity(n),
        s_metric=SpdMetric.identity(n),
        beta=0.0,
        kernel_lipschitz=1.0,
    )


def unit_step(prob):
    return lambda k, x: nofob_iterate(prob, k, x, 1.0)


def convergent_run(name="regquad-full", algorithm="four-op", **kw):
    inst = get_instance(name)
    return run_algorithm(algorithm, inst, **kw), inst


def corrupt(traj: Trajectory, idx: int, bump: float = 1.0) -> Trajectory:
    # perturb the shared trajectory point on both sides of step idx
    recs = list(traj.records)
    recs[idx] = dataclasses.replace(recs[idx], x=recs[idx].x + bump)
    if idx > 0:
        recs[idx - 1] = dataclasses.replace(
            recs[idx - 1], x_next=recs[idx - 1].x_next + bump
        )
    return dataclasses.replace(traj, records=tuple(recs))


# ---------------------------------------------------------------------------
# Fejer


def test_fejer_stationary_trajectory_passes():
    prob = identity_kernel_problem()
    z = np.zeros(4)
    traj = run_loop(unit_step(prob), z, tol=1e-12, max_iter=5)
    rep = check_fejer(traj, z, prob.s_metric)
    assert rep.passed and rep.max_violation <= 0.0


def test_fejer_passes_on_all_registered_runs():
    for name, alg in [
        ("rotation", "fbf"), ("regquad-fbs", "fbs"), ("regquad-fbhf", "fbhf"),
        ("regquad-full", "four-op"), ("saddle", "ps-resolvent"),
        ("nonlinear-kernel", "four-op"),
    ]:
        out, inst = convergent_run(name, alg)
        rep = check_fejer(out.trajectory, out.z_star, out.s_metric)
        assert rep.passed, f"{name}/{alg}: {rep.line()}"


def test_fejer_fails_on_corrupted_trajectory():
    out, inst = convergent_run()
    bad = corrupt(out.trajectory, 5)
    rep = check_fejer(bad, out.z_star, out.s_metric)
    assert not rep.passed
    assert rep.first_violating_iter in (4, 5)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("bad_first", [False, True])
def test_fejer_fails_on_a_non_finite_record_in_either_order(value, bad_first):
    prob = identity_kernel_problem()
    z = np.zeros(4)
    good = run_loop(unit_step(prob), np.ones(4), tol=0.0, max_iter=1).records[0]
    bad = dataclasses.replace(good, x_next=np.full(4, value))
    recs = [bad, good] if bad_first else [good, bad]
    traj = Trajectory(records=recs, final_x=bad.x_next, status="max_iter")
    rep = check_fejer(traj, z, prob.s_metric)
    assert not rep.passed
    assert str(rep.max_violation) == str(value)
    assert rep.first_violating_iter == (0 if bad_first else 1)


# ---------------------------------------------------------------------------
# separation


def test_separation_passes_on_convergent_run():
    out, inst = convergent_run()
    rep = check_separation(out.trajectory, out.nofob_view, out.z_star)
    assert rep.passed


def test_separation_at_solution_is_exact():
    prob = identity_kernel_problem()
    z = np.zeros(4)
    traj = run_loop(unit_step(prob), z, tol=1e-12, max_iter=3)
    rep = check_separation(traj, prob, z)
    assert rep.passed and rep.max_violation <= 0.0


def test_separation_fails_with_sign_flipped_kernel():
    out, inst = convergent_run()
    view = out.nofob_view
    flipped = dataclasses.replace(
        view,
        kernel_eval=lambda k, x: -view.kernel_eval(k, x),
        kernel_diff=lambda k, x, x_hat: -view.kernel_difference(k, x, x_hat),
    )
    rep = check_separation(out.trajectory, flipped, out.z_star)
    assert not rep.passed


# ---------------------------------------------------------------------------
# mu bounds


def test_mu_bounds_identity_kernel_is_tight():
    prob = identity_kernel_problem()
    x0 = np.array([3.0, -1.0, 2.0, 0.5])
    traj = run_loop(unit_step(prob), x0, tol=1e-10, max_iter=100)
    # beta = 0, S = P = I, L_M = 1: bounds are [1, 1] and mu is exactly 1
    rep = check_mu_bounds(traj, 0.0, prob.p_metric, prob.s_metric, 1.0)
    assert rep.passed
    for rec in traj.records[:-1]:
        assert rec.mu == pytest.approx(1.0, abs=1e-12)


def test_mu_bounds_skip_exactly_the_null_steps():
    prob = identity_kernel_problem()
    traj = run_loop(unit_step(prob), np.ones(4), tol=0.0, max_iter=80)
    still = [np.array_equal(rec.x_next, rec.x) for rec in traj.records]
    assert 0 < sum(still) < len(traj.records)
    assert all((rec.mu == 0.0) == s for rec, s in zip(traj.records, still))
    assert check_mu_bounds(traj, 0.0, prob.p_metric, prob.s_metric, 1.0).passed
    # a null step recorded as moved would break the lower bound
    stuck = dataclasses.replace(traj.records[-1], mu=0.5)
    bad = dataclasses.replace(traj, records=traj.records[:-1] + [stuck])
    assert not check_mu_bounds(bad, 0.0, prob.p_metric, prob.s_metric, 1.0).passed


def test_mu_bounds_pass_on_four_op_run():
    out, inst = convergent_run()
    view = out.nofob_view
    rep = check_mu_bounds(
        out.trajectory, view.beta, view.p_metric, view.s_metric,
        view.kernel_lipschitz,
    )
    assert rep.passed


def test_mu_bounds_fail_when_lipschitz_understated():
    out, inst = convergent_run()
    view = out.nofob_view
    # claiming a tiny L_M raises the lower bound above the observed mu
    rep = check_mu_bounds(
        out.trajectory, view.beta, view.p_metric, view.s_metric, 1e-3
    )
    assert not rep.passed


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_rate_exact_geometric():
    c = 0.8
    res = [c**k for k in range(60)]
    slope, r2 = fit_rate(res)
    assert slope == pytest.approx(np.log(c), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_constant_sequence():
    slope, r2 = fit_rate([2.5] * 40)
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_insufficient_data():
    with pytest.raises(ContractViolation):
        fit_rate([0.5] * 5)
    with pytest.raises(ContractViolation):
        fit_rate([0.5] * 30 + [0.0] * 30, tail_fraction=0.5)


def test_fit_rate_drops_nonpositive_entries():
    c = 0.9
    res = [c**k for k in range(40)]
    res[25] = 0.0
    slope, _ = fit_rate(res)
    assert slope == pytest.approx(np.log(c), abs=1e-10)


def test_fit_rate_on_rotation_fbf_matches_contraction():
    inst = get_instance("rotation")
    out = run_algorithm("fbf", inst, gamma=0.7, max_iter=500)
    residuals = [rec.residual_s for rec in out.trajectory.records]
    slope, _ = fit_rate(residuals)
    expected = np.log(np.sqrt((1 - 0.49) ** 2 + 0.49))
    assert abs(slope - expected) <= 0.1 * abs(expected)


# ---------------------------------------------------------------------------
# determinism


def test_checkers_are_pure():
    out, inst = convergent_run()
    a = check_fejer(out.trajectory, out.z_star, out.s_metric)
    b = check_fejer(out.trajectory, out.z_star, out.s_metric)
    assert a == b
