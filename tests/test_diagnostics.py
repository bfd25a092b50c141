import dataclasses
import math
from functools import wraps

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nofob.algorithms import run_algorithm
from nofob.cli import _corrupt
from nofob.core import NofobProblem, Trajectory, corrected_step, null_record, run_loop
from nofob.diagnostics import (_report, check_fejer, check_mu_bounds, check_separation,
                               fit_rate)
from nofob.linalg import ContractViolation, SpdMetric
from nofob.problems import (REGISTRY, get_instance, make_regularized_quadratic,
                            make_saddle_pd)
from nofob.rng import Lcg64

from conftest import accepted


def identity_kernel_problem(n=4):
    # A = I, C = 0, M = I: x_hat = (I + I)^{-1} x = x / 2
    return NofobProblem(
        fb_oracle=lambda x: np.asarray(x) / 2.0,
        p_metric=SpdMetric.identity(n),
        s_metric=SpdMetric.identity(n),
        beta=0.0,
        kernel_lipschitz=1.0,
        kernel_diff=lambda x, x_hat, d: np.subtract(x, x_hat, dtype=float),
    )


def unit_step(prob):
    return corrected_step(prob, 1.0)


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
    traj = Trajectory(records=recs, status="max_iter")
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


@pytest.mark.parametrize("name, algorithm", [
    ("regquad-full", "four-op"), ("saddle", "afba"),
])
def test_separation_fails_on_a_nan_solution(name, algorithm):
    # at x the condition holds; at a NaN z* it is NaN, which must fail
    out = run_algorithm(algorithm, get_instance(name))
    rep = check_separation(out.trajectory, out.nofob_view, np.full(out.z_star.shape, np.nan))
    assert not rep.passed
    assert np.isnan(rep.max_violation) and rep.first_violating_iter == 0


def test_separation_fails_on_a_nan_candidate():
    out, _ = convergent_run()
    records = list(out.trajectory.records)
    records[3] = dataclasses.replace(records[3], x_hat=np.full(records[3].x.shape, np.nan))
    traj = Trajectory(records, "converged")
    rep = check_separation(traj, out.nofob_view, out.z_star)
    assert not rep.passed
    assert np.isnan(rep.max_violation) and rep.first_violating_iter == 3


@pytest.mark.parametrize("z_star", [
    lambda n: 0.0, lambda n: np.zeros(1), lambda n: np.zeros(n - 1),
    lambda n: np.zeros(n + 1), lambda n: np.zeros((n, 1)), lambda n: np.zeros((1, n)),
])
def test_audits_reject_a_solution_of_the_wrong_shape(z_star):
    # a scalar or a length-1 z* used to broadcast into a report measured
    # against another point
    out = run_algorithm("four-op", get_instance("regquad-full", 1))
    traj, z = out.trajectory, z_star(out.z_star.shape[0])
    empty = Trajectory([], "converged")
    for t in (traj, empty):
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            check_fejer(t, z, out.s_metric)
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            check_separation(t, out.nofob_view, z)


def test_audits_reject_a_trajectory_of_the_wrong_dimension():
    # records of another dimension used to fail inside numpy, in a
    # broadcast or a matmul; the kernel difference never sees them
    runs = {name: run_algorithm("four-op", get_instance(name, 1))
            for name in ("regquad-full", "saddle", "rotation")}
    for audited, other in [("regquad-full", "saddle"), ("regquad-full", "rotation"),
                           ("saddle", "regquad-full")]:
        out, traj = runs[audited], runs[other].trajectory
        view = dataclasses.replace(
            out.nofob_view, kernel_diff=lambda x, x_hat, d: pytest.fail("kernel_diff called"))
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            check_fejer(traj, out.z_star, out.s_metric)
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            check_separation(traj, view, out.z_star)


def test_separation_fails_with_sign_flipped_kernel():
    out, inst = convergent_run()
    view = out.nofob_view
    flipped = dataclasses.replace(
        view,
        kernel_diff=lambda x, x_hat, d: -view.kernel_diff(x, x_hat, d),
    )
    rep = check_separation(out.trajectory, flipped, out.z_star)
    assert not rep.passed


def test_the_audit_reads_the_replaced_kernel_difference(audit_reference):
    out, _ = convergent_run()
    view, traj, z = out.nofob_view, out.trajectory, out.z_star
    kd = view.kernel_diff
    doubled = dataclasses.replace(view, kernel_diff=lambda x, x_hat, d: 2.0 * kd(x, x_hat, d))
    got = check_separation(traj, doubled, z)
    _assert_same_report(got, audit_reference.separation(traj, doubled, z))
    assert got != check_separation(traj, view, z)


@pytest.mark.parametrize("algorithm, problem", [
    ("four-op", "regquad-full"), ("fbs", "regquad-fbs"), ("four-op", "nonlinear-drift"),
])
def test_a_wrapped_kernel_difference_is_called_once_on_the_stacks(
        algorithm, problem, planted_nonlinear_drift):
    # a functools.wraps wrapper, as a tracing one is, sees the one call
    # the separation audit makes per trajectory
    inst = (planted_nonlinear_drift(20, 0) if problem == "nonlinear-drift"
            else get_instance(problem))
    out = run_algorithm(algorithm, inst)
    view, traj, z = out.nofob_view, out.trajectory, out.z_star
    calls = []

    @wraps(view.kernel_diff)
    def counted(x, x_hat, d):
        calls.append((x, x_hat, d))
        return view.kernel_diff(x, x_hat, d)

    wrapped = dataclasses.replace(view, kernel_diff=counted)
    assert check_separation(traj, wrapped, z) == check_separation(traj, view, z)
    assert len(calls) == 1
    x, x_hat, d = calls[0]
    assert np.array_equal(x, [r.x for r in traj.records])
    assert np.array_equal(x_hat, [r.x_hat for r in traj.records])
    assert np.array_equal(d, x - x_hat)


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


def test_mu_bounds_index_counts_the_null_steps():
    # the violation sits in record 1, after a null step
    prob = identity_kernel_problem()
    x = np.ones(4)
    moved = dataclasses.replace(corrected_step(prob, 1.0)(x), mu=50.0)
    traj = Trajectory([null_record(x, x, 1.0, 0.0), moved], "max_iter")
    rep = check_mu_bounds(traj, 0.0, prob.p_metric, prob.s_metric, 1.0)
    assert (rep.first_violating_iter, rep.max_violation, rep.passed) == (1, 49.0, False)


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


def test_mu_bounds_report_an_overflowing_lipschitz_constant():
    # L_M ** 2 overflows to inf, so the lower bound is 0; it raised
    # OverflowError before
    prob = identity_kernel_problem()
    traj = run_loop(unit_step(prob), np.ones(4), tol=1e-10, max_iter=20)
    rep = check_mu_bounds(traj, 0.0, prob.p_metric, prob.s_metric, 1e200)
    # every mu is 1, at the upper bound 1
    assert rep.passed and rep.max_violation == 0.0
    # the run the CLI's overflow control makes: P has entries near 1e308,
    # the first normal overflows, and its NaN mu fails the report
    out = run_algorithm("afba-fixed", get_instance("saddle"), tau=(1e308, 1e-308))
    view = out.nofob_view
    rep = check_mu_bounds(out.trajectory, view.beta, view.p_metric, out.s_metric,
                          view.kernel_lipschitz)
    assert view.kernel_lipschitz > 1e154  # its square is not a double
    assert not rep.passed and rep.first_violating_iter == 0
    assert math.isnan(rep.max_violation)


# ---------------------------------------------------------------------------
# the report assembly


_ABOVE_TOL = math.nextafter(1e-9, math.inf)

# violations and the position of the first failing one
REPORT_CASES = {
    "empty": ([], None),
    "passing": ([-1.0, 5e-10, -3.0, 0.0], None),
    "at-tol": ([-1.0, 1e-9, 0.0], None),
    "above-tol": ([-1.0, 1e-9, _ABOVE_TOL, 2.0], 2),
    "minus-inf": ([-1.0, 0.0, -math.inf, -2.0], 2),
    "plus-inf": ([-1.0, math.inf, 0.0], 1),
    "nan": ([-1.0, 0.0, 1.0, math.nan], 2),
    "nan-first": ([math.nan, -1.0, math.inf], 0),
    "signed-zeros": ([-0.0, 0.0, -0.0], None),
    "signed-zeros-reversed": ([0.0, -0.0, 0.0, -0.0], None),
}


@pytest.mark.parametrize("indexed", [False, True], ids=["records", "indexed"])
@pytest.mark.parametrize("case", list(REPORT_CASES))
def test_report_matches_the_full_assembly(audit_reference, case, indexed):
    violations, first = REPORT_CASES[case]
    index = np.arange(len(violations)) * 3 + 1 if indexed else None
    got = _report("audit", np.array(violations), 1e-9, index)
    _assert_same_report(got, audit_reference.report("audit", violations, 1e-9, index))
    if first is not None and indexed:
        first = int(index[first])
    assert (got.first_violating_iter, got.passed) == (first, first is None)
    finite = [v for v in violations if math.isfinite(v)]
    if len(finite) < len(violations):
        # the worst of a non-finite set is inf, or NaN where one is NaN
        assert repr(got.max_violation) == ("nan" if any(map(math.isnan, violations))
                                           else "inf")
    elif finite:
        assert got.max_violation == max(finite)


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
        fit_rate([0.5] * 30 + [0.0] * 30)


def test_fit_rate_drops_nonpositive_entries():
    c = 0.9
    res = [c**k for k in range(40)]
    res[25] = 0.0
    slope, _ = fit_rate(res)
    assert slope == pytest.approx(np.log(c), abs=1e-10)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_fit_rate_drops_non_finite_entries(value):
    slope, r2 = fit_rate([0.5**k for k in range(30)] + [value])
    assert slope == pytest.approx(np.log(0.5), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


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


# ---------------------------------------------------------------------------
# array-form audits against the per-record reference


def _assert_same_report(got, ref):
    # every field equal by repr: -0.0 is not 0.0, and a NaN violation
    # equals a NaN and nothing else
    assert list(map(repr, dataclasses.astuple(got))) == \
        list(map(repr, dataclasses.astuple(ref))), (got, ref)


def _assert_audits_match(out, audit_reference):
    """The three audits equal their references; returns the reports."""
    traj, z, s, view = out.trajectory, out.z_star, out.s_metric, out.nofob_view
    pairs = [(check_fejer(traj, z, s), audit_reference.fejer(traj, z, s))]
    if view is not None:
        mu_args = (traj, view.beta, view.p_metric, s, view.kernel_lipschitz)
        pairs.append((check_separation(traj, view, z),
                      audit_reference.separation(traj, view, z)))
        pairs.append((check_mu_bounds(*mu_args), audit_reference.mu_bounds(*mu_args)))
    for got, ref in pairs:
        _assert_same_report(got, ref)
    return [got for got, _ in pairs]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_audits_match_the_per_record_reference(seed, audit_reference,
                                               planted_nonlinear_drift):
    runs = 0
    for name in REGISTRY:
        inst = get_instance(name, seed)
        for algorithm in accepted(inst):
            out = run_algorithm(algorithm, inst)
            _assert_audits_match(out, audit_reference)
            runs += 1
    assert runs >= 40
    # the planted tanh D declares no matrix: the view applies it to the
    # stacks row by row
    out = run_algorithm("four-op", planted_nonlinear_drift(20, seed))
    _assert_audits_match(out, audit_reference)
    _assert_audits_match(dataclasses.replace(out, trajectory=_corrupt(out.trajectory)),
                         audit_reference)


def test_audits_match_the_reference_on_records_that_do_not_chain(audit_reference):
    # cli's negative control moves the point on both records that carry it;
    # moving one record's x_next onto z* alone breaks the chain in value,
    # and a distance carried over from it would fail the next record
    out, _ = convergent_run()
    records = list(out.trajectory.records)
    records[4] = dataclasses.replace(records[4], x_next=out.z_star.copy())
    for traj in (_corrupt(out.trajectory), Trajectory(records, "converged")):
        assert traj.records[5].x is not traj.records[4].x_next
        _assert_audits_match(dataclasses.replace(out, trajectory=traj), audit_reference)


def test_fejer_measures_a_record_that_does_not_chain_on_its_own(audit_reference):
    # record 4 ends on z* and record 5 starts far from it: record 4's
    # distance after is 0, not record 5's distance before, and both pass
    out, _ = convergent_run()
    records = list(out.trajectory.records)
    records[4] = dataclasses.replace(records[4], x_next=out.z_star.copy())
    records[5] = dataclasses.replace(records[5], x=records[5].x + 100.0)
    traj = Trajectory(records, "converged")
    rep = check_fejer(traj, out.z_star, out.s_metric)
    _assert_same_report(rep, audit_reference.fejer(traj, out.z_star, out.s_metric))
    assert rep.passed


# ---------------------------------------------------------------------------
# property: every accepted pair, across seeds and dimensions


def _build(name, seed, n, m):
    if name.startswith("regquad-"):
        return make_regularized_quadratic(n=n, seed=seed, split=name.partition("-")[2])
    if name == "saddle":
        return make_saddle_pd(n=n, m=m, seed=seed)
    return get_instance(name, seed)


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(REGISTRY))
    sized = name.startswith("regquad-") or name == "saddle"
    algorithm = draw(st.sampled_from(accepted(get_instance(name))))
    return (name, algorithm, draw(st.integers(0, 59)),
            draw(st.integers(2, 20)) if sized else None,
            draw(st.integers(1, 12)) if name == "saddle" else None,
            # at tol = 0 a run reaches the round-off floor and takes null steps
            draw(st.sampled_from([1e-8, 0.0])))


# audit_reference is a stateless namespace, so sharing it between examples is safe
@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cases())
@example(("saddle", "afba", 3, 8, 6, 0.0))
@example(("saddle", "afba-fixed", 5, 12, 4, 0.0))
@example(("saddle", "ps-explicit", 24, 19, 2, 0.0))
@example(("saddle", "ps-explicit", 16, 5, 3, 0.0))
def test_array_audits_match_the_references_and_pass(audit_reference, case):
    name, algorithm, seed, n, m, tol = case
    inst = _build(name, seed, n, m)
    out = run_algorithm(algorithm, inst, tol=tol, max_iter=200)
    reports = _assert_audits_match(out, audit_reference)
    _assert_audits_match(dataclasses.replace(out, trajectory=_corrupt(out.trajectory)),
                         audit_reference)
    if algorithm in accepted(inst, audited=True):
        # the unaudited rows are plain forward-backward, which has no
        # guarantee where its step has no separation
        assert all(r.passed for r in reports), [r.line() for r in reports]

