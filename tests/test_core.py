import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from nofob import algorithms
from nofob.algorithms import ALGORITHMS, run_algorithm
from nofob.core import (
    IterRecord,
    NofobProblem,
    corrected_step,
    run_loop,
)
from nofob.fourop import ScalarStep, as_nofob, gamma_bound_conservative, gamma_bound_long
from nofob.linalg import NOISE_TOL, ContractViolation, SpdMetric
from nofob.operators import CocoerciveMap, l1_subdifferential
from nofob.problems import (
    REGISTRY,
    get_instance,
    make_nonlinear_kernel_demo,
    make_regularized_quadratic,
    make_saddle_pd,
)
from nofob.rng import Lcg64

from conftest import accepted, one_record, step_tuple


def identity_kernel_problem(n=4):
    """A x = x, C = 0, M = I: x_hat = x / 2 and mu is identically 1."""
    return NofobProblem(
        fb_oracle=lambda x: x / 2.0,
        p_metric=SpdMetric.identity(n),
        s_metric=SpdMetric.identity(n),
        beta=0.0,
        kernel_lipschitz=1.0,
        kernel_diff=lambda x, x_hat, d: x - x_hat,
    )


def unit_step(prob):
    return corrected_step(prob, 1.0)


def test_identity_kernel_mu_is_one():
    prob = identity_kernel_problem()
    x = np.array([1.0, -2.0, 0.5, 3.0])
    rec = one_record(corrected_step(prob, 1.0), x)
    assert rec.mu == pytest.approx(1.0)
    assert np.allclose(rec.x_next, x / 2.0, atol=1e-14)


def test_psi_value_matches_manual_formula(psi_value):
    prob = identity_kernel_problem()
    rng = Lcg64(2)
    x, x_hat, z = rng.vector(4), rng.vector(4), rng.vector(4)
    manual = float((x - x_hat) @ (z - x_hat))
    assert psi_value(prob, x, x_hat, z) == pytest.approx(manual, abs=1e-14)


def test_unit_relaxation_lands_on_hyperplane(psi_value):
    prob = identity_kernel_problem()
    x = np.array([2.0, 0.0, -1.0, 1.0])
    rec = one_record(corrected_step(prob, 1.0), x)
    assert psi_value(prob, rec.x, rec.x_hat, rec.x_next) == pytest.approx(
        0.0, abs=1e-12
    )


def test_unit_relaxation_lands_on_hyperplane_in_metric(psi_value):
    # the S-projection onto the halfspace: on its boundary, and along
    # S^{-1} times the normal
    rng = Lcg64(3)
    r = rng.matrix(4, 4)
    s = SpdMetric(r @ r.T + np.eye(4))
    prob = NofobProblem(
        fb_oracle=lambda x: x / 2.0,
        p_metric=SpdMetric.identity(4),
        s_metric=s,
        beta=0.0,
        kernel_lipschitz=1.0,
        kernel_diff=lambda x, x_hat, d: x - x_hat,
    )
    x = rng.vector(4)
    rec = one_record(corrected_step(prob, 1.0), x)
    assert psi_value(prob, rec.x, rec.x_hat, rec.x_next) == pytest.approx(
        0.0, abs=1e-12
    )
    normal = rec.x - rec.x_hat
    step = s.matrix @ (rec.x - rec.x_next)
    assert np.allclose(step / np.linalg.norm(step), normal / np.linalg.norm(normal),
                       atol=1e-12)


def test_relaxation_scales_the_step():
    prob = identity_kernel_problem()
    x = np.array([2.0, 0.0, -1.0, 1.0])
    full = one_record(corrected_step(prob, 1.0), x)
    half = one_record(corrected_step(prob, 0.5), x)
    assert np.allclose(x - 0.5 * (x - full.x_next), half.x_next, atol=1e-14)


def test_coincidence_returns_identity_update():
    prob = identity_kernel_problem()
    prob_fixed = dataclasses.replace(prob, fb_oracle=lambda x: x)
    x = np.ones(4)
    rec = one_record(corrected_step(prob_fixed, 1.3), x)
    assert rec.mu == 0.0
    assert np.array_equal(rec.x_next, x)


def test_conservative_step_length_and_effective_relaxation():
    prob = identity_kernel_problem()
    x = np.array([4.0, 0.0, 0.0, 0.0])
    rec = one_record(corrected_step(prob, 1.0, mu_hat=0.4), x)
    assert rec.mu == pytest.approx(1.0)
    assert rec.theta == pytest.approx(0.4)
    # x_next = x - theta * mu_hat * (Mx - Mx_hat) = x - 0.4 * x/2
    assert np.allclose(rec.x_next, x - 0.4 * x / 2.0, atol=1e-14)


def test_conservative_midpoint_and_explicit_agreement():
    prob = identity_kernel_problem()
    x = np.array([4.0, -1.0, 2.0, 0.5])
    full = one_record(corrected_step(prob, 1.0), x)
    same = one_record(corrected_step(prob, 1.0, mu_hat=full.mu), x)
    assert np.allclose(same.x_next, full.x_next, atol=1e-14)
    half = one_record(corrected_step(prob, 1.0, mu_hat=full.mu / 2), x)
    assert np.allclose(half.x_next, 0.5 * (x + full.x_next), atol=1e-14)


def test_conservative_rejects_bad_parameters():
    prob = identity_kernel_problem()
    x = np.ones(4)
    with pytest.raises(ContractViolation):
        corrected_step(prob, 1.0, mu_hat=-0.5)(x)
    with pytest.raises(ContractViolation):
        corrected_step(prob, 1.0, mu_hat=0.0)(x)


def test_beta_out_of_range_rejected():
    with pytest.raises(ContractViolation):
        NofobProblem(
            fb_oracle=lambda x: x,
            p_metric=SpdMetric.identity(2),
            s_metric=SpdMetric.identity(2),
            beta=4.0,
            kernel_lipschitz=1.0,
            kernel_diff=lambda x, x_hat, d: x - x_hat,
        )


def test_a_view_needs_its_kernel_difference():
    # the step and the separation audit both take M x - M x_hat from it
    with pytest.raises(TypeError, match="kernel_diff"):
        NofobProblem(
            fb_oracle=lambda x: x,
            p_metric=SpdMetric.identity(2),
            s_metric=SpdMetric.identity(2),
            beta=0.0,
            kernel_lipschitz=1.0,
        )


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), 0.0, -1.0])
def test_kernel_lipschitz_outside_the_open_half_line_rejected(bound):
    with pytest.raises(ContractViolation, match="positive and finite"):
        NofobProblem(
            fb_oracle=lambda x: x,
            p_metric=SpdMetric.identity(2),
            s_metric=SpdMetric.identity(2),
            beta=0.0,
            kernel_lipschitz=bound,
            kernel_diff=lambda x, x_hat, d: x - x_hat,
        )


def test_run_converges_on_contraction():
    prob = identity_kernel_problem()
    traj = run_loop(unit_step(prob), np.ones(4), tol=1e-10, max_iter=200)
    assert traj.status == "converged"
    assert traj.records[-1].residual_s <= 1e-10


def test_run_loop_checks_convergence_before_stepping():
    prob = identity_kernel_problem()
    traj = run_loop(unit_step(prob), np.zeros(4), tol=1e-8, max_iter=50)
    assert traj.status == "converged"
    assert traj.iterations == 1


def test_run_loop_max_iter_status():
    prob = identity_kernel_problem()
    traj = run_loop(unit_step(prob), np.ones(4), tol=0.0, max_iter=10)
    assert traj.status == "max_iter"
    assert traj.iterations == 11  # iterations 0..max_iter inclusive


def test_run_loop_keeps_a_record_at_max_iter_zero():
    # final_x reads the last record, so even a run with no step past x0
    # keeps the record of x0, and its x is the iterate the run ends at
    prob = identity_kernel_problem()
    x0 = np.arange(1.0, 5.0)
    traj = run_loop(unit_step(prob), x0, tol=0.0, max_iter=0)
    assert (traj.status, traj.iterations) == ("max_iter", 1)
    assert traj.x.shape == (2, 4)
    assert np.array_equal(traj.final_x, traj.records[0].x)
    assert np.array_equal(traj.final_x, x0)


def test_run_loop_flags_non_finite_states():
    def bad_step(x):
        rec = one_record(corrected_step(identity_kernel_problem(), 1.0), x)
        return step_tuple(dataclasses.replace(rec, x_next=rec.x_next * np.inf))

    traj = run_loop(bad_step, np.ones(4), tol=0.0, max_iter=5)
    assert traj.status == "error"


@pytest.mark.parametrize("field", ["residual_s", "mu", "psi_at_x", "normal_inv_norm"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_run_loop_ends_at_a_non_finite_residual_or_step_length(field, value):
    prob = identity_kernel_problem()

    calls = itertools.count()

    def step(x):
        rec = one_record(corrected_step(prob, 1.0), x)
        return step_tuple(dataclasses.replace(rec, **{field: value}) if next(calls) == 2
                          else rec)

    traj = run_loop(step, np.ones(4), tol=0.0, max_iter=10)
    assert (traj.status, traj.iterations) == ("error", 3)
    assert np.array_equal(traj.final_x, traj.records[-1].x)


def test_run_loop_ends_an_overflowing_run_at_once(fbs_unchecked):
    # plain forward-backward diverges on this witness; without the fbs
    # rows' residual check its residual overflows at k = 954 and the run
    # ends there, keeping that record, with no numpy warning on the way:
    # the `error` status reports it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = fbs_unchecked(get_instance("regquad-fbhf", 12), max_iter=1000)
    assert [str(w.message) for w in caught] == []
    assert (traj.status, traj.iterations) == ("error", 955)
    assert traj.records[-1].residual_s == np.inf
    assert all(np.isfinite(rec.residual_s) for rec in traj.records[:-1])
    assert np.isfinite(traj.final_x).all()


def scripted_step(residuals):
    """A step that records the next scripted residual and moves x by 1."""
    script = iter(residuals)
    return lambda x: (x, x + 1.0, 1.0, 1.0, next(script), 1.0, 1.0)


def test_run_loop_ends_a_monotone_run_violated_at_its_first_rise():
    # a rise up to NOISE_TOL * (1 + r) is round-off; the first larger one
    # ends the run and keeps its record, and unchecked the same steps run on
    r = 0.5
    tie = r + NOISE_TOL * (1.0 + r)
    residuals = [r, tie, tie, np.nextafter(tie + NOISE_TOL * (1.0 + tie), np.inf), 0.1]
    traj = run_loop(scripted_step(residuals), np.zeros(2), 0.0, 10, monotone_residual=True)
    assert (traj.status, traj.iterations) == ("violated", 4)
    assert [rec.residual_s for rec in traj.records] == residuals[:4]
    assert np.array_equal(traj.final_x, [3.0, 3.0])
    traj = run_loop(scripted_step(residuals), np.zeros(2), 0.0, 4)
    assert (traj.status, traj.iterations) == ("max_iter", 5)


@pytest.mark.parametrize("tol", [-1.0, np.inf, np.nan])
def test_run_loop_rejects_a_negative_or_non_finite_tol(tol):
    prob = identity_kernel_problem()
    with pytest.raises(ContractViolation, match="tol must be finite and nonnegative"):
        run_loop(unit_step(prob), np.ones(4), tol=tol, max_iter=5)


def test_fejer_decrease_in_custom_metric():
    rng = Lcg64(8)
    r = rng.matrix(4, 4)
    s = SpdMetric(r @ r.T + 2.0 * np.eye(4))
    prob = NofobProblem(
        fb_oracle=lambda x: x / 2.0,
        p_metric=SpdMetric.identity(4),
        s_metric=s,
        beta=0.0,
        kernel_lipschitz=1.0,
        kernel_diff=lambda x, x_hat, d: x - x_hat,
    )
    x = rng.vector(4)
    z = np.zeros(4)
    for _ in range(30):
        rec = one_record(corrected_step(prob, 1.4), x)
        assert s.norm(rec.x_next - z) <= s.norm(x - z) + 1e-12
        x = rec.x_next


def test_failed_separation_is_null_at_noise_level_and_raises_above():
    # M = -I turns the halfspace around, so separation fails at every x
    def reversed_kernel(shift):
        return NofobProblem(
            fb_oracle=lambda x: x - shift,
            p_metric=SpdMetric.identity(4),
            s_metric=SpdMetric.identity(4),
            beta=0.0,
            kernel_lipschitz=1.0,
            kernel_diff=lambda x, x_hat, d: x_hat - x,
        )

    x = np.ones(4)
    noise = one_record(corrected_step(reversed_kernel(1e-10), 1.0), x)
    assert noise.residual_s > 1e-14 * (1.0 + 2.0)
    assert noise.mu == 0.0
    assert np.array_equal(noise.x_next, x)
    with pytest.raises(ContractViolation, match="separation failed"):
        corrected_step(reversed_kernel(1e-6), 1.0)(x)


# ---------------------------------------------------------------------------
# the step bit for bit against its reference transcription


def _outcome(name, inst):
    """A run's status, final iterate and records, or the exception it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = run_algorithm(name, inst)
    except ContractViolation as exc:
        return f"raised {exc}"
    traj = out.trajectory
    return traj.status, traj.final_x, traj.records


def _assert_same_run(got, expected, label):
    """Every field of every record equal: arrays by bytes, floats by repr."""
    assert type(got) is type(expected), label
    if isinstance(got, str):
        assert got == expected, label
        return
    assert got[0] == expected[0], label
    assert got[1].tobytes() == expected[1].tobytes(), label
    assert len(got[2]) == len(expected[2]), label
    for k, (a, b) in enumerate(zip(got[2], expected[2])):
        for field in dataclasses.fields(IterRecord):
            u, v = getattr(a, field.name), getattr(b, field.name)
            if isinstance(v, np.ndarray):
                assert (u.dtype, u.shape, u.tobytes()) == (v.dtype, v.shape, v.tobytes()), \
                    (label, k, field.name)
            else:
                assert repr(u) == repr(v), (label, k, field.name)


def _runs_match_the_reference(monkeypatch, reference_iterate, cases):
    """Each (label, instance) through every algorithm, once with the step
    and once with the reference transcription in its place."""
    compared = 0
    for label, inst in cases:
        for name in ALGORITHMS:
            got = _outcome(name, inst)
            with monkeypatch.context() as m:
                m.setattr(algorithms, "corrected_step", lambda view, theta, mu_hat=None:
                          lambda x: reference_iterate(view, x, theta, mu_hat))
                expected = _outcome(name, inst)
            _assert_same_run(got, expected, f"{label} {name}")
            compared += not isinstance(got, str)
    return compared


@pytest.mark.parametrize("problem", REGISTRY)
def test_the_step_equals_its_reference_bit_for_bit_on_the_registry(
        problem, monkeypatch, reference_iterate):
    # seeds 0-4 through every algorithm the instance accepts, among them
    # afba-fixed's unit step in its dense S = P and ps-explicit's oracle
    cases = [(f"{problem}/{seed}", get_instance(problem, seed)) for seed in range(5)]
    assert _runs_match_the_reference(monkeypatch, reference_iterate, cases) >= 5


def test_the_step_equals_its_reference_bit_for_bit_at_n_200(monkeypatch, reference_iterate):
    # the bisection-free nonlinear resolvent and the summed products at
    # n = 200, and afba-fixed's unit step in its dense S = P of dimension 350
    cases = [("nonlinear-kernel/n=200", make_nonlinear_kernel_demo(n=200, seed=3)[0]),
             ("regquad-full/n=200", make_regularized_quadratic(n=200, seed=3, split="full")),
             ("saddle/n=200,m=150", make_saddle_pd(n=200, m=150, seed=3))]
    assert _runs_match_the_reference(monkeypatch, reference_iterate, cases) >= 23


@pytest.mark.parametrize("problem", REGISTRY)
def test_a_run_equals_a_loop_of_nofob_iterate_bit_for_bit(problem, monkeypatch):
    # run_algorithm binds the step once per run; every record must be the
    # one a step bound afresh at each iteration gives
    inst = get_instance(problem, 0)
    bound = []

    def per_step(view, theta, mu_hat=None):
        bound.append(view)
        return lambda x: corrected_step(view, theta, mu_hat)(x)

    rows = accepted(inst)
    for name in rows:
        got = _outcome(name, inst)
        with monkeypatch.context() as m:
            m.setattr(algorithms, "corrected_step", per_step)
            expected = _outcome(name, inst)
        assert not isinstance(got, str), (problem, name, got)
        _assert_same_run(got, expected, f"{problem} {name}")
    assert len(bound) == len(rows)


# ---------------------------------------------------------------------------
# what the fast paths of the step and the loop must keep


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_non_finite_entry_of_x_next_ends_the_run_at_that_record(value):
    prob = identity_kernel_problem()

    calls = itertools.count()

    def step(x):
        rec = one_record(corrected_step(prob, 1.0), x)
        if next(calls) == 2:
            rec.x_next = rec.x_next.copy()
            rec.x_next[1] = value
        return step_tuple(rec)

    traj = run_loop(step, np.ones(4), tol=0.0, max_iter=10)
    assert (traj.status, traj.iterations) == ("error", 3)
    np.testing.assert_equal(traj.records[-1].x_next[1], value)
    assert np.array_equal(traj.final_x, traj.records[-1].x)


def test_huge_finite_entries_of_x_next_do_not_end_the_run():
    # their sum and their norm overflow; x_next is finite all the same
    prob = identity_kernel_problem()
    huge = np.array([1e308, -1e308, 1e308, 1e308])

    calls = itertools.count()

    def step(x):
        rec = one_record(corrected_step(prob, 1.0), x)
        if next(calls) == 2:
            rec.x_next = huge.copy()
        return step_tuple(rec)

    traj = run_loop(step, np.ones(4), tol=0.0, max_iter=2)
    assert (traj.status, traj.iterations) == ("max_iter", 3)
    assert np.array_equal(traj.records[-1].x_next, huge)


@pytest.mark.parametrize("algorithm", ["four-op", "fbhf-long"])
@pytest.mark.parametrize("kind", ["identity", "scaled", "dense"])
def test_a_metric_of_the_wrong_dimension_is_rejected(algorithm, kind):
    # the scalar kernel the row builds on regquad-full, at its default gamma
    inst = get_instance("regquad-full", 0)
    c = inst.constants
    bound = {"four-op": gamma_bound_conservative(c["beta_e"], c["l_d"], c["k_norm"], 0.0),
             "fbhf-long": gamma_bound_long(c["beta_e"], c["l_d"], 0.0)}[algorithm]
    spec = ScalarStep(0.9 * bound)
    n = inst.bundle.dim
    row_p = run_algorithm(algorithm, inst, max_iter=0).nofob_view.p_metric
    assert as_nofob(inst.bundle, spec, SpdMetric.identity(n)).p_metric.lam_min == row_p.lam_min
    s = {"identity": lambda: SpdMetric.identity(n - 1),
         "scaled": lambda: SpdMetric.scaled_identity(2.0, n - 1),
         "dense": lambda: SpdMetric(np.eye(n - 1) + 0.1 * np.ones((n - 1, n - 1)))}[kind]()
    with pytest.raises(ContractViolation, match="dimension mismatch"):
        as_nofob(inst.bundle, spec, s)


def test_a_candidate_of_another_shape_is_rejected_by_the_step():
    # a length-1 x_hat broadcast through x - x_hat: the run ended
    # `converged` on length-1 candidates, and the Fejer audit passed it
    prob = dataclasses.replace(identity_kernel_problem(3), fb_oracle=lambda x: np.array([0.0]))
    with pytest.raises(ContractViolation, match="dimension mismatch"):
        run_loop(unit_step(prob), np.ones(3), tol=1e-8, max_iter=50)
    prob = dataclasses.replace(prob, fb_oracle=lambda x: np.zeros((1, 3)))
    with pytest.raises(ContractViolation, match="dimension mismatch"):
        corrected_step(prob, 1.0)(np.ones(3))


def test_a_trajectory_of_inconsistent_shapes_is_rejected():
    # a chain of k + 1 rows, k x n candidates and length-k columns; a
    # one-row x_hat would broadcast against the chain in the audits
    traj = run_loop(unit_step(identity_kernel_problem()), np.ones(4), tol=0.0, max_iter=3)
    assert (traj.x.shape, traj.x_hat.shape, traj.mu.shape) == ((5, 4), (4, 4), (4,))
    for change in (dict(x=traj.x[:-1]), dict(x=traj.x.ravel()), dict(x_hat=traj.x_hat[:1]),
                   dict(x_hat=traj.x_hat[:, :1]), dict(mu=traj.mu[:-1]),
                   dict(mu=traj.mu[:, None]), dict(theta=traj.theta[:, None])):
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            dataclasses.replace(traj, **change)


@pytest.mark.parametrize("problem", REGISTRY)
def test_a_trajectory_owns_exactly_its_rows(problem, perfbench_workloads):
    # perfbench's result_mb counts the base of every array a run holds
    # once; slack rows in a base, as an array grown by doubling keeps,
    # would count too.  Every run on the instance, whatever its status.
    inst = get_instance(problem, 0)
    for name in accepted(inst):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = run_algorithm(name, inst)
        traj = out.trajectory
        for a in (traj.x, traj.x_hat, traj.mu, traj.theta, traj.residual_s, traj.psi_at_x,
                  traj.normal_inv_norm):
            assert a.base is None or a.base.nbytes == a.nbytes, (problem, name)
        k, n = traj.x_hat.shape
        assert perfbench_workloads.result_bytes(out) == (2 * k + 1) * n * 8, (problem, name)


def test_an_iterate_of_the_wrong_dimension_is_rejected_by_the_step():
    prob = identity_kernel_problem()
    with pytest.raises(ContractViolation, match="dimension mismatch"):
        corrected_step(prob, 1.0)(np.ones(3))
    with pytest.raises(ContractViolation, match="dimension mismatch"):
        dataclasses.replace(prob, p_metric=SpdMetric.identity(3))


# ---------------------------------------------------------------------------
# a null step ends the run


def _stepped_by_hand(monkeypatch, name, inst, **kwargs):
    """The run's trajectory, after checking that it ends at its first null
    record and that each record is the one its bound step gives when
    driven by hand from x0, as a loop that never stops early would drive
    it; and that one more step from a null record repeats it."""
    bound = []

    def keep(view, theta, mu_hat=None):
        bound.append(corrected_step(view, theta, mu_hat))
        return bound[-1]

    with monkeypatch.context() as m:
        m.setattr(algorithms, "corrected_step", keep)
        traj = run_algorithm(name, inst, **kwargs).trajectory
    null = traj.mu == 0.0
    assert not null[:-1].any(), name
    if null[-1]:
        assert traj.status == ("converged" if traj.residual_s[-1] == 0.0 else "stalled"), name
        assert traj.x[-1].tobytes() == traj.x[-2].tobytes(), name
    x = np.array(inst.x0, dtype=float)
    for k in range(traj.iterations + int(null[-1])):
        out = bound[0](x)
        row = min(k, traj.iterations - 1)
        assert out[0].tobytes() == traj.x_hat[row].tobytes(), (name, k)
        assert out[1].tobytes() == traj.x[row + 1].tobytes(), (name, k)
        assert out[2:] == (traj.mu[row], traj.theta[row], traj.residual_s[row],
                           traj.psi_at_x[row], traj.normal_inv_norm[row]), (name, k)
        x = out[1]
    return traj


def _scaled_regquad_fbs(c, seed):
    """regquad-fbs with b, lam, z* and x0 times c: x solves the original
    problem exactly when c x solves this one."""
    inst = make_regularized_quadratic(seed=seed, split="fbs")
    e = inst.bundle.e
    bundle = dataclasses.replace(
        inst.bundle, b=l1_subdifferential(c * 0.1),
        e=CocoerciveMap.affine(e.matrix, c * e.shift, e.inverse_cocoercivity))
    return dataclasses.replace(inst, bundle=bundle, oracle=c * inst.oracle, x0=c * inst.x0)


@pytest.mark.parametrize("name", ["fbhf", "fbhf-long", "four-op", "fbs", "fbs-relaxed"])
def test_a_run_at_scale_1e6_ends_stalled_at_its_first_null_record(name, monkeypatch):
    # at c = 1e6 the run solves the problem to round-off, but its residual
    # stays above the absolute default tol: it used to repeat its first null
    # record up to max_iter (863-928 of 1001 records at seed 0)
    inst = _scaled_regquad_fbs(1e6, seed=0)
    traj = _stepped_by_hand(monkeypatch, name, inst)
    assert traj.status == "stalled"
    z = inst.oracle
    assert np.linalg.norm(traj.final_x - z) <= 1e-13 * np.linalg.norm(z)


@pytest.mark.parametrize("problem", REGISTRY)
def test_a_run_at_tol_0_ends_at_its_first_null_record(problem, monkeypatch):
    # every row with a separation to audit reaches a null record at tol 0;
    # the fbs rows on a problem whose forward part is not cocoercive may
    # end violated first (0.1 s for the whole registry)
    inst = get_instance(problem, 0)
    audited = accepted(inst, audited=True)
    for name in accepted(inst):
        traj = _stepped_by_hand(monkeypatch, name, inst, tol=0.0, max_iter=600)
        if name in audited:
            assert traj.mu[-1] == 0.0, name
        else:
            assert traj.mu[-1] == 0.0 or traj.status == "violated", name
