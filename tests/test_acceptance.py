"""End-to-end acceptance suite.

Each test verifies one headline property of the toolkit at its stated
tolerance and prints a single pass line; pytest -v therefore yields one
pass/fail line per criterion.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from nofob.algorithms import ROWS, run_algorithm
from nofob.core import corrected_step
from nofob.diagnostics import check_fejer, check_mu_bounds, check_separation, fit_rate
from nofob.fourop import (
    BlockDiag,
    FourOpProblem,
    ScalarStep,
    as_nofob,
    epsbar_delta,
    gamma_bound_conservative,
    gamma_bound_long,
)
from nofob.linalg import SpdMetric
from nofob.operators import CocoerciveMap, LipschitzMap, SkewMap, zero_operator
from nofob.problems import REGISTRY, fixed_point_residual, get_instance
from nofob.rng import Lcg64

from conftest import one_record

COMPAT = {
    "rotation": ("fbf", "fbf-long", "four-op"),
    "regquad-fbs": ("fbs", "fbs-relaxed", "fbhf", "fbhf-long", "four-op"),
    "regquad-fbhf": ("fbhf", "fbhf-long", "four-op"),
    "regquad-fbf": ("fbf", "fbf-long", "four-op"),
    "regquad-full": ("four-op",),
    "saddle": ("afba", "afba-fixed", "ps-explicit", "ps-resolvent", "four-op"),
    "nonlinear-kernel": ("four-op",),
}


def convergent_pairs():
    """Problem x algorithm pairs expected to converge, one run each."""
    for name, algos in COMPAT.items():
        for algo in algos:
            yield name, algo


def passed(msg):
    print(f"[PASS] {msg}")


def test_fixed_point_certificates():
    worst = 0.0
    for name, algo in convergent_pairs():
        inst = get_instance(name)
        out = run_algorithm(algo, dataclasses.replace(inst, x0=inst.oracle),
                            tol=1e-9, max_iter=5)
        assert out.trajectory.status == "converged", f"{name}/{algo}"
        worst = max(worst, out.trajectory.records[0].residual_s)
    assert worst <= 1e-9
    passed(f"fixed-point certificates on all kernels, worst residual {worst:.2e}")


def long_runs():
    """Convergent runs forced deep enough to record >= 100 iterations."""
    outs = []
    for name, algo in convergent_pairs():
        inst = get_instance(name)
        out = run_algorithm(algo, inst, tol=1e-13, max_iter=400)
        outs.append((name, algo, out))
    return outs


def test_separation_suite():
    counted = 0
    for name, algo, out in long_runs():
        if out.nofob_view is None:
            continue
        rep = check_separation(out.trajectory, out.nofob_view, out.z_star)
        assert rep.passed, f"{name}/{algo}: {rep.line()}"
        if out.trajectory.iterations >= 100:
            counted += 1
    assert counted >= 7
    passed(f"separation holds on {counted} pairs with >= 100 iterations")


def test_fejer_suite_with_negative_control():
    checked = 0
    sample = None
    for name, algo, out in long_runs():
        rep = check_fejer(out.trajectory, out.z_star, out.s_metric)
        assert rep.passed, f"{name}/{algo}: {rep.line()}"
        checked += 1
        if sample is None and len(out.trajectory.records) > 6:
            sample = out
    # row 5 of the chain is record 5's x and record 4's x_next
    x = sample.trajectory.x.copy()
    x[5] += 1.0
    bad = dataclasses.replace(sample.trajectory, x=x)
    assert not check_fejer(bad, sample.z_star, sample.s_metric).passed
    passed(f"Fejer decrease on {checked} runs; corrupted control detected")


def test_mu_bound_suite_and_fbs_closed_form():
    for name, algo, out in long_runs():
        if out.nofob_view is None:
            continue
        view = out.nofob_view
        rep = check_mu_bounds(
            out.trajectory, view.beta, view.p_metric, view.s_metric,
            view.kernel_lipschitz,
        )
        assert rep.passed, f"{name}/{algo}: {rep.line()}"
    inst = get_instance("regquad-fbs")
    out = run_algorithm("fbs", inst, tol=1e-10)
    g = out.gamma
    be = inst.constants["beta_e"]
    closed = g * (1.0 - be * g / 4.0)
    for rec in out.trajectory.records[:-1]:
        assert rec.mu == pytest.approx(closed, abs=1e-12)
    passed(f"mu within a priori bounds; FBS closed form {closed:.6f} exact")


def test_rotation_witness_rates(fbs_unchecked):
    inst = get_instance("rotation")
    fbf = run_algorithm("fbf", inst, gamma=0.7, tol=1e-8, max_iter=500)
    assert fbf.trajectory.status == "converged"
    iters = fbf.trajectory.iterations
    assert iters <= 500
    slope, _ = fit_rate([r.residual_s for r in fbf.trajectory.records])
    expected = np.log(np.sqrt((1 - 0.49) ** 2 + 0.49))
    assert abs(slope - expected) <= 0.1 * abs(expected)

    # the fbs row ends this run `violated` at record 1; without the check
    # the loop shows the paper's witness, growth by sqrt(1 + gamma^2)
    fb = fbs_unchecked(inst, gamma=0.7, max_iter=300)
    assert fb.status == "max_iter"
    res = np.array([r.residual_s for r in fb.records])
    factors = res[-50:][1:] / res[-50:][:-1]
    assert np.allclose(factors, np.sqrt(1 + 0.49), rtol=0.01)
    passed(
        f"rotation: FBF rate {slope:+.4f} vs {expected:+.4f} in {iters} iters; "
        f"plain FB grows by {factors.mean():.4f}/iter"
    )


def test_specialization_coherence_everywhere(long_step_reference):
    worst = 0.0
    for name in REGISTRY:
        inst = get_instance(name)
        prob = inst.bundle
        be = prob.e.inverse_cocoercivity
        ld = prob.d.lipschitz_constant
        bound = gamma_bound_long(be, ld, 0.05)
        g = min(0.9 * bound, 1.0)
        s = SpdMetric.identity(prob.dim)
        view = as_nofob(prob, ScalarStep(g), s)
        x = inst.x0.copy()
        for _ in range(100):
            ref_next, _ = long_step_reference(prob, g, x, 1.0, s)
            rec = one_record(corrected_step(view, 1.0), x)
            worst = max(worst, float(np.max(np.abs(ref_next - rec.x_next))))
            x = rec.x_next
    assert worst <= 1e-12
    passed(f"specializations coincide on all problems, worst dev {worst:.2e}")


def test_fbs_redundant_projection_identity(fbs_relaxed_reference):
    inst = get_instance("regquad-fbs")
    prob = inst.bundle
    be = inst.constants["beta_e"]
    g = 1.2 / be
    theta = 1.3
    m_metric = SpdMetric.identity(prob.dim)
    view = as_nofob(prob, ScalarStep(g), m_metric)
    x = inst.x0.copy()
    worst = 0.0
    for _ in range(100):
        direct = fbs_relaxed_reference(prob.b, prob.e, g, theta, x)
        generic = one_record(corrected_step(view, theta), x)
        worst = max(worst, float(np.max(np.abs(direct - generic.x_next))))
        x = direct
    assert worst <= 1e-12
    passed(f"FBS redundant-projection identity holds, worst dev {worst:.2e}")


def test_projective_splitting_equivalence(ps_explicit_step):
    inst = get_instance("saddle")
    ps = inst.ps_view
    view = as_nofob(ps.stacked, BlockDiag([1.0, 1.0]), SpdMetric.identity(ps.stacked.dim))
    a = b = inst.x0
    worst = 0.0
    for _ in range(200):
        a = ps_explicit_step(ps, a, 1.0).x_next
        b = one_record(corrected_step(view, 1.0), b).x_next
        worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-10
    dist = float(np.linalg.norm(a - inst.oracle))
    assert dist <= 1e-7
    passed(
        f"explicit/resolvent trajectories agree to {worst:.2e}; "
        f"KKT distance {dist:.2e}"
    )


def test_step_size_formula_grid_and_mu_bound_sampling(scalar_draws):
    rng, uniform = Lcg64(101), scalar_draws.uniform
    checked = 0
    for _ in range(10):
        be = 3.0 * uniform(rng)
        ld = 2.0 * uniform(rng)
        kn = 2.0 * uniform(rng)
        eps = 0.05 + 0.4 * uniform(rng)
        # independent transcriptions of the published formulas
        long_ref = min((4.0 - eps) / (be + 4.0 * ld), 1.0 / eps)
        root = np.sqrt(be**2 + 16.0 * (ld + kn) ** 2)
        cons_ref = min((4.0 - eps) / (be + root), 1.0 / eps)
        ebar_ref = eps * ((8.0 - eps) * root + eps * be) / (4.0 * (8.0 - eps))
        delta_ref = ebar_ref / (
            2.0 * (1.0 / eps + ld + kn - be * ld * eps / (4.0 * (1.0 - eps)))
        )
        assert gamma_bound_long(be, ld, eps) == pytest.approx(long_ref, abs=1e-12)
        assert gamma_bound_conservative(be, ld, kn, eps) == pytest.approx(
            cons_ref, abs=1e-12
        )
        ebar, delta = epsbar_delta(eps, be, ld, kn)
        assert ebar == pytest.approx(ebar_ref, abs=1e-12)
        assert delta == pytest.approx(delta_ref, abs=1e-12)
        g = 0.5 * cons_ref
        # the effective beta and L_M of the scalar kernel, from the declared
        # constants alone; K is kn times a quarter turn
        declared = FourOpProblem(
            b=zero_operator(), d=LipschitzMap(np.zeros_like, ld),
            e=CocoerciveMap(np.zeros_like, be),
            k=SkewMap(kn * np.array([[0.0, -1.0], [1.0, 0.0]])),
        )
        view = as_nofob(declared, ScalarStep(g), SpdMetric.identity(2))
        assert view.beta == pytest.approx(be / (1.0 / g - ld), abs=1e-12)
        assert view.kernel_lipschitz == pytest.approx(1.0 / g + ld + kn, abs=1e-12)
        checked += 1
    assert checked == 10

    # mu lower-bound sampling, 10^4 pairs per configuration
    for name in ("regquad-full", "regquad-fbhf"):
        inst = get_instance(name)
        prob = inst.bundle
        be = inst.constants["beta_e"]
        ld = inst.constants["l_d"]
        kn = inst.constants["k_norm"]
        eps = 0.1
        g = 0.95 * gamma_bound_conservative(be, ld, kn, eps)
        _, delta = epsbar_delta(eps, be, ld, kn)
        mu_hat = g / (2.0 - delta)
        view = as_nofob(prob, ScalarStep(g), SpdMetric.identity(prob.dim))
        pair_rng = Lcg64(202)
        for _ in range(10000):
            x, y = pair_rng.vector(prob.dim), pair_rng.vector(prob.dim)
            m = view.kernel_diff(x, y, x - y)
            den = float(m @ m)
            if den == 0.0:
                continue
            d = x - y
            num = float(m @ d) - 0.25 * be * float(d @ d)
            assert mu_hat <= num / den + 1e-10, name
    passed("step-size formulas match hand values; mu bound holds on 2x10^4 pairs")


# The abstract's relaxation claim: standard FB(H)F relax their projections
# less than NOFOB allows.  At equal gamma the long row, at the relaxation
# NOFOB allows, takes no more iterations than the short row, on every seed
# but one.
RELAXATION_PROBLEMS = ("rotation", "regquad-fbf", "regquad-fbhf", "regquad-full",
                       "regquad-fbs")
RELAXATION_SEEDS = range(30)
LONG_ROW_LOSES = {("regquad-fbhf", 5): "fbhf takes 31 iterations, fbhf-long 33"}


def _relaxation_cases():
    for name in RELAXATION_PROBLEMS:
        for seed in RELAXATION_SEEDS:
            reason = LONG_ROW_LOSES.get((name, seed))
            marks = () if reason is None else pytest.mark.xfail(strict=True, reason=reason)
            yield pytest.param(name, seed, marks=marks, id=f"{name}-{seed}")


def test_clamp_theta_keeps_inside_and_clamps_outside():
    # the long rows' default relaxation, min(4 / (4 - beta), 1.95), read
    # from the row table; it cannot fall below 1, so no lower clamp
    for name in ("fbf-long", "fbhf-long"):
        rule = ROWS[name].relax
        for beta, theta in ((0.0, 1.0), (1.0, 4.0 / 3.0), (3.6, 1.95)):
            assert rule(SimpleNamespace(view=SimpleNamespace(beta=beta))) == theta, name
    inst = get_instance("regquad-fbs")  # beta = 3.6 at the default gamma
    default = run_algorithm("fbhf-long", inst, max_iter=3)
    given = run_algorithm("fbhf-long", inst, theta=0.5, max_iter=3)
    assert {rec.theta for rec in default.trajectory.records} == {1.95}
    assert {rec.theta for rec in given.trajectory.records} == {0.5}


@pytest.mark.parametrize("name, seed", _relaxation_cases())
def test_conservative_vs_explicit_dominance(name, seed, conservative_reference):
    inst = get_instance(name, seed)
    prob = inst.bundle
    be = inst.constants["beta_e"]
    ld = inst.constants["l_d"]
    kn = inst.constants["k_norm"]
    eps = 0.1
    g = 0.9 * gamma_bound_conservative(be, ld, kn, eps)
    _, delta = epsbar_delta(eps, be, ld, kn)
    mu_hat = g / (2.0 - delta)
    x = inst.x0.copy()
    for _ in range(150):
        rec = conservative_reference(prob, g, x)
        if rec.mu > 0.0:
            assert mu_hat <= rec.mu + 1e-12
        x = rec.x_next

    # long-step run at the same gamma, at the long row's default
    # relaxation.  With beta_E > 0 the explicit mu carries the
    # cocoercivity penalty, so theta = 4/(4 - beta) restores the plain
    # forward-backward step length (exact in the pure FBS case, and equal
    # to 1 when beta_E = 0), capped at 1.95.
    short_alg = "fbf" if be == 0.0 else "fbhf"
    beta = as_nofob(prob, ScalarStep(g), SpdMetric.identity(prob.dim)).beta
    a = run_algorithm(short_alg, inst, gamma=g, tol=1e-8, max_iter=3000)
    b = run_algorithm(f"{short_alg}-long", inst, gamma=g, tol=1e-8, max_iter=3000)
    assert {rec.theta for rec in b.trajectory.records} == {min(4.0 / (4.0 - beta), 1.95)}
    assert a.trajectory.status == b.trajectory.status == "converged"
    counts = (a.trajectory.iterations, b.trajectory.iterations)
    assert counts[1] <= counts[0], f"(short, long) iterations {counts}"
    passed(f"{name} seed {seed}: mu_hat <= mu everywhere; (short, long) iterations {counts}")


# The long rows' default relaxation across registry seeds.  At E != 0 it
# over-relaxes, and must still converge to the oracle through all three
# audits in no more iterations than theta = 1; at E = 0 it is exactly 1,
# so the run is the theta = 1 run bit for bit.  The 360 runs at E != 0
# take about 0.7 s on a 2-core host, the 320 at E = 0 on seeds 0-19 about 1 s.
DEFAULT_THETA_SEEDS = range(60)
# perfbench's limit: ||x_final - z*|| <= ORACLE_DISTANCE (1 + ||z*||)
ORACLE_DISTANCE = 1e-6


def _audits_pass(out):
    view = out.nofob_view
    return (check_fejer(out.trajectory, out.z_star, out.s_metric).passed
            and check_separation(out.trajectory, view, out.z_star).passed
            and check_mu_bounds(out.trajectory, view.beta, view.p_metric, out.s_metric,
                                view.kernel_lipschitz).passed)


@pytest.mark.parametrize("name", ["regquad-fbs", "regquad-fbhf", "regquad-full"])
def test_long_default_theta_beats_unit_theta_where_e_is_nonzero(name):
    counts = []
    for seed in DEFAULT_THETA_SEEDS:
        inst = get_instance(name, seed)
        out = run_algorithm("fbhf-long", inst)
        unit = run_algorithm("fbhf-long", inst, theta=1.0)
        traj = out.trajectory
        assert traj.status == "converged", seed
        z = out.z_star
        dist = np.linalg.norm(traj.final_x - z) / (1.0 + np.linalg.norm(z))
        assert dist <= ORACLE_DISTANCE, seed
        assert _audits_pass(out), seed
        assert traj.iterations <= unit.trajectory.iterations, seed
        counts.append((traj.iterations, unit.trajectory.iterations))
    total = tuple(map(sum, zip(*counts)))
    passed(f"{name} seeds 0-59: (default, theta = 1) iterations {total}")


def _record_bytes(traj):
    return [tuple(v.tobytes() if isinstance(v, np.ndarray) else repr(v)
                  for v in dataclasses.astuple(rec)) for rec in traj.records]


@pytest.mark.parametrize("name", ["rotation", "regquad-fbf", "saddle", "nonlinear-kernel"])
@pytest.mark.parametrize("algorithm", ["fbf-long", "fbhf-long"])
def test_long_default_theta_is_unit_where_e_is_zero(name, algorithm):
    for seed in DEFAULT_THETA_SEEDS[:20]:
        inst = get_instance(name, seed)
        out = run_algorithm(algorithm, inst)
        unit = run_algorithm(algorithm, inst, theta=1.0)
        assert out.trajectory.status == unit.trajectory.status, seed
        assert _record_bytes(out.trajectory) == _record_bytes(unit.trajectory), seed


def test_extended_range_fbs():
    inst = get_instance("regquad-fbs")
    be = inst.constants["beta_e"]
    eps = 0.1
    slopes = []
    for frac in (0.5, 1.0, 1.5, 1.9, 2.5, 3.2, 4.0 - eps):
        g = frac / be
        out = run_algorithm("fbs-relaxed", inst, gamma=g, theta=1.0,
                            tol=1e-9, max_iter=5000)
        assert out.trajectory.status == "converged", f"gamma={g:.3f}"
        slope, _ = fit_rate([r.residual_s for r in out.trajectory.records])
        assert slope < 0.0
        slopes.append(slope)
    passed(
        "relaxed FBS converges for gamma up to (4-eps)/beta_E, rates "
        + ", ".join(f"{s:+.3f}" for s in slopes)
    )


def test_nonlinear_kernel_demo_full_stack():
    inst = get_instance("nonlinear-kernel")
    out = run_algorithm("four-op", inst, tol=1e-8, max_iter=2000)
    assert out.trajectory.status == "converged"
    assert out.trajectory.records[-1].residual_s <= 1e-8
    view = out.nofob_view
    assert check_fejer(out.trajectory, out.z_star, out.s_metric).passed
    assert check_separation(out.trajectory, view, out.z_star).passed
    assert check_mu_bounds(
        out.trajectory, view.beta, view.p_metric, view.s_metric,
        view.kernel_lipschitz,
    ).passed
    passed(
        f"nonlinear kernel run converged in {out.trajectory.iterations} "
        "iterations and passes all audits"
    )
