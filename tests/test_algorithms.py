import dataclasses
import itertools

import numpy as np
import pytest

from nofob import algorithms, fourop
from nofob.algorithms import ALGORITHMS, run_algorithm
from nofob.core import corrected_step, run_loop
from nofob.diagnostics import check_fejer, check_mu_bounds, check_separation
from nofob.fourop import BlockDiag, StepParameterWarning, as_nofob, gamma_bound_conservative
from nofob.linalg import PS_EQUIVALENCE_TOL, ContractViolation, SpdMetric
from nofob.operators import CocoerciveMap, LipschitzMap, SkewMap, affine_operator
from nofob.problems import (REGISTRY, ProblemInstance, get_instance,
                            make_regularized_quadratic, make_saddle_pd)
from nofob.projective import PsProblem
from nofob.rng import Lcg64

from conftest import accepted, step_tuple


def counting(monkeypatch, owner, attr, counts, key):
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


# Evaluations per moving iteration.  The maps that declare a matrix are
# applied as two summed products, F = D + K + H in the oracle and G = D + K
# in the kernel difference, and are never called one by one; a single live
# map (saddle's K) is its own product.  A D that declares no matrix (the
# tanh drift) is called at x in the oracle, which the kernel difference
# reuses, and at x_hat in the kernel difference.
@pytest.mark.parametrize("problem, algorithm, expected", [
    ("regquad-fbf", "fbf", {"fused": 2, "d": 0, "e": 0, "k": 0}),
    ("regquad-fbhf", "fbhf", {"fused": 2, "d": 0, "e": 0, "k": 0}),
    ("regquad-full", "four-op", {"fused": 2, "d": 0, "e": 0, "k": 0}),
    # the step solves the metric once for its direction; AFBA's kernel Q is
    # a LinearPart too, applied at x in the oracle and to d in the kernel
    # difference, so K's two products and Q's two count here
    ("saddle", "afba-fixed", {"fused": 4, "d": 0, "e": 0, "k": 0, "solve": 1}),
    ("nonlinear-drift", "four-op", {"fused": 2, "d": 2, "e": 0, "k": 0}),
])
def test_evaluations_per_moving_iteration(monkeypatch, planted_nonlinear_drift,
                                          problem, algorithm, expected):
    inst = (planted_nonlinear_drift(20, 0) if problem == "nonlinear-drift"
            else get_instance(problem))
    counts = dict.fromkeys(("fused", "d", "e", "k", "solve"), 0)
    counting(monkeypatch, fourop.LinearPart, "__call__", counts, "fused")
    counting(monkeypatch, LipschitzMap, "__call__", counts, "d")
    counting(monkeypatch, CocoerciveMap, "__call__", counts, "e")
    counting(monkeypatch, SkewMap, "__call__", counts, "k")
    counting(monkeypatch, SpdMetric, "solve", counts, "solve")
    per_budget = {}
    for max_iter in (10, 20):
        for key in counts:
            counts[key] = 0
        out = run_algorithm(algorithm, inst, tol=0.0, max_iter=max_iter)
        assert out.trajectory.iterations == max_iter + 1
        assert all(rec.mu > 0.0 for rec in out.trajectory.records)
        per_budget[max_iter] = dict(counts)
    per_iter = {key: (per_budget[20][key] - per_budget[10][key]) / 10 for key in expected}
    assert per_iter == expected


def test_phi_evaluations_per_moving_iteration(monkeypatch):
    # phi at x in the oracle, which the kernel difference reuses, and at
    # x_hat in the kernel difference; the backward solve's own evaluations
    # are not counted
    inst = get_instance("nonlinear-kernel")
    counts = {"phi": 0}
    in_solve = [False]
    spec = inst.nonlinear_spec
    solve = fourop.separable_nonlinear_resolvent

    def counted_phi(x):
        counts["phi"] += not in_solve[0]
        return spec.phi(x)

    def flagged_solve(*args, **kwargs):
        in_solve[0] = True
        try:
            return solve(*args, **kwargs)
        finally:
            in_solve[0] = False

    inst = dataclasses.replace(
        inst, nonlinear_spec=dataclasses.replace(spec, phi=counted_phi))
    monkeypatch.setattr(fourop, "separable_nonlinear_resolvent", flagged_solve)
    per_budget = {}
    for max_iter in (10, 20):
        counts["phi"] = 0
        out = run_algorithm("four-op", inst, tol=0.0, max_iter=max_iter)
        assert out.trajectory.iterations == max_iter + 1
        assert all(rec.mu > 0.0 for rec in out.trajectory.records)
        per_budget[max_iter] = counts["phi"]
    assert (per_budget[20] - per_budget[10]) / 10 == 2


def test_ps_resolvent_honours_the_metric(ps_explicit_step):
    # the ps-resolvent step, on its block-diagonal view in a dense S
    inst = get_instance("saddle")
    ps = inst.ps_view
    n = ps.stacked.dim
    r = Lcg64(42).matrix(n, n)
    s = SpdMetric(r @ r.T / n + np.eye(n))
    view = as_nofob(ps.stacked, BlockDiag((1.0, 1.0)), s)
    assert view.s_metric is s
    traj = run_loop(corrected_step(view, 1.0), inst.x0, 1e-9, 5000)
    assert traj.status == "converged"
    assert np.max(np.abs(traj.final_x - inst.oracle)) <= 1e-6
    assert check_fejer(traj, inst.oracle, s).passed
    plain = run_algorithm("ps-resolvent", inst, tol=1e-9, max_iter=5000)
    assert traj.iterations != plain.trajectory.iterations
    # ps-explicit is the same step with another oracle: in the same S it
    # follows ps-resolvent record by record
    explicit = run_loop(lambda x: step_tuple(ps_explicit_step(ps, x, 1.0, s=s)), inst.x0,
                        1e-9, 5000)
    assert explicit.status == "converged"
    assert explicit.iterations == traj.iterations
    for a, b in zip(explicit.records, traj.records):
        assert np.max(np.abs(a.x_next - b.x_next)) <= PS_EQUIVALENCE_TOL


def test_conservative_rows_warn_beyond_their_bound():
    inst = get_instance("regquad-fbhf")
    c = inst.constants
    bound = gamma_bound_conservative(c["beta_e"], c["l_d"], c["k_norm"], 0.0)
    with pytest.warns(StepParameterWarning) as caught:
        run_algorithm("fbhf", inst, gamma=1.05 * bound, max_iter=2)
    assert caught[0].filename == __file__


@pytest.mark.parametrize("name", REGISTRY)
def test_four_op_reports_its_scalar_step_size(name):
    # on a scalar kernel four-op steps at 0.9 times the conservative bound
    # by default, or at the given gamma, and reports it as fbhf does; its
    # other kernels take no scalar step size
    inst = get_instance(name)
    default = run_algorithm("four-op", inst, max_iter=0).gamma
    if inst.nonlinear_spec is not None or inst.ps_view is not None:
        assert default is None
        return
    c = inst.constants
    bound = gamma_bound_conservative(c["beta_e"], c["l_d"], c["k_norm"], 0.0)
    assert default == 0.9 * bound == run_algorithm("fbhf", inst, max_iter=0).gamma
    assert run_algorithm("four-op", inst, gamma=0.3, max_iter=0).gamma == 0.3


@pytest.mark.parametrize("seed", [0, 6, 19, 27, 32, 33, 38, 39, 42])
def test_afba_fixed_steps_in_its_own_metric(seed):
    # on these seeds the unit step fails the fixed-step check in S = I;
    # in S = P, the symmetric part of the kernel, it passes for every
    # tau1, tau2 that make P positive definite
    inst = get_instance("saddle", seed)
    out = run_algorithm("afba-fixed", inst)
    view = out.nofob_view
    assert out.s_metric is view.s_metric is view.p_metric
    traj = out.trajectory
    assert traj.status == "converged"
    assert np.linalg.norm(traj.final_x - inst.oracle) <= 1e-6 * (1.0 + np.linalg.norm(inst.oracle))
    assert check_fejer(traj, out.z_star, out.s_metric).passed
    assert check_separation(traj, view, out.z_star).passed
    assert check_mu_bounds(traj, view.beta, view.p_metric, out.s_metric,
                           view.kernel_lipschitz).passed


@pytest.mark.parametrize("algorithm", ["afba", "afba-fixed", "four-op"])
def test_saddle_rows_reject_a_tau_list_of_the_wrong_length(algorithm):
    inst = get_instance("saddle")
    with pytest.raises(ContractViolation, match="needs 2 step sizes"):
        run_algorithm(algorithm, inst, tau=[1.0, 0.1, 5.0])
    # one value stands for both
    assert run_algorithm(algorithm, inst, tau=[1.0], max_iter=2).trajectory.iterations == 3


@pytest.mark.parametrize("algorithm, tau", [
    ("ps-resolvent", "13"), ("ps-explicit", "13"), ("afba", "0.5"), ("four-op", "1"),
])
def test_a_str_tau_is_not_split_into_step_sizes(algorithm, tau):
    # a str is iterable: "13" ran ps-resolvent at the taus (1, 3), and afba
    # read "0.5" as three step sizes
    with pytest.raises(ContractViolation, match=f"{algorithm} step sizes must be numbers"):
        run_algorithm(algorithm, get_instance("saddle"), tau=tau)


@pytest.mark.parametrize("algorithm, problem", [
    ("fbf", "rotation"), ("fbs", "regquad-fbs"), ("four-op", "nonlinear-kernel"),
    ("four-op", "regquad-full"),
])
def test_rows_without_step_sizes_reject_a_tau(algorithm, problem):
    with pytest.raises(ContractViolation, match="takes no tau"):
        run_algorithm(algorithm, get_instance(problem), tau=[1.0])


@pytest.mark.parametrize("algorithm, problem", [
    ("afba", "saddle"), ("afba-fixed", "saddle"), ("ps-explicit", "saddle"),
    ("ps-resolvent", "saddle"), ("four-op", "saddle"), ("four-op", "nonlinear-kernel"),
])
def test_rows_without_a_scalar_step_reject_a_gamma(algorithm, problem):
    with pytest.raises(ContractViolation, match="takes no gamma"):
        run_algorithm(algorithm, get_instance(problem), gamma=0.5)


@pytest.mark.parametrize("theta", [0.0, 2.0, -1.0, 5.0, float("nan")])
def test_a_theta_outside_the_open_interval_is_rejected(theta):
    with pytest.raises(ContractViolation, match=r"theta must lie in \(0, 2\)"):
        run_algorithm("fbhf-long", get_instance("regquad-fbhf"), theta=theta)


@pytest.mark.parametrize("algorithm, problem", [
    ("fbs", "regquad-fbs"), ("afba-fixed", "saddle"), ("fbf", "rotation"),
    ("fbhf", "regquad-fbhf"),
])
def test_rows_with_a_fixed_relaxation_reject_a_theta(algorithm, problem):
    # fbs relaxes by 1/c, afba-fixed, fbf and fbhf by 1
    with pytest.raises(ContractViolation, match=f"{algorithm} takes no theta on {problem}"):
        run_algorithm(algorithm, get_instance(problem), theta=0.5)


def test_fbs_relaxed_keeps_its_theta():
    # a record carries the relaxation its step applied, theta c gamma / mu,
    # and the default theta is 1: halving it halves that exactly
    inst = get_instance("regquad-fbs")
    half = run_algorithm("fbs-relaxed", inst, theta=0.5, max_iter=2).trajectory.records[0]
    unit = run_algorithm("fbs-relaxed", inst, max_iter=2).trajectory.records[0]
    assert half.mu == unit.mu > 0.0 and half.theta == 0.5 * unit.theta


def test_fbs_audits_the_view_its_step_ran_on():
    # where D = K = 0 the audits read the step's own view, so they check
    # the beta the step used, beta_E gamma, and its P = gamma^{-1} I; a
    # second view with beta_E / (1 / gamma) differs in the last bit at seed 8
    for seed, algorithm in itertools.product(range(10), ("fbs", "fbs-relaxed")):
        inst = get_instance("regquad-fbs", seed)
        out = run_algorithm(algorithm, inst, max_iter=2)
        view = out.nofob_view
        assert view.beta == inst.bundle.e.inverse_cocoercivity * out.gamma
        assert view.kernel_lipschitz == 1.0 / out.gamma
        assert view.s_metric is out.s_metric


def test_a_given_tau_reuses_the_stacked_problem(monkeypatch):
    # the stacked B and K do not depend on tau, so no SkewMap is built
    inst = make_saddle_pd(n=200, m=150, seed=0)
    counts = {"skew": 0}
    counting(monkeypatch, SkewMap, "__init__", counts, "skew")
    for algorithm in ("ps-resolvent", "ps-explicit"):
        out = run_algorithm(algorithm, inst, tau=[1.0, 1.0], max_iter=0)
        assert out.trajectory.iterations == 1
    assert counts["skew"] == 0
    # the step sizes are the given ones
    view = run_algorithm("ps-resolvent", inst, tau=[2.0, 0.5], max_iter=0).nofob_view
    assert view.p_metric.lam_min == 2.0


def _three_block_instance(seed=0, n=6, dims=(4, 3)):
    """A projective problem with three blocks, A_i w = G_i w + g_i on the
    two dual spaces and A_3 x = H x - b on the primal one, with its
    solution from a dense solve, as `make_saddle_pd` has it for two."""
    rng = Lcg64(seed)

    def spd(k):
        r = rng.matrix(k, k)
        return r @ r.T / k + 0.5 * np.eye(k)

    h, b = spd(n), rng.vector(n)
    gs = [spd(m) for m in dims]
    g0s = [rng.vector(m) for m in dims]
    ls = [rng.matrix(m, n) / np.sqrt(n) for m in dims]
    x = np.linalg.solve(h + sum(l.T @ g @ l for l, g in zip(ls, gs)),
                        b - sum(l.T @ g0 for l, g0 in zip(ls, g0s)))
    ws = [g @ (l @ x) + g0 for l, g, g0 in zip(ls, gs, g0s)]
    ps = PsProblem([*(affine_operator(g, g0) for g, g0 in zip(gs, g0s)),
                    affine_operator(h, -b)], ls, primal_dim=n)
    return ProblemInstance(
        name="three-block", bundle=ps.stacked, oracle=np.concatenate([*ws, x]),
        sigma_of=lambda: float(min(np.linalg.eigvalsh(h)[0],
                                   *(1.0 / np.linalg.eigvalsh(g)[-1] for g in gs))),
        x0=rng.vector(sum(dims) + n), ps_view=ps)


def test_three_block_sigma_is_pinned():
    # by repr, recorded when the builder still computed it eagerly
    assert repr(_three_block_instance().sigma) == "0.5146252280586489"


def test_four_op_on_three_blocks_is_the_ps_resolvent_run():
    # with more than two blocks four-op takes the ps-resolvent view at
    # unit step sizes, and a given tau has one entry per block
    inst = _three_block_instance()
    runs = {a: run_algorithm(a, inst) for a in ("four-op", "ps-resolvent", "ps-explicit")}
    for algorithm, out in runs.items():
        traj, view = out.trajectory, out.nofob_view
        assert traj.status == "converged", algorithm
        assert (np.linalg.norm(traj.final_x - inst.oracle)
                <= 1e-6 * (1.0 + np.linalg.norm(inst.oracle))), algorithm
        assert check_fejer(traj, out.z_star, out.s_metric).passed, algorithm
        assert check_separation(traj, view, out.z_star).passed, algorithm
        assert check_mu_bounds(traj, view.beta, view.p_metric, out.s_metric,
                               view.kernel_lipschitz).passed, algorithm
    four_op, resolvent = (runs[a].trajectory.records for a in ("four-op", "ps-resolvent"))
    assert len(four_op) == len(resolvent)
    for a, b in zip(four_op, resolvent):
        assert a.x_next.tobytes() == b.x_next.tobytes() and a.mu == b.mu
    with pytest.raises(ContractViolation, match="four-op needs 3 step sizes"):
        run_algorithm("four-op", inst, tau=[1.0, 1.0])
    view = run_algorithm("four-op", inst, tau=[2.0, 1.0, 0.5], max_iter=0).nofob_view
    assert view.p_metric.lam_min == 1.0  # the smallest of the weights (2, 1, 1 / 0.5)
    for algorithm in ("afba", "afba-fixed"):
        with pytest.raises(ContractViolation, match="needs a stacked saddle problem"):
            run_algorithm(algorithm, inst)


@pytest.mark.parametrize("algorithm", ["ps-resolvent", "afba-fixed"])
def test_saddle_beyond_a_hundred_block_dimensions(algorithm):
    # no cap on the block dimensions: a 150-dual, 200-primal saddle
    inst = make_saddle_pd(n=200, m=150, seed=0)
    out = run_algorithm(algorithm, inst)
    traj, view = out.trajectory, out.nofob_view
    assert traj.status == "converged"
    assert np.linalg.norm(traj.final_x - inst.oracle) <= 1e-6 * (1.0 + np.linalg.norm(inst.oracle))
    assert check_fejer(traj, out.z_star, out.s_metric).passed
    assert check_separation(traj, view, out.z_star).passed
    assert check_mu_bounds(traj, view.beta, view.p_metric, out.s_metric,
                           view.kernel_lipschitz).passed


RUN_ROWS = sorted((name, algorithm) for name in REGISTRY
                  for algorithm in accepted(get_instance(name)))
AUDITED_ROWS = [(name, algorithm, seed) for seed in range(3) for name in REGISTRY
                for algorithm in accepted(get_instance(name, seed), audited=True)]
# plain forward-backward where D or K is nonzero: its kernel gamma^{-1} I is
# not gamma^{-1} I - D - K, so its step has no separation to audit
UNAUDITED = {(name, algorithm) for algorithm in ("fbs", "fbs-relaxed")
             for name in ("rotation", "regquad-fbhf", "regquad-fbf", "regquad-full", "saddle")}


@pytest.mark.parametrize("seed", range(3))
def test_only_plain_forward_backward_with_d_or_k_nonzero_has_no_audit_view(seed):
    runs = {(name, algorithm): run_algorithm(algorithm, get_instance(name, seed), max_iter=0)
            for name in REGISTRY for algorithm in accepted(get_instance(name, seed))}
    assert len(runs) == 47
    assert {pair for pair, out in runs.items() if out.nofob_view is None} == UNAUDITED


@pytest.mark.parametrize("seed", range(3))
def test_a_rejected_pair_raises_the_same_message_whatever_is_given(seed):
    # the structural reason comes before every check of a given parameter
    rejected = 0
    for name in REGISTRY:
        inst = get_instance(name, seed)
        given = [{"gamma": 0.5}, {"tau": [1.0]}, {"theta": 0.5}, {"theta": 5.0}]
        for algorithm in set(ALGORITHMS) - set(accepted(inst)):
            with pytest.raises(ContractViolation) as bare:
                run_algorithm(algorithm, inst)
            assert str(bare.value) in {f"{algorithm} needs a stacked saddle problem",
                                       f"{algorithm} requires a problem with E = 0",
                                       f"{algorithm} needs a problem with a projective view"}
            for kwargs in given:
                with pytest.raises(ContractViolation) as exc:
                    run_algorithm(algorithm, inst, **kwargs)
                assert str(exc.value) == str(bare.value), (name, algorithm, kwargs)
            rejected += 1
    assert rejected == 7 * len(ALGORITHMS) - 47


def test_perfbench_accepts_the_pairs_the_row_table_accepts(perfbench_workloads):
    """A drift guard on `perfbench/workloads.accepts`, which restates the
    rows' instance contract; it goes when perfbench reads the row table."""
    workloads = perfbench_workloads
    for seed in range(3):
        count = 0
        for name in REGISTRY:
            inst = get_instance(name, seed)
            ours = accepted(inst)
            for algorithm in ALGORITHMS:
                assert workloads.accepts(algorithm, inst) == (algorithm in ours), \
                    (name, algorithm, seed)
            count += len(ours)
        assert count == 47, seed


@pytest.mark.parametrize("name, algorithm", RUN_ROWS)
def test_the_step_never_writes_to_its_iterate(monkeypatch, name, algorithm):
    # the four-op views reuse the oracle's D x and phi(x) at the oracle's
    # own x array in the kernel difference, which is right only while
    # nothing writes to that array between the two calls: every x the
    # step gets here is read-only, so a write would raise
    bind = algorithms.corrected_step
    seen = []

    def read_only_step(view, theta, mu_hat=None):
        step = bind(view, theta, mu_hat)

        def read_only(x):
            x.flags.writeable = False
            seen.append(x)
            return step(x)

        return read_only

    monkeypatch.setattr(algorithms, "corrected_step", read_only_step)
    out = run_algorithm(algorithm, get_instance(name), max_iter=20)
    assert out.trajectory.status != "error"
    assert len(seen) == out.trajectory.iterations


@pytest.mark.parametrize("name, algorithm, seed", AUDITED_ROWS)
def test_view_constants_are_honest(name, algorithm, seed, honesty_samplers):
    # the kernel M of every audited view is strongly monotone in its P and
    # L_M-Lipschitz, on sampled pairs, through the normal the step reads:
    # kernel_diff(x, y) = M x - M y, right after the oracle at x (which it
    # may reuse) and at a copy of x (which it may not)
    inst = get_instance(name, seed)
    view = run_algorithm(algorithm, inst, max_iter=1).nofob_view
    monotone, lipschitz = -np.inf, 0.0
    for x, y in honesty_samplers.pairs(inst.bundle.dim, 200, seed, 1.0):
        d = x - y
        view.fb_oracle(x)
        for m in (view.kernel_diff(x, y, d), view.kernel_diff(x.copy(), y, d)):
            monotone = max(monotone, (view.p_metric.norm(d) ** 2 - float(m @ d)) / float(d @ d))
            lipschitz = max(lipschitz, float(np.linalg.norm(m))
                            / (view.kernel_lipschitz * float(np.linalg.norm(d))))
    assert monotone <= 1e-9
    assert lipschitz <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# the fbs rows' monotone-residual check

FBS_ROWS = ("fbs", "fbs-relaxed")
# the (problem, row) pairs whose residual rises at every registry seed
# 0-59; D or K is nonzero there, so the nonexpansive premise fails, yet
# fbs-relaxed still converges on regquad-fbhf and regquad-full
VIOLATED = (("rotation", "fbs"), ("rotation", "fbs-relaxed"),
            ("regquad-fbhf", "fbs"), ("regquad-full", "fbs"))


def assert_same_records(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        for field in ("x", "x_hat", "x_next"):
            assert np.array_equal(getattr(ra, field), getattr(rb, field))
        for field in ("mu", "theta", "residual_s", "psi_at_x", "normal_inv_norm"):
            assert getattr(ra, field) == getattr(rb, field)


@pytest.mark.parametrize("algorithm", FBS_ROWS)
@pytest.mark.parametrize("name", REGISTRY)
def test_fbs_rows_converge_or_end_violated_within_50_records(name, algorithm):
    # a converged run never met the check, so it is the unchecked run; the
    # witnesses' runs, which use up their budget unchecked, stop by record
    # 46 (0.1-0.3 s per case)
    for seed in range(60):
        traj = run_algorithm(algorithm, get_instance(name, seed)).trajectory
        if (name, algorithm) in VIOLATED:
            assert traj.status == "violated" and traj.iterations <= 50, seed
            assert traj.records[-1].residual_s > traj.records[-2].residual_s, seed
        else:
            assert traj.status == "converged", seed


@pytest.mark.parametrize("name, algorithm", VIOLATED)
def test_a_violated_fbs_run_keeps_the_unchecked_records(name, algorithm, fbs_unchecked):
    # every record up to and with the first rise is the unchecked loop's,
    # bit for bit; over the full budget, on seeds 0-9, the unchecked run
    # does not converge, so the check cut only runs that fail anyway
    # (0.1-0.4 s per case)
    for seed in range(60):
        inst = get_instance(name, seed)
        traj = run_algorithm(algorithm, inst).trajectory
        theta = None if algorithm == "fbs" else 1.0  # each row's default relaxation
        prefix = fbs_unchecked(inst, theta=theta, max_iter=traj.iterations - 1)
        assert prefix.status == "max_iter", seed
        assert_same_records(traj.records, prefix.records)
        if seed < 10:
            assert fbs_unchecked(inst, theta=theta).status in ("max_iter", "error"), seed


def test_the_check_never_fires_on_the_ladders_fbs_relaxed_runs():
    # regquad-full at n = 200, where D and K are nonzero but the relaxed
    # step converges (0.9 s, mostly the instance builds)
    for seed in range(9):
        inst = make_regularized_quadratic(n=200, seed=seed, split="full")
        assert run_algorithm("fbs-relaxed", inst).trajectory.status == "converged", seed


@pytest.mark.parametrize("theta", [0.3, 1.0, 1.9])
@pytest.mark.parametrize("gamma_beta", [0.5, 1.8, 3.0, 3.9])
@pytest.mark.parametrize("name", ["regquad-fbs", "nonlinear-kernel"])
def test_the_check_stays_silent_at_the_round_off_floor(name, gamma_beta, theta):
    # D = K = 0, so the premise holds, and at tol 0 the run reaches its
    # round-off floor without ending violated: it ends `stalled` at its
    # first null step, or, where it reaches none in the budget (3.9 and 0.3
    # on regquad-fbs), `max_iter`; on nonlinear-kernel beta_E = 0 and the
    # step size is gamma_beta itself (up to 0.06 s per case)
    inst = get_instance(name)
    beta_e = inst.constants["beta_e"]
    gamma = gamma_beta / beta_e if beta_e else gamma_beta
    traj = run_algorithm("fbs-relaxed", inst, gamma=gamma, theta=theta, tol=0.0,
                         max_iter=3000).trajectory
    null = traj.mu == 0.0
    assert not null[:-1].any()
    if null[-1]:
        assert traj.status == "stalled"
    else:
        assert (traj.status, traj.iterations) == ("max_iter", 3001)


def test_plain_fbs_past_gamma_beta_2_is_not_checked(fbs_unchecked):
    # at gamma beta_E = 3 plain fbs relaxes by 1/c = 4 > 2, where the
    # theorem gives no nonexpansive map: the run ends as it does unchecked,
    # overflowing at record 512 (0.03 s)
    inst = get_instance("regquad-fbs")
    gamma = 3.0 / inst.constants["beta_e"]
    traj = run_algorithm("fbs", inst, gamma=gamma).trajectory
    assert (traj.status, traj.iterations) == ("error", 513)
    assert_same_records(traj.records, fbs_unchecked(inst, gamma=gamma).records)
