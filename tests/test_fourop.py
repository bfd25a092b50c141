import dataclasses
import gc
import weakref

import numpy as np
import pytest

from nofob.algorithms import run_algorithm
from nofob.core import corrected_step
from nofob.diagnostics import check_fejer, check_mu_bounds, check_separation
from nofob.fourop import (
    AffinePlusSkew,
    BlockDiag,
    FourOpProblem,
    LinearPart,
    ScalarStep,
    SeparableNonlinear,
    StepParameterWarning,
    afba_fixed_step_check,
    as_nofob,
    epsbar_delta,
    fbs_view,
    gamma_bound_conservative,
    gamma_bound_long,
    zero_cocoercive,
    zero_forward,
)
from nofob.linalg import ContractViolation, SpdMetric
from nofob.operators import (
    BlockProx,
    CocoerciveMap,
    LipschitzMap,
    SkewMap,
    affine_operator,
    l1_subdifferential,
    zero_operator,
)
from nofob.problems import fixed_point_residual, get_instance, make_regularized_quadratic
from nofob.projective import PsProblem
from nofob.rng import Lcg64

from conftest import accepted, one_record


def trivial_problem(n=3):
    return FourOpProblem(
        b=zero_operator(), d=zero_forward(), e=zero_cocoercive(),
        k=SkewMap.zero(n),
    )


def fb(prob, spec, x):
    """x_hat = (Q + B)^{-1} (Q - D - K - E) x, the oracle of the kernel view."""
    return as_nofob(prob, spec, SpdMetric.identity(prob.dim)).fb_oracle(x)


def seeded_problem(n=8, seed=42, with_e=True, with_d=True, with_k=True):
    rng = Lcg64(seed)
    r = rng.matrix(n, n)
    h = (r @ r.T) / n + 0.5 * np.eye(n)
    b_vec = rng.vector(n)
    r2 = rng.matrix(n, n)
    d_mat = 0.5 * np.eye(n) + 0.3 * (r2 - r2.T) / 2.0
    r3 = rng.matrix(n, n)
    k_mat = 0.25 * (r3 - r3.T)
    beta_e = float(np.linalg.eigvalsh(h)[-1]) if with_e else 0.0
    e = (CocoerciveMap(lambda x: h @ x - b_vec, beta_e) if with_e
         else zero_cocoercive())
    l_d = float(np.linalg.norm(d_mat, 2)) if with_d else 0.0
    d = LipschitzMap(lambda x: d_mat @ x, l_d) if with_d else zero_forward()
    k = SkewMap(k_mat) if with_k else SkewMap.zero(n)
    return FourOpProblem(b=l1_subdifferential(0.1), d=d, e=e, k=k)


# ---------------------------------------------------------------------------
# forward-backward map


@pytest.mark.parametrize("part", ["d", "e", "b"])
def test_a_bundle_rejects_a_part_of_another_size_than_k(part):
    # a 3 x 3 D or E, or a three-coordinate BlockProx B, beside a 2 x 2 K:
    # numpy's broadcast or matmul ValueError at the first step before
    parts = dict(b=zero_operator(), d=zero_forward(), e=zero_cocoercive(),
                 k=SkewMap(np.array([[0.0, -1.0], [1.0, 0.0]])))
    parts[part] = {"d": LipschitzMap.linear(np.eye(3), 1.0),
                   "e": CocoerciveMap.affine(np.eye(3), np.ones(3), 1.0),
                   "b": BlockProx([zero_operator(), zero_operator()], [1, 2])}[part]
    with pytest.raises(ContractViolation, match="K's dimension 2"):
        FourOpProblem(**parts)
    # a map that declares no matrix, or a B that declares no size, is not checked
    parts[part] = {"d": LipschitzMap(lambda x: x, 1.0), "e": CocoerciveMap(lambda x: x, 1.0),
                   "b": zero_operator()}[part]
    assert FourOpProblem(**parts).dim == 2


def test_fb_with_all_zero_operators_is_identity():
    prob = trivial_problem()
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(fb(prob, ScalarStep(0.7), x), x, atol=1e-15)


@pytest.mark.parametrize("problem", ["rotation", "saddle", "nonlinear-kernel"])
def test_zero_forward_maps_are_never_evaluated(monkeypatch, problem):
    # rotation has D = E = 0, saddle D = E = 0, nonlinear-kernel D = E = K = 0
    inst = get_instance(problem)
    bundle = inst.bundle
    assert bundle.d.is_zero and bundle.e.is_zero
    assert bundle.k.is_zero == (problem == "nonlinear-kernel")
    for cls in (LipschitzMap, CocoerciveMap, SkewMap):
        original = cls.__call__

        def guarded(self, x, original=original):
            assert not self.is_zero, "a zero map was evaluated"
            return original(self, x)

        monkeypatch.setattr(cls, "__call__", guarded)
    for algorithm in accepted(inst):
        out = run_algorithm(algorithm, inst, max_iter=50)
        traj = out.trajectory
        check_fejer(traj, out.z_star, out.s_metric)
        view = out.nofob_view
        if view is not None:
            check_separation(traj, view, out.z_star)
            check_mu_bounds(traj, view.beta, view.p_metric, out.s_metric,
                            view.kernel_lipschitz)


def test_scalar_fb_is_proximal_gradient():
    # E = gradient of 0.5 x'Hx - b'x, B = l1: hand soft-threshold check
    h = np.diag([1.0, 2.0])
    b = np.array([1.0, -3.0])
    prob = FourOpProblem(
        b=l1_subdifferential(1.0), d=zero_forward(),
        e=CocoerciveMap(lambda x: h @ x - b, 2.0), k=SkewMap.zero(2),
    )
    x = np.array([0.5, 1.0])
    g = 0.5
    grad_step = x - g * (h @ x - b)  # = [0.75, 0.0 - ... ] computed below
    expected = np.sign(grad_step) * np.maximum(np.abs(grad_step) - g, 0.0)
    out = fb(prob, ScalarStep(g), x)
    assert np.allclose(out, expected, atol=1e-14)


def test_blockdiag_fb_with_zero_blocks_is_linear():
    # all A_i = 0: x_hat = p - Q^{-1} K p
    rng = Lcg64(3)
    l = rng.matrix(2, 3)
    kmat = np.zeros((5, 5))
    kmat[:2, 2:] = -l
    kmat[2:, :2] = l.T
    prob = FourOpProblem(
        b=BlockProx([zero_operator(), zero_operator()], [2, 3]),
        d=zero_forward(), e=zero_cocoercive(), k=SkewMap(kmat),
    )
    spec = BlockDiag([1.0, 1.0])
    p = rng.vector(5)
    out = fb(prob, spec, p)
    assert np.allclose(out, p - kmat @ p, atol=1e-13)


def test_blockdiag_requires_block_separable_b():
    prob = trivial_problem()
    with pytest.raises(ContractViolation):
        fb(prob, BlockDiag([1.0]), np.zeros(3))


@pytest.mark.parametrize("family, b, match", [
    ("block-diag", zero_operator(), "BlockDiag kernels need a block-separable B"),
    ("block-diag", BlockProx([zero_operator(), zero_operator()], [1, 2]),
     "one weight per B block required"),
    ("affine-plus-skew", zero_operator(), "Gauss-Seidel solver needs a two-block B"),
    ("affine-plus-skew", BlockProx([zero_operator(), zero_operator()], [2, 1]),
     "B block dims do not match the kernel blocks"),
    ("separable-nonlinear", affine_operator(np.eye(3), np.zeros(3)),
     "nonlinear kernels require a separable B"),
], ids=["not-blocks", "block-count", "not-two-blocks", "block-dims", "not-separable"])
def test_bind_rejects_a_bundle_the_family_does_not_fit(family, b, match):
    spec = {"block-diag": BlockDiag([1.0]),
            "affine-plus-skew": AffinePlusSkew(np.ones((1, 2)), 1.0, 0.1),
            "separable-nonlinear": SeparableNonlinear(lambda x: x, 1.0, 1.0)}[family]
    prob = FourOpProblem(b=b, d=zero_forward(), e=zero_cocoercive(), k=SkewMap.zero(3))
    with pytest.raises(ContractViolation, match=match):
        spec.bind(prob)
    with pytest.raises(ContractViolation, match=match):
        as_nofob(prob, spec, SpdMetric.identity(3))


def test_kernel_step_sizes_are_validated_at_construction():
    for gamma in (0.0, -1.0, float("nan")):
        with pytest.raises(ContractViolation, match="gamma must be positive"):
            ScalarStep(gamma)
    with pytest.raises(ContractViolation, match="at least one block weight"):
        BlockDiag([])
    # an array of weights is tested by its length, not by its truth value
    with pytest.raises(ContractViolation, match="at least one block weight"):
        BlockDiag(np.array([]))
    assert BlockDiag(np.array([1.0, 2.0])).weights == (1.0, 2.0)
    with pytest.raises(ContractViolation, match="block weights must be positive"):
        BlockDiag([1.0, 0.0])


def test_non_finite_step_sizes_are_rejected_at_construction():
    prob = trivial_problem()
    s = SpdMetric.identity(prob.dim)
    l_matrix = np.ones((2, 3))
    for bad in (np.inf, np.nan):
        with pytest.raises(ContractViolation, match="gamma must be positive and finite"):
            ScalarStep(bad)
        with pytest.raises(ContractViolation, match="gamma must be positive and finite"):
            fbs_view(prob, bad)
        with pytest.raises(ContractViolation, match="block weights must be positive and finite"):
            BlockDiag([1.0, bad])
        with pytest.raises(ContractViolation, match="tau1 must be positive and finite"):
            AffinePlusSkew(l_matrix, bad, 0.1)
        with pytest.raises(ContractViolation, match="tau2 must be positive and finite"):
            AffinePlusSkew(l_matrix, 1.0, bad)


# ---------------------------------------------------------------------------
# specialization coherence


def test_trivial_specialization_matches_core_resolvent_step():
    # D = E = K = 0: mu = gamma and the unit step lands on the prox point
    n = 4
    prob = FourOpProblem(
        b=l1_subdifferential(1.0), d=zero_forward(), e=zero_cocoercive(),
        k=SkewMap.zero(n),
    )
    g = 0.8
    view = as_nofob(prob, ScalarStep(g), SpdMetric.identity(n))
    x = np.array([2.0, -0.5, 1.5, 0.0])
    rec = one_record(corrected_step(view, 1.0), x)
    assert rec.mu == pytest.approx(g, rel=1e-15)
    assert np.allclose(rec.x_next, prob.b.evaluator(g, x), atol=1e-15)


def test_kernel_difference_reuses_the_oracle_d_only_at_its_own_x():
    # the oracle keeps D x for the kernel difference at that same array;
    # an equal copy evaluates D again and gives the same bits
    base = seeded_problem()
    calls = []

    def d(x):
        calls.append(1)
        return base.d(x)

    prob = FourOpProblem(b=base.b, d=LipschitzMap(d, base.d.lipschitz_constant),
                         e=base.e, k=base.k)
    view = as_nofob(prob, ScalarStep(0.5), SpdMetric.identity(prob.dim))
    x = Lcg64(7).vector(prob.dim)
    x_hat = view.fb_oracle(x)
    calls.clear()
    same = view.kernel_diff(x, x_hat, x - x_hat)
    assert len(calls) == 1
    copied = view.kernel_diff(x.copy(), x_hat, x - x_hat)
    assert len(calls) == 3
    assert np.array_equal(copied, same)


def test_gamma_iterate_matches_generic_path_over_100_iterations(long_step_reference):
    prob = seeded_problem()
    s = SpdMetric.identity(prob.dim)
    g = 0.3
    view = as_nofob(prob, ScalarStep(g), s)
    x = Lcg64(1).vector(prob.dim)
    worst = 0.0
    for _ in range(100):
        ref_next, ref_mu = long_step_reference(prob, g, x, 1.2, s)
        rec = one_record(corrected_step(view, 1.2), x)
        worst = max(worst, float(np.max(np.abs(ref_next - rec.x_next))))
        # mu is a ratio of O(residual^2) quantities, so its relative
        # accuracy degrades as the square of the residual; compare only
        # while the iterates are still far from the solution
        if rec.residual_s > 1e-6:
            assert ref_mu == pytest.approx(rec.mu, rel=1e-10)
        x = rec.x_next
    assert worst <= 1e-12


def test_gamma_iterate_in_non_identity_metric(long_step_reference):
    prob = seeded_problem(with_e=False)
    rng = Lcg64(6)
    r = rng.matrix(prob.dim, prob.dim)
    s = SpdMetric(r @ r.T + 2.0 * np.eye(prob.dim))
    g = 0.3
    x = rng.vector(prob.dim)
    ref_next, _ = long_step_reference(prob, g, x, 1.0, s)
    rec = one_record(corrected_step(as_nofob(prob, ScalarStep(g), s), 1.0), x)
    assert np.allclose(ref_next, rec.x_next, atol=1e-12)


def test_conservative_identity_both_algebraic_routes(conservative_reference):
    prob = seeded_problem()
    g = 0.25
    s = SpdMetric.identity(prob.dim)
    view = as_nofob(prob, ScalarStep(g), s)
    x = Lcg64(2).vector(prob.dim)
    for _ in range(50):
        rec = conservative_reference(prob, g, x)
        # route 1: x_hat - gamma ((D+K) x_hat - (D+K) x) is what rec holds
        # route 2: x - gamma (Mx - M x_hat)
        m_gap = view.kernel_diff(x, rec.x_hat, x - rec.x_hat)
        route2 = x - g * m_gap
        assert np.max(np.abs(rec.x_next - route2)) <= 1e-13
        # route 3: the generic conservative step with mu_hat = gamma, S = I
        rec3 = one_record(corrected_step(view, 1.0, mu_hat=g), x)
        assert np.max(np.abs(rec.x_next - rec3.x_next)) <= 1e-13
        x = rec.x_next


def test_conservative_with_plain_forward_backward_degenerates(conservative_reference):
    prob = seeded_problem(with_d=False, with_k=False)
    x = Lcg64(4).vector(prob.dim)
    rec = conservative_reference(prob, 0.5, x)
    assert np.array_equal(rec.x_next, rec.x_hat)


def test_conservative_rotation_closed_form(conservative_reference):
    # B=E=D=0, K 90-degree rotation: x_next = ((1-g^2) I - g K) x
    kmat = np.array([[0.0, -1.0], [1.0, 0.0]])
    prob = FourOpProblem(
        b=zero_operator(), d=zero_forward(), e=zero_cocoercive(),
        k=SkewMap(kmat),
    )
    g = 0.7
    x = np.array([1.0, 2.0])
    rec = conservative_reference(prob, g, x)
    expected = ((1.0 - g * g) * np.eye(2) - g * kmat) @ x
    assert np.allclose(rec.x_next, expected, atol=1e-14)
    factor = np.linalg.norm(rec.x_next) / np.linalg.norm(x)
    assert factor == pytest.approx(np.sqrt((1 - g * g) ** 2 + g * g), abs=1e-12)


# ---------------------------------------------------------------------------
# step-size formulas


def test_gamma_bound_long_values():
    assert gamma_bound_long(0.0, 1.0, 1e-9) == pytest.approx(1.0, rel=1e-6)
    assert gamma_bound_long(4.0, 0.0, 0.01) == pytest.approx(0.9975)
    assert gamma_bound_long(1.0, 1.0, 0.0) == pytest.approx(0.8)
    assert gamma_bound_long(0.0, 0.0, 0.5) == pytest.approx(2.0)  # 1/eps caps
    with pytest.raises(ContractViolation):
        gamma_bound_long(1.0, 1.0, 1.0)


def test_gamma_bound_conservative_values():
    assert gamma_bound_conservative(0.0, 2.0, 0.0, 1e-12) == pytest.approx(
        0.5, rel=1e-9
    )
    assert gamma_bound_conservative(3.0, 0.0, 0.0, 1e-12) == pytest.approx(
        2.0 / 3.0, rel=1e-9
    )
    with pytest.raises(ContractViolation):
        gamma_bound_conservative(1.0, 1.0, 0.0, -0.1)


def test_conservative_bound_contained_in_long_bound(scalar_draws):
    rng, uniform = Lcg64(10), scalar_draws.uniform
    for _ in range(50):
        be = 2.0 * uniform(rng)
        ld = 2.0 * uniform(rng)
        kn = 2.0 * uniform(rng)
        eps = 0.5 * uniform(rng)
        assert gamma_bound_conservative(be, ld, kn, eps) <= gamma_bound_long(
            be, ld, eps
        ) + 1e-15


def test_epsbar_delta_worked_example():
    eps_bar, delta = epsbar_delta(0.1, 0.0, 1.0, 0.0)
    assert eps_bar == pytest.approx(0.1, abs=1e-15)
    assert delta == pytest.approx(1.0 / 220.0, abs=1e-15)


def test_epsbar_delta_stays_in_unit_interval(scalar_draws):
    rng, uniform = Lcg64(12), scalar_draws.uniform
    for _ in range(100):
        eps = 0.05 + 0.4 * uniform(rng)
        be = 2.0 * uniform(rng)
        ld = 2.0 * uniform(rng)
        kn = 2.0 * uniform(rng)
        if 1.0 / eps < be * ld * eps / (2.0 * (1.0 - eps)):
            continue
        _, delta = epsbar_delta(eps, be, ld, kn)
        assert 0.0 < delta < 1.0


def declared(beta_e, l_d, k_norm=0.0):
    """A problem whose E and D carry only their declared constants, and a
    K = k_norm times a quarter turn in R^2."""
    return FourOpProblem(
        b=zero_operator(), d=LipschitzMap(np.zeros_like, l_d),
        e=CocoerciveMap(np.zeros_like, beta_e),
        k=SkewMap(k_norm * np.array([[0.0, -1.0], [1.0, 0.0]])),
    )


def scalar_view(prob, gamma):
    return as_nofob(prob, ScalarStep(gamma), SpdMetric.identity(prob.dim))


def test_beta_effective_values():
    # the effective beta of the scalar kernel, beta_E / (1/gamma - L_D)
    assert scalar_view(declared(0.0, 1.0), 0.3).beta == 0.0
    assert scalar_view(declared(1.0, 1.0), 0.5).beta == pytest.approx(1.0)
    with pytest.raises(ContractViolation, match="not positive definite"):
        scalar_view(declared(1.0, 1.0), 2.0)  # 1/gamma <= L_D


def test_beta_effective_below_four_at_long_bound(scalar_draws):
    rng, uniform = Lcg64(13), scalar_draws.uniform
    for _ in range(100):
        be = 3.0 * uniform(rng) + 0.01
        ld = 2.0 * uniform(rng)
        eps = 0.05 + 0.5 * uniform(rng)
        g = gamma_bound_long(be, ld, eps)
        if not np.isfinite(g):
            continue
        assert scalar_view(declared(be, ld), g).beta <= 4.0 - eps + 1e-10


def test_kernel_lipschitz_values_and_sampling():
    # L_M = ||Q|| + L_D + ||K||, here 1/gamma + L_D + ||K||
    assert scalar_view(declared(0.0, 0.0), 1.0).kernel_lipschitz == pytest.approx(1.0)
    assert scalar_view(declared(0.0, 1.0, 2.0), 0.5).kernel_lipschitz == pytest.approx(5.0)
    prob = seeded_problem()
    g = 0.3
    view = scalar_view(prob, g)
    bound = view.kernel_lipschitz
    assert bound == pytest.approx(1.0 / g + prob.d.lipschitz_constant
                                  + prob.k.operator_norm, rel=1e-15)
    rng = Lcg64(14)
    for _ in range(2000):
        x, y = rng.vector(prob.dim), rng.vector(prob.dim)
        gap = np.linalg.norm(x - y)
        if gap == 0:
            continue
        ratio = np.linalg.norm(view.kernel_diff(x, y, x - y)) / gap
        assert ratio <= bound + 1e-8


def test_kernel_strong_monotonicity_in_p_metric():
    prob = seeded_problem()
    g = 0.3
    view = as_nofob(prob, ScalarStep(g), SpdMetric.identity(prob.dim))
    p = view.p_metric
    rng = Lcg64(15)
    for _ in range(2000):
        x, y = rng.vector(prob.dim), rng.vector(prob.dim)
        diff = x - y
        lhs = float(view.kernel_diff(x, y, diff) @ diff)
        rhs = float(diff @ (p.matrix @ diff))
        assert lhs >= rhs - 1e-9


def test_mu_lower_bound_sampling_over_pairs():
    # gamma/(2 - delta) <= mu(x, y) for all pairs under the short-step bound
    prob = seeded_problem()
    be = prob.e.inverse_cocoercivity
    ld = prob.d.lipschitz_constant
    kn = prob.k.operator_norm
    eps = 0.1
    g = 0.95 * gamma_bound_conservative(be, ld, kn, eps)
    _, delta = epsbar_delta(eps, be, ld, kn)
    mu_hat = g / (2.0 - delta)
    view = as_nofob(prob, ScalarStep(g), SpdMetric.identity(prob.dim))
    rng = Lcg64(16)
    for _ in range(10000):
        x, y = rng.vector(prob.dim), rng.vector(prob.dim)
        m = view.kernel_diff(x, y, x - y)
        den = float(m @ m)
        if den == 0.0:
            continue
        diff = x - y
        num = float(m @ diff) - 0.25 * be * float(diff @ diff)
        assert mu_hat <= num / den + 1e-10


def test_step_bound_warnings(conservative_reference):
    prob = seeded_problem()
    be = prob.e.inverse_cocoercivity
    ld = prob.d.lipschitz_constant
    kn = prob.k.operator_norm
    x = np.ones(prob.dim)
    g_cons = 1.05 * gamma_bound_conservative(be, ld, kn, 0.0)
    with pytest.warns(StepParameterWarning):
        conservative_reference(prob, g_cons, x)
    # the long-step bound is where the scalar kernel's beta reaches 4, so
    # beyond it the kernel view itself is rejected
    g_long = 1.05 * gamma_bound_long(be, ld, 0.0)
    with pytest.raises(ContractViolation):
        as_nofob(prob, ScalarStep(g_long), SpdMetric.identity(prob.dim))


# ---------------------------------------------------------------------------
# constant asymmetric kernels and the fixed-step check


def test_afba_fixed_step_check_boundary_cases():
    p = SpdMetric.identity(2)
    s = SpdMetric.identity(2)
    k = SkewMap.zero(2)
    assert afba_fixed_step_check(p, np.eye(2), k, s, 0.0, 1.0)
    assert not afba_fixed_step_check(p, np.eye(2), k, s, 2.0, 1.0)


def test_afba_fixed_step_check_two_block_metric():
    # block-triangular kernel from step sizes satisfying t2/t1 * |L|^2 < 1
    rng = Lcg64(17)
    l = rng.matrix(2, 3)
    spec = AffinePlusSkew(l, 1.0, 0.8 / np.linalg.norm(l, 2) ** 2)
    q = spec.q_matrix
    assert afba_fixed_step_check(spec.p, q, SkewMap(0.5 * (q - q.T)), spec.p, 0.0, 0.5)


def test_affine_plus_skew_builds_the_afba_kernel():
    rng = Lcg64(18)
    l = rng.matrix(2, 3)
    t1, t2 = 0.5, 0.25
    spec = AffinePlusSkew(l, t1, t2)
    assert spec.dims == (2, 3)
    q = spec.q_matrix
    assert np.array_equal(q[:2, :2], t1 * np.eye(2))
    assert np.array_equal(q[2:, 2:], np.eye(3) / t2)
    assert np.array_equal(q[2:, :2], 2.0 * l.T)
    assert not q[:2, 2:].any()
    assert np.array_equal(spec.p.matrix, 0.5 * (q + q.T))
    # the bound Q is the kernel's matrix as a LinearPart, which
    # tests/test_rounding.py pins on vectors and stacks
    ps = PsProblem([zero_operator(), zero_operator()], [l], 3)
    bound = spec.bind(ps.stacked).q
    assert isinstance(bound, LinearPart) and bound.matrix is q and bound.shift is None
    for taus in ((0.0, 1.0), (1.0, -1.0), (float("nan"), 1.0)):
        with pytest.raises(ContractViolation, match="must be positive"):
            AffinePlusSkew(l, *taus)
    # tau2 ||L||^2 / tau1 >= 1: the symmetric part is not positive definite
    with pytest.raises(ContractViolation, match="not positive definite"):
        AffinePlusSkew(l, 1.0, 1.5 / np.linalg.norm(l, 2) ** 2)


@pytest.mark.parametrize("l", [np.ones(3), np.zeros((0, 3)), np.zeros((3, 0))],
                         ids=["1-d", "0x3", "3x0"])
def test_affine_plus_skew_rejects_an_l_that_is_not_a_nonempty_matrix(l):
    # numpy's "not enough values to unpack" on a 1-D L before; an empty L
    # built a kernel that no bundle fits
    with pytest.raises(ContractViolation, match="coupling L must be a nonempty matrix"):
        AffinePlusSkew(l, 1.0, 0.5)


def test_affine_plus_skew_gauss_seidel_solves_the_block_system():
    # with B = 0 the resolvent must equal a dense linear solve
    rng = Lcg64(19)
    l = rng.matrix(2, 2)
    spec = AffinePlusSkew(l, 1.0, 0.7 / np.linalg.norm(l, 2) ** 2)
    q = spec.q_matrix
    prob = FourOpProblem(
        b=BlockProx([zero_operator(), zero_operator()], [2, 2]),
        d=zero_forward(), e=zero_cocoercive(), k=SkewMap.zero(4),
    )
    v = rng.vector(4)
    resolvent = spec.bind(prob).resolvent
    out = resolvent(v, None, None)  # a linear kernel ignores the start
    assert np.allclose(out, np.linalg.solve(q, v), atol=1e-12)


@pytest.mark.parametrize("problem, algorithm, family", [
    ("regquad-full", "four-op", ScalarStep),
    ("saddle", "four-op", BlockDiag),
    ("saddle", "afba", AffinePlusSkew),
    ("nonlinear-kernel", "four-op", SeparableNonlinear),
])
def test_as_nofob_binds_its_kernel_once_per_view(monkeypatch, problem, algorithm, family):
    # the view binds when it is built; no step and no audit binds again
    binds = []
    bind = family.bind

    def counted(spec, prob):
        binds.append(prob)
        return bind(spec, prob)

    monkeypatch.setattr(family, "bind", counted)
    out = run_algorithm(algorithm, get_instance(problem), tol=0.0, max_iter=20)
    view = out.nofob_view
    assert len(binds) == 1 and out.trajectory.iterations == 21
    traj = out.trajectory
    assert check_separation(traj, view, out.z_star).passed
    assert check_mu_bounds(traj, view.beta, view.p_metric, out.s_metric,
                           view.kernel_lipschitz).passed
    assert len(binds) == 1


def two_block_with_d(l_d=0.8):
    """Two zero blocks of size 2 with D = l_d I."""
    return FourOpProblem(
        b=BlockProx([zero_operator(), zero_operator()], [2, 2]),
        d=LipschitzMap(lambda x: l_d * x, l_d), e=zero_cocoercive(),
        k=SkewMap.zero(4),
    )


def test_block_kernel_metric_subtracts_l_d():
    # P = min(w) I - L_D I: Q - D = 0.2 I here
    prob = two_block_with_d()
    view = as_nofob(prob, BlockDiag([1.0, 1.0]), SpdMetric.identity(4))
    assert view.p_metric.lam_min == pytest.approx(0.2, rel=1e-14)
    assert view.p_metric.lam_max == pytest.approx(0.2, rel=1e-14)
    assert view.kernel_lipschitz == pytest.approx(1.8, rel=1e-15)
    # Q - D = -0.3 I is not strongly monotone in any metric
    with pytest.raises(ContractViolation, match="not positive definite"):
        as_nofob(prob, BlockDiag([0.5, 0.5]), SpdMetric.identity(4))


def test_affine_plus_skew_metric_subtracts_l_d():
    l = Lcg64(19).matrix(2, 2)
    spec = AffinePlusSkew(l, 1.0, 0.7 / np.linalg.norm(l, 2) ** 2)
    # lambda_min of the symmetric part is about 0.214 < L_D = 0.8
    assert spec.p.lam_min < 0.8
    with pytest.raises(ContractViolation, match="not positive definite"):
        as_nofob(two_block_with_d(), spec, SpdMetric.identity(4))
    # with L_D = 0.1 the view's P is the symmetric part minus 0.1 I
    view = as_nofob(two_block_with_d(0.1), spec, SpdMetric.identity(4))
    assert np.allclose(view.p_metric.matrix, spec.p.matrix - 0.1 * np.eye(4),
                       rtol=0.0, atol=1e-15)
    assert view.p_metric.lam_min == pytest.approx(spec.p.lam_min - 0.1, rel=1e-12)


# ---------------------------------------------------------------------------
# relaxed forward-backward


def fbs_fixture(n=6, seed=21):
    rng = Lcg64(seed)
    r = rng.matrix(n, n)
    h = (r @ r.T) / n + 0.4 * np.eye(n)
    b_vec = rng.vector(n)
    beta_e = float(np.linalg.eigvalsh(h)[-1])
    e = CocoerciveMap(lambda x: h @ x - b_vec, beta_e)
    return l1_subdifferential(0.2), e, beta_e, rng.vector(n)


def test_fbs_theta_cancellation_gives_plain_forward_backward(fbs_relaxed_reference):
    b, e, beta_e, x = fbs_fixture()
    g = 1.5 / beta_e
    theta = 4.0 / (4.0 - beta_e * g)
    out = fbs_relaxed_reference(b, e, g, theta, x)
    plain = b.evaluator(g, x - g * e(x))
    assert np.allclose(out, plain, atol=1e-14)


def test_fbs_beta_zero_theta_one_is_resolvent_step(fbs_relaxed_reference):
    b = l1_subdifferential(0.5)
    e = zero_cocoercive()
    x = np.array([2.0, -0.1, 0.7, 0.0])
    out = fbs_relaxed_reference(b, e, 0.9, 1.0, x)
    assert np.allclose(out, b.evaluator(0.9, x), atol=1e-15)


def test_fbs_redundant_projection_identity_over_100_iterations(fbs_relaxed_reference):
    b, e, beta_e, x = fbs_fixture()
    n = x.shape[0]
    prob = FourOpProblem(b=b, d=zero_forward(), e=e, k=SkewMap.zero(n))
    s = SpdMetric.identity(n)
    g = 1.2 / beta_e
    view = as_nofob(prob, ScalarStep(g), s)
    theta = 1.3
    worst = 0.0
    for _ in range(100):
        direct = fbs_relaxed_reference(b, e, g, theta, x)
        generic = one_record(corrected_step(view, theta), x)
        worst = max(worst, float(np.max(np.abs(direct - generic.x_next))))
        # closed-form step length of the reduction; the kernel difference
        # Mx - Mx_hat loses eps * |x| / residual relative digits, so the
        # 1e-12 agreement only holds while the residual is moderate
        if generic.residual_s > 1e-3:
            assert generic.mu == pytest.approx(
                g * (1.0 - beta_e * g / 4.0), abs=1e-12
            )
        x = direct
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# nonlinear kernels


def test_separable_nonlinear_spec_takes_d_and_requires_a_separable_b():
    prob = seeded_problem(with_e=False)  # D != 0 with L_D < 1, K != 0, separable B
    kernel = SeparableNonlinear(phi=lambda x: x, sigma=1.0, ell=1.0)
    view = as_nofob(prob, kernel, SpdMetric.identity(prob.dim))
    assert view.p_metric.lam_min == pytest.approx(1.0 - prob.d.lipschitz_constant,
                                                  rel=1e-14)
    dense = FourOpProblem(b=affine_operator(np.eye(prob.dim), np.zeros(prob.dim)),
                          d=prob.d, e=prob.e, k=prob.k)
    with pytest.raises(ContractViolation, match="separable B"):
        fb(dense, kernel, np.zeros(prob.dim))


@pytest.mark.parametrize("n", [20, 200])
@pytest.mark.parametrize("seed", range(10))
def test_four_op_on_a_nonlinear_nonsymmetric_kernel_reaches_the_planted_solution(
        seed, n, planted_nonlinear_drift):
    inst = planted_nonlinear_drift(n, seed)
    assert 0.5 < inst.constants["l_d"] < 0.6
    assert fixed_point_residual(inst.bundle, inst.oracle) <= 1e-12
    out = run_algorithm("four-op", inst)
    view = out.nofob_view
    assert view.p_metric.lam_min == pytest.approx(1.0 - inst.constants["l_d"], rel=1e-14)
    traj = out.trajectory
    assert traj.status == "converged" and traj.iterations <= 60
    assert np.linalg.norm(traj.final_x - inst.oracle) <= 1e-6
    reports = [
        check_fejer(traj, out.z_star, out.s_metric),
        check_separation(traj, view, out.z_star),
        check_mu_bounds(traj, view.beta, view.p_metric, out.s_metric,
                        view.kernel_lipschitz),
    ]
    assert all(r.passed for r in reports), [r.line() for r in reports]


def test_nonlinear_kernel_at_or_below_l_d_is_rejected(planted_nonlinear_drift):
    # ||W||^2 = 0.8 puts L_D near 1.08, past the kernel's sigma = 1
    inst = planted_nonlinear_drift(20, 0, w_square=0.8)
    assert inst.constants["l_d"] >= inst.nonlinear_spec.sigma
    with pytest.raises(ContractViolation, match="not positive definite"):
        run_algorithm("four-op", inst)


def test_separable_nonlinear_linear_phi_matches_scalar_kernel():
    n = 4
    prob = FourOpProblem(
        b=l1_subdifferential(0.3), d=zero_forward(), e=zero_cocoercive(),
        k=SkewMap.zero(n),
    )
    # phi(t) = 2 t is the scalar kernel with gamma = 1/2
    kernel = SeparableNonlinear(phi=lambda x: 2.0 * x, sigma=2.0, ell=2.0)
    x = np.array([1.0, -0.4, 0.0, 2.0])
    a = fb(prob, kernel, x)
    b = fb(prob, ScalarStep(0.5), x)
    assert np.allclose(a, b, atol=1e-10)


# ---------------------------------------------------------------------------
# the summed linear part against the maps one by one

_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _gamma_m(m):
    """m u / (1 - m u): the relative error bound of m rounded operations
    in a row (Higham, "Accuracy and Stability of Numerical Algorithms",
    2nd ed., 2002, Lemma 3.1)."""
    return m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)


@pytest.mark.parametrize("split", ["fbhf", "fbf", "full"])
@pytest.mark.parametrize("n", [20, 200, 800])
@pytest.mark.parametrize("seed", range(3))
def test_summed_products_match_the_maps_one_by_one(split, n, seed):
    # Both views sum F = D + K + H (with the shift -b) and G = D + K once.
    # Against FourOpProblem.forward and Q d - (D x - D x_hat) - K d, map by
    # map, they agree componentwise within 2 gamma_{n+6} times the sum of
    # the absolute terms, which bounds the rounding of either side.
    inst = make_regularized_quadratic(n=n, seed=seed, split=split)
    prob, ex = inst.bundle, inst.extras
    abs_g = sum(np.abs(ex[key]) for key, op in (("d_matrix", prob.d), ("k_matrix", prob.k))
                if not op.is_zero)
    abs_h = 0.0 if prob.e.is_zero else np.abs(ex["h_matrix"])
    abs_b = 0.0 if prob.e.is_zero else np.abs(ex["b_vector"])
    tol = 2.0 * _gamma_m(n + 6)
    # on B = 0 with gamma = 1/4 the oracles return (4 x - F x) / 4 and
    # x - F x / 4, each rounded as the same formula on the maps' sum
    g = 0.25
    s = SpdMetric.identity(n)
    free = FourOpProblem(b=zero_operator(), d=prob.d, e=prob.e, k=prob.k)
    view = as_nofob(free, ScalarStep(g), s)
    fbs = fbs_view(free, g)
    rng = Lcg64(100 + seed)
    for scale in (1e-3, 1.0, 1e3):
        x = scale * rng.vector(n)
        absolute = 4.0 * np.abs(x) + (abs_g + abs_h) @ np.abs(x) + abs_b
        forward = prob.forward(x)
        assert np.all(np.abs(view.fb_oracle(x) - g * (x / g - forward)) <= tol * absolute)
        assert np.all(np.abs(fbs.fb_oracle(x) - (x - g * forward)) <= tol * absolute)
        # the kernel difference at the oracle's own x and at a copy of it
        x_hat = as_nofob(prob, ScalarStep(g), s).fb_oracle(x)
        for x_hat in (x_hat, scale * rng.vector(n)):
            diff = x - x_hat
            reference = diff / g
            if not prob.d.is_zero:
                reference = reference - (prob.d(x) - prob.d(x_hat))
            if not prob.k.is_zero:
                reference = reference - prob.k(diff)
            absolute = (4.0 * np.abs(diff) + abs_g @ (np.abs(x) + np.abs(x_hat))
                        + abs_g @ np.abs(diff))
            view.fb_oracle(x)
            for point in (x, x.copy()):
                assert np.all(np.abs(view.kernel_diff(point, x_hat, diff) - reference)
                              <= tol * absolute)


@pytest.mark.parametrize("algorithm", ["fbs", "fbhf-long", "four-op"])
def test_one_live_map_is_its_own_product(algorithm):
    # regquad-fbs has E alone: the views apply E's own matrix and shift,
    # and the run is bit for bit that of E called as a map
    inst = get_instance("regquad-fbs")
    e = inst.bundle.e
    assert e.matrix is inst.extras["h_matrix"]
    plain = dataclasses.replace(inst, bundle=dataclasses.replace(
        inst.bundle, e=CocoerciveMap(e.evaluator, e.inverse_cocoercivity)))
    fused = run_algorithm(algorithm, inst).trajectory
    mapped = run_algorithm(algorithm, plain).trajectory
    assert fused.status == mapped.status == "converged"
    assert fused.iterations == mapped.iterations
    for a, b in zip(fused.records, mapped.records):
        assert np.array_equal(a.x_next, b.x_next) and a.mu == b.mu


# ---------------------------------------------------------------------------
# the stacked kernel difference the separation audit takes


def _assert_stacked_is_per_row(view, records):
    """`kernel_diff` of the stacked records equals `kernel_diff` of each
    record byte for byte, so signed zeros count."""
    xs = np.array([r.x for r in records])
    x_hats = np.array([r.x_hat for r in records])
    stacked = view.kernel_diff(xs, x_hats, xs - x_hats)
    per_row = np.array([view.kernel_diff(r.x, r.x_hat, r.x - r.x_hat) for r in records])
    assert stacked.shape == per_row.shape == xs.shape
    assert stacked.tobytes() == per_row.tobytes()


@pytest.mark.parametrize("problem, algorithm, family, with_g", [
    ("regquad-fbhf", "fbhf", ScalarStep, True),
    ("regquad-fbf", "fbf-long", ScalarStep, True),
    ("regquad-full", "four-op", ScalarStep, True),
    ("rotation", "fbf", ScalarStep, True),
    ("regquad-fbs", "fbhf-long", ScalarStep, False),
    ("saddle", "four-op", BlockDiag, True),
    ("saddle", "ps-resolvent", BlockDiag, True),
    ("saddle", "afba", AffinePlusSkew, True),
    ("nonlinear-kernel", "four-op", SeparableNonlinear, False),
    ("regquad-fbs", "fbs", fbs_view, False),
    # a D that declares no matrix, applied to the stacks row by row
    ("nonlinear-drift", "four-op", SeparableNonlinear, True),
])
@pytest.mark.parametrize("seed", range(3))
def test_stacked_kernel_difference_is_the_per_row_one_bit_for_bit(
        problem, algorithm, family, with_g, seed, planted_nonlinear_drift):
    inst = (planted_nonlinear_drift(20, seed) if problem == "nonlinear-drift"
            else get_instance(problem, seed))
    out = run_algorithm(algorithm, inst)
    records = out.trajectory.records
    assert len(records) > 1
    if family is fbs_view:
        view = fbs_view(inst.bundle, out.gamma)
    else:
        view = out.nofob_view
        bundle = inst.ps_view.stacked if algorithm == "ps-resolvent" else inst.bundle
        assert (bundle.forward_parts[0] is not None) == with_g
    _assert_stacked_is_per_row(view, records)


def _linear_kernel(problem, algorithm):
    """A linear view and its Q and G as dense matrices, written out from
    the instance: M = Q - G."""
    inst = get_instance(problem, 2)
    bundle = inst.bundle
    n = bundle.dim
    if algorithm == "fbs":
        gamma = 0.7
        return fbs_view(bundle, gamma), np.eye(n) / gamma, np.zeros((n, n))
    if algorithm == "ps-resolvent":
        stacked = inst.ps_view.stacked
        out = run_algorithm(algorithm, inst, tau=[0.5, 4.0], max_iter=0)
        m = stacked.b.offsets[1]
        q = np.diag(np.r_[np.full(m, 0.5), np.full(stacked.dim - m, 0.25)])
        return out.nofob_view, q, stacked.k.matrix
    if algorithm == "afba":
        out = run_algorithm(algorithm, inst, tau=[2.0, 0.25], max_iter=0)
        l = inst.ps_view.l_maps[0]
        m = l.shape[0]
        q = np.diag(np.r_[np.full(m, 2.0), np.full(n - m, 4.0)])
        q[m:, :m] = 2.0 * l.T
        return out.nofob_view, q, bundle.k.matrix
    out = run_algorithm(algorithm, inst, max_iter=0)
    g = sum(op.matrix for op in (bundle.d, bundle.k) if not op.is_zero)
    return out.nofob_view, np.eye(n) / out.gamma, g


@pytest.mark.parametrize("problem, algorithm", [
    ("regquad-full", "four-op"), ("regquad-fbhf", "fbhf"), ("regquad-fbs", "fbs"),
    ("saddle", "ps-resolvent"), ("saddle", "afba"),
])
def test_a_linear_kernel_difference_applies_q_and_g_to_the_given_difference(
        problem, algorithm):
    # the step and the audit hand in x - x_hat as they formed it; a linear
    # view applies Q and G to that d, here one that is not x - x_hat
    view, q, g = _linear_kernel(problem, algorithm)
    rng = Lcg64(5)
    n = q.shape[0]
    x, x_hat, d = rng.vector(n), rng.vector(n), rng.vector(n)
    m = view.kernel_diff(x, x_hat, d)
    np.testing.assert_allclose(m, q @ d - g @ d, rtol=1e-13, atol=1e-13)
    own = view.kernel_diff(x, x_hat, x - x_hat)
    np.testing.assert_allclose(own, (q - g) @ (x - x_hat), rtol=1e-13, atol=1e-13)
    assert not np.allclose(m, own)


@pytest.mark.parametrize("n", [200, 800])
@pytest.mark.parametrize("algorithm", ["four-op", "fbhf-long", "fbs-relaxed"])
def test_stacked_kernel_difference_is_the_per_row_one_at_ladder_sizes(n, algorithm):
    # dense n x n products: a GEMM `xs @ G.T` in place of the stacked GEMVs
    # rounds differently here
    inst = make_regularized_quadratic(n=n, seed=1, split="full")
    out = run_algorithm(algorithm, inst)
    view = out.nofob_view
    if algorithm == "fbs-relaxed":
        view = fbs_view(inst.bundle, out.gamma)
    _assert_stacked_is_per_row(view, out.trajectory.records)


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("n", [20, 800])
def test_a_linear_part_on_a_stack_is_the_per_row_map_bit_for_bit(n, shifted):
    # F carries E's shift, G none; at n = 800 the stacked product is taken
    # in row blocks.  The rows span magnitudes and include a zero and a
    # negative-zero row
    rng = Lcg64(n + 2)
    rows = rng.matrix(40, n) * np.logspace(-8, 8, 40)[:, None]
    rows[3] = 0.0
    rows[4] = -0.0
    part = LinearPart(rng.matrix(n, n), rng.vector(n) if shifted else None)
    expected = np.array([part(row) for row in rows])
    assert part(rows).tobytes() == expected.tobytes()


@pytest.mark.parametrize("algorithm, problem", [
    ("four-op", "regquad-full"), ("fbs", "regquad-fbs"),
    ("fbs-relaxed", "regquad-fbs"), ("four-op", "nonlinear-drift"),
])
def test_a_dropped_view_frees_its_kernel_difference_without_the_cyclic_collector(
        algorithm, problem, planted_nonlinear_drift):
    # a reference cycle through kernel_diff, such as an attribute that
    # refers to it, would keep the view's closures and bundle alive until
    # the cyclic collector ran
    inst = (planted_nonlinear_drift(20, 0) if problem == "nonlinear-drift"
            else get_instance(problem))
    view = run_algorithm(algorithm, inst, max_iter=3).nofob_view
    enabled = gc.isenabled()
    gc.disable()
    try:
        freed = weakref.ref(view.kernel_diff)
        del view
        assert freed() is None
    finally:
        if enabled:
            gc.enable()
