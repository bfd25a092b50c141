from types import SimpleNamespace

import numpy as np
import pytest

from nofob.linalg import ContractViolation
from nofob.operators import (
    BlockProx,
    CocoerciveMap,
    LipschitzMap,
    NonlinearKernel,
    SkewMap,
    _sampled_pairs,
    affine_operator,
    box_normal_cone,
    check_skew,
    inverse_via_moreau,
    l1_plus_diag_affine,
    l1_subdifferential,
    moreau_dual_resolvent,
    quadratic_operator,
    separable_nonlinear_resolvent,
    worst_cocoercivity_deficit,
    worst_lipschitz_ratio,
    worst_strong_monotonicity_deficit,
    zero_operator,
)
from nofob.rng import Lcg64


def test_zero_operator_resolvent_is_identity():
    z = zero_operator(3)
    y = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(z.evaluator(0.7, y), y)


def test_l1_soft_threshold_values():
    op = l1_subdifferential(1.0)
    out = op.evaluator(1.0, np.array([3.0, -0.5, -2.0]))
    assert np.allclose(out, [2.0, 0.0, -1.0], atol=1e-15)


def test_affine_resolvent_solves_linear_system():
    h = np.array([[2.0, 0.0], [0.0, 4.0]])
    b = np.array([1.0, -1.0])
    op = affine_operator(h, b)
    gamma, y = 0.5, np.array([2.0, 2.0])
    x = op.evaluator(gamma, y)
    # (I + gamma H) x = y - gamma b
    assert np.allclose(x + gamma * (h @ x + b), y, atol=1e-14)


def test_affine_operator_rejects_nonmonotone():
    with pytest.raises(ContractViolation):
        affine_operator(np.array([[-1.0, 0.0], [0.0, 1.0]]), np.zeros(2))


def test_quadratic_operator_requires_symmetry():
    with pytest.raises(ContractViolation):
        quadratic_operator(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2))


def test_box_normal_cone_clamps():
    op = box_normal_cone(-1.0, 1.0)
    out = op.evaluator(2.0, np.array([-3.0, 0.2, 5.0]))
    assert np.allclose(out, [-1.0, 0.2, 1.0])


def test_l1_plus_diag_affine_closed_form():
    lam, d, b = 0.5, np.array([1.0, 2.0]), np.array([2.0, -0.1])
    op = l1_plus_diag_affine(lam, d, b)
    gamma = 0.8
    y = np.array([0.3, -0.2])
    x = op.evaluator(gamma, y)
    # x must satisfy x + gamma (lam s + d x - b) = y with s in sign(x)
    for xi, yi, di, bi in zip(x, y, d, b):
        if xi != 0.0:
            assert xi + gamma * (lam * np.sign(xi) + di * xi - bi) == pytest.approx(
                yi, abs=1e-14
            )
        else:
            assert abs(yi + gamma * bi) <= gamma * lam + 1e-14


def test_moreau_identity_reconstruction():
    op = l1_subdifferential(1.0)
    rng = Lcg64(5)
    for tau in (0.3, 1.0, 2.5):
        z = 3.0 * rng.vector(6)
        dual = moreau_dual_resolvent(op, tau, z)
        assert np.allclose(op.evaluator(tau, z) + tau * dual, z, atol=1e-12)


def test_moreau_dual_resolvent_l1_projects_onto_ball():
    # A = subdiff |.|: J_A(3) = 2, dual output 1 (projection onto [-1,1])
    op = l1_subdifferential(1.0)
    out = moreau_dual_resolvent(op, 1.0, np.array([3.0]))
    assert out[0] == pytest.approx(1.0)


def test_moreau_dual_of_zero_operator_is_zero():
    out = moreau_dual_resolvent(zero_operator(3), 0.7, np.array([1.0, -2.0, 0.3]))
    assert np.allclose(out, 0.0)


def test_inverse_via_moreau_matches_direct_inverse_for_linear():
    # B x = 2x has inverse B^{-1} w = w / 2
    h = 2.0 * np.eye(3)
    op = affine_operator(h, np.zeros(3))
    inv = inverse_via_moreau(op)
    z = np.array([1.0, -4.0, 2.0])
    gamma = 0.6
    # (I + gamma B^{-1})^{-1} z = z / (1 + gamma/2)
    assert np.allclose(inv.evaluator(gamma, z), z / (1.0 + gamma / 2.0), atol=1e-13)


def test_skew_map_validation_and_norm():
    k = SkewMap(np.array([[0.0, -2.0], [2.0, 0.0]]))
    assert k.operator_norm == pytest.approx(2.0)
    with pytest.raises(ContractViolation):
        SkewMap(np.eye(2))


def test_check_skew_is_zero_for_skew_maps():
    rng = Lcg64(9)
    r = rng.matrix(5, 5)
    k = SkewMap(0.5 * (r - r.T))
    assert check_skew(k, samples=50, seed=1) <= 1e-14


def test_block_prox_split_and_resolve():
    bp = BlockProx([l1_subdifferential(1.0), zero_operator(2)], [2, 2])
    y = np.array([3.0, -0.5, 1.0, 2.0])
    out = bp.evaluator(1.0, y)
    assert np.allclose(out, [2.0, 0.0, 1.0, 2.0])
    # (w I + B)^{-1} with w = 2: soft threshold at 1/2 of y/2
    out2 = bp.block_resolve([2.0, 1.0], y)
    assert np.allclose(out2[:2], [1.0, 0.0])
    assert np.allclose(out2[2:], y[2:])


def test_batched_samplers_match_the_per_sample_draws():
    # reference: one rng.vector call per sample, as the samplers drew before
    n, samples = 7, 90
    a = Lcg64(8).matrix(n, n)
    rng = Lcg64(9)
    ref = 0.0
    for _ in range(samples):
        x = rng.vector(n)
        ref = max(ref, abs(float(x @ (a @ x))) / max(1.0, float(x @ x)))
    assert check_skew(SimpleNamespace(dim=n, matrix=a), samples, 9) == ref
    rng = Lcg64(10)
    for x, y in _sampled_pairs(n, samples, 10, 0.5):
        assert x.tobytes() == (0.5 * rng.vector(n)).tobytes()
        assert y.tobytes() == (0.5 * rng.vector(n)).tobytes()


def test_honesty_samplers_accept_honest_constants():
    h = np.array([[2.0, 0.3], [0.3, 1.0]])
    lip = float(np.linalg.norm(h, 2))
    fn = lambda x: h @ x
    assert worst_lipschitz_ratio(fn, lip, 2, 200, seed=3) <= 1.0 + 1e-12
    beta = float(np.linalg.eigvalsh(h)[-1])
    assert worst_cocoercivity_deficit(fn, beta, 2, 200, seed=3) <= 1e-12
    sigma = float(np.linalg.eigvalsh(h)[0])
    assert worst_strong_monotonicity_deficit(fn, sigma, 2, 200, seed=3) <= 1e-12


def test_honesty_samplers_reject_dishonest_constants():
    fn = lambda x: 2.0 * x
    assert worst_lipschitz_ratio(fn, 1.0, 2, 100, seed=4) > 1.0
    assert worst_cocoercivity_deficit(fn, 1.0, 2, 100, seed=4) > 0.0
    assert worst_strong_monotonicity_deficit(fn, 3.0, 2, 100, seed=4) > 0.0


def test_cocoercivity_zero_beta_conventions():
    const = lambda x: np.ones_like(x)
    assert worst_cocoercivity_deficit(const, 0.0, 3, 50, seed=5) <= 0.0
    moving = lambda x: x
    assert worst_cocoercivity_deficit(moving, 0.0, 3, 50, seed=5) == np.inf


def test_separable_nonlinear_resolvent_linear_kernel():
    # phi(t) = 2t with B = 0 solves 2x = y exactly
    kernel = NonlinearKernel(phi=lambda x: 2.0 * x, sigma=2.0, ell=2.0)
    y = np.array([1.0, -3.0, 0.0])
    x = separable_nonlinear_resolvent(kernel, zero_operator(3), y)
    assert np.allclose(x, y / 2.0, atol=1e-11)


def test_separable_nonlinear_resolvent_arctan_kernel():
    kernel = NonlinearKernel(phi=lambda x: x + np.arctan(x), sigma=1.0, ell=2.0)
    prox = l1_subdifferential(0.5)
    y = np.array([2.0, -0.2, 4.0])
    x = separable_nonlinear_resolvent(kernel, prox, y, tol=1e-12)
    # certify the inclusion phi(x) + 0.5 sign(x) contains y where x != 0
    for xi, yi in zip(x, y):
        if abs(xi) > 1e-12:
            res = xi + np.arctan(xi) + 0.5 * np.sign(xi) - yi
            assert abs(res) <= 1e-10
        else:
            assert abs(yi - np.arctan(0.0)) <= 0.5 + 1e-10


def test_separable_nonlinear_resolvent_requires_separable_prox():
    kernel = NonlinearKernel(phi=lambda x: x, sigma=1.0, ell=1.0)
    dense = affine_operator(np.eye(2), np.zeros(2))
    with pytest.raises(ContractViolation):
        separable_nonlinear_resolvent(kernel, dense, np.zeros(2))


def test_maps_are_callable_with_declared_constants():
    lm = LipschitzMap(lambda x: 0.5 * x, 0.5)
    cm = CocoerciveMap(lambda x: x, 1.0)
    x = np.ones(3)
    assert np.allclose(lm(x), 0.5 * x)
    assert np.allclose(cm(x), x)
