import numpy as np
import pytest

from nofob.core import corrected_step
from nofob.fourop import BlockDiag, as_nofob
from nofob.linalg import ContractViolation, SpdMetric
from nofob.operators import (
    ProxOperator,
    inverse_via_moreau,
    l1_subdifferential,
    zero_operator,
)
from nofob.problems import get_instance, make_saddle_pd
from nofob.projective import PsProblem, ps_explicit_oracle
from nofob.rng import Lcg64

from conftest import one_record


def q_weights(taus):
    """The block-diagonal kernel's weights (tau_1, ..., tau_{n-1}, 1/tau_n)."""
    return (*taus[:-1], 1.0 / taus[-1])


def ps_resolvent_iterate(ps, p, theta, taus=None):
    """One resolvent-form step at the per-block step sizes taus (by default
    all 1): the corrected step on the block-diagonal view, as a record."""
    taus = (1.0,) * ps.n if taus is None else tuple(taus)
    view = as_nofob(ps.stacked, BlockDiag(q_weights(taus)), SpdMetric.identity(ps.stacked.dim))
    return one_record(corrected_step(view, theta), p)


def zero_ps(n_dual=2, n_primal=3, l=None):
    lmat = np.zeros((n_dual, n_primal)) if l is None else np.asarray(l, float)
    return PsProblem(
        a_ops=[zero_operator(), zero_operator()],
        l_maps=[lmat], primal_dim=n_primal,
    )


# ---------------------------------------------------------------------------
# problem validation


def test_ps_problem_validation():
    with pytest.raises(ContractViolation, match="need n-1 coupling maps"):
        PsProblem([zero_operator()], [np.zeros((2, 3))], 3)
    with pytest.raises(ContractViolation, match="primal_dim columns"):
        PsProblem([zero_operator(), zero_operator()], [np.zeros((2, 4))], 3)
    with pytest.raises(ContractViolation, match="block dimensions must be positive"):
        PsProblem([zero_operator(), zero_operator()], [np.zeros((0, 3))], 3)


@pytest.mark.parametrize("size", [2.5, float("nan"), True, False, np.True_],
                         ids=["non-integral", "nan", "true", "false", "numpy-bool"])
def test_ps_problem_rejects_a_primal_size_that_is_not_an_integer(size):
    # primal_dim 2 from 2.5, numpy's ValueError from NaN, and primal_dim 1
    # from True (a bool is an int) before
    with pytest.raises(ContractViolation, match="primal size must be an integer"):
        PsProblem([zero_operator()], [], size)


def test_ps_problem_takes_a_numpy_integer_primal_size():
    ps = PsProblem([zero_operator()], [], np.int64(3))
    assert ps.primal_dim == 3 and type(ps.primal_dim) is int
    with pytest.raises(ContractViolation, match="block dimensions must be positive"):
        PsProblem([zero_operator()], [], 0)


@pytest.mark.parametrize("taus", [
    (1.0,), (1.0, 1.0, 1.0), (),  # not one per block
    (1.0, 0.0), (1.0, -0.5), (1.0, float("nan")),
    (1.0, float("inf")), (float("inf"), 1.0),
])
def test_explicit_oracle_takes_one_positive_finite_step_size_per_block(taus):
    with pytest.raises(ContractViolation,
                       match="need one positive and finite step size per block"):
        ps_explicit_oracle(zero_ps(), taus)


# ---------------------------------------------------------------------------
# primal-dual stacking


def test_stack_zero_coupling_gives_zero_skew():
    stacked = zero_ps().stacked
    assert np.allclose(stacked.k.matrix, 0.0)
    assert stacked.b.dims == (2, 3) and stacked.dim == 5
    p = np.arange(5.0)
    assert not stacked.d(p).any() and not stacked.e(p).any()


def test_stack_identity_coupling_is_canonical_symplectic():
    ps = zero_ps(n_dual=2, n_primal=2, l=np.eye(2))
    kmap = ps.stacked.k
    expected = np.block([
        [np.zeros((2, 2)), -np.eye(2)],
        [np.eye(2), np.zeros((2, 2))],
    ])
    assert np.array_equal(kmap.matrix, expected)


def test_stack_three_blocks_entrywise():
    rng = Lcg64(31)
    l1 = rng.matrix(2, 4)
    l2 = rng.matrix(3, 4)
    ps = PsProblem(
        a_ops=[zero_operator(), zero_operator(), zero_operator()],
        l_maps=[l1, l2], primal_dim=4,
    )
    kmap = ps.stacked.k
    kmat = kmap.matrix
    assert np.array_equal(kmat[0:2, 5:9], -l1)
    assert np.array_equal(kmat[2:5, 5:9], -l2)
    assert np.array_equal(kmat[5:9, 0:2], l1.T)
    assert np.array_equal(kmat[5:9, 2:5], l2.T)
    assert np.allclose(kmat[0:5, 0:5], 0.0)
    assert np.allclose(kmat[5:9, 5:9], 0.0)


def test_stack_dual_blocks_resolve_through_moreau():
    # dual resolvent of |.| at weight 1 projects onto [-1, 1]
    ps = PsProblem(
        a_ops=[l1_subdifferential(1.0), zero_operator()],
        l_maps=[np.zeros((1, 1))], primal_dim=1,
    )
    resolvent = BlockDiag([1.0, 1.0]).bind(ps.stacked).resolvent
    out = resolvent(np.array([3.0, 5.0]), None, None)
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(5.0)


def test_moreau_dual_resolvent_examples(scalar_draws):
    # J_{tau^{-1} A^{-1}}(tau^{-1} z), as the stacked dual blocks evaluate it
    def dual(op, tau, z):
        return inverse_via_moreau(op).evaluator(1.0 / tau, z / tau)

    zero = zero_operator()
    assert dual(zero, 1.0, np.array([2.5]))[0] == 0.0
    ab = l1_subdifferential(1.0)
    assert dual(ab, 1.0, np.array([3.0]))[0] == pytest.approx(1.0)
    rng = Lcg64(32)
    for _ in range(20):
        z = rng.vector(4)
        tau = 0.5 + scalar_draws.uniform(rng)
        j = ab.evaluator(tau, z)
        assert np.allclose(j + tau * dual(ab, tau, z), z, atol=1e-12)


# ---------------------------------------------------------------------------
# resolvent formulation


def test_resolvent_all_zero_is_identity():
    # zero dual part: any x is a zero of the primal block, so p is fixed
    ps = zero_ps()
    p = np.array([0.0, 0.0, 0.5, 0.0, 3.0])
    rec = ps_resolvent_iterate(ps, p, 1.0)
    assert np.array_equal(rec.x_next, p)
    assert rec.mu == 0.0


def test_resolvent_zero_stacked_blocks_match_dense_solve():
    # A_1 = normal cone of {0} has inverse 0, so the stacked B vanishes
    rng = Lcg64(33)
    l = rng.matrix(2, 3)
    cone_of_zero = ProxOperator(lambda gamma, y: np.zeros_like(y), "normal-cone-of-0")
    ps = PsProblem(
        a_ops=[cone_of_zero, zero_operator()],
        l_maps=[l], primal_dim=3,
    )
    kmap = ps.stacked.k
    q = np.eye(5)
    p_vec = rng.vector(5)
    p_hat_oracle = np.linalg.solve(q, (q - kmap.matrix) @ p_vec)
    rec = ps_resolvent_iterate(ps, p_vec, 1.0)
    assert np.allclose(rec.x_hat, p_hat_oracle, atol=1e-13)
    diff = p_vec - p_hat_oracle
    m = (q - kmap.matrix) @ diff
    mu = float(diff @ q @ diff) / float(m @ m)
    assert np.allclose(rec.x_next, p_vec - mu * m, atol=1e-13)


def test_resolvent_matches_blockdiag_four_op_view():
    # the step on the block-diagonal view against the resolvent form
    # written out: p_hat = (Q + B)^{-1}(Q - K) p, mu = ||p - p_hat||_Q^2
    # over ||(Q - K)(p - p_hat)||^2
    inst = get_instance("saddle")
    ps = inst.ps_view
    block, kmap = ps.stacked.b, ps.stacked.k
    weights = q_weights((1.0, 1.0))
    p_vec = inst.x0
    for _ in range(30):
        rec = ps_resolvent_iterate(ps, p_vec, 1.0)
        q_p = np.concatenate([w * xb for w, xb in zip(weights, block.split(p_vec))])
        p_hat = np.concatenate([op.evaluator(1.0 / w, vb / w) for w, op, vb
                                in zip(weights, block.ops, block.split(q_p - kmap(p_vec)))])
        assert np.array_equal(rec.x_hat, p_hat)
        diff = p_vec - p_hat
        q_diff = np.concatenate([w * xb for w, xb in zip(weights, block.split(diff))])
        m = q_diff - kmap(diff)
        mu = float(q_diff @ diff) / float(m @ m)
        assert np.max(np.abs(rec.x_next - (p_vec - mu * m))) <= 1e-12
        p_vec = rec.x_next


# ---------------------------------------------------------------------------
# explicit formulation and the equivalence


def test_explicit_zero_operators_match_resolvent(ps_explicit_step):
    rng = Lcg64(34)
    l = rng.matrix(2, 3)
    ps = zero_ps(l=l)
    p = np.concatenate([rng.vector(2), rng.vector(3)])
    rec_a = ps_explicit_step(ps, p, 1.0, taus=(0.7, 1.3))
    rec_b = ps_resolvent_iterate(ps, p, 1.0, taus=(0.7, 1.3))
    assert rec_a.x is p
    assert np.allclose(rec_a.x_next, rec_b.x_next, atol=1e-12)
    assert rec_a.mu == pytest.approx(rec_b.mu, rel=1e-10)


def test_explicit_hand_formulas_on_zero_operators(ps_explicit_step):
    rng = Lcg64(35)
    l = rng.matrix(2, 3)
    ps = zero_ps(l=l)
    w, x = rng.vector(2), rng.vector(3)
    rec = ps_explicit_step(ps, np.concatenate([w, x]), 1.0, taus=(0.7, 1.3))
    # with A_i = 0 the resolvents are identities
    x_hat = x - 1.3 * (l.T @ w)
    v_hat = l @ x + 0.7 * w
    w_hat = np.zeros(2)
    assert np.allclose(rec.x_hat, np.concatenate([w_hat, x_hat]), atol=1e-13)
    y_hat = (x / 1.3 - l.T @ w) - x_hat / 1.3
    t_star = y_hat + l.T @ w_hat
    t1 = v_hat - l @ x_hat
    mu = rec.mu
    assert np.allclose(
        rec.x_next,
        np.concatenate([w - mu * t1, x - mu * t_star]),
        atol=1e-12,
    )


@pytest.mark.parametrize("taus", [None, (0.7, 1.3)], ids=["unit", "given"])
@pytest.mark.parametrize("seed, n, m", [(2026, 8, 6), (24, 19, 2), (16, 5, 3)])
def test_equivalence_on_saddle_for_200_iterations(ps_explicit_step, seed, n, m, taus):
    # the explicit and resolvent oracles agree to round-off all the way
    # down to the floor, on the registry instance and on the two that
    # left the mu bounds there while the explicit form had its own step,
    # at unit step sizes and at given ones
    inst = make_saddle_pd(n=n, m=m, seed=seed)
    ps = inst.ps_view
    p_a = p_b = inst.x0
    worst = 0.0
    for _ in range(200):
        p_a = ps_explicit_step(ps, p_a, 1.0, taus=taus).x_next
        p_b = ps_resolvent_iterate(ps, p_b, 1.0, taus=taus).x_next
        worst = max(worst, float(np.max(np.abs(p_a - p_b))))
    assert worst <= 1e-13
    assert np.max(np.abs(p_a - inst.oracle)) <= 1e-7


def test_explicit_numerator_and_denominator_identities(ps_mu_terms_reference, ps_explicit_step):
    inst = get_instance("saddle")
    ps = inst.ps_view
    p = inst.x0
    checked = 0
    for _ in range(60):
        rec = ps_explicit_step(ps, p, 1.0)
        if rec.residual_s > 1e-3:
            num_pub, num_w, den_e, den_w = ps_mu_terms_reference(ps, p, rec.x_hat)
            assert num_pub == pytest.approx(num_w, rel=1e-9)
            assert den_e == pytest.approx(den_w, rel=1e-9)
            assert den_e == pytest.approx(rec.normal_inv_norm ** 2, rel=1e-9)
            assert num_w == pytest.approx(rec.psi_at_x, rel=1e-9)
            checked += 1
        p = rec.x_next
    assert checked >= 10


def test_explicit_fixed_point_at_oracle(ps_explicit_step):
    inst = get_instance("saddle")
    ps = inst.ps_view
    rec = ps_explicit_step(ps, inst.oracle, 1.0)
    assert np.max(np.abs(rec.x_next - inst.oracle)) <= 1e-9
    assert rec.mu == 0.0


def test_no_coupled_step_size_restriction():
    # tau pair violating tau1 * tau2 * |L|^2 < 1 still converges
    inst = get_instance("saddle")
    ps = inst.ps_view
    l = inst.extras["l_matrix"]
    l_norm = float(np.linalg.norm(l, 2))
    t1 = 2.0 / l_norm
    t2 = 2.0 / l_norm
    assert t1 * t2 * l_norm**2 > 1.0
    p = inst.x0
    res = None
    for k in range(3000):
        rec = ps_resolvent_iterate(ps, p, 1.0, taus=(t1, t2))
        res = rec.residual_s
        if res <= 1e-8:
            break
        p = rec.x_next
    assert res <= 1e-8
    assert np.max(np.abs(p - inst.oracle)) <= 1e-6


def test_graph_certificate_accepts_and_rejects():
    from nofob.projective import _assert_graph

    ab = l1_subdifferential(1.0)
    # 1 is a subgradient of |.| at 2
    _assert_graph(ab, 1.0, np.array([2.0]), np.array([1.0]))
    with pytest.raises(ContractViolation):
        _assert_graph(ab, 1.0, np.array([2.0]), np.array([5.0]))
