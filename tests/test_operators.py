import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nofob import fourop, operators, problems
from nofob.algorithms import run_algorithm
from nofob.fourop import SeparableNonlinear
from nofob.linalg import ContractViolation
from nofob.operators import (
    BlockProx,
    CocoerciveMap,
    LipschitzMap,
    ProxOperator,
    SkewMap,
    affine_operator,
    inverse_via_moreau,
    l1_plus_diag_affine,
    l1_subdifferential,
    separable_nonlinear_resolvent,
    zero_operator,
)
from nofob.problems import make_nonlinear_kernel_demo
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


def test_affine_resolvent_raises_on_a_singular_matrix_at_every_call():
    # H = -2^-40 passes the monotonicity test (lambda_min >= -MONOTONE_TOL),
    # and at gamma = 2^40, I + gamma H = 0; the raise keeps that gamma out
    # of the memo, so the next call at it raises too
    op = affine_operator(np.array([[-2.0**-40]]), np.zeros(1))
    assert np.array_equal(op.evaluator(1.0, np.ones(1)), [1.0 / (1.0 - 2.0**-40)])
    for _ in range(2):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            op.evaluator(2.0**40, np.ones(1))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("y", [[np.inf, 1.0], [np.inf, -np.inf], [np.nan, 1.0]])
def test_affine_resolvent_passes_a_non_finite_input_on(y):
    # the first call at a gamma and the memo's calls alike give the
    # wrapper's result, with no warning and no raise
    rng = Lcg64(4)
    a = rng.matrix(2, 2)
    h = a @ a.T + np.eye(2)
    b = rng.vector(2)
    op = affine_operator(h, b)
    expected = np.linalg.solve(np.eye(2) + 0.7 * h, np.array(y) - 0.7 * b)
    assert not np.isfinite(expected).all()
    for _ in range(2):
        assert np.array_equal(op.evaluator(0.7, np.array(y)), expected, equal_nan=True)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_l1_weights_must_be_finite_and_nonnegative(bad):
    # a NaN compares False with 0, so `weight < 0` let it through, and the
    # resolvents returned NaN
    b = np.ones(2)
    builds = [lambda: l1_subdifferential(bad),
              lambda: l1_plus_diag_affine(bad, np.ones(2), b),
              lambda: l1_plus_diag_affine(1.0, [1.0, bad], b),
              lambda: problems.make_regularized_quadratic(lam=bad),
              lambda: make_nonlinear_kernel_demo(lam=bad)]
    for build in builds:
        with pytest.raises(ContractViolation, match="finite"):
            build()


def test_resolvents_that_keep_arrays_per_gamma_follow_a_new_gamma():
    # the arrays formed from gamma are kept for the gamma of the last call;
    # every call, after a change of gamma or not, equals the formula in full
    rng = Lcg64(3)
    n, lam = 6, 0.3
    a = rng.matrix(n, n)
    h = a @ a.T / n + np.eye(n)
    b = rng.vector(n)
    d = 0.5 + rng.vector(n) ** 2
    affine = affine_operator(h, b)
    l1_diag = l1_plus_diag_affine(lam, d, b)
    y = rng.vector(n)
    for gamma in (0.5, 2.0, 2.0, 0.5, 3.0):
        assert np.array_equal(affine.evaluator(gamma, y),
                              np.linalg.solve(np.eye(n) + gamma * h, y - gamma * b))
        z = y + gamma * b
        expected = np.sign(z) * np.maximum(np.abs(z) - gamma * lam, 0.0) / (1.0 + gamma * d)
        assert np.array_equal(l1_diag.evaluator(gamma, y), expected)
    # the affine solves after the first at a gamma call np.linalg.solve's
    # gufunc directly, so they are its bits on the saddle G and H too, as
    # themselves and through inverse_via_moreau; a numpy whose wrapper stops
    # calling that gufunc fails here; gamma repeats and changes, and takes
    # the reciprocals inverse_via_moreau passes
    gammas = (0.37, 0.37, 1.0, 2.5, 2.5, 0.37, 1.0 / 0.37, 1.0 / 2.5, 1.0, 1.0 / 0.37)
    for seed in (0, 1, 2, 7):
        extras = problems.make_saddle_pd(seed=seed).extras
        for h, b in ((extras["g_matrix"], extras["g0_vector"]),
                     (extras["h_matrix"], -extras["b_vector"])):
            n = len(b)
            affine = affine_operator(h, b)
            dual = inverse_via_moreau(affine_operator(h, b))
            for gamma in gammas:
                for _ in range(25):
                    y = 4.0 * rng.vector(n)
                    assert np.array_equal(affine.evaluator(gamma, y), np.linalg.solve(
                        np.eye(n) + gamma * h, y - gamma * b))
                    inner = np.linalg.solve(np.eye(n) + (1.0 / gamma) * h,
                                            y / gamma - (1.0 / gamma) * b)
                    assert np.array_equal(dual.evaluator(gamma, y), y - gamma * inner)


def moreau_dual(op, tau, z):
    """J_{tau^{-1} A^{-1}}(tau^{-1} z), the dual blocks' resolvent, through
    inverse_via_moreau."""
    return inverse_via_moreau(op).evaluator(1.0 / tau, z / tau)


def test_moreau_identity_reconstruction():
    op = l1_subdifferential(1.0)
    rng = Lcg64(5)
    for tau in (0.3, 1.0, 2.5):
        z = 3.0 * rng.vector(6)
        dual = moreau_dual(op, tau, z)
        assert np.allclose(op.evaluator(tau, z) + tau * dual, z, atol=1e-12)


def test_moreau_dual_resolvent_l1_projects_onto_ball():
    # A = subdiff |.|: J_A(3) = 2, dual output 1 (projection onto [-1,1])
    op = l1_subdifferential(1.0)
    out = moreau_dual(op, 1.0, np.array([3.0]))
    assert out[0] == pytest.approx(1.0)


def test_moreau_dual_of_zero_operator_is_zero():
    out = moreau_dual(zero_operator(3), 0.7, np.array([1.0, -2.0, 0.3]))
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
    # a known norm is taken as given
    assert SkewMap(k.matrix, 2.5).operator_norm == 2.5
    with pytest.raises(ContractViolation):
        SkewMap(np.eye(2))


@pytest.mark.parametrize("n", [3, 300])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_skew_map_rejects_non_finite_matrices(n, bad):
    # with a given norm a NaN matrix used to be accepted silently; without
    # one the norm solve raised LinAlgError (n = 3) or scipy's ValueError
    # (n = 300, the Lanczos path)
    k = np.zeros((n, n))
    k[0, 1], k[1, 0] = bad, -bad
    for norm in (None, 1.0):
        with pytest.raises(ContractViolation, match="skew map entries must be finite"):
            SkewMap(k, norm)


def test_skew_map_rejects_an_empty_matrix():
    # numpy's ValueError from the empty max before
    for norm in (None, 0.0):
        with pytest.raises(ContractViolation, match="skew map must not be empty"):
            SkewMap(np.zeros((0, 0)), norm)
    # SkewMap.zero built maps of dim 0 and -2 before
    for n in (0, -2):
        with pytest.raises(ContractViolation, match="skew map must not be empty"):
            SkewMap.zero(n)


@pytest.mark.parametrize("n", [2.5, float("nan"), float("inf")], ids=["non-integral", "nan", "inf"])
def test_skew_map_zero_rejects_a_size_that_is_not_an_integer(n):
    # dim 2 from 2.5 and numpy's ValueError from NaN before
    with pytest.raises(ContractViolation, match="skew map size must be an integer"):
        SkewMap.zero(n)


def test_skew_map_zero_takes_python_and_numpy_integers():
    for n in (3, np.int64(3), np.int32(3)):
        k = SkewMap.zero(n)
        assert k.dim == 3 and type(k.dim) is int


@pytest.mark.parametrize("n", [2, 10, 200])
def test_skew_map_operator_norm_matches_the_svd_norm(n):
    r = Lcg64(200 + n).matrix(n, n)
    k = SkewMap(0.5 * (r - r.T))
    ref = np.linalg.norm(k.matrix, 2)
    assert abs(k.operator_norm - ref) <= 1e-14 * ref
    assert SkewMap.zero(n).operator_norm == 0.0


def test_regquad_k_norm_is_computed_once(monkeypatch):
    # SkewMap takes the norm _seeded_skew scaled K by and solves none
    solved = []
    monkeypatch.setattr(operators, "spectral_norm",
                        lambda m: solved.append(m) or 0.0)
    inst = problems.make_regularized_quadratic(n=20, seed=3, split="full")
    assert solved == []
    k = inst.extras["k_matrix"]
    assert inst.constants["k_norm"] == pytest.approx(np.linalg.norm(k, 2), rel=1e-14)


def test_block_prox_split_and_resolve():
    bp = BlockProx([l1_subdifferential(1.0), zero_operator(2)], [2, 2])
    y = np.array([3.0, -0.5, 1.0, 2.0])
    out = bp.evaluator(1.0, y)
    assert np.allclose(out, [2.0, 0.0, 1.0, 2.0])
    # (w I + B)^{-1} with w = 2: soft threshold at 1/2 of y/2
    bundle = fourop.FourOpProblem(b=bp, d=fourop.zero_forward(), e=fourop.zero_cocoercive(),
                                  k=SkewMap.zero(4))
    _, resolvent = fourop.BlockDiag([2.0, 1.0]).bind(bundle)
    out2 = resolvent(y, None, None)  # no start needed
    assert np.allclose(out2[:2], [1.0, 0.0])
    assert np.allclose(out2[2:], y[2:])


@pytest.mark.parametrize("length", [6, 3], ids=["longer", "shorter"])
def test_block_prox_rejects_a_vector_of_another_length(length):
    # a length-6 input mapped to 4 entries before, a length-3 input to 3,
    # with a 1-entry last block
    bp = BlockProx([l1_subdifferential(1.0), zero_operator(2)], [2, 2])
    y = np.arange(float(length))
    with pytest.raises(ContractViolation, match="dimension mismatch"):
        bp.evaluator(1.0, y)
    with pytest.raises(ContractViolation, match="dimension mismatch"):
        bp.split(y)
    assert bp.evaluator(1.0, np.zeros(4)).shape == (4,)


def test_the_saddle_bundle_rejects_a_vector_of_another_length():
    # returned shape (14,) before
    b = problems.get_instance("saddle", 0).bundle.b
    for y in (np.zeros(20), np.zeros(b.dim - 1)):
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            b.evaluator(1.0, y)


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf,
             np.nan, -np.nan]


@pytest.mark.parametrize("t", [0.0, 0.3, np.inf])
def test_soft_threshold_bits_match_the_plain_expression(soft_threshold_reference, t):
    # bytes, not values: a copysign form gives -0.0 at z = -0.0, where the
    # plain expression gives +0.0, and NaNs keep their payload
    z = np.array(EDGE_VALUES + [t, -t])
    # lam = 1, d = 0 and b = -0.0, so the shift z + t * b keeps every z at
    # finite t
    d, b = np.zeros(len(z)), np.full(len(z), -0.0)
    with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 are NaN
        out = l1_subdifferential(1.0).evaluator(t, z)
        assert out.tobytes() == soft_threshold_reference(z, t * 1.0).tobytes()
        out = l1_plus_diag_affine(1.0, d, b).evaluator(t, z)
        expected = soft_threshold_reference(z + t * b, t * 1.0) / (1.0 + t * d)
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("y", [-0.0, 0.2, -1.5, np.array(-0.7), np.array([-0.7])])
def test_soft_threshold_takes_scalars_and_0d_arrays(soft_threshold_reference, y):
    # the in-place form has no buffer for a scalar |z|; it keeps the
    # plain expression's value and type there
    t = 0.3
    expected = soft_threshold_reference(np.asarray(y, float), t)
    for out in (l1_subdifferential(1.0).evaluator(t, y),
                l1_plus_diag_affine(1.0, 0.0, -0.0).evaluator(t, y)):
        assert type(out) is type(expected)
        assert np.asarray(out).tobytes() == np.asarray(expected).tobytes()


def test_batched_samplers_match_the_per_sample_draws(honesty_samplers):
    # reference: one rng.vector call per sample, as the samplers drew before
    n, samples = 7, 90
    rng = Lcg64(10)
    for x, y in honesty_samplers.pairs(n, samples, 10, 0.5):
        assert x.tobytes() == (0.5 * rng.vector(n)).tobytes()
        assert y.tobytes() == (0.5 * rng.vector(n)).tobytes()


def test_honesty_samplers_accept_honest_constants(honesty_samplers):
    h = np.array([[2.0, 0.3], [0.3, 1.0]])
    lip = float(np.linalg.norm(h, 2))
    fn = lambda x: h @ x
    assert honesty_samplers.lipschitz_ratio(fn, lip, 2, 200, seed=3) <= 1.0 + 1e-12
    beta = float(np.linalg.eigvalsh(h)[-1])
    assert honesty_samplers.cocoercivity_deficit(fn, beta, 2, 200, seed=3) <= 1e-12
    sigma = float(np.linalg.eigvalsh(h)[0])
    assert honesty_samplers.strong_monotonicity_deficit(fn, sigma, 2, 200, seed=3) <= 1e-12


def test_honesty_samplers_reject_dishonest_constants(honesty_samplers):
    fn = lambda x: 2.0 * x
    assert honesty_samplers.lipschitz_ratio(fn, 1.0, 2, 100, seed=4) > 1.0
    assert honesty_samplers.cocoercivity_deficit(fn, 1.0, 2, 100, seed=4) > 0.0
    assert honesty_samplers.strong_monotonicity_deficit(fn, 3.0, 2, 100, seed=4) > 0.0


def test_cocoercivity_zero_beta_conventions(honesty_samplers):
    const = lambda x: np.ones_like(x)
    assert honesty_samplers.cocoercivity_deficit(const, 0.0, 3, 50, seed=5) <= 0.0
    moving = lambda x: x
    assert honesty_samplers.cocoercivity_deficit(moving, 0.0, 3, 50, seed=5) == np.inf


def _solve(kernel, prox, y, start=None):
    """The solve from `start`, by default the cold start y / sigma, with
    phi(start) handed in as the four-op oracle hands it in."""
    start = y / kernel.sigma if start is None else start
    return separable_nonlinear_resolvent(kernel, prox, y, start, kernel.phi(start))


def test_separable_nonlinear_resolvent_linear_kernel():
    # phi(t) = 2t with B = 0 solves 2x = y exactly
    kernel = SeparableNonlinear(phi=lambda x: 2.0 * x, sigma=2.0, ell=2.0)
    y = np.array([1.0, -3.0, 0.0])
    x = _solve(kernel, zero_operator(3), y)
    assert np.allclose(x, y / 2.0, atol=1e-11)


def test_separable_nonlinear_resolvent_arctan_kernel():
    kernel = SeparableNonlinear(phi=lambda x: x + np.arctan(x), sigma=1.0, ell=2.0)
    prox = l1_subdifferential(0.5)
    y = np.array([2.0, -0.2, 4.0])
    x = _solve(kernel, prox, y)
    # certify the inclusion phi(x) + 0.5 sign(x) contains y where x != 0
    for xi, yi in zip(x, y):
        if abs(xi) > 1e-12:
            res = xi + np.arctan(xi) + 0.5 * np.sign(xi) - yi
            assert abs(res) <= 1e-10
        else:
            assert abs(yi - np.arctan(0.0)) <= 0.5 + 1e-10


def test_separable_nonlinear_resolvent_requires_separable_prox():
    kernel = SeparableNonlinear(phi=lambda x: x, sigma=1.0, ell=1.0)
    dense = affine_operator(np.eye(2), np.zeros(2))
    with pytest.raises(ContractViolation):
        _solve(kernel, dense, np.zeros(2))


ARCTAN = SeparableNonlinear(phi=lambda x: x + np.arctan(x), sigma=1.0, ell=2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_separable_nonlinear_resolvent_rejects_non_finite_input(bad):
    with pytest.raises(ContractViolation, match="must be finite"):
        _solve(ARCTAN, l1_subdifferential(0.5), np.array([1.0, bad, -2.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_separable_nonlinear_resolvent_rejects_a_non_finite_start(bad):
    with pytest.raises(ContractViolation, match="start must be finite"):
        _solve(ARCTAN, l1_subdifferential(0.5), np.array([1.0, 0.5, -2.0]),
               start=np.array([0.0, bad, 1.0]))


def test_separable_nonlinear_resolvent_rejects_a_start_of_another_shape():
    with pytest.raises(ContractViolation, match="input's shape"):
        _solve(ARCTAN, l1_subdifferential(0.5), np.array([1.0, 0.5, -2.0]),
               start=np.zeros(2))


def _bound_cases():
    """Seeded kernels c t + arctan(t) (sigma = c, ell = c + 1), separable
    resolvents, inputs y and start points x0 at several distances."""
    for seed in range(30):
        rng = Lcg64(500 + seed)
        n = 8
        c = (0.1, 1.0, 3.0)[seed % 3]
        kernel = SeparableNonlinear(phi=lambda x, c=c: c * x + np.arctan(x),
                                    sigma=c, ell=c + 1.0)
        prox = (l1_plus_diag_affine(0.3, 0.5 + rng.vector(n) ** 2, 2.0 * rng.vector(n)),
                l1_subdifferential(0.5), zero_operator(n))[seed // 3 % 3]
        y = 10.0 ** (seed % 4 - 1) * rng.vector(n)
        for spread in (1e-6, 1.0, 1e3):
            yield kernel, prox, y, spread * rng.vector(n)


def test_the_root_lies_within_the_a_priori_bound(bisection_resolvent_reference):
    # u = J_A(x0 + y - phi(x0)) and r0 = x0 - u: coordinatewise
    # |x* - u| <= (1 + ell)|r0| / sigma; the guard covers the reference's
    # own error, at most 1e-12 / min(1, sigma) in its residual's units
    tight = 0.0
    for kernel, prox, y, x0 in _bound_cases():
        ref = bisection_resolvent_reference(kernel, prox, y)
        u = prox.evaluator(1.0, x0 + y - kernel.phi(x0))
        delta = (1.0 + kernel.ell) * np.abs(x0 - u) / kernel.sigma
        guard = 1e-11 * (1.0 + np.abs(ref))
        assert np.all(np.abs(ref - u) <= delta + guard)
        tight = max(tight, float(np.max(np.abs(ref - u) / (delta + guard))))
    # the bound is not vacuous on these inputs
    assert tight > 0.1


@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    start=st.sampled_from(["root", "near", "far", "+1e8", "-1e8", "kinks"]),
    n=st.integers(1, 20),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    c=st.sampled_from([0.1, 1.0, 3.0]),
    family=st.sampled_from(["l1-plus-diag-affine", "l1", "zero"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_separable_nonlinear_resolvent_agrees_with_bisection_from_any_start(
        start, n, scale, c, family, seed, bisection_resolvent_reference):
    # kernels c t + arctan(t) (sigma = c, ell = c + 1) and the prox families
    # of _bound_cases
    rng = Lcg64(seed)
    lam = 0.3
    b = 2.0 * rng.vector(n)
    kernel = SeparableNonlinear(phi=lambda x: c * x + np.arctan(x), sigma=c, ell=c + 1.0)
    prox = {"l1-plus-diag-affine": l1_plus_diag_affine(lam, 0.5 + rng.vector(n) ** 2, b),
            "l1": l1_subdifferential(lam),
            "zero": zero_operator(n)}[family]
    y = scale * rng.vector(n)
    if start == "kinks":
        # roots on the kink x = 0 of the l1 term, and the solve starts there;
        # B = 0 has no kink, and the solve just starts at 0
        shift = b if family == "l1-plus-diag-affine" else 0.0
        y = -shift + lam * np.sign(rng.vector(n))
    ref = bisection_resolvent_reference(kernel, prox, y)
    x0 = {
        "root": ref,
        "near": ref + 1e-6 * rng.vector(n),
        "far": ref + 1e3 * rng.vector(n),
        "+1e8": np.full(n, 1e8),
        "-1e8": np.full(n, -1e8),
        "kinks": np.zeros(n),
    }[start]
    got = _solve(kernel, prox, y, start=x0)
    assert _agrees(got, ref), np.abs(got - ref).max()


def test_an_a_priori_end_that_fails_to_round_off_is_moved_out():
    # near |x| = 4e6, started three ulps above the root, the end u -/+ delta
    # of one coordinate has a residual of r(u)'s strict sign, which exact
    # arithmetic rules out; the solve doubles that end's distance from u
    rng = Lcg64(889)
    prox = l1_plus_diag_affine(0.3, 0.5 + rng.vector(6) ** 2, 2.0 * rng.vector(6))
    y = 1e7 * rng.vector(6)

    def resid(x):
        return x - prox.evaluator(1.0, x + y - ARCTAN.phi(x))

    root = _solve(ARCTAN, prox, y)
    x0 = root + 3.0 * np.spacing(root)
    u = x0 - resid(x0)
    r_u = resid(u)
    delta = np.maximum(3.0 * np.abs(x0 - u), np.spacing(np.abs(u)))
    end = u - np.sign(r_u) * delta
    outside = np.sign(resid(x0)) * np.sign(r_u) > 0.0
    assert np.any(outside & (np.sign(resid(end)) * np.sign(r_u) > 0.0))
    got = _solve(ARCTAN, prox, y, start=x0)
    # tol cannot be met at this scale: both solves stop at the round-off floor
    assert np.all(np.abs(resid(got)) <= 4.0 * np.spacing(np.abs(got) + np.abs(y)))
    assert _agrees(got, root)


def test_an_a_priori_end_from_an_overstated_modulus_is_moved_out(
        bisection_resolvent_reference):
    # phi(t) = 0.1 t + arctan(t) declared 1-strongly monotone, ten times its
    # modulus far from 0: there u and x0 lie on the same side of the root
    # and u -/+ delta falls short of it; doubling moves the end past it
    kernel = SeparableNonlinear(phi=lambda x: 0.1 * x + np.arctan(x), sigma=1.0, ell=1.1)
    prox = l1_subdifferential(0.5)
    y = np.array([40.0, -25.0, 3.0, 0.2])
    x0 = np.array([10.0, -5.0, 0.0, 1.0])

    def resid(x):
        return x - prox.evaluator(1.0, x + y - kernel.phi(x))

    u = x0 - resid(x0)
    end = u - np.sign(resid(u)) * 2.1 * np.abs(x0 - u)
    assert np.all((np.sign(resid(end)) * np.sign(resid(u)) > 0.0)[:3])
    got = _solve(kernel, prox, y, start=x0)
    assert _agrees(got, bisection_resolvent_reference(kernel, prox, y))


@pytest.mark.parametrize("y", [
    [1e8, -1e8, 3e8, -2.5e8, 1e8 + 0.5, -7e7],
    [1e-12, 1e8, -3.0, 1e-300, -1e6, 0.3],
])
def test_separable_nonlinear_resolvent_stops_at_the_round_off_floor(y):
    # at |x| near 1e8 one ulp is about 1e-8, so (1 + ell)|r| <= 1e-12 holds
    # only where rounding lands on r = 0; elsewhere the bracket closes to
    # two adjacent doubles, and the solve stops there
    inst = make_nonlinear_kernel_demo(n=6, seed=3)[0]
    kernel, prox = inst.nonlinear_spec, inst.bundle.b
    y = np.array(y)
    x = _solve(kernel, prox, y)
    r = x - prox.evaluator(1.0, x + y - kernel.phi(x))
    assert np.all(np.abs(r) <= 4.0 * np.spacing(np.abs(x) + np.abs(y)))


def _agrees(x, ref):
    return np.all(np.abs(x - ref) <= 1e-12 * (1.0 + np.abs(ref)))


def _demo_inputs(n):
    """The backward-step inputs phi(x) - (D + K + E) x of four-op at x0, at
    the oracle and halfway between them, with the kernel, the prox and x."""
    for seed in range(60):
        inst, spec = make_nonlinear_kernel_demo(n=n, seed=seed)
        prob = inst.bundle
        for x in (inst.x0, inst.oracle, 0.5 * (inst.x0 + inst.oracle)):
            yield seed, spec, prob.b, spec.phi(x) - prob.forward(x), x


@pytest.mark.parametrize("n", [12, 200])
def test_separable_nonlinear_resolvent_matches_bisection_on_demo_inputs(
        n, bisection_resolvent_reference):
    # solved cold and from x as the four-op oracle starts them
    for seed, kernel, prox, v, x in _demo_inputs(n):
        ref = bisection_resolvent_reference(kernel, prox, v)
        for start in (None, x):
            got = _solve(kernel, prox, v, start=start)
            assert _agrees(got, ref), (seed, np.abs(got - ref).max())


def test_phi_start_needs_the_inputs_shape():
    y = np.array([1.0, 0.5, -2.0])
    with pytest.raises(ContractViolation, match="phi_start must have"):
        separable_nonlinear_resolvent(ARCTAN, l1_subdifferential(0.5), y,
                                      start=y, phi_start=np.zeros(2))


def _edge_cases():
    lam = 0.3
    d = np.array([0.5, 1.0, 1.5, 0.75])
    b = np.array([2.0, -1.25, 0.4, -3.0])
    big = np.array([1e8, -1e8, 2.5e8, -7e7])
    return {
        # y on the kinks +-lam of the soft threshold: the root is x = 0
        "l1-kinks": (ARCTAN, l1_subdifferential(lam),
                     np.array([lam, -lam, lam, -lam, 0.0, 1.0])),
        # phi(x) + lam sign(x) + d x - b contains y at x = 0 for y = -b +- lam
        "demo-kinks": (ARCTAN, l1_plus_diag_affine(lam, d, b),
                       np.concatenate([-b[:2] + lam, -b[2:] - lam])),
        # |y| near 1e8 with a root near -1.5 y / d on the far side of 0:
        # the first bracket, between 0 and 2 y / sigma, misses it and doubles
        "doublings": (ARCTAN, l1_plus_diag_affine(lam, 1e6 * np.array([1.0, 2.0, 0.5, 1.0]),
                                                  -2.5 * big), big),
        "mixed-scales": (ARCTAN, l1_plus_diag_affine(lam, d, b),
                         np.array([1e-300, -2.5e3, 1e-12, 40.0])),
        "linear": (SeparableNonlinear(phi=lambda x: 2.0 * x, sigma=2.0, ell=2.0),
                   zero_operator(6), np.array([1.0, -3.0, 0.0, 0.75, 1e8, 2.0 ** -20])),
    }


@pytest.mark.parametrize("case", sorted(_edge_cases()))
def test_separable_nonlinear_resolvent_matches_bisection_on_edge_inputs(
        case, bisection_resolvent_reference):
    kernel, prox, y = _edge_cases()[case]
    got = _solve(kernel, prox, y)
    ref = bisection_resolvent_reference(kernel, prox, y)
    assert _agrees(got, ref), np.abs(got - ref).max()
    if case == "doublings":
        center = y / kernel.sigma
        assert np.all(np.abs(got - center) > np.maximum(1.0, np.abs(center)))
    if case == "l1-kinks":
        assert np.array_equal(got[:5], np.zeros(5))
    if case == "linear":
        # phi(x) = 2 x with B = 0: the root y / 2 is exact in floating point
        assert np.array_equal(got, y / 2.0)


def test_separable_nonlinear_resolvent_needs_few_prox_evaluations(monkeypatch):
    calls = {"resolvent": 0, "prox": 0}

    def counted(kernel, prox_spec, y, start, phi_start):
        def evaluator(gamma, v):
            calls["prox"] += 1
            return prox_spec.evaluator(gamma, v)

        calls["resolvent"] += 1
        wrapped = ProxOperator(evaluator=evaluator, descriptor=prox_spec.descriptor,
                               separable=True)
        return separable_nonlinear_resolvent(kernel, wrapped, y, start, phi_start)

    monkeypatch.setattr(fourop, "separable_nonlinear_resolvent", counted)
    inst, _ = make_nonlinear_kernel_demo(n=200, seed=1)
    out = run_algorithm("four-op", inst, tol=1e-8, max_iter=1000)
    assert out.trajectory.status == "converged"
    assert calls["resolvent"] > 20
    # started at the oracle's x with its phi(x), the Anderson-Bjorck solve
    # takes 244 / 58 = 4.21 here (the Illinois one, phi(x) evaluated again,
    # took 4.91); the bound leaves a margin of about 0.3.  Bisection to the
    # same stopping rule from the cold bracket needs about 48, the secant
    # from it about 10
    assert calls["prox"] / calls["resolvent"] <= 4.5, calls


def test_maps_are_callable_with_declared_constants():
    lm = LipschitzMap(lambda x: 0.5 * x, 0.5)
    cm = CocoerciveMap(lambda x: x, 1.0)
    x = np.ones(3)
    assert np.allclose(lm(x), 0.5 * x)
    assert np.allclose(cm(x), x)


@pytest.mark.parametrize("seed", range(5))
def test_declared_matrices_evaluate_as_the_lambdas_they_replace(seed, scalar_draws):
    # x -> h @ x + (-b) rounds as h @ x - b, and x -> d @ x as itself
    rng = Lcg64(seed)
    n = 7 + seed
    h, d, b = rng.matrix(n, n), rng.matrix(n, n), rng.vector(n)
    e = CocoerciveMap.affine(h, -b, 2.0)
    lm = LipschitzMap.linear(d, 3.0)
    assert e.matrix is h and np.array_equal(e.shift, -b) and lm.matrix is d
    for _ in range(20):
        x = 10.0 ** scalar_draws.uniform_signed(rng) * rng.vector(n)
        assert np.array_equal(e(x), h @ x - b)
        assert np.array_equal(lm(x), d @ x)
    assert (e.inverse_cocoercivity, lm.lipschitz_constant) == (2.0, 3.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_a_lipschitz_constant_must_be_finite_and_nonnegative(bad):
    with pytest.raises(ContractViolation, match="lipschitz_constant"):
        LipschitzMap(lambda x: x, bad)
    with pytest.raises(ContractViolation, match="lipschitz_constant"):
        LipschitzMap.linear(np.eye(2), bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_an_inverse_cocoercivity_must_be_finite_and_nonnegative(bad):
    with pytest.raises(ContractViolation, match="inverse_cocoercivity"):
        CocoerciveMap(lambda x: x, bad)
    with pytest.raises(ContractViolation, match="inverse_cocoercivity"):
        CocoerciveMap.affine(np.eye(2), np.zeros(2), bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_a_given_skew_norm_must_be_finite_and_nonnegative(bad):
    # a NaN norm used to reach the step-size rule as "no bound", and fbhf
    # on regquad-full then raised "beta must lie in [0, 4)"
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    for k in (rot, np.zeros((2, 2))):
        with pytest.raises(ContractViolation, match="skew map norm"):
            SkewMap(k, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_a_kernel_sigma_must_be_positive_and_finite(bad):
    # a NaN sigma used to spin the resolvent's 4000 steps and raise
    # "did not reach tol"
    with pytest.raises(ContractViolation, match="kernel sigma"):
        SeparableNonlinear(phi=lambda x: x, sigma=bad, ell=2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.5])
def test_a_kernel_ell_must_be_finite_and_at_least_sigma(bad):
    with pytest.raises(ContractViolation, match="kernel ell"):
        SeparableNonlinear(phi=lambda x: x, sigma=1.0, ell=bad)


def test_only_the_constructors_declare_a_matrix():
    assert LipschitzMap(lambda x: x, 1.0).matrix is None
    e = CocoerciveMap(lambda x: x, 1.0)
    assert e.matrix is None and e.shift is None
    with pytest.raises(TypeError):
        LipschitzMap(lambda x: x, 1.0, matrix=np.eye(2))
    with pytest.raises(ContractViolation, match="square"):
        LipschitzMap.linear(np.ones((2, 3)), 1.0)
    with pytest.raises(ContractViolation, match="square"):
        CocoerciveMap.affine(np.ones(3), np.ones(3), 1.0)
    with pytest.raises(ContractViolation, match="shift"):
        CocoerciveMap.affine(np.eye(3), np.ones(2), 1.0)
