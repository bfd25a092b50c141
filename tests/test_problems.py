import dataclasses

import numpy as np
import pytest

from nofob import problems
from nofob.algorithms import run_algorithm
from nofob.diagnostics import check_fejer, check_mu_bounds, check_separation
from nofob.linalg import ContractViolation, spectral_norm
from nofob.problems import (
    DEFAULT_SEED,
    REGISTRY,
    _certify,
    _check_subgradient_inclusion,
    fixed_point_residual,
    get_instance,
    make_nonlinear_kernel_demo,
    make_regularized_quadratic,
    make_rotation_vi,
    make_saddle_pd,
)


# ---------------------------------------------------------------------------
# registry-wide invariants


@pytest.mark.parametrize("name", REGISTRY)
def test_every_instance_passes_fixed_point_certificate(name):
    inst = get_instance(name)
    assert fixed_point_residual(inst.bundle, inst.oracle) <= 1e-10


@pytest.mark.parametrize("name", REGISTRY)
def test_generation_is_deterministic(name):
    a = get_instance(name)
    builder = {
        "rotation": lambda: make_rotation_vi(seed=DEFAULT_SEED),
        "regquad-fbs": lambda: make_regularized_quadratic(split="fbs", seed=DEFAULT_SEED),
        "regquad-fbhf": lambda: make_regularized_quadratic(split="fbhf", seed=DEFAULT_SEED),
        "regquad-fbf": lambda: make_regularized_quadratic(split="fbf", seed=DEFAULT_SEED),
        "regquad-full": lambda: make_regularized_quadratic(split="full", seed=DEFAULT_SEED),
        "saddle": lambda: make_saddle_pd(seed=DEFAULT_SEED),
        "nonlinear-kernel": lambda: make_nonlinear_kernel_demo(seed=DEFAULT_SEED)[0],
    }[name]
    b = builder()
    assert np.array_equal(a.oracle, b.oracle)
    assert np.array_equal(a.x0, b.x0)
    assert a.constants == b.constants
    assert repr(a.sigma) == repr(b.sigma)


# sha256 over the registry instances at seeds 0-5 and their four-op and
# fbhf-long runs: oracle, start, constants, sigma, every record's scalars and
# x_next, and each run's status and final iterate
_REGISTRY_DIGEST = """
import hashlib
import numpy as np
from nofob.algorithms import run_algorithm
from nofob.problems import REGISTRY, get_instance
h = hashlib.sha256()
for seed in range(6):
    for name in REGISTRY:
        inst = get_instance(name, seed)
        h.update(inst.oracle.tobytes() + inst.x0.tobytes()
                 + repr((inst.constants, inst.sigma)).encode())
        for algorithm in ("four-op", "fbhf-long"):
            traj = run_algorithm(algorithm, inst).trajectory
            h.update(traj.status.encode() + traj.final_x.tobytes())
            for r in traj.records:
                h.update(r.x_next.tobytes() + repr((r.mu, r.theta, r.residual_s)).encode())
print(h.hexdigest())
"""


def test_registry_runs_do_not_depend_on_the_blas_thread_count(python_with_blas_threads):
    # the README's determinism claim: registry-size instances and runs are
    # bit for bit the same under one and two BLAS threads (ladder sizes,
    # n >= 200, are not)
    digests = [python_with_blas_threads(_REGISTRY_DIGEST, threads).strip()
               for threads in (1, 2)]
    assert len(digests[0]) == 64 and digests[0] == digests[1]


# sigma of every registered problem at seeds 0-2, by repr, recorded when the
# builders still computed it eagerly
SIGMA_REPRS = {
    "rotation": ("0.0", "0.0", "0.0"),
    "regquad-fbs": ("0.5016292844763452", "0.5000157993368295", "0.5002020894100411"),
    "regquad-fbhf": ("1.034382655471825", "1.024722829650636", "1.0285647565764036"),
    "regquad-fbf": ("0.5000061120134768", "0.5004980566326667", "0.5004394404307815"),
    "regquad-full": ("1.034382655471825", "1.024722829650636", "1.0285647565764036"),
    "saddle": ("0.505035429187521", "0.5117936314608661", "0.5000631076624251"),
    "nonlinear-kernel": ("0.5010209046232447", "0.5005961495644986", "0.5011565832167307"),
}


@pytest.mark.parametrize("name", REGISTRY)
def test_registry_sigma_is_pinned(name):
    for seed, expected in enumerate(SIGMA_REPRS[name]):
        assert repr(get_instance.__wrapped__(name, seed).sigma) == expected, seed


def test_planted_drift_sigma_is_pinned(planted_nonlinear_drift):
    assert repr(planted_nonlinear_drift(20, 0).sigma) == "0.5001510257824372"


def test_sigma_is_computed_on_first_read_only():
    # no build, solve or audit reads sigma: a ladder-size build, its four
    # ladder rows and their three audits leave it uncomputed
    inst = make_regularized_quadratic(n=400, seed=2)
    calls = []

    def sigma_of():
        calls.append(1)
        return inst.sigma_of()

    counted = dataclasses.replace(inst, sigma_of=sigma_of)
    for algorithm in ("fbhf", "fbhf-long", "four-op", "fbs-relaxed"):
        out = run_algorithm(algorithm, counted)
        traj, view = out.trajectory, out.nofob_view
        assert check_fejer(traj, out.z_star, out.s_metric).passed, algorithm
        if view is not None:  # fbs-relaxed has no kernel view to audit
            assert check_separation(traj, view, out.z_star).passed, algorithm
            assert check_mu_bounds(traj, view.beta, view.p_metric, out.s_metric,
                                   view.kernel_lipschitz).passed, algorithm
    assert calls == [] and "sigma" not in vars(inst) and "sigma" not in vars(counted)
    # read, it is computed once and kept; a replaced instance computes the same
    assert counted.sigma == counted.sigma == inst.sigma
    assert calls == [1]
    moved = dataclasses.replace(counted, x0=np.zeros(400))
    assert repr(moved.sigma) == repr(inst.sigma) and calls == [1, 1]
    h, d = inst.extras["h_matrix"], inst.extras["d_matrix"]
    assert inst.sigma == pytest.approx(float(np.linalg.eigvalsh(h + 0.5 * (d + d.T))[0]),
                                       rel=1e-12)


@pytest.mark.parametrize("split", ["fbs", "fbhf", "fbf", "full"])
def test_regquad_sigma_holds_no_array_of_its_own(split):
    # sigma_of draws D's symmetric part again when sigma is read, so every
    # ndarray its closure holds is one the instance holds anyway
    inst = make_regularized_quadratic(n=30, seed=4, split=split)
    held = {id(a) for a in (*inst.extras.values(), inst.oracle, inst.x0)}
    cells = [cell.cell_contents for cell in inst.sigma_of.__closure__]
    arrays = [value for value in cells if isinstance(value, np.ndarray)]
    assert arrays and all(id(a) in held for a in arrays)


@pytest.mark.parametrize("name", REGISTRY)
def test_declared_constants_pass_honesty_samplers(name, honesty_samplers):
    inst = get_instance(name)
    bundle = inst.bundle
    c = inst.constants
    assert honesty_samplers.lipschitz_ratio(
        bundle.d, c["l_d"], inst.bundle.dim, samples=500, seed=DEFAULT_SEED
    ) <= 1.0 + 1e-9
    assert honesty_samplers.cocoercivity_deficit(
        bundle.e, c["beta_e"], inst.bundle.dim, samples=500, seed=DEFAULT_SEED
    ) <= 1e-9
    assert abs(bundle.k.operator_norm - c["k_norm"]) <= 1e-12
    if name == "nonlinear-kernel":
        # the modulus lives in B; sample its single-valued selection
        d = inst.extras["d_vector"]
        b = inst.extras["b_vector"]
        lam = 0.3
        selection = lambda x: d * x - b + lam * np.sign(x)
    elif name == "saddle":
        # the modulus lives in B = (A_1^{-1}, A_2), A_1^{-1} u = G^{-1}(u - g0);
        # sample its single-valued selection plus K
        e = inst.extras
        m = e["g0_vector"].shape[0]
        selection = lambda p: np.concatenate([
            np.linalg.solve(e["g_matrix"], p[:m] - e["g0_vector"]),
            e["h_matrix"] @ p[m:] - e["b_vector"],
        ]) + bundle.k(p)
    else:
        selection = bundle.forward
    assert honesty_samplers.strong_monotonicity_deficit(
        selection, inst.sigma, inst.bundle.dim, samples=500, seed=DEFAULT_SEED
    ) <= 1e-9


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        get_instance("not-a-problem")


def test_registry_order_and_uncached_builder():
    assert REGISTRY == ("rotation", "regquad-fbs", "regquad-fbhf", "regquad-fbf",
                        "regquad-full", "saddle", "nonlinear-kernel")
    for name in REGISTRY:
        fresh = get_instance.__wrapped__(name, 3)
        assert fresh.name == name and fresh is not get_instance(name, 3)


# ---------------------------------------------------------------------------
# rotation


def test_rotation_two_dim_block_and_solution():
    inst = make_rotation_vi(angle_deg=90.0, scale=1.0, n_even=2, seed=1)
    kmat = inst.bundle.k.matrix
    assert np.allclose(kmat, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
    assert np.allclose(inst.oracle, 0.0)
    assert inst.constants["k_norm"] == pytest.approx(1.0)


def test_rotation_forward_and_conservative_spectral_factors():
    g = 0.7
    kmat = np.array([[0.0, -1.0], [1.0, 0.0]])
    forward = np.eye(2) - g * kmat
    assert np.linalg.norm(forward, 2) == pytest.approx(np.sqrt(1 + g * g))
    cons = (1 - g * g) * np.eye(2) - g * kmat
    assert np.linalg.norm(cons, 2) == pytest.approx(
        np.sqrt((1 - g * g) ** 2 + g * g)
    )
    assert np.linalg.norm(cons, 2) < 1.0


def test_rotation_rejects_odd_dimension():
    with pytest.raises(ContractViolation):
        make_rotation_vi(n_even=5)


def test_rotation_scale_sets_operator_norm():
    inst = make_rotation_vi(angle_deg=30.0, scale=2.0, n_even=4, seed=9)
    assert np.linalg.norm(inst.bundle.k.matrix, 2) == pytest.approx(
        inst.constants["k_norm"], abs=1e-12
    )


# ---------------------------------------------------------------------------
# regularized quadratic


def test_regquad_unregularized_matches_dense_solve():
    # lam = 0 makes every coordinate active: the oracle is one Newton point
    inst = make_regularized_quadratic(n=10, lam=0.0, split="fbs", seed=5)
    h = inst.extras["h_matrix"]
    b = inst.extras["b_vector"]
    assert np.array_equal(inst.oracle, np.linalg.solve(h, b))


# sha256 of make_regularized_quadratic(n, seed=1) at the ladder sizes under
# one BLAS thread: l_d, beta_e, k_norm and sigma by repr, the oracle, the
# start and the extras by key, recorded before the set-up cuts (sigma on
# first read, oracle t = 2 / L, the two-level RNG fill, direct LAPACK Ritz
# pairs), which change no bit
_LADDER_DIGESTS = """
import hashlib
from nofob.problems import make_regularized_quadratic
for n in (200, 400, 800):
    inst = make_regularized_quadratic(n=n, seed=1)
    c = inst.constants
    h = hashlib.sha256(repr((c["l_d"], c["beta_e"], c["k_norm"], inst.sigma)).encode())
    h.update(inst.oracle.tobytes() + inst.x0.tobytes())
    for key in sorted(inst.extras):
        h.update(key.encode() + inst.extras[key].tobytes())
    print(h.hexdigest())
"""


def test_ladder_instances_are_pinned_bit_for_bit(python_with_blas_threads):
    assert python_with_blas_threads(_LADDER_DIGESTS, 1).split() == [
        "912c985fc762c151411d34a076b5673d914c8a6298f4b85df04449703514e12d",
        "32af51fecd6e1a45619510608b349ccf19c8f8af05eefc86101be3af64138440",
        "6f351a87d153a9cda8f1bb159b5c72d0a39700d057dc6ad7745df1ff829a429d",
    ]


def test_ladder_oracle_takes_two_linear_solves(monkeypatch):
    # n = 800, seed 1: four solves from x = 0 at t = 2 / L, two from the
    # forward-backward warm start
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or solve(a, b))
    make_regularized_quadratic(n=800, seed=1)
    assert len(solves) == 2


def _oracle_runs(monkeypatch, build):
    """(oracle arguments, oracle, full solves) of every `_oracle_by_active_set`
    call that `build()` makes."""
    runs = []
    oracle = problems._oracle_by_active_set

    def counted(*args):
        solves = []
        solve = np.linalg.solve
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or solve(a, b))
            x = oracle(*args)
        runs.append((args, x, len(solves)))
        return x

    with monkeypatch.context() as m:
        m.setattr(problems, "_oracle_by_active_set", counted)
        build()
    return runs


@pytest.mark.parametrize("n, split, seeds, lam", [
    *[(20, split, range(60), 0.1) for split in ("fbs", "fbhf", "fbf", "full")],
    (200, "full", range(5), 0.1), (400, "full", (1,), 0.1), (800, "full", (1,), 0.1),
    (20, "full", range(5), 0.0), (200, "full", (0,), 0.0),
], ids=["n20-fbs", "n20-fbhf", "n20-fbf", "n20-full", "n200-full", "n400-full",
        "n800-full", "n20-lam0", "n200-lam0"])
def test_oracle_matches_the_cold_start_path(n, split, seeds, lam, cold_start_oracle,
                                            monkeypatch):
    # the oracle is the one exact solve on the solution's support, so the
    # warm start (from n = _ORACLE_WARM_MIN_DIM; the n = 20 cases run the
    # cold path itself) may shorten the path but not move a bit
    for seed in seeds:
        (args, x, solves), = _oracle_runs(monkeypatch, lambda: make_regularized_quadratic(
            n=n, lam=lam, seed=seed, split=split))
        ref, ref_solves = cold_start_oracle(*args)
        assert x.tobytes() == ref.tobytes(), seed
        assert solves <= ref_solves, (seed, solves, ref_solves)


def test_warm_start_keeps_the_oracle_bits_at_n_20(cold_start_oracle, monkeypatch):
    # forced below _ORACLE_WARM_MIN_DIM, where it costs more time than it
    # saves; its solves may rise there (fbhf seed 24: one from x = 0, two
    # from the warm start), its bits may not
    monkeypatch.setattr(problems, "_ORACLE_WARM_MIN_DIM", 0)
    for split in ("fbs", "fbhf", "fbf", "full"):
        for seed in range(60):
            (args, x, _), = _oracle_runs(monkeypatch, lambda: make_regularized_quadratic(
                n=20, seed=seed, split=split))
            assert x.tobytes() == cold_start_oracle(*args)[0].tobytes(), (split, seed)


@pytest.mark.parametrize("n, split, seeds", [
    *[(20, split, range(60)) for split in ("fbs", "fbhf", "fbf", "full")],
    (200, "full", range(3)),
], ids=["n20-fbs", "n20-fbhf", "n20-fbf", "n20-full", "n200-full"])
def test_active_set_oracle_matches_reference_run(n, split, seeds, conservative_oracle):
    # from x = 0, the start below _ORACLE_WARM_MIN_DIM, the undamped Newton
    # iteration cycles between active sets on n = 20 fbs seeds 5, 54, 56, 59
    # and full seed 9, so these cases also pin the Armijo damping; at n = 200
    # the warm start lands on the support with its first solve
    for seed in seeds:
        inst = make_regularized_quadratic(n=n, seed=seed, split=split)
        ref = conservative_oracle(inst.bundle, inst.x0)
        gap = np.linalg.norm(inst.oracle - ref)
        assert gap <= 1e-12 * (1.0 + np.linalg.norm(ref)), (seed, gap)


@pytest.mark.parametrize("split", ["fbs", "full"])
def test_inclusion_check_rejects_an_oracle_moved_by_1e6(split):
    inst = make_regularized_quadratic(n=20, seed=3, split=split)
    lam = 0.1
    z = inst.oracle
    _check_subgradient_inclusion(z, lam, inst.bundle.forward(z))
    # coordinates on and off the support: both branches of the check
    assert np.any(z == 0.0) and np.any(z != 0.0)
    for j in range(inst.bundle.dim):
        for shift in (1e-6, -1e-6):
            moved = z.copy()
            moved[j] += shift
            with pytest.raises(ContractViolation):
                _check_subgradient_inclusion(moved, lam, inst.bundle.forward(moved))


@pytest.mark.parametrize("x, forward", [
    ([np.nan, 1.0], [np.nan, -0.1]),
    ([np.nan, 1.0], [0.0, -0.1]),
    ([0.0, 1.0], [np.nan, -0.1]),
])
def test_inclusion_check_rejects_nan(x, forward):
    _check_subgradient_inclusion(np.array([0.0, 1.0]), 0.1, np.array([0.05, -0.1]))
    with pytest.raises(ContractViolation):
        _check_subgradient_inclusion(np.array(x), 0.1, np.array(forward))


def test_certificate_rejects_a_nan_oracle():
    inst = make_regularized_quadratic(n=6, seed=1)
    _certify(inst)
    with pytest.raises(ContractViolation, match="fixed-point certificate"):
        _certify(dataclasses.replace(inst, oracle=np.full(6, np.nan)))


def test_regquad_huge_lambda_zero_solution():
    inst = make_regularized_quadratic(n=6, lam=1e3, split="fbs", seed=5)
    assert np.max(np.abs(inst.oracle)) <= 1e-10


def test_regquad_split_zeroes_the_right_operators():
    fbs = make_regularized_quadratic(split="fbs", seed=7)
    assert fbs.constants["l_d"] == 0.0 and fbs.constants["k_norm"] == 0.0
    fbhf = make_regularized_quadratic(split="fbhf", seed=7)
    assert fbhf.constants["l_d"] > 0.0 and fbhf.constants["k_norm"] == 0.0
    fbf = make_regularized_quadratic(split="fbf", seed=7)
    assert fbf.constants["beta_e"] == 0.0 and fbf.constants["l_d"] > 0.0
    full = make_regularized_quadratic(split="full", seed=7)
    assert all(full.constants[k] > 0.0 for k in ("l_d", "beta_e", "k_norm"))


def test_regquad_beta_is_largest_eigenvalue():
    # n = 400 takes the Lanczos route
    for n in (20, 400):
        inst = make_regularized_quadratic(n=n, split="fbs", seed=11)
        h = inst.extras["h_matrix"]
        assert inst.constants["beta_e"] == pytest.approx(
            float(np.linalg.eigvalsh(h)[-1]), abs=1e-12
        )


def test_ladder_size_regquad_constants_and_iterations():
    # n = 400 takes the Lanczos route for l_d, beta_e and the norm of K;
    # the iteration counts are those of the dense eigensolves
    inst = make_regularized_quadratic(n=400, seed=1, split="full")
    c, ex = inst.constants, inst.extras
    d, k = ex["d_matrix"], ex["k_matrix"]
    dense = {
        "l_d": float(np.sqrt(np.linalg.eigvalsh(d.T @ d)[-1])),
        "beta_e": float(np.linalg.eigvalsh(ex["h_matrix"])[-1]),
        "k_norm": float(np.sqrt(np.linalg.eigvalsh(k.T @ k)[-1])),
    }
    for name, ref in dense.items():
        assert abs(c[name] - ref) <= 1e-13 * ref, name
    assert abs(c["k_norm"] - spectral_norm(k)) <= 1e-14
    iterations = {a: run_algorithm(a, inst).trajectory.iterations
                  for a in ("fbhf", "four-op", "fbs-relaxed")}
    # fbhf-long at theta = 1, and at its default min(4 / (4 - beta), 1.95)
    iterations["fbhf-long"] = run_algorithm("fbhf-long", inst, theta=1.0).trajectory.iterations
    assert iterations == {"fbhf": 37, "fbhf-long": 48, "four-op": 42, "fbs-relaxed": 26}
    assert run_algorithm("fbhf-long", inst).trajectory.iterations == 19


# ---------------------------------------------------------------------------
# saddle


def test_saddle_oracle_solves_kkt():
    inst = make_saddle_pd(n=5, m=4, seed=3)
    l = inst.extras["l_matrix"]
    w_star, x_star = inst.oracle[:4], inst.oracle[4:]
    # stationarity: A_2 x* + L* w* = 0 and w* = A_1(L x*)
    a1 = inst.extras["g_matrix"] @ (l @ x_star) + inst.extras["g0_vector"]
    a2 = inst.extras["h_matrix"] @ x_star - inst.extras["b_vector"]
    assert np.allclose(a2 + l.T @ w_star, 0.0, atol=1e-10)
    assert np.allclose(w_star, a1, atol=1e-10)


def test_saddle_scalar_case_hand_kkt():
    inst = make_saddle_pd(n=1, m=1, seed=13)
    l = float(inst.extras["l_matrix"][0, 0])
    g = float(inst.extras["g_matrix"][0, 0])
    g0 = float(inst.extras["g0_vector"][0])
    h = float(inst.extras["h_matrix"][0, 0])
    b = float(inst.extras["b_vector"][0])
    x_star = (b - l * g0) / (h + l * g * l)
    w_star = g * l * x_star + g0
    assert inst.oracle[1] == pytest.approx(x_star, abs=1e-12)
    assert inst.oracle[0] == pytest.approx(w_star, abs=1e-12)


def test_saddle_stacked_kernel_is_skew():
    inst = make_saddle_pd(seed=3)
    kmat = inst.bundle.k.matrix
    assert np.max(np.abs(kmat + kmat.T)) <= 1e-12
    assert inst.bundle is inst.ps_view.stacked


# ---------------------------------------------------------------------------
# nonlinear kernel demo


def test_nonlinear_demo_closed_form_oracle():
    inst, spec = make_nonlinear_kernel_demo(n=6, lam=0.4, seed=8)
    d = inst.extras["d_vector"]
    b = inst.extras["b_vector"]
    expected = np.sign(b) * np.maximum(np.abs(b) - 0.4, 0.0) / d
    assert np.allclose(inst.oracle, expected, atol=1e-12)
    assert spec.sigma == pytest.approx(1.0)
    assert spec.ell == pytest.approx(2.0)


def test_nonlinear_demo_unregularized_identity_affine():
    # lam=0 with the affine part reduced to x - b: solution is b
    inst, _ = make_nonlinear_kernel_demo(n=4, lam=0.0, seed=8)
    d = inst.extras["d_vector"]
    b = inst.extras["b_vector"]
    assert np.allclose(inst.oracle, b / d, atol=1e-12)


def test_nonlinear_kernel_modulus_sampling():
    _, spec = make_nonlinear_kernel_demo(n=4, seed=8)
    phi = spec.phi
    from nofob.rng import Lcg64

    rng = Lcg64(41)
    for _ in range(500):
        x, y = rng.vector(4), rng.vector(4)
        gap = x - y
        if not np.any(gap):
            continue
        lhs = float((phi(x) - phi(y)) @ gap)
        assert lhs >= spec.sigma * float(gap @ gap) - 1e-12
        assert np.linalg.norm(phi(x) - phi(y)) <= (
            spec.ell * np.linalg.norm(gap) + 1e-12
        )
