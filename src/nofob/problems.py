"""Seeded test problems with exact oracle solutions.

Every instance declares its operator constants exactly (computed from
the realized matrices, not from construction targets; largest
eigenvalues and spectral norms through `linalg.largest_eig` and
`linalg.spectral_norm`) and certifies its oracle at construction
time through the fixed-point identity of the forward-backward map: z*
must be a fixed point of J_{gamma B}(z - gamma (D + K + E) z) to
`linalg.CERTIFICATE_TOL`.
The oracles are closed forms or dense solves, except the regquad-*
ones, which come from a finite active-set (semismooth Newton) solve of
the l1 inclusion and also pass a coordinatewise subgradient check.

Registry names: rotation, regquad-fbs, regquad-fbhf, regquad-fbf,
regquad-full, saddle, nonlinear-kernel.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Dict, Optional

import numpy as np

from .fourop import (
    FourOpProblem,
    SeparableNonlinear,
    gamma_bound_conservative,
    zero_cocoercive,
    zero_forward,
)
from .linalg import (
    CERTIFICATE_TOL,
    SUBGRADIENT_TOL,
    SUPPORT_TOL,
    ContractViolation,
    _nonnegative,
    _operand,
    _positive,
    _size,
    largest_eig,
    spectral_norm,
)
from .operators import (
    CocoerciveMap,
    LipschitzMap,
    ProxOperator,
    SkewMap,
    affine_operator,
    l1_plus_diag_affine,
    l1_subdifferential,
    zero_operator,
)
from .projective import PsProblem
from .rng import Lcg64

__all__ = [
    "ProblemInstance",
    "make_rotation_vi",
    "make_regularized_quadratic",
    "make_saddle_pd",
    "make_nonlinear_kernel_demo",
    "REGISTRY",
    "get_instance",
    "fixed_point_residual",
]

DEFAULT_SEED = 2026


@dataclass(frozen=True)
class ProblemInstance:
    """A seeded problem: its bundle, its oracle solution z* and its start,
    not the seed, which only its builder reads.

    `sigma` is the declared strong-monotonicity modulus of the inclusion.
    No solve or audit reads it, and at ladder sizes it is a dense
    eigensolve, so a builder passes the zero-argument callable `sigma_of`
    that computes it; `sigma` calls it when first read and keeps the value
    on the instance (`dataclasses.replace` passes the callable on).  The
    other constants are the ones the bundle's maps declare, read from them
    by `constants` rather than stated a second time.
    """

    name: str
    bundle: FourOpProblem
    oracle: np.ndarray
    sigma_of: Callable[[], float]
    x0: np.ndarray
    ps_view: Optional[PsProblem] = None
    nonlinear_spec: Optional[SeparableNonlinear] = None
    extras: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def constants(self) -> Dict[str, float]:
        """l_d, beta_e and k_norm as the bundle's D, E and K declare them."""
        b = self.bundle
        return {"l_d": b.d.lipschitz_constant, "beta_e": b.e.inverse_cocoercivity,
                "k_norm": b.k.operator_norm}

    @cached_property
    def sigma(self) -> float:
        return float(self.sigma_of())


def fixed_point_residual(bundle: FourOpProblem, z: np.ndarray) -> float:
    """||J_{gamma B}(z - gamma (D+K+E) z) - z|| at a safe gamma."""
    bound = gamma_bound_conservative(
        bundle.e.inverse_cocoercivity, bundle.d.lipschitz_constant,
        bundle.k.operator_norm, 0.0,
    )
    gamma = 1.0 if not np.isfinite(bound) else 0.45 * bound
    z = np.asarray(z, dtype=float)
    step = bundle.b.evaluator(gamma, z - gamma * bundle.forward(z))
    return float(np.linalg.norm(np.asarray(step) - z))


def _certify(inst: ProblemInstance):
    res = fixed_point_residual(inst.bundle, inst.oracle)
    if not res <= CERTIFICATE_TOL:  # a NaN residual fails too
        raise ContractViolation(
            f"oracle for {inst.name} fails the fixed-point certificate: {res:.3e}"
        )
    return inst


def make_rotation_vi(angle_deg: float = 90.0, scale: float = 1.0,
                     n_even: int = 10, seed: int = DEFAULT_SEED) -> ProblemInstance:
    """Skew rotation field: monotone, never cocoercive; solution at 0.

    K is block-diagonal with 2x2 blocks scale*sin(angle)*[[0,-1],[1,0]],
    so the plain forward step I - gamma K expands every point while the
    corrected short step contracts for gamma in (0, 1).
    """
    n_even = _size(n_even, "n_even", least=2)
    if n_even % 2 != 0:
        raise ContractViolation(f"n_even must be even, got {n_even}")
    if not 0.0 < angle_deg < 180.0:
        raise ContractViolation(f"need angle in (0, 180), got {angle_deg!r}")
    _positive(scale, "scale")
    s = scale * np.sin(np.deg2rad(angle_deg))
    kmat = np.zeros((n_even, n_even))
    for i in range(0, n_even, 2):
        kmat[i, i + 1] = -s
        kmat[i + 1, i] = s
    bundle = FourOpProblem(b=zero_operator(), d=zero_forward(), e=zero_cocoercive(),
                           k=SkewMap(kmat))
    x0 = Lcg64(seed).vector(n_even)
    x0 = x0 / max(np.linalg.norm(x0), 1e-12)
    return _certify(ProblemInstance(
        name="rotation", bundle=bundle, oracle=np.zeros(n_even), sigma_of=lambda: 0.0, x0=x0,
    ))


def _seeded_spd(rng: Lcg64, n: int, shift: float) -> np.ndarray:
    """R R^T / n + shift I for a seeded n x n R, formed in place with the
    bits of `(r @ r.T) / n + shift * np.eye(n)`: that sum adds +0.0 off
    the diagonal, which turns a -0.0 into +0.0, and so does `g += 0.0`."""
    g = rng.matrix(n, n)
    g = g @ g.T
    g /= n
    g += 0.0
    g.flat[::n + 1] += shift
    return g


def _seeded_skew(rng: Lcg64, n: int, norm: float) -> tuple[np.ndarray, float]:
    """A seeded skew matrix scaled to spectral norm `norm`, and its norm as
    the one computed before scaling times the scale factor."""
    r = rng.matrix(n, n)
    sk = r - r.T
    sk *= 0.5
    cur = spectral_norm(sk)
    if cur == 0.0:
        return sk, 0.0
    scale = norm / cur
    sk *= scale
    return sk, cur * scale


# cap on the Newton steps of the active-set oracle solve; regquad-* instances
# from n = 20 to 800 settle within 8 from x = 0, and the ladder sizes of the
# _ORACLE_FB_STEPS table within 2 from the warm start
_ORACLE_NEWTON_STEPS = 100
# The active-set oracle's t, times 1 / (beta_E + L_D + ||K||).  t only
# steers the path (see `_oracle_by_active_set`), and 2 takes the fewest
# linear solves from x = 0.  Solves over the 1813 regquad instances of
# n = 20 x 4 splits x 441 seeds, n = 200 seeds 0-29, n = 400 seeds 0-9 and
# n = 800 seeds 0-8, at t = 1 / 1.5 / 2 / 3 / 4 over that sum: all 3684 /
# 3378 / 3302 / 3355 / 3395; n = 200, 126 / 90 / 79 / 88 / 90; n = 400, 52 /
# 31 / 30 / 29 / 30; n = 800, 53 / 32 / 29 / 32 / 33.  Every oracle was the
# same to the byte at all five.
_ORACLE_STEP = 2.0
# The forward-backward steps x <- soft(x - t (A x - rhs), t lam) the Newton
# path starts from, at the same t.  Full solves and ms per oracle (one BLAS
# thread, 2-core host) at 0 / 5 / 10 / 20 steps: n = 200 seeds 0-9, 24 /
# 10 / 10 / 10 solves, 1.23 / 0.53 / 0.58 / 0.70 ms; n = 400 seeds 0-4, 16
# / 8 / 5 / 5, 7.2 / 3.4 / 2.3 / 2.7 ms; n = 800 seeds 0-3, 13 / 6 / 5 / 4,
# 36.4 / 18.4 / 16.6 / 16.2 ms.  Every oracle was the same to the byte, as
# were the 1813 of the _ORACLE_STEP scan with the warm start forced on at
# every n (solves from x = 0 against 10 steps: n = 200, 79 / 30; n = 400,
# 30 / 10; n = 800, 29 / 10).
_ORACLE_FB_STEPS = 10
# The smallest n the warm start runs at.  Below it the solves are cheaper
# than the steps: ms per oracle over n x 4 splits x seeds 0-39, from x = 0
# against warm, n = 20, 0.082 / 0.116; n = 40, 0.108 / 0.129; n = 50, 0.132
# / 0.157; n = 75, 0.193 / 0.179; n = 100, 0.358 / 0.259.
_ORACLE_WARM_MIN_DIM = 75


def _oracle_by_active_set(a_mat: np.ndarray, rhs: np.ndarray, lam: float,
                          t: float) -> np.ndarray:
    """Exact solution of 0 in lam subdiff ||x||_1 + A x - rhs.

    Damped semismooth Newton, i.e. the primal-dual active-set method
    (Hintermueller, Ito and Kunisch, SIAM J. Optim. 13, 2002), on the
    natural residual F(x) = x - soft(u, t lam) with u = x - t (A x - rhs),
    whose zeros are the solutions for every t > 0.  The Newton point
    solves A_II x_I = rhs_I - lam sign(u_I) on the active set
    I = {|u| > t lam} and is zero off it; A has a positive definite
    symmetric part, so every A_II is invertible.  Steps toward it
    backtrack (Armijo) on ||F||, since the undamped iteration can cycle
    between active sets.  A Newton point that reproduces its own active
    set and shift lam sign(u_I) (with lam = 0, every set of signs) solves
    the inclusion exactly and is returned as is.

    The path starts at x = 0, or from n = _ORACLE_WARM_MIN_DIM on at the
    point _ORACLE_FB_STEPS forward-backward steps x <- soft(u, t lam) take
    from 0, if its ||F|| is below the one at 0.  At a solution with
    |(A x - rhs)_i| < lam off its support, the active set is that support
    for every t > 0, so t and the start steer only the path: the returned
    point is the one solve on the support, and a path that finds the
    support sooner takes fewer solves (see _ORACLE_STEP and
    _ORACLE_FB_STEPS).
    """
    tl = t * lam

    def u_and_fb_point(x):
        u = x - t * (a_mat @ x - rhs)
        return u, np.sign(u) * np.maximum(np.abs(u) - tl, 0.0)

    def u_and_residual(x):
        u, fb = u_and_fb_point(x)
        return u, float(np.linalg.norm(x - fb))

    x = np.zeros_like(rhs)
    u, f_norm = u_and_residual(x)
    if len(rhs) >= _ORACLE_WARM_MIN_DIM:
        y = x
        for _ in range(_ORACLE_FB_STEPS):
            y = u_and_fb_point(y)[1]
        u_y, f_y = u_and_residual(y)
        if f_y < f_norm:
            x, u, f_norm = y, u_y, f_y
    for _ in range(_ORACLE_NEWTON_STEPS):
        act = np.abs(u) > tl
        shift = lam * np.sign(u[act])
        x_n = np.zeros_like(rhs)
        x_n[act] = np.linalg.solve(a_mat[np.ix_(act, act)], rhs[act] - shift)
        u_t, f_t = u_and_residual(x_n)
        if np.array_equal(np.abs(u_t) > tl, act) and np.array_equal(lam * np.sign(u_t[act]), shift):
            return x_n
        x_t, alpha = x_n, 1.0
        while f_t > (1.0 - 1e-4 * alpha) * f_norm and alpha >= 1e-9:
            alpha *= 0.5
            x_t = x + alpha * (x_n - x)
            u_t, f_t = u_and_residual(x_t)
        x, u, f_norm = x_t, u_t, f_t
    raise ContractViolation(
        f"oracle solve did not settle its active set in {_ORACLE_NEWTON_STEPS} Newton steps"
    )


def _check_subgradient_inclusion(x: np.ndarray, lam: float, forward: np.ndarray):
    """0 in lam * subdiff ||x||_1 + forward(x), coordinatewise."""
    u = -forward
    # every test states what must hold, so that a NaN in x or forward fails
    off_support = np.abs(x) <= SUPPORT_TOL
    if not np.all(np.where(off_support, np.abs(u) <= lam + SUBGRADIENT_TOL,
                           np.abs(u - lam * np.sign(x)) <= SUBGRADIENT_TOL)):
        raise ContractViolation("oracle fails the optimality inclusion")


def _d_symmetric_part(rng: Lcg64, n: int) -> np.ndarray:
    """The symmetric part of regquad's D, 0.5 I + 0.2 R R^T / n, formed in
    place with the bits of `0.5 * np.eye(n) + 0.2 * _seeded_spd(rng, n,
    0.0)`: as there, +0.0 off the diagonal and 0.5 on it follow the
    scaling."""
    s = _seeded_spd(rng, n, 0.0)
    s *= 0.2
    s += 0.0
    s.flat[::n + 1] += 0.5
    return s


def make_regularized_quadratic(n: int = 20, lam: float = 0.1,
                               seed: int = DEFAULT_SEED,
                               split: str = "full") -> ProblemInstance:
    """l1-regularized quadratic with optional monotone drift and skew coupling.

    E is a strongly convex quadratic gradient, D a strongly monotone
    Lipschitz linear map, K a seeded skew map, B = lam * subdiff l1.  D
    and E declare their matrices (and E its shift -b), so that the
    kernel views may sum them.
    `split` zeroes pieces: fbs keeps B+E, fbhf keeps B+D+E, fbf keeps
    B+D+K, full keeps everything.  `sigma_of` draws D's symmetric part
    again, from a copy of the generator taken just before it was drawn,
    so the instance keeps no n x n array that only sigma reads.
    """
    n = _size(n, "n", least=2)
    _nonnegative(lam, "lam")
    if split not in ("fbs", "fbhf", "fbf", "full"):
        raise ContractViolation("split must be one of fbs, fbhf, fbf, full")
    rng = Lcg64(seed)
    h = _seeded_spd(rng, n, 0.5)
    b_vec = rng.vector(n)
    # D's symmetric part is drawn again from this copy when sigma is read
    d_sym_rng = copy.copy(rng)
    d_mat = _d_symmetric_part(rng, n)
    d_mat += _seeded_skew(rng, n, 0.4)[0]
    k_mat, k_norm = _seeded_skew(rng, n, 0.3)
    x0 = rng.vector(n)

    use_e = split in ("fbs", "fbhf", "full")
    use_d = split in ("fbhf", "fbf", "full")
    use_k = split in ("fbf", "full")

    beta_e = largest_eig(h) if use_e else 0.0
    e = CocoerciveMap.affine(h, -b_vec, beta_e) if use_e else zero_cocoercive()
    l_d = spectral_norm(d_mat) if use_d else 0.0
    d = LipschitzMap.linear(d_mat, l_d) if use_d else zero_forward()
    k = SkewMap(k_mat, k_norm) if use_k else SkewMap.zero(n)

    bundle = FourOpProblem(
        b=l1_subdifferential(lam) if lam > 0 else zero_operator(),
        d=d, e=e, k=k,
    )
    # every split keeps E or D, so the first sum is a new array
    a_mat = (h if use_e else 0.0) + (d_mat if use_d else 0.0)
    a_mat += k_mat if use_k else 0.0
    oracle = _oracle_by_active_set(
        a_mat, b_vec if use_e else np.zeros(n), lam,
        _ORACLE_STEP / (beta_e + l_d + k.operator_norm),
    )
    _check_subgradient_inclusion(oracle, lam, bundle.forward(oracle))

    def sigma_of():
        # The smallest eigenvalue stays on the dense solve.  The spectrum of
        # h crowds at its lower edge, and Lanczos for it ran all n steps at
        # n = 800, seed 23 (0.67 s against 0.05 s dense).
        if not (use_e or use_d):
            return 0.0
        d_sym = _d_symmetric_part(copy.copy(d_sym_rng), n) if use_d else 0.0
        sym_total = (h if use_e else 0.0) + d_sym
        return float(np.linalg.eigvalsh(np.atleast_2d(sym_total))[0])

    return _certify(ProblemInstance(
        name=f"regquad-{split}" if split != "full" else "regquad-full",
        bundle=bundle, oracle=oracle, sigma_of=sigma_of, x0=x0,
        extras={"h_matrix": h, "b_vector": b_vec, "d_matrix": d_mat,
                "k_matrix": k_mat},
    ))


def make_saddle_pd(n: int = 8, m: int = 6, seed: int = DEFAULT_SEED) -> ProblemInstance:
    """Quadratic saddle point stacked as a primal-dual inclusion.

    Primal block A_2 x = H x - b with H SPD on R^n; dual block
    A_1 w = G w + g0 with G SPD on R^m; coupling L: R^n -> R^m.  The
    unique solution solves (H + L^T G L) x = b - L^T g0 densely, with
    w* = G L x* + g0.  The bundle is the stacked primal-dual inclusion
    over p = (w, x) that the projective-splitting view `ps_view` owns.
    Its B = (A_1^{-1}, A_2) is strongly monotone with modulus
    sigma = min(lambda_min(H), 1 / lambda_max(G)), since
    A_1^{-1} u = G^{-1}(u - g0); the skew K adds nothing to it.
    """
    n, m = _size(n, "n"), _size(m, "m")
    rng = Lcg64(seed)
    h = _seeded_spd(rng, n, 0.5)
    b_vec = rng.vector(n)
    g = _seeded_spd(rng, m, 0.5)
    g0 = rng.vector(m)
    l_mat = rng.matrix(m, n) / np.sqrt(n)

    x_star = np.linalg.solve(h + l_mat.T @ g @ l_mat, b_vec - l_mat.T @ g0)
    w_star = g @ (l_mat @ x_star) + g0

    a1 = affine_operator(g, g0)
    a2 = affine_operator(h, -b_vec)
    ps = PsProblem(a_ops=[a1, a2], l_maps=[l_mat], primal_dim=n)
    bundle = ps.stacked
    oracle = np.concatenate([w_star, x_star])
    x0 = rng.vector(m + n)
    return _certify(ProblemInstance(
        name="saddle", bundle=bundle, oracle=oracle,
        sigma_of=lambda: min(float(np.linalg.eigvalsh(h)[0]), 1.0 / largest_eig(g)),
        x0=x0, ps_view=ps,
        extras={"l_matrix": l_mat, "g_matrix": g, "g0_vector": g0,
                "h_matrix": h, "b_vector": b_vec},
    ))


def make_nonlinear_kernel_demo(n: int = 12, lam: float = 0.3,
                               seed: int = DEFAULT_SEED):
    """Separable problem solved through a genuinely nonlinear kernel.

    A x = lam * subdiff ||x||_1 + diag(d) x - b with d > 0, C = 0.  The
    kernel phi(t) = c t + arctan(t) per coordinate is c-strongly
    monotone and (c+1)-Lipschitz, so the backward step is a scalar
    root-finding problem per coordinate.  The solution is closed form:
    x* = soft(b, lam) / d.

    Returns (instance, kernel spec).
    """
    n = _size(n, "n")
    _nonnegative(lam, "lam")
    rng = Lcg64(seed)
    d_diag = 0.5 + rng.vector(n) ** 2
    b_vec = 2.0 * rng.vector(n)
    c = 1.0

    prox = l1_plus_diag_affine(lam, d_diag, b_vec)
    bundle = FourOpProblem(b=prox, d=zero_forward(), e=zero_cocoercive(), k=SkewMap.zero(n))
    oracle = np.sign(b_vec) * np.maximum(np.abs(b_vec) - lam, 0.0) / d_diag
    c0 = _operand(c)
    spec = SeparableNonlinear(phi=lambda x: c0 * x + np.arctan(x), sigma=c, ell=c + 1.0)
    inst = _certify(ProblemInstance(
        name="nonlinear-kernel", bundle=bundle, oracle=oracle,
        sigma_of=lambda: float(d_diag.min()), x0=rng.vector(n), nonlinear_spec=spec,
        extras={"d_vector": d_diag, "b_vector": b_vec},
    ))
    return inst, spec


# name -> builder of the registered instance at a seed; each lambda looks
# its make_* function up when called, so a replaced module attribute runs
_BUILDERS = {
    "rotation": lambda seed: make_rotation_vi(seed=seed),
    "regquad-fbs": lambda seed: make_regularized_quadratic(seed=seed, split="fbs"),
    "regquad-fbhf": lambda seed: make_regularized_quadratic(seed=seed, split="fbhf"),
    "regquad-fbf": lambda seed: make_regularized_quadratic(seed=seed, split="fbf"),
    "regquad-full": lambda seed: make_regularized_quadratic(seed=seed, split="full"),
    "saddle": lambda seed: make_saddle_pd(seed=seed),
    "nonlinear-kernel": lambda seed: make_nonlinear_kernel_demo(seed=seed)[0],
}

REGISTRY = tuple(_BUILDERS)


@lru_cache(maxsize=64)
def get_instance(name: str, seed: int = DEFAULT_SEED) -> ProblemInstance:
    """Registry lookup; instances are cached, since set-up draws and factors dense matrices."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise KeyError(f"unknown problem {name!r}; known: {', '.join(REGISTRY)}")
    return builder(seed)
