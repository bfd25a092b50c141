"""Named algorithm runners over registered problem instances.

Every runner is a row of ROWS: a kernel view, a step length, a
relaxation and the instance contract, fed to the one corrected step,
bound once per run by core.corrected_step, through the shared loop.  A
run returns the trajectory together with the metric, the oracle, and
the view the diagnostic checkers audit.  Names:

  fbf, fbhf          conservative short step: mu_hat = gamma, unit
                     relaxation (fbf requires E = 0)
  fbf-long, fbhf-long    explicit long projection step, by default
                     relaxed by min(4 / (4 - beta), LONG_THETA_CAP) at
                     the view's beta, which offsets the explicit mu's
                     beta / 4 penalty and is exactly 1 when E = 0
  afba, afba-fixed   AFBA's constant kernel Q = P + G, built from the
                     coupling L of the stacked saddle problem (the
                     instance's ps_view) and (tau1, tau2); -fixed takes
                     the unit step (mu_hat = 1, theta = 1) in S = P,
                     AFBA's own metric, after the fixed-step check
  fbs, fbs-relaxed   (relaxed) forward-backward: the kernel gamma^{-1} I
                     with D, K and E all forward, mu_hat = gamma and
                     relaxation theta c, c = 1 - beta_E gamma / 4, which
                     is x_next = (1 - theta c) x + theta c x_hat; plain
                     fbs (theta = 1/c) treats the whole forward part as if
                     it were cocoercive, which is exactly what fails on
                     the rotation witness.  At theta <= 2 the update is
                     nonexpansive when that premise holds, so its residual
                     cannot rise; the loop ends a run `violated` at the
                     first rise (core.run_loop), and the divergence
                     witnesses stop there rather than using up their budget
  four-op            explicit step with the instance's natural kernel:
                     nonlinear when the problem carries one, the
                     ps-resolvent view on stacked problems, scalar
                     otherwise
  ps-explicit, ps-resolvent   synchronous projective splitting: the
                     explicit step on the block-diagonal view of the
                     stacked problem; ps-explicit swaps in Johnstone and
                     Eckstein's explicit oracle, which touches only the
                     primal proxes and the coupling maps

Each row states its instance contract as data: `rejects(inst)` says
why the row cannot run on an instance (fbf and fbf-long need E = 0, the
afba rows the two-block saddle form, the ps rows a projective view),
and `no_audit(inst)` why its step has no separation to audit (fbs and
fbs-relaxed where D or K is nonzero; the run's `nofob_view` is then
None).  `run_algorithm` raises the rejection before it reads any given
parameter.

On the saddle family a given tau is one step size per block of the
stacked problem (two: the dual block, then the primal one); a single
value stands for all of them, and a list of any other length raises.
Rows and instances that take no step sizes raise on a given tau, and
those that take no scalar step size (the saddle kernels, the projective
rows, four-op on the saddle family and on a nonlinear kernel) on a
given gamma.  A given theta must lie in (0, 2) and is used as is;
the rows whose relaxation is fixed (fbf, fbhf, afba-fixed, fbs) raise on
it.  Without one, the rows that take a theta relax by 1, the long rows
by the rule above.

A run starts at the instance's x0 and projects in the row's metric:
S = P for afba-fixed, S = I for every other row.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import NofobProblem, Trajectory, corrected_step, run_loop
from .fourop import (
    AffinePlusSkew,
    BlockDiag,
    ScalarStep,
    StepParameterWarning,
    afba_fixed_step_check,
    as_nofob,
    fbs_view,
    gamma_bound_conservative,
    gamma_bound_long,
)
from .linalg import GAMMA_BOUND_TOL, STOP_TOL, ContractViolation, SpdMetric, _positive
from .problems import ProblemInstance
from .projective import PsProblem, ps_explicit_oracle

__all__ = ["RunOutput", "ALGORITHMS", "run_algorithm"]


@dataclass(frozen=True)
class RunOutput:
    trajectory: Trajectory
    s_metric: SpdMetric  # the metric the step projected in
    z_star: np.ndarray
    nofob_view: Optional[NofobProblem]  # the view the audits read; None on no_audit
    gamma: Optional[float] = None


def _gamma_bound(inst: ProblemInstance, kind: str) -> float:
    c = inst.constants
    if kind == "long":
        return gamma_bound_long(c["beta_e"], c["l_d"], 0.0)
    if kind == "fbs":
        return np.inf if c["beta_e"] == 0.0 else 2.0 / c["beta_e"]
    return gamma_bound_conservative(c["beta_e"], c["l_d"], c["k_norm"], 0.0)


def _gamma(inst: ProblemInstance, kind: str, gamma) -> float:
    if gamma is not None:
        return float(gamma)
    bound = _gamma_bound(inst, kind)
    return 1.0 if not np.isfinite(bound) else 0.9 * bound


def _step_sizes(name: str, tau, count: int) -> list:
    """A given tau as `count` step sizes; a scalar or a single value repeats.
    A str is iterable, but its characters are not step sizes."""
    if isinstance(tau, str):
        raise ContractViolation(f"{name} step sizes must be numbers, got {tau!r}")
    t = list(tau) if np.iterable(tau) else [tau]
    if len(t) == 1:
        t = t * count
    if len(t) != count:
        raise ContractViolation(f"{name} needs {count} step sizes")
    return [_positive(v, f"{name} step sizes") for v in t]


def _takes_none(name: str, inst: ProblemInstance, **given):
    """Raise on a given step parameter that the row has no use for here."""
    for param, value in given.items():
        if value is not None:
            raise ContractViolation(f"{name} takes no {param} on {inst.name}")


def _saddle_taus(name: str, ps: PsProblem, tau) -> tuple:
    """(tau1, tau2) of the saddle kernels, by default (1, 0.9 / ||L||^2)."""
    if tau is not None:
        return tuple(_step_sizes(name, tau, 2))
    l_norm = float(np.linalg.norm(ps.l_maps[0], 2))
    return 1.0, 0.9 / max(l_norm, 1e-12) ** 2


# ---------------------------------------------------------------------------
# kernels: (name, instance, gamma, tau) -> Kernel


@dataclass(frozen=True)
class Kernel:
    """The kernel view a row builds for one run."""

    view: NofobProblem  # the step runs on it; the audits get it too
    gamma: Optional[float] = None  # the scalar step size, reported
    c: float = 1.0  # fbs: 1 - beta_E gamma / 4, a factor of the relaxation


def _scalar(kind: str):
    """gamma^{-1} I - D - K; the conservative rows warn beyond their bound.

    The long rows need no warning: past the long-step bound the view
    itself is rejected, as beta or 1/gamma - L_D leaves its range.
    """

    def kernel(name, inst, gamma, tau):
        _takes_none(name, inst, tau=tau)
        g = _gamma(inst, kind, gamma)
        spec = ScalarStep(g)  # raises on a bad gamma before the warning
        if kind == "conservative" and g > _gamma_bound(inst, kind) + GAMMA_BOUND_TOL:
            warnings.warn(
                "gamma exceeds the sufficient conservative bound; proceeding",
                StepParameterWarning, stacklevel=3,
            )
        view = as_nofob(inst.bundle, spec, SpdMetric.identity(inst.bundle.dim))
        return Kernel(view, gamma=g)

    return kernel


def _saddle(fixed: bool):
    """The asymmetric kernel Q = P + G.

    `fixed` is AFBA (Latafat and Patrinos, "Asymmetric forward-backward-
    adjoint splitting", Comput. Optim. Appl. 68, 2017): the unit step
    projected in S = P, its symmetric part.  Here Q - K = P and E = 0, so
    afba_fixed_step_check on the view's P and beta = 0 reads
    P - P / (2 - eps) >= 0 and passes for every tau1, tau2 that make P
    positive definite, and the step lands on
    x_next = x - P^{-1}(Q - K)(x - x_hat) = x_hat, AFBA's x+ = x_hat (on
    saddle seeds 0-59 every recorded mu is 1 within 5.6e-16 and x_next is
    x_hat within 2.4e-15).  The run still makes the check, and raises if
    round-off fails it.
    """

    def kernel(name, inst, gamma, tau):
        ps = inst.ps_view
        _takes_none(name, inst, gamma=gamma)
        spec = AffinePlusSkew(ps.l_maps[0], *_saddle_taus(name, ps, tau))
        s = spec.p if fixed else SpdMetric.identity(inst.bundle.dim)
        view = as_nofob(inst.bundle, spec, s)
        if fixed and not afba_fixed_step_check(view.p_metric, spec.q_matrix, inst.bundle.k,
                                               s, view.beta, 0.05):
            raise ContractViolation("the unit step fails the fixed-step check in S")
        return Kernel(view)

    return kernel


def _fbs(name, inst, gamma, tau):
    _takes_none(name, inst, tau=tau)
    bundle = inst.bundle
    g = _gamma(inst, "fbs", gamma)
    view = fbs_view(bundle, g)  # raises on a bad gamma
    # the view's beta check, beta_E gamma < 4, guarantees c > 0, as the
    # scaling by 0.25 is exact
    c = 1.0 - 0.25 * bundle.e.inverse_cocoercivity * g
    return Kernel(view, gamma=g, c=c)


def _projective(explicit: bool):
    """The block-diagonal view of the stacked problem, with weights (tau_1,
    ..., 1/tau_n) at unit or given step sizes; `explicit` swaps in
    Johnstone and Eckstein's oracle for the stacked resolvent."""

    def kernel(name, inst, gamma, tau):
        ps = inst.ps_view
        _takes_none(name, inst, gamma=gamma)
        taus = (1.0,) * ps.n if tau is None else _step_sizes(name, tau, ps.n)
        weights = BlockDiag((*taus[:-1], 1.0 / taus[-1]))
        view = as_nofob(ps.stacked, weights, SpdMetric.identity(ps.stacked.dim))
        if explicit:
            # the view's kernel-difference cache of the oracle's x is never
            # read: the stacked problem has D = 0 and BlockDiag is linear
            view = dataclasses.replace(view, fb_oracle=ps_explicit_oracle(ps, taus))
        return Kernel(view)

    return kernel


_ps_resolvent = _projective(explicit=False)


def _natural(name, inst, gamma, tau):
    """The nonlinear kernel where the problem carries one; on a stacked
    problem the ps-resolvent view, by default with the saddle kernels'
    step sizes on two blocks and unit step sizes on more; otherwise
    the scalar kernel, whose step size it reports."""
    g = None
    if inst.nonlinear_spec is not None:
        _takes_none(name, inst, gamma=gamma, tau=tau)
        spec = inst.nonlinear_spec
    elif inst.ps_view is not None:
        if inst.ps_view.n == 2:
            tau = _saddle_taus(name, inst.ps_view, tau)
        return _ps_resolvent(name, inst, gamma, tau)
    else:
        _takes_none(name, inst, tau=tau)
        g = _gamma(inst, "conservative", gamma)
        spec = ScalarStep(g)
    view = as_nofob(inst.bundle, spec, SpdMetric.identity(inst.bundle.dim))
    return Kernel(view, gamma=g)


# ---------------------------------------------------------------------------
# step lengths: Kernel -> mu_hat, None for the explicit mu
_EXPLICIT = lambda ker: None
_GAMMA = lambda ker: ker.gamma
_UNIT_STEP = lambda ker: 1.0

# relaxations: Kernel -> theta reported; the step applies theta * c.
_UNIT = lambda ker: 1.0
_INVERSE_C = lambda ker: 1.0 / ker.c

# keeps the long rows' default relaxation inside NOFOB's (0, 2), with a margin
LONG_THETA_CAP = 1.95


def _long_theta(ker: Kernel) -> float:
    """4 / (4 - beta): it offsets the explicit mu's beta / 4 penalty, so that
    in the pure forward-backward case theta mu is the plain step length; 1
    exactly when E = 0."""
    return min(4.0 / (4.0 - ker.view.beta), LONG_THETA_CAP)


# ---------------------------------------------------------------------------
# instance contracts: ProblemInstance -> the reason, or None
_NEVER = lambda inst: None


def _needs_e_free(inst: ProblemInstance) -> Optional[str]:
    # Tseng's FBF has no cocoercive term
    return "requires a problem with E = 0" if inst.bundle.e.inverse_cocoercivity else None


def _needs_saddle(inst: ProblemInstance) -> Optional[str]:
    # AFBA's kernel is built from the coupling L of the two-block saddle form
    ps = inst.ps_view
    return "needs a stacked saddle problem" if ps is None or ps.n != 2 else None


def _needs_ps_view(inst: ProblemInstance) -> Optional[str]:
    return "needs a problem with a projective view" if inst.ps_view is None else None


def _fbs_no_audit(inst: ProblemInstance) -> Optional[str]:
    # the step's kernel gamma^{-1} I is gamma^{-1} I - D - K only where D = K = 0
    bundle = inst.bundle
    if bundle.d.lipschitz_constant or bundle.k.operator_norm:
        return "D or K is nonzero, so the step has no separation to audit"
    return None


@dataclass(frozen=True)
class Row:
    kernel: Callable
    mu_hat: Callable
    relax: Callable = _UNIT  # the relaxation when no theta is given
    fixed_relax: bool = False  # the row takes no theta
    # the step is nonexpansive at theta <= 2 under the row's premise, so
    # the loop checks that its residual never rises (core.run_loop)
    nonexpansive: bool = False
    rejects: Callable = _NEVER  # why the row cannot run on an instance
    no_audit: Callable = _NEVER  # why its step has no separation to audit there


ROWS = {
    "fbf": Row(_scalar("conservative"), _GAMMA, fixed_relax=True, rejects=_needs_e_free),
    "fbhf": Row(_scalar("conservative"), _GAMMA, fixed_relax=True),
    "fbf-long": Row(_scalar("long"), _EXPLICIT, _long_theta, rejects=_needs_e_free),
    "fbhf-long": Row(_scalar("long"), _EXPLICIT, _long_theta),
    "afba": Row(_saddle(fixed=False), _EXPLICIT, rejects=_needs_saddle),
    "afba-fixed": Row(_saddle(fixed=True), _UNIT_STEP, fixed_relax=True,
                      rejects=_needs_saddle),
    "fbs": Row(_fbs, _GAMMA, _INVERSE_C, fixed_relax=True, nonexpansive=True,
               no_audit=_fbs_no_audit),
    "fbs-relaxed": Row(_fbs, _GAMMA, nonexpansive=True, no_audit=_fbs_no_audit),
    "four-op": Row(_natural, _EXPLICIT),
    "ps-explicit": Row(_projective(explicit=True), _EXPLICIT, rejects=_needs_ps_view),
    "ps-resolvent": Row(_ps_resolvent, _EXPLICIT, rejects=_needs_ps_view),
}

ALGORITHMS = tuple(ROWS)


def run_algorithm(
    name: str,
    inst: ProblemInstance,
    gamma: Optional[float] = None,
    tau=None,
    theta: Optional[float] = None,
    tol: float = STOP_TOL,
    max_iter: int = 1000,
) -> RunOutput:
    row = ROWS.get(name)
    if row is None:
        raise KeyError(f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}")
    reason = row.rejects(inst)
    if reason is not None:
        raise ContractViolation(f"{name} {reason}")
    if theta is not None and not 0.0 < theta < 2.0:
        raise ContractViolation(f"theta must lie in (0, 2), got {theta}")
    if row.fixed_relax:
        _takes_none(name, inst, theta=theta)
    ker = row.kernel(name, inst, gamma, tau)
    th = row.relax(ker) if theta is None else float(theta)
    view, step_theta, mu_hat = ker.view, th * ker.c, row.mu_hat(ker)
    traj = run_loop(corrected_step(view, step_theta, mu_hat), inst.x0, tol, max_iter,
                    monotone_residual=row.nonexpansive and th <= 2.0)
    audit = ker.view if row.no_audit(inst) is None else None
    return RunOutput(traj, ker.view.s_metric, inst.oracle, audit, gamma=ker.gamma)
