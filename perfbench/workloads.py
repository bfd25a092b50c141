"""Workload definitions and the check of every run's output.

A workload is a list of groups.  A group is one problem instance (built
from the workload seed, seed+1, ...) and the algorithms run on it.  One
item is one (instance, algorithm) run: `run_algorithm` to tol 1e-8 or
its budget of 1000 iterations, then the audits.

An item is ok when it returns, ends `converged`, lands within
ORACLE_DISTANCE of the oracle and passes every audit.  Two kinds of item
are known to fail and are counted as failed, never skipped:

* `fbs` and `fbs-relaxed` on an instance whose forward part is not
  cocoercive (D or K nonzero).  Plain forward-backward has no guarantee
  there; the paper's divergence witnesses (`rotation`, `regquad-fbhf`,
  `regquad-full`) use up their budget and others break Fejer monotonicity.
* `afba-fixed` raising "metric is not positive definite": the shrink loop
  in `run_algorithm` halves tau1 and doubles tau2, which can drop
  tau1/tau2 below ||L||^2 on the first shrink.

Any other failure marks the benchmark's output as incorrect.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

# Modules, not names: the tracer replaces module attributes, so every call
# looks the function up when it is made.
from nofob import algorithms, diagnostics, problems
from nofob.linalg import ContractViolation

TOL = 1e-8
MAX_ITER = 1000
# ||x_final - z*|| <= ORACLE_DISTANCE * (1 + ||z*||); converged runs land
# near 1e-8 on every registered problem.
ORACLE_DISTANCE = 1e-6

REGISTRY_SEEDS = 6
LADDER_SIZES = (200, 400, 800)
LADDER_ALGORITHMS = ("fbhf", "fbhf-long", "four-op", "fbs-relaxed")
BACKWARD_SIZES = (12, 200)
BACKWARD_SEEDS = 6

FBS_NAMES = ("fbs", "fbs-relaxed")


@dataclass(frozen=True)
class Group:
    """One instance and the algorithms run on it."""

    problem: str
    seed: int
    n: Optional[int]
    build: Callable
    algorithms: Optional[tuple] = None  # None: every algorithm that accepts it

    @property
    def label(self) -> str:
        size = "" if self.n is None else f"/n={self.n}"
        return f"{self.problem}{size}/seed={self.seed}"


@dataclass(frozen=True)
class Workload:
    """A named list of groups, and for each phase the kind of reference
    loop its times are divided by: "interpreter" for per-call overhead,
    "dense" for memory-bound dense products."""

    name: str
    reference: dict
    groups: Callable[[int], list]


def _registered(name: str, seed: int):
    # the registry's builder itself, not its lru_cache
    return problems.get_instance.__wrapped__(name, seed)


def _regquad(n: int, seed: int):
    return problems.make_regularized_quadratic(n=n, seed=seed, split="full")


def _nonlinear(n: int, seed: int):
    return problems.make_nonlinear_kernel_demo(n=n, seed=seed)[0]


def _registry(seed: int) -> list:
    return [Group(p, s, None, partial(_registered, p, s))
            for s in range(seed, seed + REGISTRY_SEEDS) for p in problems.REGISTRY]


def _ladder(seed: int) -> list:
    return [Group("regquad-full", seed, n, partial(_regquad, n, seed), LADDER_ALGORITHMS)
            for n in LADDER_SIZES]


def _backward(seed: int) -> list:
    return [Group("nonlinear-kernel", s, n, partial(_nonlinear, n, s), ("four-op",))
            for s in range(seed, seed + BACKWARD_SEEDS) for n in BACKWARD_SIZES]


INTERPRETER = {"setup": "interpreter", "solve": "interpreter", "audit": "interpreter"}

WORKLOADS = {
    w.name: w for w in (
        # Thousands of 50-100 us iterations: per-call Python overhead in
        # core, fourop, algorithms and linalg, the audits, and the paper's
        # plain-FBS divergence witnesses, which use up their whole budget.
        Workload("registry", INTERPRETER, _registry),
        # Dense n x n work at the opposite size through the same layers:
        # the scalar Lcg64 loop, SVD norms, dense SpdMetric builds and
        # solves, dense D, E and K products.  The set-up is led by the
        # Python RNG loop; solves and audits by memory-bound products.
        Workload("ladder", {"setup": "interpreter", "solve": "dense", "audit": "dense"},
                 _ladder),
        # The bisection resolvent, about 48 prox evaluations per call,
        # dominates; no other workload is led by the backward step.
        Workload("backward", INTERPRETER, _backward),
    )
}


def accepts(algorithm: str, inst) -> bool:
    """Structural acceptance: what the algorithm's contract requires."""
    if algorithm in ("afba", "afba-fixed"):
        return "l_matrix" in inst.extras
    if algorithm in ("ps-explicit", "ps-resolvent"):
        return inst.ps_view is not None
    if algorithm in ("fbf", "fbf-long"):
        return inst.bundle.e.inverse_cocoercivity == 0.0
    return True


def algorithms_for(group: Group, inst) -> tuple:
    if group.algorithms is not None:
        return group.algorithms
    return tuple(a for a in algorithms.ALGORITHMS if accepts(a, inst))


def solve(algorithm: str, inst):
    """One run; returns (RunOutput or None, exception or None)."""
    try:
        return algorithms.run_algorithm(algorithm, inst, tol=TOL, max_iter=MAX_ITER), None
    except Exception as exc:  # every failure is judged and reported
        return None, exc


def audit(out) -> list:
    """The audits `nofob check` runs: Fejer, plus separation and mu bounds
    when the runner exposes a kernel view.  An audit that raises becomes a
    failed report named after the exception."""
    traj = out.trajectory
    reports = []
    try:
        reports.append(diagnostics.check_fejer(traj, out.z_star, out.s_metric))
        view = out.nofob_view
        if view is not None:
            reports.append(diagnostics.check_separation(traj, view, out.z_star))
            reports.append(diagnostics.check_mu_bounds(traj, view.beta, view.p_metric,
                                                       out.s_metric, view.kernel_lipschitz))
    except Exception as exc:  # judged like any failed audit
        reports.append(diagnostics.CheckReport(f"raised {type(exc).__name__}: {exc}",
                                               float("inf"), None, False))
    return reports


def judge(out, exc, reports) -> Optional[str]:
    """None when the item is ok, else the reason it is not."""
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    traj = out.trajectory
    if traj.status != "converged":
        return f"status {traj.status} after {traj.iterations} iterations"
    z = np.asarray(out.z_star, dtype=float)
    dist = float(np.linalg.norm(traj.final_x - z)) / (1.0 + float(np.linalg.norm(z)))
    if not dist <= ORACLE_DISTANCE:
        return f"final iterate {dist:.3e} from the oracle (limit {ORACLE_DISTANCE:.0e})"
    failed = [r for r in reports if not r.passed]
    if failed:
        return "audit " + ", ".join(
            f"{r.name} max violation {r.max_violation:.3e}" for r in failed)
    return None


def known_failure(algorithm: str, inst, exc) -> bool:
    """The two failure kinds the module docstring lists."""
    if algorithm in FBS_NAMES:
        c = inst.constants
        return c["l_d"] > 0.0 or c["k_norm"] > 0.0
    if algorithm == "afba-fixed":
        return isinstance(exc, ContractViolation) and "not positive definite" in str(exc)
    return False


def fingerprint(out, exc, reports) -> str:
    """Digest of everything an item computes that later passes must repeat."""
    h = hashlib.blake2b(digest_size=12)
    if exc is not None:
        h.update(f"{type(exc).__name__}:{exc}".encode())
        return h.hexdigest()
    traj = out.trajectory
    h.update(f"{traj.status}:{traj.iterations}".encode())
    h.update(np.ascontiguousarray(traj.final_x).tobytes())
    for r in reports:
        h.update(f"{r.name}:{r.passed}:{r.max_violation!r}".encode())
    return h.hexdigest()


def result_bytes(out) -> int:
    """Bytes of the distinct arrays a trajectory holds (computed from sizes)."""
    if out is None:
        return 0
    seen = set()
    total = 0
    traj = out.trajectory
    arrays = [traj.final_x]
    for rec in traj.records:
        arrays += (rec.x, rec.x_hat, rec.x_next)
    for a in arrays:
        base = a if a.base is None else a.base
        if id(base) not in seen:
            seen.add(id(base))
            total += base.nbytes
    return total
