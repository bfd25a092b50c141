"""Corrected forward-backward solvers for maximal monotone inclusions.

The central object is a forward-backward step taken in a (possibly
nonlinear) strongly monotone kernel, followed by a relaxed projection
onto the halfspace that the step separates from the solution set.  On
top of that sit a four-operator splitting method, its named special
cases (forward-backward-forward, forward-backward-half-forward,
asymmetric kernels, relaxed forward-backward), synchronous projective
splitting, seeded test problems with oracles, and invariant checkers.
"""

from .algorithms import ALGORITHMS, RunOutput, run_algorithm
from .core import (
    IterRecord,
    NofobProblem,
    Trajectory,
    run_loop,
)
from .diagnostics import (
    CheckReport,
    check_fejer,
    check_mu_bounds,
    check_separation,
    fit_rate,
)
from .fourop import (
    AffinePlusSkew,
    BlockDiag,
    FourOpProblem,
    ScalarStep,
    SeparableNonlinear,
    afba_fixed_step_check,
    as_nofob,
    epsbar_delta,
    fbs_view,
    gamma_bound_conservative,
    gamma_bound_long,
)
from .linalg import ContractViolation, SpdMetric
from .operators import (
    BlockProx,
    CocoerciveMap,
    LipschitzMap,
    ProxOperator,
    SkewMap,
    separable_nonlinear_resolvent,
)
from .problems import (
    REGISTRY,
    ProblemInstance,
    get_instance,
    make_nonlinear_kernel_demo,
    make_regularized_quadratic,
    make_rotation_vi,
    make_saddle_pd,
)
from .projective import (
    PsProblem,
    ps_explicit_oracle,
)
from .rng import Lcg64

__version__ = "0.1.0"
