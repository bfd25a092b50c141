"""The input contract: every public constructor and builder that takes a
size, a count, a declared constant or a declared vector either builds or
raises ContractViolation, never a foreign error.  The checks live in
`nofob.linalg`, one per kind of input; `Lcg64` alone raises TypeError on
a seed that is not an integer, as `range` does."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nofob.algorithms import run_algorithm
from nofob.core import NofobProblem, corrected_step, run_loop
from nofob.fourop import (AffinePlusSkew, BlockDiag, FourOpProblem, ScalarStep,
                          SeparableNonlinear, fbs_view, zero_cocoercive, zero_forward)
from nofob.linalg import ContractViolation, SpdMetric
from nofob.operators import (BlockProx, CocoerciveMap, LipschitzMap, SkewMap, affine_operator,
                             l1_plus_diag_affine, l1_subdifferential, zero_operator)
from nofob.problems import (get_instance, make_nonlinear_kernel_demo,
                            make_regularized_quadratic, make_rotation_vi, make_saddle_pd)
from nofob.projective import PsProblem, ps_explicit_oracle
from nofob.rng import Lcg64


def _half_view(n=2):
    """A x = x, M = I: x_hat = x / 2."""
    return NofobProblem(fb_oracle=lambda x: x / 2.0, p_metric=SpdMetric.identity(n),
                        s_metric=SpdMetric.identity(n), beta=0.0, kernel_lipschitz=1.0,
                        kernel_diff=lambda x, x_hat, d: d)


def _bundle(n=2):
    return FourOpProblem(b=zero_operator(), d=zero_forward(),
                         e=CocoerciveMap.affine(np.eye(n), np.zeros(n), 1.0), k=SkewMap.zero(n))


def _ps():
    return PsProblem([zero_operator(), zero_operator()], [np.ones((1, 2))], 2)


ROT = np.array([[0.0, -1.0], [1.0, 0.0]])

# Each takes one drawn value into one input, with every other input valid.
SCALAR_INPUTS = {
    "make_rotation_vi-n_even": lambda v: make_rotation_vi(n_even=v),
    "make_rotation_vi-scale": lambda v: make_rotation_vi(scale=v),
    "make_rotation_vi-angle": lambda v: make_rotation_vi(angle_deg=v),
    "make_regularized_quadratic-n": lambda v: make_regularized_quadratic(n=v),
    "make_regularized_quadratic-lam": lambda v: make_regularized_quadratic(lam=v),
    "make_saddle_pd-n": lambda v: make_saddle_pd(n=v),
    "make_saddle_pd-m": lambda v: make_saddle_pd(m=v),
    "make_nonlinear_kernel_demo-n": lambda v: make_nonlinear_kernel_demo(n=v),
    "make_nonlinear_kernel_demo-lam": lambda v: make_nonlinear_kernel_demo(lam=v),
    "run_loop-tol": lambda v: run_loop(corrected_step(_half_view(), 1.0), np.ones(2), v, 3),
    "run_loop-max_iter": lambda v: run_loop(corrected_step(_half_view(), 1.0), np.ones(2),
                                            0.0, v),
    "run_algorithm-max_iter": lambda v: run_algorithm("fbf", get_instance("rotation"),
                                                      max_iter=v),
    "corrected_step-mu_hat": lambda v: corrected_step(_half_view(), 1.0, mu_hat=v),
    "NofobProblem-kernel_lipschitz": lambda v: NofobProblem(
        fb_oracle=np.copy, p_metric=SpdMetric.identity(2), s_metric=SpdMetric.identity(2),
        beta=0.0, kernel_lipschitz=v, kernel_diff=lambda x, x_hat, d: d),
    "ScalarStep-gamma": ScalarStep,
    "BlockDiag-weight": lambda v: BlockDiag([1.0, v]),
    "AffinePlusSkew-tau1": lambda v: AffinePlusSkew(np.ones((1, 2)), v, 0.1),
    "AffinePlusSkew-tau2": lambda v: AffinePlusSkew(np.ones((1, 2)), 1.0, v),
    "SeparableNonlinear-sigma": lambda v: SeparableNonlinear(np.copy, v, 50.0),
    "SeparableNonlinear-ell": lambda v: SeparableNonlinear(np.copy, 1.0, v),
    "fbs_view-gamma": lambda v: fbs_view(_bundle(), v),
    "SkewMap-norm": lambda v: SkewMap(ROT, v),
    "SkewMap.zero-n": SkewMap.zero,
    "BlockProx-size": lambda v: BlockProx([zero_operator()], [v]),
    "PsProblem-primal_dim": lambda v: PsProblem([zero_operator()], [], v),
    "ps_explicit_oracle-tau": lambda v: ps_explicit_oracle(_ps(), (1.0, v)),
    "SpdMetric.scaled_identity-c": lambda v: SpdMetric.scaled_identity(v, 2),
    "SpdMetric.scaled_identity-n": lambda v: SpdMetric.scaled_identity(1.0, v),
    "SpdMetric.identity-n": SpdMetric.identity,
    "LipschitzMap-lipschitz_constant": lambda v: LipschitzMap(np.copy, v),
    "LipschitzMap.linear-lipschitz_constant": lambda v: LipschitzMap.linear(np.eye(2), v),
    "CocoerciveMap-inverse_cocoercivity": lambda v: CocoerciveMap(np.copy, v),
    "CocoerciveMap.affine-inverse_cocoercivity": lambda v: CocoerciveMap.affine(
        np.eye(2), np.zeros(2), v),
    "l1_subdifferential-weight": l1_subdifferential,
    "l1_plus_diag_affine-lam": lambda v: l1_plus_diag_affine(v, [1.0, 1.0], [1.0, 1.0]),
    "l1_plus_diag_affine-d": lambda v: l1_plus_diag_affine(0.1, [1.0, v], [1.0, 1.0]),
}
VECTOR_INPUTS = {
    "CocoerciveMap.affine-shift": lambda v: CocoerciveMap.affine(np.eye(2), v, 1.0),
    "affine_operator-b": lambda v: affine_operator(np.eye(2), v),
    "l1_plus_diag_affine-b": lambda v: l1_plus_diag_affine(0.1, [1.0, 1.0], v),
    "l1_plus_diag_affine-d-vector": lambda v: l1_plus_diag_affine(0.1, v, [1.0, 1.0]),
    "BlockDiag-weights": BlockDiag,
    "ps_explicit_oracle-taus": lambda v: ps_explicit_oracle(_ps(), v),
    "run_algorithm-tau": lambda v: run_algorithm("ps-resolvent", get_instance("saddle"),
                                                 tau=v, max_iter=3),
}

# Small magnitudes, so that a size or a budget that is accepted stays cheap.
NUMBERS = st.one_of(
    st.integers(-3, 30),
    st.floats(-3.0, 30.0),  # integral and non-integral
    st.integers(-3, 30).map(np.int64),
    st.floats(-3.0, 30.0).map(np.float64),
    st.booleans(),
    st.sampled_from([0, 0.0, -1, math.nan, math.inf, -math.inf, np.True_]),
)
VECTORS = st.lists(NUMBERS, max_size=4)


def _builds_or_violates(build, value):
    try:
        build(value)
    except ContractViolation:
        pass


@pytest.mark.parametrize("slot, kind", [(name, "scalar") for name in SCALAR_INPUTS]
                         + [(name, "vector") for name in VECTOR_INPUTS]
                         + [("Lcg64-seed", "scalar")])
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_a_bad_input_raises_contract_violation_never_a_foreign_error(slot, kind, data):
    value = data.draw(NUMBERS if kind == "scalar" else VECTORS)
    if slot == "Lcg64-seed":
        # the one exception: a seed that is not an integer raises TypeError
        try:
            Lcg64(value)
        except TypeError:
            assert not isinstance(value, (int, np.integer))
        return
    build = {**SCALAR_INPUTS, **VECTOR_INPUTS}[slot]
    _builds_or_violates(build, value)


# ---------------------------------------------------------------------------
# inputs the parent code took, or stopped on with a foreign error


@pytest.mark.parametrize("build", [
    lambda: make_saddle_pd(n=2.5),
    lambda: make_saddle_pd(n=True, m=True),
    lambda: make_regularized_quadratic(n=20.0),
    lambda: make_nonlinear_kernel_demo(n=3.5),
    lambda: make_rotation_vi(n_even=4.0),
], ids=["saddle-n-2.5", "saddle-bools", "regquad-n-20.0", "nonlinear-n-3.5",
        "rotation-n_even-4.0"])
def test_a_builder_size_must_be_an_integer(build):
    # numpy's TypeError deep in the build before
    with pytest.raises(ContractViolation, match="must be an integer"):
        build()


@pytest.mark.parametrize("max_iter, message", [
    (2.5, "max_iter must be an integer"), (True, "max_iter must be an integer"),
    (np.float64(3.0), "max_iter must be an integer"), (-1, "max_iter must be at least 0"),
], ids=["2.5", "true", "numpy-float", "negative"])
def test_a_budget_must_be_an_integer_of_at_least_zero(max_iter, message):
    # range()'s TypeError on 2.5 before, and True ran as a budget of 1
    with pytest.raises(ContractViolation, match=message):
        run_algorithm("fbf", get_instance("rotation"), max_iter=max_iter)


def test_a_fixed_step_length_must_be_finite():
    # accepted before, and the run ended `error`
    with pytest.raises(ContractViolation, match="mu_hat must be positive and finite"):
        corrected_step(_half_view(), 1.0, mu_hat=math.inf)


def test_l1_plus_diag_affine_rejects_a_b_of_another_shape():
    # built before; its first call raised numpy's broadcast ValueError
    with pytest.raises(ContractViolation, match="b must be of d's shape"):
        l1_plus_diag_affine(0.1, [1, 2], [1, 2, 3])
