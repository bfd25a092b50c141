"""Synchronous projective splitting for 0 in A_n(x) + sum_i L_i* A_i(L_i x).

The problem is stacked into a primal-dual inclusion 0 in Bp + Kp over
p = (w_1, ..., w_{n-1}, x) with B carrying the dual inverses (realized
through Moreau's identity) and K the skew coupling built from the L_i.
Two equivalent iterations are provided: the resolvent form, which is the
corrected step of core on the block-diagonal kernel view returned by
`resolvent_view`, and the explicit form of Johnstone and Eckstein that
only touches the primal resolvents and the L_i maps, written out by hand
as a cross-check (`ps-explicit`).  Their trajectories coincide; tests
exploit this as a runtime oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .core import IterRecord, NofobProblem, coincides, null_record, separation_fails
from .fourop import BlockDiag, FourOpProblem, as_nofob, zero_cocoercive, zero_forward
from .linalg import ContractViolation, SpdMetric
from .operators import BlockProx, ProxOperator, SkewMap, inverse_via_moreau

__all__ = [
    "PdPoint",
    "PsProblem",
    "stack_primal_dual",
    "resolvent_view",
    "ps_explicit_iterate",
]

_MAX_BLOCKS = 8
_MAX_BLOCK_DIM = 100


@dataclass(frozen=True)
class PdPoint:
    """Stacked primal-dual point p = (w_1, ..., w_{n-1}, x)."""

    duals: Tuple[np.ndarray, ...]
    primal: np.ndarray

    def to_vector(self) -> np.ndarray:
        return np.concatenate([*self.duals, self.primal])

    @classmethod
    def from_vector(cls, vec, dual_dims: Sequence[int], primal_dim: int) -> "PdPoint":
        vec = np.asarray(vec, dtype=float)
        offs = np.cumsum((0,) + tuple(dual_dims))
        duals = tuple(vec[a:b] for a, b in zip(offs[:-1], offs[1:]))
        return cls(duals=duals, primal=vec[offs[-1]:offs[-1] + primal_dim])


class PsProblem:
    """n monotone blocks A_1..A_n with couplings L_1..L_{n-1}.

    a_ops[i] is the resolvent oracle of A_{i+1}; the last entry acts on
    the primal space.  l_maps[i] maps the primal space into the space
    of A_{i+1}.  taus are per-block positive step sizes, fixed for the
    run.
    """

    def __init__(self, a_ops: Sequence[ProxOperator], l_maps: Sequence,
                 taus: Sequence, primal_dim: int):
        n = len(a_ops)
        if n < 1 or n > _MAX_BLOCKS:
            raise ContractViolation(f"between 1 and {_MAX_BLOCKS} blocks supported")
        if len(l_maps) != n - 1 or len(taus) != n:
            raise ContractViolation("need n-1 coupling maps and n step sizes")
        if not (1 <= primal_dim <= _MAX_BLOCK_DIM):
            raise ContractViolation(f"block dimensions limited to {_MAX_BLOCK_DIM}")
        mats = []
        for l in l_maps:
            m = np.asarray(l, dtype=float)
            if m.ndim != 2 or m.shape[1] != primal_dim:
                raise ContractViolation("coupling maps must have primal_dim columns")
            if not (1 <= m.shape[0] <= _MAX_BLOCK_DIM):
                raise ContractViolation(f"block dimensions limited to {_MAX_BLOCK_DIM}")
            mats.append(m)
        self.a_ops = tuple(a_ops)
        self.l_maps = tuple(mats)
        taus = tuple(float(t) for t in taus)
        if not all(t > 0.0 for t in taus):
            raise ContractViolation("step sizes must be positive")
        self.taus = taus
        self.primal_dim = int(primal_dim)
        self.dual_dims = tuple(m.shape[0] for m in mats)
        self.n = n
        self._stacked = None

    @property
    def total_dim(self) -> int:
        return sum(self.dual_dims) + self.primal_dim

    @property
    def q_weights(self) -> Tuple[float, ...]:
        """Kernel block weights (tau_1, ..., tau_{n-1}, 1/tau_n)."""
        return (*self.taus[:-1], 1.0 / self.taus[-1])

    def stacked(self):
        if self._stacked is None:
            self._stacked = stack_primal_dual(self)
        return self._stacked


def stack_primal_dual(ps: PsProblem) -> Tuple[BlockProx, SkewMap]:
    """Assemble the primal-dual inclusion operators.

    B blocks are (A_1^{-1}, ..., A_{n-1}^{-1}, A_n); K holds -L_i in
    the last block column and L_i* in the last block row.
    """
    ops = [inverse_via_moreau(op) for op in ps.a_ops[:-1]] + [ps.a_ops[-1]]
    dims = list(ps.dual_dims) + [ps.primal_dim]
    block = BlockProx(ops, dims)
    total = ps.total_dim
    h0 = total - ps.primal_dim
    kmat = np.zeros((total, total))
    row = 0
    for m in ps.l_maps:
        g = m.shape[0]
        kmat[row:row + g, h0:] = -m
        kmat[h0:, row:row + g] = m.T
        row += g
    return block, SkewMap(kmat)


def resolvent_view(ps: PsProblem, s: SpdMetric) -> NofobProblem:
    """The resolvent form as a kernel view of the stacked problem.

    p_hat = (Q + B)^{-1}(Q - K) p with the block-diagonal kernel
    Q = blockdiag(tau_1, ..., tau_{n-1}, 1/tau_n) over the stacked
    primal-dual inclusion; core.nofob_iterate on this view is one
    resolvent-form step.
    """
    block, kmap = ps.stacked()
    total = ps.total_dim
    stacked = FourOpProblem(b=block, d=zero_forward(total), e=zero_cocoercive(total),
                            k=kmap, dim=total)
    return as_nofob(stacked, BlockDiag(ps.q_weights), s)


def ps_explicit_iterate(
    ps: PsProblem, k: int, p: PdPoint, theta: float
) -> Tuple[PdPoint, IterRecord]:
    """One corrected step in explicit form, touching only primal proxes.

    Johnstone and Eckstein's synchronous projective splitting step as
    published, kept as a cross-check of the resolvent form.  Each dual
    pair (v_hat_i, w_hat_i) and the primal pair (x_hat, y_hat) are
    certified to lie on their operator graphs through prox residuals.
    """
    taus = ps.taus
    tau_n = taus[-1]
    x = p.primal
    lsw = sum(
        (m.T @ w for m, w in zip(ps.l_maps, p.duals)),
        np.zeros(ps.primal_dim),
    )
    x_hat = np.asarray(ps.a_ops[-1].evaluator(tau_n, x - tau_n * lsw), dtype=float)
    y_hat = (x / tau_n - lsw) - x_hat / tau_n
    _assert_graph(ps.a_ops[-1], tau_n, x_hat, y_hat)

    v_hats, w_hats = [], []
    for m, w, tau, op in zip(ps.l_maps, p.duals, taus[:-1], ps.a_ops[:-1]):
        lx = m @ x
        v_hat = np.asarray(op.evaluator(tau, lx + tau * w), dtype=float)
        w_hat = w + lx / tau - v_hat / tau
        _assert_graph(op, tau, v_hat, w_hat)
        v_hats.append(v_hat)
        w_hats.append(w_hat)

    t_star = y_hat + sum(
        (m.T @ wh for m, wh in zip(ps.l_maps, w_hats)),
        np.zeros(ps.primal_dim),
    )
    t_list = [vh - m @ x_hat for vh, m in zip(v_hats, ps.l_maps)]

    # The published numerator (sum <t_i, w_i> - <v_i, w_hat_i>) + <t*, x>
    # - <y_hat, x_hat> cancels O(1) terms down to a residual-squared
    # value; this equal regrouping from the equivalence derivation keeps
    # every factor residual-sized.
    num = (
        sum(float((vh - m @ x) @ (w - wh))
            for vh, m, w, wh in zip(v_hats, ps.l_maps, p.duals, w_hats))
        + float((y_hat + lsw) @ (x - x_hat))
    )
    den = sum(float(t @ t) for t in t_list) + float(t_star @ t_star)

    p_vec = p.to_vector()
    p_hat_vec = np.concatenate([*w_hats, x_hat])
    residual = float(np.linalg.norm(p_vec - p_hat_vec))
    p_norm = float(np.linalg.norm(p_vec))
    if coincides(residual, p_norm) or separation_fails(num, den, residual, p_norm):
        return p, null_record(k, p_vec, p_hat_vec, theta, residual)
    mu = num / den
    duals_next = tuple(w - theta * mu * t for w, t in zip(p.duals, t_list))
    x_next = x - theta * mu * t_star
    p_next = PdPoint(duals_next, x_next)
    rec = IterRecord(
        k=k, x=p_vec, x_hat=p_hat_vec, x_next=p_next.to_vector(), mu=mu,
        theta=theta, residual_s=residual, psi_at_x=num,
        normal_inv_norm=float(np.sqrt(den)),
    )
    return p_next, rec


def _assert_graph(op: ProxOperator, tau: float, point: np.ndarray, val: np.ndarray):
    """Certify val is in A(point): J_{tau A}(point + tau val) must return point."""
    recon = np.asarray(op.evaluator(tau, point + tau * val), dtype=float)
    scale = 1.0 + float(np.linalg.norm(point))
    if float(np.linalg.norm(recon - point)) > 1e-10 * scale:
        raise ContractViolation("prox pair left the operator graph")
