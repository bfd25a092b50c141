"""Synchronous projective splitting for 0 in A_n(x) + sum_i L_i* A_i(L_i x).

The problem is stacked into a primal-dual inclusion 0 in Bp + Kp over the
flat vector p = (w_1, ..., w_{n-1}, x), with B carrying the dual inverses
(realized through Moreau's identity) and K the skew coupling built from
the L_i.  `PsProblem` builds that stacked problem once (`stacked`), and
every step splits p with its `BlockProx.split`.
The step sizes tau_i are the run's.  Both forms are the corrected step
of core on the block-diagonal kernel view of the stacked problem
(`as_nofob(ps.stacked, BlockDiag((tau_1, ..., 1 / tau_n)), s)`), and they
differ only in the oracle.  The resolvent form (`ps-resolvent`) resolves
the stacked B.  The explicit form of Johnstone and Eckstein
(`ps-explicit`) swaps in `ps_explicit_oracle`, which touches only the
primal resolvents and the L_i maps.  Their trajectories
coincide to round-off; tests exploit this as a runtime oracle.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .fourop import FourOpProblem, zero_cocoercive, zero_forward
from .linalg import GRAPH_TOL, ContractViolation, _size
from .operators import BlockProx, ProxOperator, SkewMap, inverse_via_moreau

__all__ = [
    "PsProblem",
    "ps_explicit_oracle",
]


class PsProblem:
    """n monotone blocks A_1..A_n with couplings L_1..L_{n-1}.

    a_ops[i] is the resolvent oracle of A_{i+1}; the last entry acts on
    the primal space.  l_maps[i] maps the primal space into the space
    of A_{i+1}.  The step sizes are the run's, not the problem's.
    """

    def __init__(self, a_ops: Sequence[ProxOperator], l_maps: Sequence, primal_dim: int):
        n = len(a_ops)
        if n < 1:
            raise ContractViolation("at least one block required")
        if len(l_maps) != n - 1:
            raise ContractViolation("need n-1 coupling maps")
        primal_dim = _size(primal_dim, "primal", below_one="block dimensions must be positive")
        mats = []
        for l in l_maps:
            m = np.asarray(l, dtype=float)
            if m.ndim != 2 or m.shape[1] != primal_dim:
                raise ContractViolation("coupling maps must have primal_dim columns")
            if m.shape[0] < 1:
                raise ContractViolation("block dimensions must be positive")
            mats.append(m)
        self.a_ops = tuple(a_ops)
        self.l_maps = tuple(mats)
        self.primal_dim = primal_dim
        self.dual_dims = tuple(m.shape[0] for m in mats)
        self.n = n
        # The stacked primal-dual inclusion 0 in Bp + Kp, with D = E = 0.
        # B blocks are (A_1^{-1}, ..., A_{n-1}^{-1}, A_n); K holds -L_i in
        # the last block column and L_i* in the last block row.
        ops = [inverse_via_moreau(op) for op in self.a_ops[:-1]] + [self.a_ops[-1]]
        block = BlockProx(ops, self.dual_dims + (self.primal_dim,))
        cut = block.offsets
        kmat = np.zeros((block.dim, block.dim))
        for m, a, b in zip(mats, cut, cut[1:]):
            kmat[a:b, cut[-2]:] = -m
            kmat[cut[-2]:, a:b] = m.T
        self.stacked = FourOpProblem(b=block, d=zero_forward(), e=zero_cocoercive(),
                                     k=SkewMap(kmat))


def ps_explicit_oracle(ps: PsProblem, taus: Sequence) -> Callable[[np.ndarray], np.ndarray]:
    """Johnstone and Eckstein's explicit candidate, p -> p_hat, at the
    per-block step sizes taus, one positive and finite tau per block.

    It touches only the primal proxes and the L_i maps: x_hat from A_n's
    prox, each v_hat_i from A_i's prox, and w_hat_i read off the dual
    graph.  p and p_hat are stacked as (w_1, ..., w_{n-1}, x).  Each pair
    (v_hat_i, w_hat_i) and the primal pair (x_hat, y_hat) are certified
    to lie on their operator graphs through prox residuals.  In exact
    arithmetic p_hat is the block-diagonal view's (Q + B)^{-1}(Q - K) p,
    and the corrected step's normal (Q - K)(p - p_hat) is the published
    (t_1, ..., t_{n-1}, t*).
    """
    taus = tuple(float(t) for t in taus)
    if len(taus) != ps.n or not all(0.0 < t < math.inf for t in taus):
        raise ContractViolation("need one positive and finite step size per block")
    l_maps, a_ops = ps.l_maps, ps.a_ops
    tau_n, a_n = taus[-1], a_ops[-1]
    split = ps.stacked.b.split
    zero = np.zeros(ps.primal_dim)

    def oracle(p):
        *duals, x = split(p)
        lsw = sum((m.T @ w for m, w in zip(l_maps, duals)), zero)
        x_hat = np.asarray(a_n.evaluator(tau_n, x - tau_n * lsw), dtype=float)
        _assert_graph(a_n, tau_n, x_hat, (x / tau_n - lsw) - x_hat / tau_n)
        w_hats = []
        for m, w, tau, op in zip(l_maps, duals, taus[:-1], a_ops[:-1]):
            lx = m @ x
            v_hat = np.asarray(op.evaluator(tau, lx + tau * w), dtype=float)
            w_hat = w + lx / tau - v_hat / tau
            _assert_graph(op, tau, v_hat, w_hat)
            w_hats.append(w_hat)
        return np.concatenate([*w_hats, x_hat])

    return oracle


def _assert_graph(op: ProxOperator, tau: float, point: np.ndarray, val: np.ndarray):
    """Certify val is in A(point): J_{tau A}(point + tau val) must return
    point to GRAPH_TOL * (1 + ||point||)."""
    recon = np.asarray(op.evaluator(tau, point + tau * val), dtype=float)
    scale = 1.0 + float(np.linalg.norm(point))
    if float(np.linalg.norm(recon - point)) > GRAPH_TOL * scale:
        raise ContractViolation("prox pair left the operator graph")
