"""Deterministic 64-bit LCG used for all seeded sampling.

The generator is a plain linear congruential generator with Knuth's
MMIX constants,

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64,

and uniform doubles in [-1, 1) taken from the top 53 bits of each
state.  Problem generators and samplers use this instead of library
RNGs so that instances are reproducible from the seed alone,
independent of any library version.

Arrays are filled by jump-ahead (Brown 1994, "Random number generation
with arbitrary strides"): j steps from state s land on A_j s + C_j
mod 2^64, with A_j = A^j and C_j = C (A^(j-1) + ... + 1).  Two tables
apply it at two levels.  (A_j, C_j) for j = 1.._BLOCK take the current
state to the first block of _BLOCK states, one uint64 multiply-add;
(A_(_BLOCK b), C_(_BLOCK b)) for b = 1.._SPAN - 1 take that block to
block b, one broadcast multiply-add over the (blocks x _BLOCK) array.
A run of more than _BLOCK * _SPAN draws repeats this from the last
state.  Products wrap mod 2^64 as the LCG does, so the stream is bit
for bit the one that stepping the LCG once per double gives.
"""

from __future__ import annotations

import operator

import numpy as np

_A = 6364136223846793005
_C = 1442695040888963407
_MASK = (1 << 64) - 1
_BLOCK = 512
_SPAN = 4096


def _jump_table(mult: int, add: int, count: int):
    """(A_j, C_j) of the map s -> mult s + add applied j times, for
    j = 1..count, as uint64 arrays."""
    a_j, c_j = [mult], [add]
    for _ in range(count - 1):
        a_j.append((mult * a_j[-1]) & _MASK)
        c_j.append((mult * c_j[-1] + add) & _MASK)
    return np.array(a_j, dtype=np.uint64), np.array(c_j, dtype=np.uint64)


# the first block: j = 1.._BLOCK steps after the current state
_JUMP_MULT, _JUMP_ADD = _jump_table(_A, _C, _BLOCK)
# block b = 1.._SPAN - 1: b _BLOCK steps after the first block
_SPAN_MULT, _SPAN_ADD = _jump_table(int(_JUMP_MULT[-1]), int(_JUMP_ADD[-1]), _SPAN - 1)


class Lcg64:
    """64-bit LCG yielding arrays of uniform doubles."""

    def __init__(self, seed: int):
        # operator.index, not int(): a float seed would be truncated to
        # another seed's stream; it raises TypeError, as range() does
        self.state = (operator.index(seed) ^ 0x9E3779B97F4A7C15) & _MASK
        # warm up so that small seeds decorrelate
        for _ in range(4):
            self.state = (_A * self.state + _C) & _MASK

    def vector(self, n: int) -> np.ndarray:
        """Array of n uniform doubles in [-1, 1).

        Equal bit for bit to n steps of the LCG, each state's top 53
        bits k giving 2 (k 2^-53) - 1 = k 2^-52 - 1: scaling by a power
        of two is exact.  Past the first block the last one is filled
        whole and its states past n are dropped.  A negative n raises
        ValueError.
        """
        if n < 0:
            raise ValueError("negative dimensions are not allowed")
        width = min(n, _BLOCK)
        states = np.empty((-(-n // _BLOCK), width), dtype=np.uint64)
        s = self.state
        for first in range(0, len(states), _SPAN):
            row, rest = states[first], states[first + 1:first + _SPAN]
            np.multiply(_JUMP_MULT[:width], s, out=row)
            row += _JUMP_ADD[:width]
            if len(rest):  # a one-block run skips the two calls' overhead
                np.multiply(_SPAN_MULT[:len(rest), None], row, out=rest)
                rest += _SPAN_ADD[:len(rest), None]
            s = int(states[first + len(rest), -1])
        states = states.ravel()[:n]
        if n:
            self.state = int(states[-1])
        states >>= np.uint64(11)
        out = states * (1.0 / (1 << 52))
        out -= 1.0
        return out

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.vector(rows * cols).reshape(rows, cols)
