"""Deterministic 64-bit LCG used for all seeded sampling.

The generator is a plain linear congruential generator with Knuth's
MMIX constants,

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64,

and uniform doubles taken from the top 53 bits.  Problem generators and
samplers use this instead of library RNGs so that instances are
reproducible from the seed alone, independent of any library version.

Arrays are filled by block jump-ahead (Brown 1994, "Random number
generation with arbitrary strides"): j steps from state s land on
A_j s + C_j mod 2^64, with A_j = A^j and C_j = C (A^(j-1) + ... + 1), so
a block of states is one uint64 multiply-add on a precomputed table.
The stream is bit for bit the one that repeated uniform() calls give.
"""

from __future__ import annotations

import numpy as np

_A = 6364136223846793005
_C = 1442695040888963407
_MASK = (1 << 64) - 1
_BLOCK = 512


def _jump_table(block: int):
    """(A_j, C_j) for j = 1..block as uint64 arrays."""
    mult = np.empty(block, dtype=np.uint64)
    add = np.empty(block, dtype=np.uint64)
    a, c = 1, 0
    for j in range(block):
        a, c = (_A * a) & _MASK, (_A * c + _C) & _MASK
        mult[j], add[j] = a, c
    return mult, add


_JUMP_MULT, _JUMP_ADD = _jump_table(_BLOCK)


class Lcg64:
    """64-bit LCG yielding uniform doubles and arrays."""

    def __init__(self, seed: int):
        self.state = (int(seed) ^ 0x9E3779B97F4A7C15) & _MASK
        # warm up so that small seeds decorrelate
        for _ in range(4):
            self._next()

    def _next(self) -> int:
        self.state = (_A * self.state + _C) & _MASK
        return self.state

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self._next() >> 11) * (1.0 / (1 << 53))

    def uniform_signed(self) -> float:
        """Uniform double in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0

    def vector(self, n: int) -> np.ndarray:
        """Array of n uniform doubles in [-1, 1).

        Equal bit for bit to n calls of uniform_signed(): the top 53
        bits k of each state give k 2^-52 - 1, and scaling by a power of
        two is exact.  uint64 products wrap mod 2^64 as the LCG does.
        """
        states = np.empty(n, dtype=np.uint64)
        s = self.state
        for start in range(0, n, _BLOCK):
            block = states[start:start + _BLOCK]
            m = len(block)
            np.multiply(_JUMP_MULT[:m], np.uint64(s), out=block)
            block += _JUMP_ADD[:m]
            s = int(block[-1])
        self.state = s
        return (states >> np.uint64(11)) * (1.0 / (1 << 52)) - 1.0

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.vector(rows * cols).reshape(rows, cols)
