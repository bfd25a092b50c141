"""The solve's direct numpy calls round as the calls they replace.

The solve's hot path calls numpy's kernels directly (see
`nofob.linalg._operand`): `a.dot(x)` for `a @ x`, a read-only 0-d float64
operand for a Python float, `np.count_nonzero` for `.any()` and `.all()`,
`np.maximum.reduce` for `.max()` and `math.sqrt(v.dot(v))` for
`np.linalg.norm(v)`.  Each must give the bits of the call it replaces, so
a numpy that breaks one fails here rather than shifting trajectories
unseen.  The sizes from 200 on run in an interpreter with one BLAS thread,
the setting perfbench runs in.
"""

import math

import numpy as np
import pytest

from nofob.fourop import LinearPart
from nofob.linalg import _operand, matvec_rows
from nofob.rng import Lcg64

# (rows, columns): registry sizes, the saddle family's blocks (L is 6 x 8,
# AFBA's Q21 8 x 6, the stacked problem 14 x 14) and the ladder
SHAPES = [(6, 6), (10, 10), (12, 12), (20, 20), (6, 8), (8, 6), (14, 14),
          (200, 200), (400, 400), (800, 800)]
ONE_THREAD_FROM = 200
# the scalars the solve binds: step sizes, weights, thresholds, the
# resolvent's literals, and the extremes of the double range
SCALARS = [0.0, 0.5, 1.0, 0.37, 2.5, 1.0 / 3.0, 1e-300, 1e300, 5e-324]


def _vector(rng, n):
    """Entries of every magnitude, with a zero, a negative zero, a
    subnormal, both infinities and a NaN."""
    v = rng.vector(n) * np.logspace(-300, 300, n)
    v[:6] = [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan]
    return v


def _case(m, n):
    rng = Lcg64(1000 * m + n)
    a = rng.matrix(m, n) * np.logspace(-4, 4, n)
    rows = rng.matrix(5, n) * np.logspace(-8, 8, 5)[:, None]
    rows[3] = -0.0
    w = rng.vector(m)
    # the matrix, its transpose as the F-ordered view `m.T` is, and a
    # strided block of a larger matrix, as AFBA's Q21 is of Q
    big = rng.matrix(m + 3, n + 2)
    for mat, vecs in ((a, rows), (a.T, (w,)), (big[3:, 2:], rows)):
        stacked = matvec_rows(mat, np.array(vecs))
        for k, x in enumerate(vecs):
            expected = (mat @ x).tobytes()
            assert mat.dot(x).tobytes() == expected
            assert stacked[k].tobytes() == expected
            if mat is a:
                assert LinearPart(a)(x).tobytes() == expected

    v = _vector(rng, n)
    finite = rng.vector(n) * np.logspace(-150, 150, n)
    for c in SCALARS:
        c0 = _operand(c)
        assert c0.shape == () and c0.dtype == np.float64 and not c0.flags.writeable
        with np.errstate(all="ignore"):
            pairs = [(v / c, v / c0), (c * v, c0 * v), (v * c, v * c0),
                     (c - v, c0 - v), (np.maximum(v, c), np.maximum(v, c0)),
                     (v <= c, v <= c0), (v > c, v > c0)]
            a_float, a_zero_d = np.abs(v), np.abs(v)
            a_float -= c
            a_zero_d -= c0
            pairs.append((a_float, a_zero_d))
            pairs.append((np.maximum(a_float, c, out=a_float),
                          np.maximum(a_zero_d, c0, out=a_zero_d)))
        for plain, direct in pairs:
            assert plain.dtype == direct.dtype and plain.shape == direct.shape
            assert plain.tobytes() == direct.tobytes()

    for b in (v > 0.0, np.isfinite(v), np.isfinite(finite), v != v, np.zeros(n, bool)):
        assert (np.count_nonzero(b) > 0) == b.any()
        assert (np.count_nonzero(b) == b.size) == b.all()
    for x in (v, finite, np.abs(finite)):
        assert np.maximum.reduce(np.abs(x)).tobytes() == np.abs(x).max().tobytes()
    for x in (finite, rows[0], rows[4], w):
        assert math.sqrt(x.dot(x)) == float(np.linalg.norm(x))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_the_direct_calls_round_as_the_calls_they_replace(shape, python_with_blas_threads):
    m, n = shape
    if min(shape) >= ONE_THREAD_FROM:
        python_with_blas_threads(f"import test_rounding; test_rounding._case({m}, {n})", 1)
    else:
        _case(m, n)
