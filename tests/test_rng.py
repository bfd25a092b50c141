import numpy as np
import pytest

from nofob.rng import _BLOCK, Lcg64

# uint64 products must wrap silently, as the LCG's mod 2^64 does
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SEEDS = list(range(200)) + [2**64 - 1, -1, -(2**63), 2026]
LENGTHS = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)


def scalar_vector(rng, n):
    """Reference: one uniform_signed() call per double."""
    return np.array([rng.uniform_signed() for _ in range(n)], dtype=float)


def test_vector_matches_the_scalar_stream():
    for seed in SEEDS:
        fast, ref = Lcg64(seed), Lcg64(seed)
        for n in LENGTHS:
            assert fast.vector(n).tobytes() == scalar_vector(ref, n).tobytes(), (seed, n)
            assert fast.state == ref.state, (seed, n)
            assert fast.uniform() == ref.uniform(), (seed, n)
            assert fast.state == ref.state, (seed, n)


def test_stream_is_pinned():
    # recorded from the scalar generator (one uniform_signed() per double)
    rng = Lcg64(2026)
    assert [float.hex(v) for v in rng.vector(8)] == [
        "-0x1.5f99a3b805ce0p-1", "0x1.c5ced5eb65f08p-2",
        "0x1.0dca49fce4660p-5", "-0x1.64dbb12af29c0p-4",
        "0x1.0d54111d2b708p-2", "0x1.784b893ad0134p-1",
        "-0x1.a66d7376a8a00p-5", "0x1.9b76d9ce83648p-3",
    ]
    assert rng.state == 11076442329219221931
    rng = Lcg64(7)
    v = rng.vector(1500)
    assert [float.hex(v[i]) for i in (511, 512, 513, 1499)] == [
        "0x1.5f501911d5c7ap-1", "-0x1.44b6a23b52dc8p-3",
        "0x1.9c31af6a83f1ep-1", "0x1.0764b99626bc0p-5",
    ]
    assert rng.state == 9519926705357779058
