import numpy as np
import pytest

from nofob.rng import _BLOCK, _SPAN, Lcg64

# uint64 products must wrap silently, as the LCG's mod 2^64 does
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SEEDS = list(range(200)) + [2**64 - 1, -1, -(2**63), 2026]
LENGTHS = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)


def test_vector_matches_the_scalar_stream(scalar_draws):
    for seed in SEEDS:
        fast, ref = Lcg64(seed), Lcg64(seed)
        for n in LENGTHS:
            # reference: one LCG step per double
            scalar = np.array([scalar_draws.uniform_signed(ref) for _ in range(n)], dtype=float)
            assert fast.vector(n).tobytes() == scalar.tobytes(), (seed, n)
            assert fast.state == ref.state, (seed, n)
            assert scalar_draws.uniform(fast) == scalar_draws.uniform(ref), (seed, n)
            assert fast.state == ref.state, (seed, n)


def test_stream_is_pinned():
    # recorded from the scalar generator (one LCG step per double)
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


# a run of _BLOCK * _SPAN draws is one span: its block starts come from the
# second jump table, and the draw after it starts a second span
SPAN_LENGTHS = (_BLOCK * _SPAN - 1, _BLOCK * _SPAN, _BLOCK * _SPAN + 1)


def test_vector_matches_the_block_fill_across_the_span_boundary(block_fill_reference):
    for seed in (0, 2026, 2**64 - 1):
        fast, ref = Lcg64(seed), Lcg64(seed)
        for n in (*SPAN_LENGTHS, 3 * _BLOCK + 7, *SPAN_LENGTHS):
            assert fast.vector(n).tobytes() == block_fill_reference(ref, n).tobytes(), (seed, n)
            assert fast.state == ref.state, (seed, n)


def test_vector_of_length_zero_keeps_the_state_and_negative_lengths_raise():
    rng = Lcg64(5)
    state = rng.state
    assert rng.vector(0).shape == (0,) and rng.state == state
    assert rng.matrix(0, 7).shape == (0, 7) and rng.state == state
    for n in (-1, -_BLOCK - 1):
        with pytest.raises(ValueError):
            rng.vector(n)
    assert rng.state == state
