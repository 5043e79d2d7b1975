import numpy as np
import pytest

from vmlab.rng import SplitMix64

SEEDS = [0, 1, 2**63 + 7, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [0, 1, 7, 4096])
def test_normals_is_bitwise_the_scalar_stream(seed, k):
    batched, scalar = SplitMix64(seed), SplitMix64(seed)
    out = batched.normals(k)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (k,)
    assert out.tobytes() == np.array([scalar.normal() for _ in range(k)], dtype=float).tobytes()
    assert batched.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("seed", SEEDS)
def test_normals_interleaved_with_scalar_draws(seed):
    batched, scalar = SplitMix64(seed), SplitMix64(seed)
    got, expect = [], []
    for k in (3, 0, 1, 64):
        got.extend(batched.normals(k).tolist())
        expect.extend(scalar.normal() for _ in range(k))
        got.extend([batched.normal(), batched.sign(), batched.random()])
        expect.extend([scalar.normal(), scalar.sign(), scalar.random()])
    assert np.array(got).tobytes() == np.array(expect).tobytes()
    assert batched.next_u64() == scalar.next_u64()
