import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from vmlab import rng
from vmlab.errors import CapacityExceeded
from vmlab.rng import NORMALS_LIMIT, SIGNS_LIMIT, SplitMix64, _log

SEEDS = [0, 1, 2**63 + 7, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "k", [0, 1, 7, 4096, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5, 65535, 65536, 65537, 2**17 + 3]
)
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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [0, 1, 7, 2**16 + 3])
def test_signs_is_bitwise_the_scalar_stream(seed, k):
    batched, scalar = SplitMix64(seed), SplitMix64(seed)
    out = batched.signs(k)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (k,)
    assert out.tobytes() == np.array([scalar.sign() for _ in range(k)], dtype=float).tobytes()
    assert batched.next_u64() == scalar.next_u64()


def _uniform_pairs(seed: int, count: int):
    """The u1 in (0, 1] and u2 in [0, 1) of ``count`` normals, as ``normals`` forms them."""
    z = SplitMix64(seed)._outputs(0, 2 * count)
    top = (z >> np.uint64(11)).astype(np.float64).reshape(count, 2)
    return (top[:, 0] + 1.0) * 2.0**-53, top[:, 1] * 2.0**-53


def test_log_of_edge_draws():
    u = np.array([1.0, 2.0**-53, 1.0 - 2.0**-53, 0.5])
    out = _log(u)
    assert out.tobytes() == np.array([math.log(x) for x in u.tolist()]).tobytes()
    assert out[0] == 0.0 and math.copysign(1.0, out[0]) == 1.0  # +0.0


@pytest.mark.parametrize("power", [-4, -1, 0, 1, 3])
def test_log_where_it_crosses_a_power_of_two(power):
    # the 2**16 uniforms on the 2**-53 grid nearest exp(-2**power), where the
    # spacing of the doubles changes across log u = -2**power
    centre = round(math.exp(-(2.0**power)) * 2**53)
    u = np.arange(centre - 2**15, centre + 2**15, dtype=np.float64) * 2.0**-53
    assert u.min() > 0.0 and np.any(np.log(u) < -(2.0**power)) and np.any(np.log(u) > -(2.0**power))
    assert _log(u).tobytes() == np.array([math.log(x) for x in u.tolist()]).tobytes()


def test_log_falls_back_to_math_log_near_a_rounding_midpoint(monkeypatch):
    u, _ = _uniform_pairs(5, 4096)
    recomputed = []

    def spy(x):
        recomputed.append(x)
        return math.log(x)

    monkeypatch.setattr(rng, "math", SimpleNamespace(log=spy))
    out = _log(u)
    monkeypatch.undo()
    # about one entry in sixteen lies within 2^-5 of the spacing of a midpoint
    assert 4096 // 32 < len(recomputed) < 4096 // 8
    assert out.tobytes() == np.array([math.log(x) for x in u.tolist()]).tobytes()


@pytest.mark.parametrize("seed", [1, 47])
def test_log_is_bitwise_math_log_on_2_to_the_20_draws(seed):
    u1, _ = _uniform_pairs(seed, 1 << 20)
    expect = np.fromiter(map(math.log, u1.tolist()), np.float64, u1.size)
    mismatches = int(np.count_nonzero(_log(u1).view(np.uint64) != expect.view(np.uint64)))
    assert mismatches == 0


@pytest.mark.parametrize("seed", [1, 47])
def test_numpy_float64_cos_is_bitwise_math_cos(seed):
    _, u2 = _uniform_pairs(seed, 1 << 20)
    x = 2.0 * math.pi * u2
    expect = np.fromiter(map(math.cos, x.tolist()), np.float64, x.size)
    mismatches = int(np.count_nonzero(np.cos(x).view(np.uint64) != expect.view(np.uint64)))
    assert mismatches == 0, (
        f"numpy {np.__version__}'s float64 cos differs from math.cos on {mismatches} of {x.size} draws; "
        "SplitMix64.normals takes its cosines from np.cos and needs libm's bits"
    )


def test_normals_over_the_limit_fail_before_allocating():
    batched, scalar = SplitMix64(3), SplitMix64(3)
    for k in (NORMALS_LIMIT + 1, 1 << 50):  # 1 << 50 normals would take 8 PB
        with pytest.raises(CapacityExceeded, match="draw limit"):
            batched.normals(k)
    assert batched.next_u64() == scalar.next_u64()


def test_normals_hold_one_slice_of_temporaries():
    # 2**16-normal slices took 6.3 MiB next to the 0.5 MiB result
    SplitMix64(9).normals(65536)
    tracemalloc.start()
    try:
        SplitMix64(9).normals(65536)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20, f"normals(65536) peaked at {peak / 2**20:.2f} MiB"


def test_signs_over_the_limit_fail_before_allocating():
    batched, scalar = SplitMix64(3), SplitMix64(3)
    for k in (SIGNS_LIMIT + 1, 1 << 50):  # 1 << 50 signs would take 8 PB
        with pytest.raises(CapacityExceeded, match="draw limit"):
            batched.signs(k)
    assert batched.next_u64() == scalar.next_u64()
