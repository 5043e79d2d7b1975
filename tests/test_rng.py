import decimal
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from vmlab import rng
from vmlab.errors import CapacityExceeded
from vmlab.rng import NORMALS_LIMIT, SIGNS_LIMIT, SplitMix64, _log

SEEDS = [0, 1, 2**63 + 7, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "k", [0, 1, 7, 511, 513, 4096, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5, 65535, 65536, 65537, 2**17 + 3]
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
    z = SplitMix64(seed)._outputs(2 * count)
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
def test_log_is_bitwise_math_log_on_2_to_the_20_draws(seed, monkeypatch):
    u1, _ = _uniform_pairs(seed, 1 << 20)
    expect = np.fromiter(map(math.log, u1.tolist()), np.float64, u1.size)
    recomputed = []
    monkeypatch.setattr(rng, "math", SimpleNamespace(log=lambda x: recomputed.append(x) or math.log(x)))
    mismatches = int(np.count_nonzero(_log(u1).view(np.uint64) != expect.view(np.uint64)))
    assert mismatches == 0
    # y lies anywhere between two doubles, so the rounding test recomputes the share
    # 1 - 2 * _LOG_MARGIN = 6.84% that its margin leaves out (6.836% at seed 1, 6.834% at 47)
    share = len(recomputed) / u1.size
    assert 0.066 < share < 0.07, share


def test_float64_multiply_and_add_round_to_nearest_without_fused_multiply_add():
    # ``_reduce`` and ``_estimate`` form exact products and sums by Dekker's
    # two-product and TwoSum, which hold only if numpy rounds each float64 multiply
    # and add to nearest, unfused: then p + e = a b and s + f = a + b exactly, with
    # e and f within half a spacing of p and s
    gen = np.random.default_rng(5)
    a, b = (gen.normal(size=4096) * 2.0 ** gen.integers(-30, 30, 4096) for _ in range(2))

    def split(v):  # Veltkamp: 26 and 27 bits
        c = v * rng._SPLIT
        return c - (c - v), v - (c - (c - v))

    (ah, al), (bh, bl), p, s = split(a), split(b), a * b, a + b
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    bb = s - a
    f = (a - (s - bb)) + (b - bb)
    for x, y, q, r, t, g in zip(*(v.tolist() for v in (a, b, p, e, s, f))):
        assert Fraction(x) * Fraction(y) == Fraction(q) + Fraction(r) and abs(r) <= abs(np.spacing(q)) / 2
        assert Fraction(x) + Fraction(y) == Fraction(t) + Fraction(g) and abs(g) <= abs(np.spacing(t)) / 2


def _cell_edges():
    """The 513 edges of the reduction cells of ``_log``, c = 0.70703125 to 2c."""
    return (rng._CELL_BASE + (np.arange(513, dtype=np.int64) << rng._CELL_SHIFT)).view(np.float64)


def _reduced(u):
    """(x, k) with u = x 2^k and x in [c, 2c), from math.frexp."""
    pairs = [math.frexp(v) for v in u.tolist()]
    pairs = [(2.0 * m, e - 1) if m < 0.70703125 else (m, e) for m, e in pairs]
    return [m for m, _ in pairs], [e for _, e in pairs]


def test_reduction_gives_t_exactly_at_every_cell_edge_and_inside_each_cell():
    edges = _cell_edges()
    gen = np.random.default_rng(37)
    inside = edges[:-1, None] + (edges[1:] - edges[:-1])[:, None] * gen.random((512, 6))
    x = np.concatenate([edges[:-1], np.nextafter(edges[1:], 0.0), inside.ravel()])
    cells = np.concatenate([np.arange(512), np.arange(512), np.repeat(np.arange(512), 6)])
    k = gen.integers(-1000, 1000, x.size)
    k[:600] = 0
    u = np.concatenate([np.ldexp(x, k), [5e-324, 3 * 5e-324, 2.0**-1022 - 2.0**-1074, 1.7976931348623157e308]])
    assert u.size >= rng._LOG_CROSSOVER and np.all(np.ldexp(u[: x.size], -k) == x)
    cell, K, _, t_hi, t_lo = rng._reduce(u, np.empty((7, u.size)))
    r = rng._log_table()[0]
    want_x, want_k = _reduced(u)
    assert cell[: x.size].tolist() == cells.tolist()
    assert K.tolist() == [e * rng._LN2_HI for e in want_k]
    for xj, rj, hi, lo in zip(want_x, r[cell].tolist(), t_hi.tolist(), t_lo.tolist()):
        assert Fraction(hi) + Fraction(lo) == Fraction(xj) * Fraction(rj) - 1
        assert abs(hi) < (2.0**-9 if rj == 1.0 else 2.0**-10)


def test_cell_logarithms_are_double_doubles_within_2_to_the_minus_100():
    r, T_hi, T_lo = rng._log_table()
    one = np.searchsorted(_cell_edges(), 1.0)  # the cell that starts at 1
    assert np.flatnonzero(r == 1.0).tolist() == [one - 1, one]
    assert T_hi[r == 1.0].tolist() == [0.0, 0.0] and not np.any(np.signbit(T_hi[r == 1.0]))
    assert all(Fraction(v).numerator.bit_length() <= 24 for v in r.tolist())
    assert np.all(np.abs(T_hi[r != 1.0]) > 2.0**-10)  # above |t|, for FastTwoSum
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        bound = decimal.Decimal(2) ** -100
        for rj, hi, lo in zip(r.tolist(), T_hi.tolist(), T_lo.tolist()):
            assert abs(decimal.Decimal(hi) + decimal.Decimal(lo) + decimal.Decimal(rj).ln()) <= bound
        error = decimal.Decimal(rng._LN2_HI) + decimal.Decimal(rng._LN2_LO) - decimal.Decimal(2).ln()
        assert abs(error) < decimal.Decimal(2) ** -89
    assert Fraction(rng._LN2_HI).numerator.bit_length() <= 32  # so 1074 ln2_hi is exact


def test_log_estimate_is_within_its_error_bound():
    # |L - log u| <= E s on cell edges at several exponents, near 1 and on draws
    edges = _cell_edges()
    gen = np.random.default_rng(41)
    near_one = np.concatenate([1.0 + gen.random(600) * 2.0**-9, 1.0 - gen.random(600) * 2.0**-10])
    draws, _ = _uniform_pairs(3, 1000)
    u = np.concatenate([np.ldexp(edges[:-1], k) for k in (0, -1, 1, -60, 1000)] + [near_one, draws])
    out = np.empty(u.size)
    residual = rng._estimate(u, out, np.empty((7, u.size)))
    spacing = np.abs(out - np.nextafter(out, 0.0))
    worst = 0.0
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for uj, d, res, s in zip(u.tolist(), out.tolist(), residual.tolist(), spacing.tolist()):
            error = decimal.Decimal(d) + decimal.Decimal(res) - decimal.Decimal(uj).ln()
            assert d != 0.0 or error == 0  # u = 1
            worst = max(worst, float(abs(error)) / s) if d != 0.0 else worst
    assert worst <= rng._LOG_ERROR, f"|L - log u| reached 2^{math.log2(worst):.2f} of the spacing"


def test_log_is_bitwise_math_log_across_the_positive_doubles():
    gen = np.random.default_rng(43)
    u = np.concatenate([
        [1.0, 5e-324, 2.0**-1022, 2.0**-1022 - 2.0**-1074, 1.7976931348623157e308],
        np.ldexp(1.0, np.arange(-1074, 1024)),  # every power of two, the subnormal ones too
        1.0 + np.arange(1, 2000) * 2.0**-52,
        1.0 - np.arange(1, 2000) * 2.0**-53,
        gen.integers(1, 1 << 52, 4096).view(np.float64),  # subnormals
        gen.integers(1 << 52, 0x7FF0000000000000, 1 << 15).view(np.float64),  # normals, every exponent
    ])
    assert u.size >= rng._LOG_CROSSOVER and np.all(u > 0.0) and np.all(np.isfinite(u))
    out = _log(u)
    assert out.tobytes() == np.array([math.log(x) for x in u.tolist()]).tobytes()
    assert out[0] == 0.0 and not np.signbit(out[0])  # log 1 = +0.0


def test_normals_take_no_slice_sized_temporary_beside_the_workspace():
    k = 65536
    SplitMix64(9).normals(k)
    tracemalloc.start()
    try:
        SplitMix64(9).normals(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    workspace = rng._NORMALS_ROWS * rng._NORMALS_SLICE * 8
    assert peak - 8 * k - workspace < 8 * rng._NORMALS_SLICE, f"normals({k}) peaked at {peak} bytes"


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
