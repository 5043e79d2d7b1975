import numpy as np
import pytest

from helpers import KINDS, dual_extreme_table, dual_norm, dual_spec, random_norm_spec
from vmlab import normed_space
from vmlab.normed_space import dual_extreme_blocks
from vmlab.opt_engine import _BLOCK_BITS, sign_table
from vmlab import (
    CapacityExceeded,
    NormSpec,
    NotPolyhedral,
    norm,
)


def _half(X):
    """The blocks of ``dual_extreme_blocks`` as one table."""
    return np.concatenate([block.copy() for block in dual_extreme_blocks(X)])


def test_norm_examples():
    assert norm(NormSpec("LINF", 2, 1.0), [3.0, -4.0]) == 4.0
    assert norm(NormSpec("L1", 4, 0.25), [1.0, -2.0, 0.0, 3.0]) == 1.5
    assert norm(NormSpec("L2", 2, 1.0), [3.0, 4.0]) == 5.0


def test_norm_of_rows_is_bitwise_the_norm_of_each_row():
    # in any layout: C, Fortran, a transposed view, or a stack of row blocks as hill_climb's flip screen
    rng = np.random.default_rng(14)
    for d in range(1, 41):
        for kind in KINDS:
            X = random_norm_spec(rng, d, kind)
            V = rng.normal(size=(int(rng.integers(1, 14)), d)) * np.exp(3.0 * rng.normal(size=(1, d)))
            V[rng.random(V.shape) < 0.1] = -0.0
            want = np.array([norm(X, v) for v in V])
            for layout in (V, np.asfortranarray(V), np.ascontiguousarray(V.T).T):
                rows = norm(X, layout)
                assert rows.shape == (len(V),)
                assert rows.tobytes() == want.tobytes(), (d, kind, layout.flags["F_CONTIGUOUS"])
            stacked = norm(X, np.stack([V, V[::-1]]))
            assert stacked.shape == (2, len(V))
            assert stacked.tobytes() == np.stack([want, want[::-1]]).tobytes()


_SUM_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308])


def test_numpy_short_row_sums_run_left_to_right_in_both_layouts():
    # ``norm`` forms short rows coordinate-major; its bits rest on numpy summing
    # 1-7 terms as ((0.0 + v_0) + v_1) + ... whether a row is contiguous or strided
    rng = np.random.default_rng(17)
    mismatches = []
    for d in range(1, 8):
        V = rng.normal(size=(400, d)) * np.exp(20.0 * rng.normal(size=(400, d)))
        special = rng.random(V.shape) < 0.3
        V[special] = rng.choice(_SUM_SPECIALS, size=int(special.sum()))
        V[:9] = _SUM_SPECIALS[:, None]  # rows of one special value: signed zeros, infinities, subnormals
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.zeros(len(V))
            for j in range(d):
                want = want + V[:, j]
            for name, layout in (("C", np.ascontiguousarray(V)), ("F", np.asfortranarray(V))):
                if layout.sum(axis=-1).tobytes() != want.tobytes():
                    mismatches.append((d, name))
    assert not mismatches, (
        f"numpy {np.__version__} does not sum 1-7 terms left to right from +0.0 in the "
        f"(row length, layout) cases {mismatches}; normed_space.norm forms short rows "
        "coordinate-major and needs their sums to equal those of row-major rows"
    )


def test_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        norm(NormSpec("L1", 3, 1.0), [1.0, 2.0])


def test_norm_spec_refuses_a_dimension_that_is_not_an_integer():
    # the corner engines shift by dim (1 << dim), so it must be an int before any array is built
    for dim, scale in ((3.0, [1.0, 2.0, 1.5]), (True, [2.0]), (np.float64(2.0), 1.0), (0, 1.0), (-1, 1.0), ("2", 1.0)):
        with pytest.raises(ValueError, match=r"dim must be an integer >= 1"):
            NormSpec("L1", dim, scale)
    X = NormSpec("LINF", np.int64(3), [1.0, 2.0, 1.5])
    assert type(X.dim) is int and X.dim == 3 and X.scale.shape == (3,)
    assert type(NormSpec("L2", np.uint8(2), 1.0).dim) is int


def test_dual_norm_examples():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.5, 2.0, 5)
    X = NormSpec("L1", 5, w)
    for j in range(5):
        ej = np.zeros(5)
        ej[j] = 1.0
        assert dual_norm(X, ej) == pytest.approx(1.0 / w[j], rel=1e-15)
    assert dual_norm(NormSpec("L2", 3, 1.0), [1.0, 2.0, 2.0]) == pytest.approx(3.0, abs=1e-15)
    assert dual_norm(NormSpec("LINF", 2, 1.0), [1.0, 1.0]) == 2.0


def test_dual_extreme_points_examples():
    for X, want in (
        (NormSpec("LINF", 2, 1.0), [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]),
        (NormSpec("L1", 2, 1.0), [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]),
    ):
        half = _half(X)
        assert sorted(map(tuple, np.vstack([half, -half]))) == want
    with pytest.raises(NotPolyhedral):
        dual_extreme_blocks(NormSpec("L2", 2, 1.0))
    with pytest.raises(CapacityExceeded):
        dual_extreme_blocks(NormSpec("L1", 21, 1.0))


def test_linf_extreme_points_are_bitwise_the_loop():
    rng = np.random.default_rng(5)
    for d in range(1, 9):
        X = random_norm_spec(rng, d, "LINF")
        assert _half(X).tobytes() == dual_extreme_table(X)[::2].tobytes()


def test_dual_extreme_point_row_order():
    rng = np.random.default_rng(6)
    for d in range(1, 9):
        X = random_norm_spec(rng, d, "LINF")
        assert np.array_equal(_half(X), np.diag(X.scale))

        X = random_norm_spec(rng, d, "L1")
        half = _half(X)
        assert len(half) == 1 << (d - 1) and np.all(half[:, -1] > 0.0)
        for t, row in enumerate(half):
            bits = [(t >> j) & 1 for j in range(d)]
            assert np.array_equal(row, np.where(bits, -X.scale, X.scale))


def test_dual_extreme_half_takes_one_of_each_pair_in_row_order():
    rng = np.random.default_rng(7)
    for kind in ("L1", "LINF"):
        for d in range(1, 9):
            X = random_norm_spec(rng, d, kind)
            pts, half = dual_extreme_table(X), _half(X)
            both = sorted(map(tuple, np.vstack([half, -half])))
            assert 2 * len(half) == len(pts) and both == sorted(map(tuple, pts))
            rows = [next(t for t, p in enumerate(pts) if np.array_equal(p, h)) for h in half]
            assert rows == sorted(rows)
    with pytest.raises(NotPolyhedral):
        dual_extreme_blocks(NormSpec("L2", 2, 1.0))


def test_extreme_points_lie_on_dual_sphere():
    rng = np.random.default_rng(1)
    for kind in ("L1", "LINF"):
        X = random_norm_spec(rng, 5, kind)
        for pt in _half(X):
            assert dual_norm(X, pt) == pytest.approx(1.0, abs=1e-12)


def test_holder_inequality():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        X = random_norm_spec(rng, d)
        v = rng.normal(size=d)
        xs = rng.normal(size=d)
        assert abs(v @ xs) <= norm(X, v) * dual_norm(X, xs) + 1e-12


def test_polyhedral_norm_is_max_over_extreme_points():
    rng = np.random.default_rng(3)
    for _ in range(300):
        d = int(rng.integers(1, 7))
        kind = ("L1", "LINF")[int(rng.integers(2))]
        X = random_norm_spec(rng, d, kind)
        v = rng.normal(size=d)
        pairing = float(np.max(np.abs(_half(X) @ v)))  # the pair +-x* gives +-<x*, v>
        assert pairing == pytest.approx(norm(X, v), abs=1e-12)


def test_bidual_identity():
    rng = np.random.default_rng(4)
    for kind in KINDS:
        X = random_norm_spec(rng, 6, kind)
        XX = dual_spec(dual_spec(X))
        for _ in range(50):
            v = rng.normal(size=6)
            assert norm(XX, v) == pytest.approx(norm(X, v), rel=1e-12)


def test_norm_axioms_numerically():
    rng = np.random.default_rng(5)
    for kind in KINDS:
        X = random_norm_spec(rng, 4, kind)
        for _ in range(50):
            u = rng.normal(size=4)
            v = rng.normal(size=4)
            c = float(rng.normal())
            assert norm(X, u + v) <= norm(X, u) + norm(X, v) + 1e-12
            assert norm(X, c * u) == pytest.approx(abs(c) * norm(X, u), rel=1e-12)
        assert norm(X, np.zeros(4)) == 0.0
        assert norm(X, [1e-120, 0, 0, 0]) > 0.0


def _shift_corners(X, bits):
    """Rows t < 2^bits of the L1 corner table by shifts and masks."""
    t = np.arange(1 << bits, dtype=np.int64)
    signs = 1.0 - 2.0 * ((t[:, None] >> np.arange(X.dim)) & 1)
    return signs * X.scale


def test_corner_tables_are_bitwise_the_shift_construction():
    from vmlab.opt_engine import _LOW_SIGNS

    rng = np.random.default_rng(8)
    for d in range(1, 17):
        X = random_norm_spec(rng, d, "L1")
        assert dual_extreme_table(X).tobytes() == _shift_corners(X, d).tobytes()
        assert _half(X).tobytes() == _shift_corners(X, d - 1).tobytes()
        Y = random_norm_spec(rng, d, "LINF")
        assert _half(Y).tobytes() == dual_extreme_table(Y)[::2].tobytes()
    assert _LOW_SIGNS.tobytes() == _shift_corners(NormSpec("L1", _BLOCK_BITS + 1, 1.0), _BLOCK_BITS).tobytes()
    message = r"^2\^21 dual extreme points exceed the enumeration limit \(d <= 20\)$"
    with pytest.raises(CapacityExceeded, match=message):
        dual_extreme_blocks(NormSpec("L1", 21, 1.0))


def test_dual_extreme_half_is_the_corner_table_built_in_blocks():
    rng = np.random.default_rng(20)
    for d in range(1, 21):
        X = random_norm_spec(rng, d, "L1")
        sizes = [len(block) for block in dual_extreme_blocks(X)]
        assert sizes == [1 << min(d - 1, _BLOCK_BITS)] * (1 << max(0, d - 1 - _BLOCK_BITS))
        assert _half(X).tobytes() == sign_table(X.scale, d - 1).tobytes()


def test_blocks_of_four_rows_keep_the_row_order(monkeypatch):
    # LINF splits its d rows too; at the real 2^12 that takes d > 4096
    monkeypatch.setattr(normed_space, "_BLOCK_BITS", 2)
    rng = np.random.default_rng(4)
    for d in range(1, 10):
        X, Y = random_norm_spec(rng, d, "L1"), random_norm_spec(rng, d, "LINF")
        for Z, want in ((X, sign_table(X.scale, d - 1)), (Y, np.diag(Y.scale))):
            blocks = [block.copy() for block in dual_extreme_blocks(Z)]
            assert all(1 <= len(block) <= 4 for block in blocks) and len(blocks) == -(-len(want) // 4)
            assert np.concatenate(blocks).tobytes() == want.tobytes()


def test_blocks_past_the_corner_limit_fail_before_any_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(normed_space, "sign_table", lambda *args: built.append(args))
    with pytest.raises(CapacityExceeded, match=r"^2\^21 dual extreme points"):
        dual_extreme_blocks(NormSpec("L1", 21, 1.0))
    with pytest.raises(NotPolyhedral):
        dual_extreme_blocks(NormSpec("L2", 3, 1.0))
    assert built == []
