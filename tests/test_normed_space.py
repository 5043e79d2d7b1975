import numpy as np
import pytest

from helpers import KINDS, random_norm_spec
from vmlab.normed_space import dual_extreme_half
from vmlab import (
    CapacityExceeded,
    NormSpec,
    NotPolyhedral,
    dual_extreme_points,
    dual_norm,
    dual_spec,
    norm,
)


def test_norm_examples():
    assert norm(NormSpec.linf(2), [3.0, -4.0]) == 4.0
    assert norm(NormSpec.l1(4, 0.25), [1.0, -2.0, 0.0, 3.0]) == 1.5
    assert norm(NormSpec.l2(2), [3.0, 4.0]) == 5.0


def test_norm_of_rows_is_bitwise_the_norm_of_each_row():
    rng = np.random.default_rng(14)
    for trial in range(60):
        d = int(rng.integers(1, 40))
        X = random_norm_spec(rng, d, KINDS[trial % 3])
        V = rng.normal(size=(int(rng.integers(1, 9)), d)) * np.exp(3.0 * rng.normal(size=(1, d)))
        rows = norm(X, V)
        assert rows.shape == (len(V),)
        assert all(rows[i] == norm(X, v) for i, v in enumerate(V))


def test_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        norm(NormSpec.l1(3), [1.0, 2.0])


def test_dual_norm_examples():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.5, 2.0, 5)
    X = NormSpec.l1(5, w)
    for j in range(5):
        ej = np.zeros(5)
        ej[j] = 1.0
        assert dual_norm(X, ej) == pytest.approx(1.0 / w[j], rel=1e-15)
    assert dual_norm(NormSpec.l2(3), [1.0, 2.0, 2.0]) == pytest.approx(3.0, abs=1e-15)
    assert dual_norm(NormSpec.linf(2), [1.0, 1.0]) == 2.0


def test_dual_extreme_points_examples():
    pts = dual_extreme_points(NormSpec.linf(2))
    assert sorted(map(tuple, pts)) == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
    pts = dual_extreme_points(NormSpec.l1(2))
    assert sorted(map(tuple, pts)) == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]
    with pytest.raises(NotPolyhedral):
        dual_extreme_points(NormSpec.l2(2))
    with pytest.raises(CapacityExceeded):
        dual_extreme_points(NormSpec.l1(21))


def _linf_extreme_points_loop(X):
    d = X.dim
    pts = np.zeros((2 * d, d))
    for j in range(d):
        pts[2 * j, j] = X.scale[j]
        pts[2 * j + 1, j] = -X.scale[j]
    return pts


def test_linf_extreme_points_are_bitwise_the_loop():
    rng = np.random.default_rng(5)
    for d in range(1, 9):
        X = random_norm_spec(rng, d, "LINF")
        assert dual_extreme_points(X).tobytes() == _linf_extreme_points_loop(X).tobytes()


def test_dual_extreme_point_row_order():
    rng = np.random.default_rng(6)
    for d in range(1, 9):
        X = random_norm_spec(rng, d, "LINF")
        pts = dual_extreme_points(X)
        w = np.diag(X.scale)
        assert np.array_equal(pts[0::2], w) and np.array_equal(pts[1::2], -w)

        X = random_norm_spec(rng, d, "L1")
        pts = dual_extreme_points(X)
        half = len(pts) // 2
        assert len(pts) == 1 << d
        assert np.all(pts[:half, -1] > 0.0) and np.array_equal(pts[half:], -pts[half - 1 :: -1])
        for t, row in enumerate(pts):
            bits = [(t >> j) & 1 for j in range(d)]
            assert np.array_equal(row, np.where(bits, -X.scale, X.scale))


def test_dual_extreme_half_takes_one_of_each_pair_in_row_order():
    rng = np.random.default_rng(7)
    for kind in ("L1", "LINF"):
        for d in range(1, 9):
            X = random_norm_spec(rng, d, kind)
            pts, half = dual_extreme_points(X), dual_extreme_half(X)
            both = sorted(map(tuple, np.vstack([half, -half])))
            assert 2 * len(half) == len(pts) and both == sorted(map(tuple, pts))
            rows = [next(t for t, p in enumerate(pts) if np.array_equal(p, h)) for h in half]
            assert rows == sorted(rows)
    with pytest.raises(NotPolyhedral):
        dual_extreme_half(NormSpec.l2(2))


def test_extreme_points_lie_on_dual_sphere():
    rng = np.random.default_rng(1)
    for kind in ("L1", "LINF"):
        X = random_norm_spec(rng, 5, kind)
        for pt in dual_extreme_points(X):
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
        pairing = float(np.max(dual_extreme_points(X) @ v))
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
