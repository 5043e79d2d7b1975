import itertools

import numpy as np
import pytest

from vmlab import (
    CapacityExceeded,
    INFEASIBLE,
    LinearProgram,
    OPTIMAL,
    UNBOUNDED,
    NormSpec,
    best_sign_pattern,
    hill_climb,
    norm,
    solve_lp,
)
from vmlab.opt_engine import _pivot
from vmlab.rng import SplitMix64

from helpers import loop_solve_lp


def test_lp_trivial_examples():
    sol = solve_lp(LinearProgram(np.array([1.0]), [([1.0], "<=", 3.0)]))
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(3.0, abs=1e-9)

    sol = solve_lp(LinearProgram(np.array([1.0, 1.0]), [([1.0, 1.0], "<=", 1.0)]))
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_lp_equality_and_free_variables():
    # max x - y  s.t.  x + y = 2,  x <= 3,  y free
    lp = LinearProgram(
        np.array([1.0, -1.0]),
        [([1.0, 1.0], "=", 2.0), ([1.0, 0.0], "<=", 3.0)],
        bounds=[(0.0, None), (None, None)],
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(4.0, abs=1e-9)
    assert sol.point == pytest.approx([3.0, -1.0], abs=1e-9)


def test_lp_statuses():
    lp = LinearProgram(np.array([1.0]), [([1.0], "<=", -1.0)])  # x >= 0 and x <= -1
    assert solve_lp(lp).status == INFEASIBLE
    lp = LinearProgram(np.array([1.0]), [([-1.0], "<=", 1.0)])
    assert solve_lp(lp).status == UNBOUNDED


def test_lp_two_sided_bounds():
    lp = LinearProgram(
        np.array([-1.0, 2.0]),
        [([1.0, 1.0], "<=", 10.0)],
        bounds=[(-2.0, 5.0), (1.0, 4.0)],
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(10.0, abs=1e-9)
    assert sol.point == pytest.approx([-2.0, 4.0], abs=1e-9)


def _random_lp(rng, nvars=10, nrows=8):
    c = rng.normal(size=nvars)
    rows = []
    for _ in range(nrows):
        rows.append((rng.normal(size=nvars), "<=", float(rng.uniform(0.5, 3.0))))
    bounds = [(0.0, float(rng.uniform(0.5, 4.0))) for _ in range(nvars)]
    return LinearProgram(c, rows, bounds)


def test_lp_against_scipy():
    from scipy.optimize import linprog

    rng = np.random.default_rng(7)
    for _ in range(60):
        lp = _random_lp(rng)
        sol = solve_lp(lp)
        res = linprog(
            -lp.objective,
            A_ub=np.array([a for a, _, _ in lp.constraints]),
            b_ub=np.array([b for _, _, b in lp.constraints]),
            bounds=lp.bounds,
            method="highs",
        )
        assert sol.status == OPTIMAL and res.status == 0
        assert sol.value == pytest.approx(-res.fun, abs=1e-8)
        # the reported point satisfies the constraints and matches the value
        for a, _, b in lp.constraints:
            assert np.asarray(a) @ sol.point <= b + 1e-9
        assert lp.objective @ sol.point == pytest.approx(sol.value, abs=1e-9)


def test_lp_invariant_under_row_and_variable_reordering():
    rng = np.random.default_rng(8)
    for _ in range(20):
        lp = _random_lp(rng)
        base = solve_lp(lp).value
        perm = rng.permutation(len(lp.constraints))
        shuffled = LinearProgram(
            lp.objective, [lp.constraints[i] for i in perm], lp.bounds
        )
        assert solve_lp(shuffled).value == pytest.approx(base, abs=1e-8)
        vperm = rng.permutation(lp.objective.size)
        reordered = LinearProgram(
            lp.objective[vperm],
            [(np.asarray(a)[vperm], r, b) for a, r, b in lp.constraints],
            [lp.bounds[i] for i in vperm],
        )
        assert solve_lp(reordered).value == pytest.approx(base, abs=1e-8)


def _mixed_lp(rng):
    """A small LP of every kind: all four bound kinds, <=, >= and = rows,
    integer data with tied ratios, and redundant (scaled duplicate) rows.
    Half of them have a box around a point that satisfies every row."""
    nvars = int(rng.integers(1, 9))
    integer = rng.random() < 0.5

    def draw(size):
        return rng.integers(-3, 4, size=size).astype(float) if integer else rng.normal(size=size)

    feasible = rng.random() < 0.5
    lows, highs = np.sort(draw((2, nvars)), axis=0)
    highs += 1.0
    kinds = np.zeros(nvars, dtype=int) if feasible else rng.integers(4, size=nvars)
    bounds = [
        [(lo, hi), (lo, None), (None, hi), (None, None)][kind]
        for lo, hi, kind in zip(lows.tolist(), highs.tolist(), kinds)
    ]
    x0 = lows + (rng.integers(0, 2, nvars) if integer else rng.random(nvars))
    rows = []
    for _ in range(int(rng.integers(0, 9))):
        rel = ("<=", ">=", "=")[rng.choice(3, p=[0.5, 0.3, 0.2])]
        a = draw(nvars)
        if feasible:
            slack = abs(float(draw(1)[0]))
            b = float(a @ x0) + {"<=": slack, ">=": -slack, "=": 0.0}[rel]
        else:
            b = float(draw(1)[0])
        rows.append((a, rel, b))
    if rows and rng.random() < 0.3:
        a, rel, b = rows[rng.integers(len(rows))]
        t = float(rng.integers(1, 3))
        rows.append((t * a, rel, t * b))
    return LinearProgram(draw(nvars), rows, bounds)


def test_pivot_is_bitwise_the_row_loop_and_keeps_signed_zeros():
    rng = np.random.default_rng(22)
    for _ in range(50):
        T = rng.integers(-2, 3, size=(6, 8)).astype(float)
        T[rng.random(T.shape) < 0.3] = -0.0
        i, j = int(rng.integers(6)), int(rng.integers(7))
        T[i, j] = float(rng.choice([-3.0, 2.0]))
        want = T.copy()
        want[i] /= want[i, j]
        for r in range(6):
            if r != i and want[r, j] != 0.0:
                want[r] -= want[r, j] * want[i]
        basis = np.arange(6)
        _pivot(T, basis, i, j)
        assert T.tobytes() == want.tobytes()
        assert basis[i] == j


def test_solve_lp_is_bitwise_the_loop_simplex():
    rng = np.random.default_rng(20)
    statuses = []
    for _ in range(1200):
        lp = _mixed_lp(rng)
        got, want = solve_lp(lp), loop_solve_lp(lp)
        assert got.status == want.status
        assert repr(got.value) == repr(want.value)
        if want.point is None:
            assert got.point is None
        else:
            assert got.point.tobytes() == want.point.tobytes()
        statuses.append(want.status)
    counts = {s: statuses.count(s) for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)}
    assert counts[OPTIMAL] >= len(statuses) // 3
    assert min(counts.values()) >= 100


def _all_patterns(k):
    """Every sign vector with first entry +1, by itertools."""
    return [np.array((1.0,) + rest) for rest in itertools.product((1.0, -1.0), repeat=k - 1)]


def test_best_sign_pattern_scores_every_pinned_pattern_in_code_order():
    for k in (1, 2, 5, 13, 14):
        seen = []

        def score(sums):
            seen.append(sums.copy())
            return np.zeros(len(sums))

        pattern, value = best_sign_pattern(np.eye(k), score)
        sums = np.vstack(seen)  # with a = I each sum is its pattern
        assert sums.shape == (1 << (k - 1), k)
        assert np.all(sums[:, 0] == 1.0)
        codes = ((sums < 0) * (1 << np.arange(k - 1, -1, -1))).sum(axis=1)
        assert np.array_equal(codes, np.arange(1 << (k - 1)))  # ascending code order
        assert np.array_equal(pattern, np.ones(k)) and value == 0.0  # all ties: code 0
    with pytest.raises(CapacityExceeded):
        best_sign_pattern(np.ones((25, 1)), lambda sums: np.zeros(len(sums)))


def test_best_sign_pattern_takes_smallest_code_on_ties():
    # only position 14 matters, and it must carry -1: 2^13 tied maxima whose
    # smallest code flips position 14 alone, in the first block
    a = np.zeros((15, 1))
    a[0, 0], a[14, 0] = 1.0, -3.0
    pattern, value = best_sign_pattern(a, lambda sums: np.abs(sums[:, 0]))
    expected = np.ones(15)
    expected[14] = -1.0
    assert np.array_equal(pattern, expected) and value == 4.0
    # the same with position 1, which lives in the block index: the first
    # block holding the maximum wins
    a[14, 0], a[1, 0] = 0.0, -3.0
    pattern, _ = best_sign_pattern(a, lambda sums: np.abs(sums[:, 0]))
    expected = np.ones(15)
    expected[1] = -1.0
    assert np.array_equal(pattern, expected)


def _reference_ascent(k, value_of, restarts, seed):
    """The single-pattern ascent: one objective call per flip."""
    gen = SplitMix64(seed)
    best_pattern, best_value = None, -np.inf
    for _ in range(restarts):
        eps = np.array(gen.signs(k))
        value = value_of(eps)
        while True:
            flip, flip_value = -1, value
            for j in range(k):
                eps[j] = -eps[j]
                v = value_of(eps)
                eps[j] = -eps[j]
                if v > flip_value:
                    flip, flip_value = j, v
            if flip < 0:
                break
            eps[flip] = -eps[flip]
            value = flip_value
        if value > best_value:
            best_value, best_pattern = value, eps.copy()
    return best_pattern, best_value


def test_hill_climb_matches_single_pattern_ascent():
    rng = np.random.default_rng(13)
    for trial in range(30):
        k = int(rng.integers(2, 40))
        d = int(rng.integers(1, 7))
        X = NormSpec(("L1", "L2", "LINF")[trial % 3], d, rng.uniform(0.5, 2.0, d))
        a = rng.normal(size=(k, d))
        if trial % 2:  # repeated, negated and zero rows make exact ties between flips
            a[k // 2 :] = a[: k - k // 2] * rng.choice([-1.0, 0.0, 1.0], size=(k - k // 2, 1))
        seed = int(rng.integers(1 << 30))
        got = hill_climb(k, lambda patterns: norm(X, patterns @ a), restarts=4, seed=seed)
        want = _reference_ascent(k, lambda eps: norm(X, eps @ a), restarts=4, seed=seed)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]


def test_hill_climb_constant_objective():
    pattern, value = hill_climb(6, lambda patterns: np.full(len(patterns), 2.5), restarts=3, seed=1)
    assert value == 2.5
    assert pattern.shape == (6,)


def test_hill_climb_is_lower_bound_of_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(25):
        k = int(rng.integers(2, 9))
        a = rng.normal(size=(k, 3))

        def objective(patterns):
            return np.abs(patterns @ a).sum(axis=-1)

        best = max(float(np.abs(eps @ a).sum()) for eps in _all_patterns(k))
        _, value = hill_climb(k, objective, restarts=4, seed=int(rng.integers(1 << 30)))
        assert value <= best + 1e-12


def test_hill_climb_deterministic():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 2))

    def objective(patterns):
        return np.abs(patterns @ a).sum(axis=-1)

    first = hill_climb(8, objective, restarts=8, seed=42)
    second = hill_climb(8, objective, restarts=8, seed=42)
    assert first[1] == second[1]
    assert np.array_equal(first[0], second[0])


def test_lp_with_equalities_against_scipy():
    from scipy.optimize import linprog

    rng = np.random.default_rng(12)
    for _ in range(40):
        nvars = 6
        x0 = rng.uniform(0.2, 1.5, nvars)  # known feasible point
        c = rng.normal(size=nvars)
        a_eq = [rng.normal(size=nvars) for _ in range(2)]
        rows = [(a, "=", float(a @ x0)) for a in a_eq]
        a_ub = [rng.normal(size=nvars) for _ in range(5)]
        rows += [(a, "<=", float(a @ x0 + rng.uniform(0.1, 2.0))) for a in a_ub]
        bounds = [(0.0, 3.0)] * (nvars - 1) + [(None, 3.0)]
        sol = solve_lp(LinearProgram(c, rows, bounds))
        res = linprog(
            -c,
            A_ub=np.array(a_ub),
            b_ub=np.array([b for _, r, b in rows if r == "<="]),
            A_eq=np.array(a_eq),
            b_eq=np.array([b for _, r, b in rows if r == "="]),
            bounds=bounds,
            method="highs",
        )
        assert sol.status == OPTIMAL and res.status == 0
        assert sol.value == pytest.approx(-res.fun, abs=1e-7)
        for a, rel, b in rows:
            resid = float(np.asarray(a) @ sol.point) - b
            assert resid <= 1e-8 if rel == "<=" else abs(resid) <= 1e-8
