import itertools

import numpy as np
import pytest

from vmlab import (
    CapacityExceeded,
    LinearProgram,
    OPTIMAL,
    UNBOUNDED,
    NormSpec,
    best_sign_pattern,
    hill_climb,
    norm,
    solve_lp,
)
from vmlab.opt_engine import _FLIP_BLOCK, _pivot
from vmlab.rng import SplitMix64

from helpers import loop_solve_lp


def test_lp_trivial_examples():
    sol = solve_lp(LinearProgram(np.array([1.0]), [([1.0], "<=", 3.0)]))
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(3.0, abs=1e-9)

    sol = solve_lp(LinearProgram(np.array([1.0, 1.0]), [([1.0, 1.0], "<=", 1.0)]))
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_lp_statuses():
    lp = LinearProgram(np.array([1.0]), [([1.0], "<=", 0.0)])  # degenerate: x <= 0
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL and sol.value == 0.0 and sol.point.tobytes() == np.zeros(1).tobytes()
    lp = LinearProgram(np.array([1.0]), [([-1.0], "<=", 1.0)])
    assert solve_lp(lp).status == UNBOUNDED
    assert solve_lp(LinearProgram(np.array([1.0, -1.0]), [])).status == UNBOUNDED


@pytest.mark.parametrize(
    "constraints, bounds, message",
    [
        ([([1.0], ">=", 1.0)], None, "relation"),
        ([([1.0], "=", 1.0)], None, "relation"),
        ([([1.0], "<=", -1.0)], None, "right-hand side"),
        ([([1.0], "<=", float("nan"))], None, "right-hand side"),
        ([([1.0], "<=", 1.0)], [(0.0, None)], "bounds"),
    ],
)
def test_linear_program_refuses_programs_the_origin_does_not_start(constraints, bounds, message):
    with pytest.raises(ValueError, match=message):
        LinearProgram(np.array([1.0]), constraints, bounds)


def _random_lp(rng, nvars=10, nrows=8):
    """Random rows and a box 0 <= x_j <= ub_j, the box as rows too."""
    c = rng.normal(size=nvars)
    rows = []
    for _ in range(nrows):
        rows.append((rng.normal(size=nvars), "<=", float(rng.uniform(0.5, 3.0))))
    for j, ub in enumerate(rng.uniform(0.5, 4.0, size=nvars)):
        rows.append((np.eye(nvars)[j], "<=", float(ub)))
    return LinearProgram(c, rows)


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
            bounds=(0.0, None),
            method="highs",
        )
        assert sol.status == OPTIMAL and res.status == 0
        assert sol.value == pytest.approx(-res.fun, abs=1e-8)
        # the reported point satisfies the constraints and matches the value
        assert np.all(sol.point >= 0.0)
        for a, _, b in lp.constraints:
            assert np.asarray(a) @ sol.point <= b + 1e-9
        assert lp.objective @ sol.point == pytest.approx(sol.value, abs=1e-9)


def test_lp_invariant_under_row_and_variable_reordering():
    rng = np.random.default_rng(8)
    for _ in range(20):
        lp = _random_lp(rng)
        base = solve_lp(lp).value
        perm = rng.permutation(len(lp.constraints))
        shuffled = LinearProgram(lp.objective, [lp.constraints[i] for i in perm])
        assert solve_lp(shuffled).value == pytest.approx(base, abs=1e-8)
        vperm = rng.permutation(lp.objective.size)
        reordered = LinearProgram(
            lp.objective[vperm],
            [(np.asarray(a)[vperm], r, b) for a, r, b in lp.constraints],
        )
        assert solve_lp(reordered).value == pytest.approx(base, abs=1e-8)


def _origin_feasible_lp(rng):
    """A small LP over x >= 0 with 0-8 rows a @ x <= b, b >= 0: rows of any
    sign, integer data with tied ratios, zero and -0.0 right-hand sides, and
    redundant (scaled duplicate) rows."""
    nvars = int(rng.integers(1, 9))
    integer = rng.random() < 0.5

    def draw(size):
        return rng.integers(-3, 4, size=size).astype(float) if integer else rng.normal(size=size)

    rows = []
    for _ in range(int(rng.integers(0, 9))):
        b = abs(float(draw(1)[0]))
        rows.append((draw(nvars), "<=", -0.0 if b == 0.0 and rng.random() < 0.5 else b))
    if rows and rng.random() < 0.3:
        a, rel, b = rows[rng.integers(len(rows))]
        t = float(rng.integers(1, 3))
        rows.append((t * a, rel, t * b))
    return LinearProgram(draw(nvars), rows)


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
            factor = want[r, j]
            if r != i and factor != 0.0:
                for col in range(8):
                    if want[i, col] != 0.0:  # a zero in the pivot row changes nothing
                        want[r, col] -= factor * want[i, col]
        basis = np.arange(6)
        _pivot(T, basis, i, j)
        assert T.tobytes() == want.tobytes()
        assert basis[i] == j


def test_solve_lp_is_bitwise_the_loop_simplex():
    rng = np.random.default_rng(20)
    statuses = []
    for _ in range(1200):
        lp = _origin_feasible_lp(rng)
        got, want = solve_lp(lp), loop_solve_lp(lp)
        assert got.status == want.status
        assert repr(got.value) == repr(want.value)
        if want.point is None:
            assert got.point is None
        else:
            assert got.point.tobytes() == want.point.tobytes()
        statuses.append(want.status)
    counts = {s: statuses.count(s) for s in (OPTIMAL, UNBOUNDED)}
    assert sum(counts.values()) == len(statuses)
    assert min(counts.values()) >= 100


def test_solve_lp_is_bitwise_the_loop_simplex_on_koethe_programs(monkeypatch):
    from vmlab import MeasureSpace, SimpleFunction, VectorMeasure, koethe_dual_norm_info
    from vmlab import l1m_norm

    programs = []

    def capture(lp):
        programs.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(l1m_norm, "solve_lp", capture)
    rng = np.random.default_rng(24)
    for kind in ("L1", "LINF"):
        for _ in range(3):
            space = MeasureSpace(rng.uniform(0.2, 1.5, size=12))
            X = NormSpec(kind, 8, rng.uniform(0.5, 2.0, size=8))
            m = VectorMeasure(space, X, rng.normal(size=(12, 8)))
            koethe_dual_norm_info(m, SimpleFunction(space, rng.normal(size=12)))
    assert len(programs) == 6
    for lp in programs:
        got, want = solve_lp(lp), loop_solve_lp(lp)
        assert got.status == want.status == OPTIMAL
        assert repr(got.value) == repr(want.value)
        assert got.point.tobytes() == want.point.tobytes()


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


def test_best_sign_pattern_stack_is_bitwise_each_slice():
    rng = np.random.default_rng(23)
    for k in (1, 2, 12, 13, 14, 17):
        for trial in range(3):
            d = int(rng.integers(1, 4))
            X = NormSpec(("L1", "L2", "LINF")[trial], d, rng.uniform(0.5, 2.0, d))
            a = rng.normal(size=(4, k, d))
            if k > 1:  # ties: null rows and a repeated row in some slices
                a[1, 1::3] = 0.0
                a[2, k - 1] = a[2, 1]
                a[3] = np.round(a[3])
            patterns, values = best_sign_pattern(a, lambda sums: norm(X, sums))
            assert patterns.shape == (4, k) and values.shape == (4,)
            for b in range(4):
                pattern, value = best_sign_pattern(a[b], lambda sums: norm(X, sums))
                assert patterns[b].tobytes() == pattern.tobytes()
                assert repr(float(values[b])) == repr(value)
            if k > 1:  # a null row flips to no effect, so the smallest code keeps it +1
                assert np.all(patterns[1, 1::3] == 1.0)


def _reference_ascent(a, value_of, restarts, seed):
    """The single-pattern ascent: one objective call per flip, restart by restart."""
    k = a.shape[0]
    gen = SplitMix64(seed)
    best_pattern, best_value = None, -np.inf
    for _ in range(restarts):
        eps = np.array([gen.sign() for _ in range(k)])
        value = value_of(eps @ a)
        while True:
            flip, flip_value = -1, value
            for j in range(k):
                eps[j] = -eps[j]
                v = value_of(eps @ a)
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


def _tied_rows(rng, a):
    """Repeat, negate and zero the second half of the rows in place: exact ties between flips."""
    k = a.shape[0]
    a[k // 2 :] = a[: k - k // 2] * rng.choice([-1.0, 0.0, 1.0], size=(k - k // 2, 1))


def test_hill_climb_matches_single_pattern_ascent():
    rng = np.random.default_rng(13)
    for trial in range(30):
        k = int(rng.integers(2, 40))
        d = int(rng.integers(1, 7))
        X = NormSpec(("L1", "L2", "LINF")[trial % 3], d, rng.uniform(0.5, 2.0, d))
        a = rng.normal(size=(k, d))
        if trial % 2:
            _tied_rows(rng, a)
        seed = int(rng.integers(1 << 30))
        got = hill_climb(a, lambda sums: norm(X, sums), restarts=4, seed=seed)
        want = _reference_ascent(a, lambda sums: norm(X, sums), restarts=4, seed=seed)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]


def test_hill_climb_is_bitwise_the_single_pattern_ascent_across_flip_blocks():
    rng = np.random.default_rng(14)
    spans_blocks = 0
    for trial in range(300):
        if trial % 20 == 1:  # large enough that most climbs span several flip blocks
            k, d = int(rng.integers(32, 129)), int(rng.integers(64, 129))
        else:
            k, d = int(rng.integers(1, 33)), int(rng.integers(1, 9))
        restarts = (1, 3, 8)[trial // 3 % 3]
        X = NormSpec(("L1", "L2", "LINF")[trial % 3], d, rng.uniform(0.5, 2.0, d))
        a = rng.normal(size=(k, d))
        if trial % 2:
            _tied_rows(rng, a)
        spans_blocks += restarts * k * d > _FLIP_BLOCK
        seed = int(rng.integers(1 << 62))
        pattern, value = hill_climb(a, lambda sums: norm(X, sums), restarts=restarts, seed=seed)
        want = _reference_ascent(a, lambda sums: norm(X, sums), restarts=restarts, seed=seed)
        assert pattern.tobytes() == want[0].tobytes()
        assert repr(value) == repr(want[1])
    assert spans_blocks >= 5


@pytest.mark.parametrize(
    "kind, tenths, seed",
    [
        ("L1", [9, 8, 9, -8], 127924246),
        ("LINF", [9, 7, -9, 7], 671676234),
        ("L2", [5, 5, 3, 2, -5, 5, 3, -2], 948626797),
    ],
)
def test_hill_climb_rescores_flips_tied_up_to_rounding(kind, tenths, seed):
    # a negated row ties two flips up to the last bits of S - 2 eps_j a_j; scoring
    # only the flips equal to the batch maximum again would take the wrong one
    X = NormSpec(kind, 1, np.ones(1))
    a = np.array(tenths, dtype=float)[:, None] / 10.0
    pattern, value = hill_climb(a, lambda sums: norm(X, sums), restarts=1, seed=seed)
    want = _reference_ascent(a, lambda sums: norm(X, sums), restarts=1, seed=seed)
    assert pattern.tobytes() == want[0].tobytes()
    assert repr(value) == repr(want[1])


def test_stacked_single_row_products_are_bitwise_the_single_products():
    rng = np.random.default_rng(15)
    for k, d, rows in [(1, 1, 1), (3, 2, 5), (24, 6, 8), (96, 6, 40), (128, 128, 9), (17, 128, 3)]:
        a = rng.normal(size=(k, d))
        P = rng.choice([-1.0, 1.0], size=(rows, k))
        stacked = np.matmul(P[:, None, :], a)[:, 0]
        for i in range(rows):
            assert stacked[i].tobytes() == (P[i] @ a).tobytes()


def test_hill_climb_constant_objective():
    pattern, value = hill_climb(
        np.eye(6), lambda sums: np.full(sums.shape[:-1], 2.5), restarts=3, seed=1
    )
    assert value == 2.5
    assert pattern.shape == (6,)


def test_hill_climb_stops_at_an_infinite_objective():
    def objective(sums):
        values = sums.sum(axis=-1)
        return np.where(values == 6, np.inf, values)

    pattern, value = hill_climb(np.eye(6), objective, restarts=3, seed=1)
    assert value == np.inf
    assert np.array_equal(pattern, np.ones(6))


def test_hill_climb_nan_objective_is_named():
    with pytest.raises(ValueError, match="objective returned NaN"):
        hill_climb(np.eye(6), lambda sums: np.full(sums.shape[:-1], np.nan), restarts=3, seed=1)


def test_hill_climb_is_lower_bound_of_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(25):
        k = int(rng.integers(2, 9))
        a = rng.normal(size=(k, 3))

        def objective(sums):
            return np.abs(sums).sum(axis=-1)

        best = max(float(np.abs(eps @ a).sum()) for eps in _all_patterns(k))
        _, value = hill_climb(a, objective, restarts=4, seed=int(rng.integers(1 << 30)))
        assert value <= best + 1e-12


def test_hill_climb_deterministic():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 2))

    def objective(sums):
        return np.abs(sums).sum(axis=-1)

    first = hill_climb(a, objective, restarts=8, seed=42)
    second = hill_climb(a, objective, restarts=8, seed=42)
    assert first[1] == second[1]
    assert np.array_equal(first[0], second[0])
