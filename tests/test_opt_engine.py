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
from vmlab import opt_engine
from vmlab.opt_engine import _FLIP_BLOCK, _LOW_SIGNS, _pivot
from vmlab.rng import SplitMix64

from helpers import loop_solve_lp


def test_lp_trivial_examples():
    sol = solve_lp(LinearProgram(np.array([1.0]), [[1.0]], [3.0]))
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(3.0, abs=1e-9)

    sol = solve_lp(LinearProgram(np.array([1.0, 1.0]), [[1.0, 1.0]], [1.0]))
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_lp_statuses():
    lp = LinearProgram(np.array([1.0]), [[1.0]], [0.0])  # degenerate: x <= 0
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL and sol.value == 0.0 and sol.point.tobytes() == np.zeros(1).tobytes()
    lp = LinearProgram(np.array([1.0]), [[-1.0]], [1.0])
    assert solve_lp(lp).status == UNBOUNDED
    assert solve_lp(LinearProgram(np.array([1.0, -1.0]), np.empty((0, 2)), [])).status == UNBOUNDED


@pytest.mark.parametrize("b", [[-1.0], [float("nan")], [1.0, -0.5]])
def test_linear_program_refuses_programs_the_origin_does_not_start(b):
    with pytest.raises(ValueError, match="right-hand side"):
        LinearProgram(np.array([1.0]), np.ones((len(b), 1)), b)


@pytest.mark.parametrize(
    "objective, a, b",
    [
        ([1.0, 2.0], [[1.0]], [1.0]),
        ([1.0], [[1.0, 2.0]], [1.0]),
        ([1.0, 2.0], [[1.0, 2.0]], [1.0, 1.0]),
        ([1.0], [1.0], [1.0]),
        ([1.0], [[[1.0]]], [1.0]),
        ([1.0], np.empty((0,)), []),
        ([1.0], [[1.0]], [[1.0]]),
        ([1.0], [[1.0]], 1.0),
        ([[1.0]], [[1.0]], [1.0]),
    ],
)
def test_linear_program_refuses_rows_of_the_wrong_shape(objective, a, b):
    with pytest.raises(ValueError, match="shapes"):
        LinearProgram(np.array(objective), a, b)


def test_linear_program_refuses_ragged_rows():
    with pytest.raises(ValueError):
        LinearProgram(np.array([1.0, 2.0]), [[1.0, 2.0], [1.0]], [1.0, 1.0])


@pytest.mark.parametrize(
    "objective, a, b",
    [
        ([1.0], [[float("nan")]], [1.0]),
        ([1.0, 2.0], [[1.0, 1.0], [0.0, float("inf")]], [1.0, 1.0]),
        ([1.0], [[-float("inf")]], [1.0]),
        ([float("nan")], [[1.0]], [1.0]),
        ([float("inf")], [[1.0]], [1.0]),
        ([1.0], [[1.0]], [float("inf")]),
        ([float("nan")], np.empty((0, 1)), []),
    ],
)
def test_linear_program_refuses_non_finite_data(objective, a, b):
    with pytest.raises(ValueError, match="must be finite"):
        LinearProgram(np.array(objective), a, b)


def test_linear_program_names_the_first_faulty_row():
    # one vectorised pass; the message names the first negative or NaN right-hand side
    with pytest.raises(ValueError, match=r"^right-hand side -2.0 must be >= 0$"):
        LinearProgram(np.array([1.0]), np.ones((4, 1)), [1.0, -2.0, float("nan"), -3.0])
    with pytest.raises(ValueError, match=r"^right-hand side nan must be >= 0$"):
        LinearProgram(np.array([1.0]), np.ones((3, 1)), [0.0, float("nan"), -1.0])
    # a negative right-hand side is named before non-finite rows
    with pytest.raises(ValueError, match="right-hand side"):
        LinearProgram(np.array([1.0]), [[float("inf")], [1.0]], [1.0, -1.0])


def test_linear_program_rows_are_the_stacked_constraints():
    rng = np.random.default_rng(21)
    for m in (0, 1, 8, 300):
        a = rng.normal(size=(m, 5))
        b = rng.uniform(0.0, 3.0, size=m)
        b[: m // 3] = rng.choice([0.0, -0.0], size=m // 3)
        lp = LinearProgram(rng.normal(size=5), a, b)
        assert lp.a is a and lp.b is b  # float arrays are held, not copied
        if m:  # an empty list has no row length
            listed = LinearProgram(lp.objective, a.tolist(), b.tolist())
            assert listed.a.tobytes() == a.tobytes() and listed.a.shape == (m, 5)
            assert listed.b.tobytes() == b.tobytes() and listed.b.shape == (m,)
        # the tuple view bench/spans.py counts rows from
        assert lp.bounds is None and len(lp.constraints) == m
        for (ai, rel, bi), want_a, want_b in zip(lp.constraints, a, b):
            assert rel == "<=" and ai.tobytes() == want_a.tobytes() and repr(bi) == repr(want_b)


def _random_lp(rng, nvars=10, nrows=8):
    """Random rows and a box 0 <= x_j <= ub_j, the box as rows too."""
    c = rng.normal(size=nvars)
    a = [rng.normal(size=nvars) for _ in range(nrows)]
    b = [float(rng.uniform(0.5, 3.0)) for _ in range(nrows)]
    a.extend(np.eye(nvars))
    b.extend(rng.uniform(0.5, 4.0, size=nvars))
    return LinearProgram(c, np.array(a), b)


def test_lp_against_scipy():
    from scipy.optimize import linprog

    rng = np.random.default_rng(7)
    for _ in range(60):
        lp = _random_lp(rng)
        sol = solve_lp(lp)
        res = linprog(-lp.objective, A_ub=lp.a, b_ub=lp.b, bounds=(0.0, None), method="highs")
        assert sol.status == OPTIMAL and res.status == 0
        assert sol.value == pytest.approx(-res.fun, abs=1e-8)
        # the reported point satisfies the constraints and matches the value
        assert np.all(sol.point >= 0.0)
        assert np.all(lp.a @ sol.point <= lp.b + 1e-9)
        assert lp.objective @ sol.point == pytest.approx(sol.value, abs=1e-9)


def test_lp_invariant_under_row_and_variable_reordering():
    rng = np.random.default_rng(8)
    for _ in range(20):
        lp = _random_lp(rng)
        base = solve_lp(lp).value
        perm = rng.permutation(lp.b.size)
        shuffled = LinearProgram(lp.objective, lp.a[perm], lp.b[perm])
        assert solve_lp(shuffled).value == pytest.approx(base, abs=1e-8)
        vperm = rng.permutation(lp.objective.size)
        reordered = LinearProgram(lp.objective[vperm], lp.a[:, vperm], lp.b)
        assert solve_lp(reordered).value == pytest.approx(base, abs=1e-8)


def _origin_feasible_lp(rng):
    """A small LP over x >= 0 with 0-8 rows a @ x <= b, b >= 0: rows of any
    sign, integer data with tied ratios, zero and -0.0 right-hand sides, and
    redundant (scaled duplicate) rows."""
    nvars = int(rng.integers(1, 9))
    integer = rng.random() < 0.5

    def draw(size):
        return rng.integers(-3, 4, size=size).astype(float) if integer else rng.normal(size=size)

    a, b = [], []
    for _ in range(int(rng.integers(0, 9))):
        bi = abs(float(draw(1)[0]))
        a.append(draw(nvars))
        b.append(-0.0 if bi == 0.0 and rng.random() < 0.5 else bi)
    if a and rng.random() < 0.3:
        i = rng.integers(len(a))
        t = float(rng.integers(1, 3))
        a.append(t * a[i])
        b.append(t * b[i])
    return LinearProgram(draw(nvars), np.reshape(a, (len(a), nvars)), b)


def test_pivot_is_bitwise_the_row_loop_and_keeps_signed_zeros():
    """A condensed pivot equals a row-loop pivot of the full tableau (n + m
    variable columns, the basic ones unit vectors) read at the nonbasic
    columns after the swap, signed zeros included."""
    rng = np.random.default_rng(22)
    m, n = 6, 4
    kept = 0
    for _ in range(200):
        T = rng.integers(-2, 3, size=(m, n + 1)).astype(float)
        T[rng.random(T.shape) < 0.3] = -0.0
        i, c = int(rng.integers(m)), int(rng.integers(n))
        T[i, c] = float(rng.choice([-3.0, 2.0]))
        labels = rng.permutation(n + m)
        nonbasic, basis = labels[:n].copy(), labels[n:].copy()
        full = np.zeros((m, n + m + 1))
        full[:, nonbasic] = T[:, :n]
        full[np.arange(m), basis] = 1.0
        full[:, -1] = T[:, -1]
        j = nonbasic[c]
        full[i] /= full[i, j]
        for r in range(m):
            factor = full[r, j]
            if r != i and factor != 0.0:
                for col in range(n + m + 1):
                    if full[i, col] != 0.0:  # a zero in the pivot row changes nothing
                        full[r, col] -= factor * full[i, col]
        leaving = basis[i]
        _pivot(T, basis, nonbasic, i, c)
        assert basis[i] == j and nonbasic[c] == leaving
        assert T.tobytes() == full[:, list(nonbasic) + [-1]].tobytes()
        kept += bool((np.signbit(T) & (T == 0.0)).any())
    assert kept >= 100  # most pivots leave some -0.0 in place


def _assert_bitwise_the_loop_simplex(lp):
    got, want = solve_lp(lp), loop_solve_lp(lp)
    assert got.status == want.status
    assert repr(got.value) == repr(want.value)
    if want.point is None:
        assert got.point is None
    else:
        assert got.point.tobytes() == want.point.tobytes()
    assert got.pivots == want.pivots
    return want


def test_solve_lp_is_bitwise_the_loop_simplex():
    rng = np.random.default_rng(20)
    statuses = []
    for _ in range(1200):
        statuses.append(_assert_bitwise_the_loop_simplex(_origin_feasible_lp(rng)).status)
    counts = {s: statuses.count(s) for s in (OPTIMAL, UNBOUNDED)}
    assert sum(counts.values()) == len(statuses)
    assert min(counts.values()) >= 100


def _degenerate_lp(rng):
    """A degenerate LP over x >= 0: small integer rows, most right-hand sides
    0.0 or -0.0, and scaled copies of rows, so min-ratio ties are common."""
    nvars = int(rng.integers(2, 7))
    a, b = [], []
    for _ in range(int(rng.integers(2, 9))):
        b.append(float(rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, 2.0])))
        a.append(rng.integers(-1, 3, size=nvars).astype(float))
    for _ in range(int(rng.integers(0, 3))):
        i = rng.integers(len(a))
        t = float(rng.choice([1.0, 2.0, 0.5]))
        a.append(t * a[i])
        b.append(t * b[i])
    return LinearProgram(rng.integers(-1, 3, size=nvars).astype(float), np.array(a), b)


def _first_pivot_ratios(lp):
    """The ratios at the minimum in the first pivot from the slack basis."""
    improving = (lp.objective > 1e-9).nonzero()[0]
    if improving.size == 0:
        return []
    col, b = lp.a[:, improving[0]], lp.b
    ratios = [b[r] / col[r] for r in range(col.size) if col[r] > 1e-9]
    return [r for r in ratios if r == min(ratios)]


def test_solve_lp_is_bitwise_the_loop_simplex_on_degenerate_programs():
    rng = np.random.default_rng(23)
    statuses, tied, degenerate = [], 0, 0
    for _ in range(600):
        lp = _degenerate_lp(rng)
        statuses.append(_assert_bitwise_the_loop_simplex(lp).status)
        ratios = _first_pivot_ratios(lp)
        tied += len(ratios) >= 2
        degenerate += bool(ratios) and ratios[0] == 0.0
    assert statuses.count(OPTIMAL) >= 300 and statuses.count(UNBOUNDED) >= 50
    assert tied >= 100 and degenerate >= 100


def test_solve_lp_is_bitwise_the_loop_simplex_on_koethe_programs(monkeypatch):
    from vmlab import MeasureSpace, SimpleFunction, VectorMeasure, koethe_dual_norm_info
    from vmlab import l1m_norm

    programs = []

    def capture(lp):
        programs.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(l1m_norm, "solve_lp", capture)
    rng = np.random.default_rng(24)
    # L1 at d = 10 and 12 has 512 and 2048 ball rows, against n = 12 columns
    for kind, d in [("L1", 8)] * 3 + [("LINF", 8)] * 3 + [("L1", 10), ("L1", 12)]:
        space = MeasureSpace(rng.uniform(0.2, 1.5, size=12))
        X = NormSpec(kind, d, rng.uniform(0.5, 2.0, size=d))
        m = VectorMeasure(space, X, rng.normal(size=(12, d)))
        koethe_dual_norm_info(m, SimpleFunction(space, rng.normal(size=12)))
    assert len(programs) == 8  # one solve_lp call per koethe_dual_norm_info call
    assert [lp.b.size for lp in programs[-2:]] == [512, 2048]
    for lp in programs:
        assert _assert_bitwise_the_loop_simplex(lp).status == OPTIMAL


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


def test_best_sign_pattern_one_block_is_the_low_bits_plus_the_pinned_row():
    # with k - 1 <= 12 code bits one product adds the pinned row last; its sums
    # must be bitwise the low-bit block plus that row, signed zeros included
    rng = np.random.default_rng(22)
    for trial in range(300):
        k, d = int(rng.integers(1, 14)), int(rng.integers(1, 10))
        shape = (k, d) if trial % 2 else (int(rng.integers(1, 5)), k, d)
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 21, size=shape)
        a[rng.random(shape) < 0.15] = 0.0
        a[rng.random(shape) < 0.15] *= -0.0
        seen = []
        best_sign_pattern(a, lambda sums: seen.append(sums.copy()) or np.zeros(sums.shape[:-1]))
        block = _LOW_SIGNS[: 1 << (k - 1), : k - 1] @ a[..., :0:-1, :]  # code bit b is row k-1-b
        assert len(seen) == 1 and seen[0].tobytes() == (block + (a[..., :1, :] + 0.0)).tobytes()


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


def _l2_instance(rng, trial):
    """An L2 hill-climb instance: tied, quarter-rounded or plain rows, scaled 10^-150, 1 or 10^150;
    one trial in 16 has k = 1, and another d = 1."""
    k = 1 if trial % 16 == 0 else int(rng.integers(1, 41))
    d = 1 if trial % 16 == 8 else int(rng.integers(1, 9))
    X = NormSpec("L2", d, rng.uniform(0.5, 2.0, d))
    a = rng.normal(size=(k, d))
    if trial % 3 == 1:
        _tied_rows(rng, a)
    elif trial % 3 == 2:
        a = np.round(4.0 * a) / 4.0  # exact quarters: many flips tie exactly
    a *= 10.0 ** (150 * (trial // 3 % 3 - 1))
    return a, X, (1, 3, 8)[trial % 5 % 3]


def _recorded(X, rows):
    """The L2 objective of X, which appends the row count of each call to ``rows``."""

    def objective(sums):
        rows.append(sums.shape[0])
        return norm(X, sums)

    return objective


def test_hill_climb_l2_screen_is_bitwise_the_single_pattern_ascent():
    rng = np.random.default_rng(16)
    several = 0  # objective calls with more rows than restarts: the several-near-flips branch
    for trial in range(240):
        a, X, restarts = _l2_instance(rng, trial)
        seed = int(rng.integers(1 << 62))
        rows = []
        pattern, value = hill_climb(a, _recorded(X, rows), restarts, seed, l2_scale=X.scale)
        several += sum(r > restarts for r in rows)
        want = _reference_ascent(a, lambda sums: norm(X, sums), restarts=restarts, seed=seed)
        assert pattern.tobytes() == want[0].tobytes(), trial
        assert repr(value) == repr(want[1]), trial
        unscreened = hill_climb(a, lambda sums: norm(X, sums), restarts, seed)
        assert unscreened[0].tobytes() == pattern.tobytes() and repr(unscreened[1]) == repr(value)
    assert several >= 100


def test_hill_climb_l2_screen_keeps_flips_tied_up_to_rounding():
    # rows in tenths tie flips exactly, while their quadratic forms differ in the last bits;
    # without the margin tau, about one climb in 60 here took another flip than the reference
    rng = np.random.default_rng(20)
    for _ in range(1500):
        k, d = int(rng.integers(3, 9)), int(rng.integers(1, 3))
        X = NormSpec("L2", d, np.ones(d))
        a = rng.integers(-9, 10, size=(k, d)) / 10.0
        seed = int(rng.integers(1 << 30))
        pattern, value = hill_climb(a, lambda sums: norm(X, sums), 1, seed, l2_scale=X.scale)
        want = _reference_ascent(a, lambda sums: norm(X, sums), restarts=1, seed=seed)
        assert pattern.tobytes() == want[0].tobytes(), (a.tolist(), seed)
        assert repr(value) == repr(want[1])


def test_hill_climb_l2_screen_rescores_every_flip_where_its_margin_overflows():
    # rows of 1e154 / k to 2e154 / k put B = sum_j ||w a_j|| >= 5e153 and 16 B^2 past the largest
    # double, while many sums keep finite norms; rows near 1e160 overflow every norm
    rng = np.random.default_rng(17)
    for trial in range(24):
        k, d = int(rng.integers(1, 41)), int(rng.integers(1, 3))
        X = NormSpec("L2", d, rng.uniform(0.5, 2.0, d))
        a = rng.choice([-1.0, 1.0], size=(k, d)) * rng.uniform(1.0, 2.0, size=(k, d))
        a *= (1e154 if trial % 2 else 1e160) / k
        restarts, seed = (1, 3, 8)[trial % 3], int(rng.integers(1 << 62))
        rows = []
        with np.errstate(over="ignore"):
            pattern, value = hill_climb(a, _recorded(X, rows), restarts, seed, l2_scale=X.scale)
            want = _reference_ascent(a, lambda sums: norm(X, sums), restarts=restarts, seed=seed)
        assert rows[1] == min(restarts * k, max(1, _FLIP_BLOCK // max(k, d)))  # the first step's every flip
        assert pattern.tobytes() == want[0].tobytes()
        assert repr(value) == repr(want[1])


def test_hill_climb_keeps_each_restarts_first_best_across_rescoring_blocks(monkeypatch):
    # one near flip per objective call, so the best flip of a restart and its ties meet in different calls
    monkeypatch.setattr(opt_engine, "_FLIP_BLOCK", 1)
    rng = np.random.default_rng(18)
    for trial in range(60):
        a, X, restarts = _l2_instance(rng, 3 * trial + 1)  # tied rows
        seed = int(rng.integers(1 << 62))
        l2_scale = X.scale if trial % 2 else None
        pattern, value = hill_climb(a, lambda sums: norm(X, sums), restarts, seed, l2_scale=l2_scale)
        want = _reference_ascent(a, lambda sums: norm(X, sums), restarts=restarts, seed=seed)
        assert pattern.tobytes() == want[0].tobytes()
        assert repr(value) == repr(want[1])


@pytest.mark.parametrize("kind", ["L1", "L2"])
def test_hill_climb_all_tie_objectives_are_bitwise_the_single_pattern_ascent(kind):
    # the indicator measure into L1(mu), or its L2 analogue: the value does not depend on
    # the signs, so every flip of every restart is near, in blocks of _FLIP_BLOCK entries
    rng = np.random.default_rng(19)
    for k in [*range(1, 300, 23), 300]:
        X = NormSpec(kind, k, rng.uniform(0.5, 2.0, k))
        a = np.diag(rng.choice([1.0, 2.0, 3.0, 7.0], size=k))
        seed = int(rng.integers(1 << 62))
        rows = []
        pattern, value = hill_climb(a, _recorded(X, rows), 8, seed, l2_scale=X.scale if kind == "L2" else None)
        want = _reference_ascent(a, lambda sums: norm(X, sums), restarts=8, seed=seed)
        assert pattern.tobytes() == want[0].tobytes()
        assert repr(value) == repr(want[1])
        if kind == "L2" and k > 1:  # no objective call screens: the rescoring takes 8 k flips
            assert sum(rows[1:-1]) == 8 * k and max(rows[1:-1]) <= max(1, _FLIP_BLOCK // k)


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
