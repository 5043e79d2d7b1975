import numpy as np
import pytest

from helpers import (
    KINDS,
    brute_deviation,
    brute_norm,
    koethe_scipy,
    loop_koethe_supergradient,
    random_function,
    random_measure,
    random_norm_spec,
    random_space,
)
from vmlab import (
    CLOSED_FORM,
    CapacityExceeded,
    EXACT,
    HEURISTIC,
    MeasurableSet,
    MeasureSpace,
    NormSpec,
    NotPolyhedral,
    Partition,
    SimpleFunction,
    VectorMeasure,
    deviation,
    indicator_measure,
    integrate,
    koethe_dual_norm,
    koethe_dual_norm_info,
    martingale_measure,
    norm,
    norm_best,
    norm_closed_form,
    norm_exact,
    norm_gap_bound_check,
    norm_heuristic,
    rank_one_measure,
    set_value,
    sign_function,
)
from vmlab import l1m_norm


def _reproduce(m, f, result):
    h = sign_function(result.witness_set)
    return norm(m.X, integrate(m, SimpleFunction(f.space, f.coeffs * h.coeffs)))


def test_integrate_examples(s1):
    space, m = s1
    A = MeasurableSet.from_indices(space, [1, 3])
    chi = SimpleFunction.indicator(A)
    assert np.array_equal(integrate(m, chi), set_value(m, A))
    f = SimpleFunction(space, [1.0, -2.0, 0.0, 3.0])
    assert np.array_equal(integrate(m, f), f.coeffs)
    g = np.array([1.0, 0.5, 0.0, -1.0])
    mr = rank_one_measure(space, g)
    assert integrate(mr, f) == pytest.approx((f.coeffs @ space.weights) * g, abs=1e-15)


def test_norm_exact_examples(s1, s2, f1):
    _, m = s1
    assert norm_exact(m, f1).value == pytest.approx(1.5, abs=1e-15)
    space2, m2 = s2
    f = SimpleFunction(space2, [3.0, -4.0])
    assert norm_exact(m2, f).value == 4.0
    zero = SimpleFunction.zeros(f1.space)
    res = norm_exact(m, zero)
    assert res.value == 0.0 and res.method == EXACT


def test_norm_exact_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(300):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 5))
        space = random_space(rng, n)
        X = random_norm_spec(rng, d, KINDS[trial % 3])
        m = random_measure(rng, space, X)
        f = random_function(rng, space)
        res = norm_exact(m, f)
        assert res.value == pytest.approx(brute_norm(m, f), abs=1e-10)
        assert _reproduce(m, f, res) == pytest.approx(res.value, abs=1e-10)


def test_norm_exact_matches_brute_force_at_block_boundaries():
    # 12 free positions fill one block exactly; 13 and more add block indices
    rng = np.random.default_rng(23)
    for k in (1, 2, 12, 13, 14, 17):
        space = random_space(rng, k)
        X = random_norm_spec(rng, 3, KINDS[k % 3])
        m = random_measure(rng, space, X)
        f = SimpleFunction(space, rng.normal(size=k))
        res = norm_exact(m, f, exact_cutoff=17)
        assert res.value == pytest.approx(brute_norm(m, f), abs=1e-10)
        assert _reproduce(m, f, res) == pytest.approx(res.value, abs=1e-10)


def test_norm_exact_tie_goes_to_smallest_code():
    # atoms 2 and 3 repeat one row and every other atom but 0 is null, so
    # 2^11 patterns tie; the smallest code flips atoms 2 and 3 only, and the
    # null atom 1 sits in the block index
    space = MeasureSpace.uniform(14)
    atoms = np.zeros((14, 2))
    atoms[0], atoms[2], atoms[3] = [1.0, 0.5], [-1.0, 0.0], [-1.0, 0.0]
    m = VectorMeasure(space, NormSpec.l2(2), atoms)
    f = SimpleFunction(space, np.ones(14))
    res = norm_exact(m, f)
    assert res.value == norm(m.X, [3.0, 0.5])
    expected = np.ones(14, dtype=bool)
    expected[[2, 3]] = False
    assert np.array_equal(res.witness_set.members, expected)


def test_norm_exact_skips_zero_atoms():
    # n far above the cutoff but support small: still exact
    rng = np.random.default_rng(1)
    space = random_space(rng, 40)
    X = random_norm_spec(rng, 3)
    m = random_measure(rng, space, X)
    coeffs = np.zeros(40)
    coeffs[[3, 11, 17, 29]] = rng.normal(size=4)
    f = SimpleFunction(space, coeffs)
    res = norm_exact(m, f)
    assert _reproduce(m, f, res) == pytest.approx(res.value, abs=1e-12)
    with pytest.raises(CapacityExceeded):
        norm_exact(m, SimpleFunction(space, rng.normal(size=40)))


def test_norm_axioms(s1):
    rng = np.random.default_rng(2)
    space, m = s1
    for _ in range(100):
        f = random_function(rng, space)
        g = random_function(rng, space)
        c = float(rng.normal())
        nf = norm_exact(m, f).value
        ng = norm_exact(m, g).value
        nsum = norm_exact(m, SimpleFunction(space, f.coeffs + g.coeffs)).value
        nscaled = norm_exact(m, SimpleFunction(space, c * f.coeffs)).value
        assert nsum <= nf + ng + 1e-12
        assert nscaled == pytest.approx(abs(c) * nf, abs=1e-12)


def test_norm_definiteness():
    # ||f|| = 0 iff every f_i m_i vanishes
    space = MeasureSpace.uniform(3)
    X = NormSpec.l2(2)
    m = VectorMeasure(space, X, [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    f = SimpleFunction(space, [0.0, 5.0, 0.0])  # sits on the null atom
    assert norm_exact(m, f).value == 0.0
    g = SimpleFunction(space, [0.0, 5.0, 1e-3])
    assert norm_exact(m, g).value > 0.0


def test_lattice_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        space = random_space(rng, 6)
        X = random_norm_spec(rng, 3)
        m = random_measure(rng, space, X)
        g = random_function(rng, space, zero_prob=0.0)
        shrink = rng.uniform(0.0, 1.0, 6) * rng.choice([-1.0, 1.0], 6)
        f = SimpleFunction(space, g.coeffs * shrink)  # |f| <= |g| pointwise
        assert norm_exact(m, f).value <= norm_exact(m, g).value + 1e-12


def test_every_set_is_a_lower_bound(s1, f1):
    _, m = s1
    rng = np.random.default_rng(4)
    value = norm_exact(m, f1).value
    for _ in range(64):
        A = MeasurableSet(f1.space, rng.random(4) < 0.5)
        h = sign_function(A)
        test = norm(m.X, integrate(m, SimpleFunction(f1.space, f1.coeffs * h.coeffs)))
        assert test <= value + 1e-12


def test_closed_form_examples(s1, s2, f1):
    _, m = s1
    res = norm_closed_form(m, f1)
    assert res.value == pytest.approx(1.5, abs=1e-15)
    assert res.method == CLOSED_FORM
    space2, m2 = s2
    assert norm_closed_form(m2, SimpleFunction(space2, [3.0, -4.0])).value == 4.0
    chi = SimpleFunction(space2, [1.0, 1.0])
    assert norm_closed_form(m2, chi).value == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(NotPolyhedral):
        norm_closed_form(
            VectorMeasure(space2, NormSpec.l2(2), m2.atoms),
            SimpleFunction(space2, [1.0, 1.0]),
        )


def test_closed_form_matches_exact_on_polyhedral():
    rng = np.random.default_rng(5)
    for trial in range(300):
        n = int(rng.integers(1, 13))
        d = int(rng.integers(1, 7))
        space = random_space(rng, n)
        X = random_norm_spec(rng, d, ("L1", "LINF")[trial % 2])
        m = random_measure(rng, space, X)
        f = random_function(rng, space)
        a = norm_exact(m, f)
        b = norm_closed_form(m, f)
        assert a.value == pytest.approx(b.value, abs=1e-10)
        assert _reproduce(m, f, b) == pytest.approx(b.value, abs=1e-10)


def test_closed_form_sign_consistent_fast_path():
    # entrywise nonnegative atoms avoid the corner enumeration at any dimension
    rng = np.random.default_rng(6)
    space = random_space(rng, 40)
    X = NormSpec.l1_of_mu(space)  # d = 40 far above the corner limit
    m = VectorMeasure(space, X, np.abs(rng.normal(size=(40, 40))))
    f = SimpleFunction(space, rng.normal(size=40))
    res = norm_closed_form(m, f)
    expected = float(np.abs(f.coeffs) @ (np.abs(m.atoms) @ X.scale))
    assert res.value == pytest.approx(expected, rel=1e-12)
    # mixed-sign atoms at the same size must refuse instead
    mixed = VectorMeasure(space, X, rng.normal(size=(40, 40)))
    with pytest.raises(CapacityExceeded):
        norm_closed_form(mixed, f)


def _corner_loop(m, f):
    """Every one of the 2^d corners, in blocks of 2^12 codes; code bit j is the
    sign of coordinate j, and ties go to the smallest code."""
    w, d = m.X.scale, m.X.dim
    weighted = np.abs(f.coeffs)[:, None] * m.atoms
    best_value, best_corner = -np.inf, None
    for start in range(0, 1 << d, 1 << 12):
        t = np.arange(start, min(start + (1 << 12), 1 << d), dtype=np.int64)
        corners = (1.0 - 2.0 * ((t[:, None] >> np.arange(d)) & 1)) * w
        values = np.abs(weighted @ corners.T).sum(axis=0)
        i = int(np.argmax(values))
        if values[i] > best_value:
            best_value, best_corner = float(values[i]), corners[i].copy()
    return best_value, f.coeffs * (m.atoms @ best_corner) >= 0.0


def test_closed_form_l1_is_bitwise_the_full_corner_loop():
    rng = np.random.default_rng(21)
    for trial in range(600):
        n, d = int(rng.integers(1, 10)), int(rng.integers(2, 15))
        space = random_space(rng, n)
        if trial % 2:  # integer data: many tied corners
            X = NormSpec("L1", d, rng.integers(1, 3, size=d).astype(float))
            atoms = rng.integers(-2, 3, size=(n, d)).astype(float)
            coeffs = rng.integers(-2, 3, size=n).astype(float)
        else:
            X = random_norm_spec(rng, d, "L1")
            atoms = rng.normal(size=(n, d))
            coeffs = rng.normal(size=n)
        if trial % 3 == 0:
            atoms[n // 2 :] = atoms[: n - n // 2]  # repeated rows
        atoms[0, :2], coeffs[0] = (1.0, -1.0), 1.0  # one mixed-sign row: no fast path
        m, f = VectorMeasure(space, X, atoms), SimpleFunction(space, coeffs)
        res = norm_closed_form(m, f)
        value, members = _corner_loop(m, f)
        assert repr(res.value) == repr(value)
        assert np.array_equal(res.witness_set.members, members)


def test_heuristic_examples(s1, f1):
    _, m = s1
    res = norm_heuristic(m, f1, restarts=8, seed=0)
    assert res.method == HEURISTIC
    assert res.value == pytest.approx(1.5, abs=1e-12)
    assert norm_heuristic(m, SimpleFunction.zeros(f1.space)).value == 0.0


def test_heuristic_is_sound_and_deterministic():
    rng = np.random.default_rng(7)
    for _ in range(100):
        space = random_space(rng, int(rng.integers(1, 10)))
        X = random_norm_spec(rng, int(rng.integers(1, 5)))
        m = random_measure(rng, space, X)
        f = random_function(rng, space)
        seed = int(rng.integers(1 << 30))
        a = norm_heuristic(m, f, restarts=4, seed=seed)
        b = norm_heuristic(m, f, restarts=4, seed=seed)
        assert a.value == b.value
        assert a.value <= norm_exact(m, f).value + 1e-12
        assert _reproduce(m, f, a) == pytest.approx(a.value, abs=1e-10)


def test_norm_best_dispatch(s1, f1):
    _, m = s1
    assert norm_best(m, f1).method == CLOSED_FORM
    rng = np.random.default_rng(8)
    space = random_space(rng, 6)
    m2 = random_measure(rng, space, NormSpec.l2(3))
    f = random_function(rng, space)
    assert norm_best(m2, f).method == EXACT
    big = random_space(rng, 30)
    m3 = random_measure(rng, big, NormSpec.l2(3))
    g = SimpleFunction(big, rng.normal(size=30))
    res = norm_best(m3, g)
    assert res.method == HEURISTIC
    assert res.value <= brute_norm_upper(m3, g) + 1e-9


def brute_norm_upper(m, f):
    # crude upper bound: sum of the norms of the weighted atoms
    from vmlab import norm as xnorm

    return float(sum(xnorm(m.X, fi * row) for fi, row in zip(f.coeffs, m.atoms)))


def test_deviation_examples(s1, f1):
    space, m = s1
    assert deviation(m, m, f1) == 0.0
    p = Partition.from_blocks(space, [[0, 1], [2, 3]])
    m_eta = martingale_measure(m, p)
    chi0 = SimpleFunction(space, [1.0, 0.0, 0.0, 0.0])
    value = deviation(m, m_eta, chi0)
    assert value == pytest.approx(0.25, abs=1e-15)
    assert value == pytest.approx(brute_deviation(m, m_eta, chi0), abs=1e-12)
    assert deviation(m, m_eta, SimpleFunction.zeros(space)) == 0.0


def test_norm_gap_bound_check(s1, f1):
    space, m = s1
    assert norm_gap_bound_check(m, m, f1)
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        sp = random_space(rng, n)
        X = random_norm_spec(rng, int(rng.integers(1, 5)))
        ma = random_measure(rng, sp, X)
        mb = random_measure(rng, sp, X)
        f = random_function(rng, sp)
        assert norm_gap_bound_check(ma, mb, f)


def test_koethe_examples(s1):
    space, m = s1
    assert koethe_dual_norm(m, SimpleFunction.zeros(space)) == 0.0
    g = SimpleFunction(space, [1.0, -3.0, 2.0, 0.0])
    assert koethe_dual_norm(m, g) == pytest.approx(3.0, abs=1e-9)


def test_koethe_matches_scipy():
    rng = np.random.default_rng(10)
    for trial in range(80):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        space = random_space(rng, n)
        X = random_norm_spec(rng, d, ("L1", "LINF")[trial % 2])
        m = random_measure(rng, space, X)
        # keep the ball full-dimensional: null atoms make the norm infinite
        m = VectorMeasure(space, X, m.atoms + 0.1 * np.sign(m.atoms + 0.5))
        g = random_function(rng, space)
        ours = koethe_dual_norm(m, g)
        assert ours == pytest.approx(koethe_scipy(m, g), abs=1e-7)


def test_koethe_duality_inequality():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        space = random_space(rng, n)
        X = random_norm_spec(rng, int(rng.integers(1, 5)), "LINF")
        m = random_measure(rng, space, X)
        f = random_function(rng, space)
        g = random_function(rng, space)
        lhs = abs(np.sum(f.coeffs * g.coeffs * space.weights))
        rhs = norm_exact(m, f).value * koethe_dual_norm(m, g)
        assert lhs <= rhs + 1e-9


def test_koethe_norm_axioms(s1):
    rng = np.random.default_rng(12)
    space, m = s1
    for _ in range(50):
        g = random_function(rng, space)
        h = random_function(rng, space)
        c = float(rng.normal())
        ng = koethe_dual_norm(m, g)
        nh = koethe_dual_norm(m, h)
        nsum = koethe_dual_norm(m, SimpleFunction(space, g.coeffs + h.coeffs))
        nscaled = koethe_dual_norm(m, SimpleFunction(space, c * g.coeffs))
        assert nsum <= ng + nh + 1e-9
        assert nscaled == pytest.approx(abs(c) * ng, abs=1e-9)


def test_koethe_capacity_and_l2_fallback():
    rng = np.random.default_rng(13)
    space = random_space(rng, 20)
    m = random_measure(rng, space, NormSpec.linf(3))
    with pytest.raises(CapacityExceeded):
        koethe_dual_norm(m, SimpleFunction(space, rng.normal(size=20)))

    small = random_space(rng, 5)
    m2 = random_measure(rng, small, NormSpec.l2(3))
    g = random_function(rng, small)
    info = koethe_dual_norm_info(m2, g)
    assert info.method == HEURISTIC
    # the reported maximizer is feasible and attains the reported value
    assert norm_exact(m2, info.maximizer).value <= 1.0 + 1e-9
    attained = abs(np.sum(info.maximizer.coeffs * g.coeffs * small.weights))
    assert attained == pytest.approx(info.value, abs=1e-12)


def test_koethe_unbounded_when_measure_has_null_atom():
    space = MeasureSpace.uniform(2)
    X = NormSpec.linf(2)
    m = VectorMeasure(space, X, [[1.0, 0.0], [0.0, 0.0]])
    g = SimpleFunction(space, [0.0, 1.0])
    assert koethe_dual_norm(m, g) == np.inf


def test_integration_map_ratio_is_one(s1):
    # max over atoms of ||I_m(chi_i)|| / ||chi_i|| is exactly one for the
    # canonical indicator measure
    space, m = s1
    ratios = []
    for i in range(space.n):
        chi = SimpleFunction.indicator(MeasurableSet.from_indices(space, [i]))
        ratios.append(norm(m.X, integrate(m, chi)) / norm_exact(m, chi).value)
    assert max(ratios) == 1.0


def test_integrate_bounded_by_norm():
    # A = Omega case of the sign-pattern supremum
    rng = np.random.default_rng(21)
    for _ in range(100):
        space = random_space(rng, int(rng.integers(1, 9)))
        X = random_norm_spec(rng, int(rng.integers(1, 5)))
        m = random_measure(rng, space, X)
        f = random_function(rng, space)
        assert norm(X, integrate(m, f)) <= norm_exact(m, f).value + 1e-12


def test_koethe_corner_gate():
    rng = np.random.default_rng(22)
    space = random_space(rng, 4)
    X = NormSpec("L1", 15, np.ones(15))
    m = random_measure(rng, space, X)
    with pytest.raises(CapacityExceeded):
        koethe_dual_norm(m, SimpleFunction(space, rng.normal(size=4)))


def _ascent_instance(rng, n, d):
    """An L2 measure with null and repeated atoms mixed in, and a g that may vanish."""
    space = random_space(rng, n)
    X = NormSpec.l2(d, rng.uniform(0.5, 2.0, size=d))
    atoms = rng.normal(size=(n, d))
    atoms[rng.random(n) < 0.2] = 0.0  # null atoms
    if n > 1 and rng.random() < 0.4:  # repeated atoms, possibly negated
        i, j = rng.choice(n, size=2, replace=False)
        atoms[j] = atoms[i] * rng.choice([-1.0, 1.0])
    m = VectorMeasure(space, X, atoms)
    g = SimpleFunction.zeros(space) if rng.random() < 0.05 else random_function(rng, space)
    return m, g


def _assert_ascent_is_the_loop(m, g, seed, restarts, steps):
    info = koethe_dual_norm_info(m, g, seed=seed)
    value, fstar = loop_koethe_supergradient(m, g, seed=seed, restarts=restarts, steps=steps)
    assert info.method == HEURISTIC
    assert repr(info.value) == repr(value)
    assert info.maximizer.coeffs.tobytes() == fstar.coeffs.tobytes()


def test_koethe_l2_ascent_is_bitwise_the_restart_loop(monkeypatch):
    rng = np.random.default_rng(31)
    # the production sizes, on a few small instances
    for n in (1, 3, 6):
        m, g = _ascent_instance(rng, n, int(rng.integers(1, 7)))
        _assert_ascent_is_the_loop(m, g, int(rng.integers(1 << 30)), 32, 48)
    # many instances with fewer restarts and steps; the loop is the bottleneck
    monkeypatch.setattr(l1m_norm, "_ASCENT_RESTARTS", 5)
    monkeypatch.setattr(l1m_norm, "_ASCENT_STEPS", 6)
    zero_g = 0
    for _ in range(320):
        m, g = _ascent_instance(rng, int(rng.integers(1, 11)), int(rng.integers(1, 7)))
        zero_g += not np.any(g.coeffs)
        _assert_ascent_is_the_loop(m, g, int(rng.integers(1 << 30)), 5, 6)
    assert zero_g >= 5
    # above the exact cutoff every row norm is norm_best's heuristic fallback
    m, g = _ascent_instance(rng, 17, 3)
    _assert_ascent_is_the_loop(m, random_function(rng, m.space), 5, 5, 6)


def test_ball_norms_are_norm_best_per_row():
    rng = np.random.default_rng(32)
    for trial in range(60):
        n = 17 if trial % 10 == 9 else int(rng.integers(1, 11))
        d = int(rng.integers(1, 6))
        X = NormSpec(KINDS[trial % 3], d, rng.uniform(0.5, 2.0, size=d))
        m = random_measure(rng, random_space(rng, n), X)
        F = rng.normal(size=(7, n))
        F[rng.random(F.shape) < 0.15] = 0.0  # rows with zeros shrink the support
        F[0] = 0.0
        F[1] = np.abs(F[1]) + 1.0  # at least one row without a zero
        got = l1m_norm._ball_norms(m, F)
        want = [norm_best(m, SimpleFunction(m.space, row)).value for row in F]
        assert got.tobytes() == np.array(want).tobytes()
