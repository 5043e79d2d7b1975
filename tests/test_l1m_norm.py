import tracemalloc

import numpy as np
import pytest

from helpers import (
    KINDS,
    brute_deviation,
    brute_norm,
    dual_extreme_table,
    from_indices,
    indicator,
    koethe_dual_norm,
    koethe_scipy,
    loop_koethe_supergradient,
    random_function,
    random_measure,
    random_norm_spec,
    random_space,
    sign_function,
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
    combine,
    deviation,
    indicator_measure,
    integrate,
    koethe_dual_norm_info,
    martingale_measure,
    norm,
    norm_best,
    norm_closed_form,
    norm_exact,
    norm_heuristic,
    rank_one_measure,
)
from vmlab import l1m_norm, normed_space
from vmlab.vector_measure import Expectation


def _reproduce(m, f, result):
    h = sign_function(result.witness_set)
    return norm(m.X, integrate(m, SimpleFunction(f.space, f.coeffs * h.coeffs)))


def test_integrate_examples(s1):
    space, m = s1
    A = from_indices(space, [1, 3])
    chi = indicator(A)
    assert np.array_equal(integrate(m, chi), [0.0, 1.0, 0.0, 1.0])  # m(A) = e_1 + e_3
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
    m = VectorMeasure(space, NormSpec("L2", 2, 1.0), atoms)
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
    X = NormSpec("L2", 2, 1.0)
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
            VectorMeasure(space2, NormSpec("L2", 2, 1.0), m2.atoms),
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


def test_no_norm_engine_copies_its_witness_mask(monkeypatch):
    # each engine freezes the fresh mask it builds, so MeasurableSet holds it
    from vmlab import measure_core

    copied, frozen = [], measure_core._frozen

    def spy(a, dtype):
        out = frozen(a, dtype)
        if dtype is bool and out is not a:
            copied.append(a)
        return out

    monkeypatch.setattr(measure_core, "_frozen", spy)
    rng = np.random.default_rng(35)
    space = random_space(rng, 6)
    f = SimpleFunction(space, rng.normal(size=6))
    zero = SimpleFunction.zeros(space)
    m2, minf, m1 = (random_measure(rng, space, NormSpec(kind, 3, 1.0)) for kind in ("L2", "LINF", "L1"))
    m1_plus = VectorMeasure(space, m1.X, np.abs(m1.atoms))  # sign-consistent rows: no corner loop
    runs = [
        (norm_exact, m2, f),
        (norm_exact, m2, zero),
        (norm_heuristic, m2, f),
        (norm_heuristic, m2, zero),
        (norm_closed_form, minf, f),
        (norm_closed_form, m1, f),
        (norm_closed_form, m1_plus, f),
    ]
    for engine, m, g in runs:
        result = engine(m, g)
        assert not copied, engine.__name__
        assert _reproduce(m, g, result) == pytest.approx(result.value, rel=1e-12, abs=1e-15)


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
    m2 = random_measure(rng, space, NormSpec("L2", 3, 1.0))
    f = random_function(rng, space)
    assert norm_best(m2, f).method == EXACT
    big = random_space(rng, 30)
    m3 = random_measure(rng, big, NormSpec("L2", 3, 1.0))
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
    p = Partition(space, [0, 0, 1, 1])
    m_eta = martingale_measure(m, p)
    chi0 = SimpleFunction(space, [1.0, 0.0, 0.0, 0.0])
    value = deviation(m, m_eta, chi0)
    assert value == pytest.approx(0.25, abs=1e-15)
    assert value == pytest.approx(brute_deviation(m, m_eta, chi0), abs=1e-12)
    assert deviation(m, m_eta, SimpleFunction.zeros(space)) == 0.0


def _norm_gap_within_deviation(ma, mb, f, tol=1e-10):
    """| ||f||_ma - ||f||_mb | <= deviation(ma, mb, f), acceptance criterion A03."""
    gap = abs(norm_best(ma, f).value - norm_best(mb, f).value)
    return gap <= deviation(ma, mb, f) + tol


def test_norm_gap_bound_check(s1, f1):
    space, m = s1
    assert _norm_gap_within_deviation(m, m, f1)
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        sp = random_space(rng, n)
        X = random_norm_spec(rng, int(rng.integers(1, 5)))
        ma = random_measure(rng, sp, X)
        mb = random_measure(rng, sp, X)
        f = random_function(rng, sp)
        assert _norm_gap_within_deviation(ma, mb, f)


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
    m = random_measure(rng, space, NormSpec("LINF", 3, 1.0))
    with pytest.raises(CapacityExceeded):
        koethe_dual_norm(m, SimpleFunction(space, rng.normal(size=20)))

    small = random_space(rng, 5)
    m2 = random_measure(rng, small, NormSpec("L2", 3, 1.0))
    g = random_function(rng, small)
    info = koethe_dual_norm_info(m2, g)
    assert info.method == HEURISTIC
    # the reported maximizer is feasible and attains the reported value
    assert norm_exact(m2, info.maximizer).value <= 1.0 + 1e-9
    attained = abs(np.sum(info.maximizer.coeffs * g.coeffs * small.weights))
    assert attained == pytest.approx(info.value, abs=1e-12)


def test_koethe_unbounded_when_measure_has_null_atom():
    space = MeasureSpace.uniform(2)
    X = NormSpec("LINF", 2, 1.0)
    m = VectorMeasure(space, X, [[1.0, 0.0], [0.0, 0.0]])
    g = SimpleFunction(space, [0.0, 1.0])
    assert koethe_dual_norm(m, g) == np.inf


def test_integration_map_ratio_is_one(s1):
    # max over atoms of ||I_m(chi_i)|| / ||chi_i|| is exactly one for the
    # canonical indicator measure
    space, m = s1
    ratios = []
    for i in range(space.n):
        chi = indicator(from_indices(space, [i]))
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


def test_koethe_corner_gate(monkeypatch):
    built = []
    monkeypatch.setattr(normed_space, "sign_table", lambda *args: built.append(args))
    rng = np.random.default_rng(22)
    space = random_space(rng, 4)
    X = NormSpec("L1", 15, np.ones(15))
    m = random_measure(rng, space, X)
    with pytest.raises(CapacityExceeded, match=r"^2\^14 ball constraints exceed the limit \(d <= 14\)$"):
        koethe_dual_norm(m, SimpleFunction(space, rng.normal(size=4)))
    assert built == []  # refused before any corner is built


def _polyhedral_koethe_instance(rng, kind, n, d):
    """A polyhedral measure with null and repeated atoms mixed in, and zeros in g."""
    space = random_space(rng, n)
    X = random_norm_spec(rng, d, kind)
    atoms = rng.normal(size=(n, d))
    if n > 1 and rng.random() < 0.4:  # repeated atoms, possibly negated
        i, j = rng.choice(n, size=2, replace=False)
        atoms[j] = atoms[i] * rng.choice([-1.0, 1.0])
    if rng.random() < 0.3:
        atoms[rng.integers(n)] = 0.0  # a null atom
    return VectorMeasure(space, X, atoms), random_function(rng, space, zero_prob=0.3)


def test_koethe_lp_over_abs_f_matches_the_lifted_scipy_lp():
    rng = np.random.default_rng(33)
    unbounded = 0
    for trial in range(400):
        n, d = int(rng.integers(1, 13)), int(rng.integers(1, 11))
        m, g = _polyhedral_koethe_instance(rng, ("L1", "LINF")[trial % 2], n, d)
        info = koethe_dual_norm_info(m, g)
        assert info.method == EXACT
        if np.any(np.all(m.atoms == 0.0, axis=1) & (g.coeffs != 0.0)):
            assert info.value == np.inf and info.maximizer is None
            unbounded += 1
            continue
        assert info.value == pytest.approx(koethe_scipy(m, g), rel=1e-9, abs=1e-12)
        fstar = info.maximizer.coeffs
        assert np.all(fstar[g.coeffs == 0.0] == 0.0)
        assert norm_closed_form(m, info.maximizer).value <= 1.0 + 1e-12
        attained = abs(np.sum(fstar * g.coeffs * m.space.weights))
        assert attained == pytest.approx(info.value, rel=1e-12, abs=1e-12)
    assert 40 <= unbounded <= 120


def test_koethe_ball_rows_are_bitwise_the_oracle_product():
    # one row per pair +-x*: the even rows of the LINF table, the first half of the L1
    # table; from d = 14 on the L1 corners come in blocks of 2^12
    rng = np.random.default_rng(34)
    for d in range(1, 15):
        for trial in range(6):
            kind = ("L1", "LINF")[trial % 2]
            m, _ = _polyhedral_koethe_instance(rng, kind, int(rng.integers(1, 13)), d)
            pts = dual_extreme_table(m.X)
            want = np.abs((pts[::2] if kind == "LINF" else pts[: len(pts) // 2]) @ m.atoms.T)
            rows = l1m_norm._koethe_ball_rows(m)
            assert rows.shape == want.shape and rows.tobytes() == want.tobytes(), (d, kind)


def test_koethe_ball_rows_hold_one_copy_of_the_rows():
    # at d = 14 the 2^13 rows are written block by block, each block's product straight
    # into its rows: neither a 2^13 x 14 corner table nor a product temporary is built
    rng = np.random.default_rng(35)
    m, _ = _polyhedral_koethe_instance(rng, "L1", 12, 14)
    tracemalloc.start()
    try:
        rows = l1m_norm._koethe_ball_rows(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = (1 << 12) * 14 * 8  # one block of corners
    assert peak <= rows.nbytes + block + 2**16, f"the Köthe ball rows at n = 12, d = 14 peaked at {peak} B"


def _ascent_instance(rng, n, d):
    """An L2 measure with null and repeated atoms mixed in, and a g that may vanish."""
    space = random_space(rng, n)
    X = NormSpec("L2", d, rng.uniform(0.5, 2.0, size=d))
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


def test_koethe_l2_ascent_is_the_loop_where_the_sign_search_has_high_bits(monkeypatch):
    # n - 1 > 12 code bits take the search past one block, up to the exact
    # cutoff n = 16, and d >= 8 gives norm its row-major layout; the step
    # vectors must read the patched sizes at call time
    monkeypatch.setattr(l1m_norm, "_ASCENT_RESTARTS", 3)
    monkeypatch.setattr(l1m_norm, "_ASCENT_STEPS", 4)
    rng = np.random.default_rng(35)
    for n in (13, 14, 16):
        for d in (3, 8, 9):
            m, _ = _ascent_instance(rng, n, d)
            _assert_ascent_is_the_loop(m, random_function(rng, m.space), int(rng.integers(1 << 30)), 3, 4)


def _spy_refusals(monkeypatch) -> list:
    """The list every ``ENGINES`` refusal appends its engine label to from now on."""
    calls = []

    def spied(label, refusal, run):
        return label, lambda *args: calls.append(label) or refusal(*args), run

    monkeypatch.setattr(l1m_norm, "ENGINES", tuple(spied(*engine) for engine in l1m_norm.ENGINES))
    return calls


def test_koethe_l2_ascent_walks_the_engines_once(monkeypatch):
    calls = _spy_refusals(monkeypatch)
    rng = np.random.default_rng(36)
    for n in (1, 4, 6, 16):
        m, _ = _ascent_instance(rng, n, int(rng.integers(1, 9)))
        g = SimpleFunction(m.space, np.abs(rng.normal(size=n)) + 0.5)
        calls.clear()
        assert koethe_dual_norm_info(m, g, seed=int(rng.integers(1 << 30))).value > 0.0
        # one walk decides the engine for every iterate, 32 x 49 of them
        assert calls == ["closed_form", "enumeration"]


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
        got = l1m_norm._ball_norms(m, F, l1m_norm._enumerates_full_support(m))
        want = [norm_best(m, SimpleFunction(m.space, row)).value for row in F]
        assert got.tobytes() == np.array(want).tobytes()


def _block_instance(rng, block_sizes, block_weights, trial):
    n = sum(block_sizes)
    block_of = np.repeat(np.arange(len(block_sizes)), block_sizes)
    rng.shuffle(block_of)  # blocks need not be contiguous
    space = MeasureSpace(np.asarray(block_weights)[block_of])
    p = Partition(space, block_of)
    if trial % 3 == 0:  # small integers: zeros, repeats and ties
        coeffs = rng.integers(-2, 3, size=n).astype(float)
    else:
        coeffs = rng.normal(size=n)
        coeffs[rng.random(n) < 0.2] = 0.0
        coeffs[rng.random(n) < 0.2] = coeffs[0]
    return indicator_measure(space), p, SimpleFunction(space, coeffs)


def test_block_closed_form_matches_the_itertools_oracle():
    rng = np.random.default_rng(41)
    instances = []
    for b in range(1, 15):  # one block, of every size up to 14 atoms
        instances.append(([b], [float(rng.uniform(0.2, 1.5))]))
        instances.append(([b], [1.0 / b]))
    for _ in range(40):  # several blocks: weights constant per block, unequal across blocks
        sizes = [int(s) for s in rng.integers(1, 5, size=int(rng.integers(2, 5)))]
        instances.append((sizes, rng.uniform(0.2, 1.5, size=len(sizes)).tolist()))
    for trial, (sizes, weights) in enumerate(instances):
        m, p, f = _block_instance(rng, sizes, weights, trial)
        value = l1m_norm._norm_block_closed_form(p, f)
        want = brute_deviation(m, martingale_measure(m, p), f)
        assert value == pytest.approx(want, rel=1e-12, abs=1e-300)


def _indicator_net_scenario(experiment, n, levels, seed):
    rng = np.random.default_rng(seed)
    if experiment == "martingale":
        exp = {"kind": "martingale", "levels": levels, "seed": seed}
    else:
        exp = {"kind": "rn_net", "family": "expectation", "levels": levels, "seed": seed}
    return {
        "schema_version": 1,
        "space": {"n": n, "weights": "uniform"},
        "value_space": {"kind": "l1-of-mu"},
        "measure": {"kind": "indicator"},
        "functions": [rng.normal(size=n).tolist()],
        "experiment": exp,
    }


@pytest.mark.parametrize("experiment", ["martingale", "expectation"])
@pytest.mark.parametrize("n, levels", [(32, 5), (64, 3)])
def test_indicator_nets_take_no_hill_climb(monkeypatch, experiment, n, levels):
    from vmlab import harness
    from vmlab.approx_nets import associated_measure, expectation_family, martingale_net, rn_operator
    from vmlab.measure_core import dyadic_chain

    def refuse(*args, **kwargs):
        raise AssertionError("hill_climb called")

    data = _indicator_net_scenario(experiment, n, levels, seed=n + levels)
    sc = harness.build_scenario(data)
    monkeypatch.setattr(l1m_norm, "hill_climb", refuse)
    report = harness.run(sc)
    monkeypatch.undo()
    assert "error" not in report
    rows = report["results"]["rows"]
    m, f = sc.measure, sc.functions[0]
    chain = dyadic_chain(levels, m.space)
    if experiment == "martingale":
        net = list(martingale_net(m, chain))
    else:
        families = [expectation_family(m, p) for p in chain]
        net = [associated_measure(rn_operator(m, xs, vs)) for xs, vs in families]
    assert len(rows) == len(net) == levels + 1
    for row, level in zip(rows, net):
        heuristic = norm_heuristic(combine(m, -1.0, level), f, seed=data["experiment"]["seed"]).value
        assert row[2] >= heuristic * (1.0 - 1e-12)
        assert row[1] <= row[2] + 1e-12  # the deviation dominates the norm gap


def _count_hill_climbs(monkeypatch):
    calls = []
    climb = l1m_norm.hill_climb

    def counted(*args, **kwargs):
        calls.append(1)
        return climb(*args, **kwargs)

    monkeypatch.setattr(l1m_norm, "hill_climb", counted)
    return calls


def test_unequal_block_weights_and_other_value_spaces_keep_the_heuristic(monkeypatch):
    rng = np.random.default_rng(42)
    n = 32
    p = Partition(MeasureSpace.uniform(n), np.arange(n) // 8)
    f_coeffs = rng.normal(size=n)
    unequal = MeasureSpace(rng.uniform(0.5, 1.5, size=n))
    uniform = MeasureSpace.uniform(n)
    cases = [
        indicator_measure(unequal),  # weights vary inside each block
        indicator_measure(uniform, NormSpec("L2", n, 1.0)),  # an L2 value space with d = n
        indicator_measure(uniform, NormSpec("L1", n, 1.0)),  # L1 without the atom weights as scale
    ]
    calls = _count_hill_climbs(monkeypatch)
    for m in cases:
        part = Partition(m.space, p.block_of)
        m1 = martingale_measure(m, part)
        assert isinstance(m1.record, Expectation)
        f = SimpleFunction(m.space, f_coeffs)
        before = len(calls)
        value = deviation(m, m1, f, seed=3)
        assert len(calls) == before + 1
        plain = VectorMeasure(m.space, m.X, m.atoms - m1.atoms)  # no record
        assert repr(value) == repr(norm_best(plain, f, seed=3).value)


def test_exact_deviations_keep_their_engine():
    # deviation gives the block form's bits; the corner search over the
    # unrecorded difference agrees up to rounding
    rng = np.random.default_rng(43)
    for n in (4, 8, 16):
        space = MeasureSpace.uniform(n)
        m = indicator_measure(space)
        f = SimpleFunction(space, rng.normal(size=n))
        for levels in range(n.bit_length()):
            p = Partition(space, np.arange(n) // (n >> levels))
            m1 = martingale_measure(m, p)
            plain = VectorMeasure(space, m.X, m.atoms - m1.atoms)
            value = deviation(m, m1, f)
            assert repr(value) == repr(l1m_norm._norm_block_closed_form(p, f))
            corners = norm_closed_form(plain, f).value
            assert abs(value - corners) <= 1e-13 * corners


def _min_max_rule(rows):
    return bool(np.all((rows.min(axis=1) >= 0.0) | (rows.max(axis=1) <= 0.0)))


def test_sign_consistency_is_the_min_max_rule():
    rng = np.random.default_rng(44)
    for trial in range(2000):
        k, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        rows = rng.integers(-1, 2, size=(k, d)).astype(float) * rng.uniform(0.5, 2.0, size=(k, d))
        if trial % 2:  # mostly one sign per row, so both answers occur
            rows = np.abs(rows) * rng.choice([-1.0, 1.0], size=(k, 1))
            rows[rng.random((k, d)) < 0.05] *= -1.0
        rows[rng.random((k, d)) < 0.2] = -0.0
        rows[rng.random(k) < 0.2] = 0.0  # all-zero rows
        assert l1m_norm._rows_sign_consistent(rows) == _min_max_rule(rows)


ENGINE_LABELS = ["closed_form", "enumeration", "hill_climbing"]


def _refused_labels(result):
    return [label for label, _ in result.refused]


def test_engine_table_order():
    assert [label for label, _, _ in l1m_norm.ENGINES] == ENGINE_LABELS


def test_enumeration_refuses_support_17_at_the_default_cutoff():
    rng = np.random.default_rng(51)
    space = random_space(rng, 17)
    m = random_measure(rng, space, NormSpec("L2", 3, 1.0))
    f = SimpleFunction(space, rng.normal(size=17))
    with pytest.raises(CapacityExceeded, match="support size 17 exceeds the enumeration limit 16"):
        norm_exact(m, f)
    res = norm_best(m, f)
    assert res.method == HEURISTIC
    assert dict(res.refused)["enumeration"] == "support size 17 exceeds the enumeration limit 16"
    # one atom less is enumerated
    g = SimpleFunction(space, np.where(np.arange(17) == 0, 0.0, f.coeffs))
    assert norm_best(m, g).method == EXACT and norm_best(m, g).refused[0][0] == "closed_form"


def test_enumeration_stops_at_support_25_whatever_the_cutoff():
    from vmlab.harness import build_scenario, run

    rng = np.random.default_rng(52)
    data = {
        "schema_version": 1,
        "space": {"n": 25, "weights": "uniform"},
        "value_space": {"kind": "L2", "d": 3, "scale": 1.0},
        "measure": {"kind": "matrix", "rows": rng.normal(size=(25, 3)).tolist()},
        "functions": [rng.normal(size=25).tolist()],
        "experiment": {"kind": "norm", "exact_cutoff": 30, "restarts": 2},
    }
    sc = build_scenario(data)
    res = norm_best(sc.measure, sc.functions[0], exact_cutoff=30, restarts=2)
    assert res.method == HEURISTIC
    reason = dict(res.refused)["enumeration"]
    assert reason == "support size 25 exceeds the enumeration limit 24"
    with pytest.raises(CapacityExceeded, match="limit 24"):
        norm_exact(sc.measure, sc.functions[0], exact_cutoff=30)
    report = run(sc)
    assert "error" not in report
    assert report["results"]["rows"] == [[0, res.value, HEURISTIC, res.value]]


def test_closed_form_refuses_mixed_sign_rows_beyond_20_coordinates():
    rng = np.random.default_rng(53)
    space = random_space(rng, 6)
    X = NormSpec("L1", 21, 1.0)
    f = SimpleFunction(space, rng.normal(size=6))
    mixed = VectorMeasure(space, X, rng.normal(size=(6, 21)))
    with pytest.raises(CapacityExceeded, match=r"2\^21 dual corners exceed the limit d <= 20"):
        norm_closed_form(mixed, f)
    res = norm_best(mixed, f)
    assert res.method == EXACT
    assert res.refused == (("closed_form", "2^21 dual corners exceed the limit d <= 20"),)
    assert res.value == pytest.approx(brute_norm(mixed, f), rel=1e-12)
    signs = rng.choice([-1.0, 1.0], size=(6, 1))
    consistent = VectorMeasure(space, X, np.abs(rng.normal(size=(6, 21))) * signs)
    res = norm_best(consistent, f)
    assert res.method == CLOSED_FORM and res.refused == ()
    assert res.value == norm_closed_form(consistent, f).value


def test_closed_form_refuses_l2():
    rng = np.random.default_rng(54)
    space = random_space(rng, 5)
    m = random_measure(rng, space, NormSpec("L2", 2, 1.0))
    f = random_function(rng, space)
    with pytest.raises(NotPolyhedral):
        norm_closed_form(m, f)
    res = norm_best(m, f)
    assert res.method == EXACT
    assert _refused_labels(res) == ["closed_form"]
    assert "L2" in res.refused[0][1]


def test_block_form_refuses_unequal_weights_inside_a_block(monkeypatch):
    rng = np.random.default_rng(55)
    n = 24
    f = SimpleFunction(MeasureSpace.uniform(n), rng.normal(size=n))
    calls = _count_hill_climbs(monkeypatch)
    for weights, equal in ((np.full(n, 0.5), True), (rng.uniform(0.5, 1.5, n), False)):
        space = MeasureSpace(weights)
        p = Partition(space, np.arange(n) // 6)
        m = indicator_measure(space)
        m1 = martingale_measure(m, p)
        g = SimpleFunction(space, f.coeffs)
        before = len(calls)
        value = deviation(m, m1, g)
        if equal:
            assert l1m_norm._block_partition(m, m1) is p
            assert value == l1m_norm._norm_block_closed_form(p, g)
            assert len(calls) == before
        else:
            assert l1m_norm._block_partition(m, m1) is None
            assert len(calls) == before + 1
            res = norm_best(VectorMeasure(space, m.X, m.atoms - m1.atoms), g)
            assert res.method == HEURISTIC and _refused_labels(res) == ENGINE_LABELS[:2]
            assert value == res.value


def test_a_block_deviation_combines_nothing_and_climbs_nothing(monkeypatch):
    rng = np.random.default_rng(58)
    space = MeasureSpace.uniform(256)
    p = Partition(space, np.arange(256) // 8)
    m = indicator_measure(space)
    m1 = martingale_measure(m, p)
    f = SimpleFunction(space, rng.normal(size=256))
    climbs = _count_hill_climbs(monkeypatch)
    combines = _recording(monkeypatch, "combine")
    value = deviation(m, m1, f)
    assert (len(climbs), len(combines)) == (0, 0)
    assert value == l1m_norm._norm_block_closed_form(p, f)


def test_a_heuristic_row_lists_its_refusals_in_table_order():
    rng = np.random.default_rng(56)
    space = random_space(rng, 20)
    m = random_measure(rng, space, NormSpec("L2", 3, 1.0))
    res = norm_best(m, SimpleFunction(space, rng.normal(size=20)))
    assert res.method == HEURISTIC
    assert _refused_labels(res) == ENGINE_LABELS[:2]
    assert res.refused[1][1] == "support size 20 exceeds the enumeration limit 16"


def _recording(monkeypatch, name):
    calls = []
    engine = getattr(l1m_norm, name)

    def recorded(*args, **kwargs):
        calls.append(1)
        return engine(*args, **kwargs)

    monkeypatch.setattr(l1m_norm, name, recorded)
    return calls


def test_engines_are_looked_up_at_call_time(monkeypatch):
    exact_calls = _recording(monkeypatch, "norm_exact")
    heuristic_calls = _recording(monkeypatch, "norm_heuristic")
    rng = np.random.default_rng(57)
    small, large = random_space(rng, 6), random_space(rng, 17)
    m_small = random_measure(rng, small, NormSpec("L2", 3, 1.0))
    m_large = random_measure(rng, large, NormSpec("L2", 3, 1.0))
    assert norm_best(m_small, SimpleFunction(small, rng.normal(size=6))).method == EXACT
    assert norm_best(m_large, SimpleFunction(large, rng.normal(size=17))).method == HEURISTIC
    assert (len(exact_calls), len(heuristic_calls)) == (1, 1)
    F = rng.normal(size=(3, 6))
    F[0, 2] = 0.0  # a zero in F sends each of its 3 rows to norm_best, and so to norm_exact, alone
    l1m_norm._ball_norms(m_small, F, l1m_norm._enumerates_full_support(m_small))
    l1m_norm._ball_norms(m_large, rng.normal(size=(2, 17)), l1m_norm._enumerates_full_support(m_large))
    assert (len(exact_calls), len(heuristic_calls)) == (4, 3)


def test_ball_norms_ask_the_table_beyond_the_corner_limit():
    # L1 with d = 21: the closed form refuses, so rows without a zero share the
    # stacked enumeration, and with a zero in F each row takes norm_best alone
    rng = np.random.default_rng(58)
    space = random_space(rng, 8)
    m = random_measure(rng, space, NormSpec(KINDS[0], 21, rng.uniform(0.5, 2.0, size=21)))
    full = rng.normal(size=(5, 8))
    mixed = full.copy()
    mixed[1, 3] = 0.0
    assert l1m_norm._enumerates_full_support(m)
    for F in (full, mixed):
        got = l1m_norm._ball_norms(m, F, True)
        want = [norm_best(m, SimpleFunction(space, row)).value for row in F]
        assert got.tobytes() == np.array(want).tobytes()
