import numpy as np
import pytest

from helpers import random_function, random_measure, random_norm_spec, random_space
from vmlab import (
    L2,
    MeasurableSet,
    MeasureSpace,
    NetLevelStats,
    NormSpec,
    Partition,
    SimpleFunction,
    VectorMeasure,
    associated_measure,
    basis_net,
    basis_truncated_measure,
    conditional_expectation,
    coordinate_family,
    deviation,
    dyadic_chain,
    expectation_family,
    indicator_measure,
    integrate,
    integrate_martingale,
    l1_mu_norm,
    martingale_measure,
    martingale_net,
    norm,
    norm_exact,
    rank_one_measure,
    refine,
    rn_derivative,
    rn_derivatives,
    rn_net,
    rn_operator,
    run_net,
    weakstar_gap,
)


def test_conditional_expectation_examples():
    space = MeasureSpace.uniform(4)
    singles = conditional_expectation(space, Partition.singletons(space))
    assert singles.as_matrix() == pytest.approx(np.eye(4), abs=1e-15)
    one = conditional_expectation(space, Partition.one_block(space))
    f = SimpleFunction(space, [2.0, 0.0, 4.0, -2.0])
    assert one.apply(f) == pytest.approx(np.full(4, 1.0), abs=1e-15)
    p = Partition.from_blocks(space, [[0, 1], [2, 3]])
    ep = conditional_expectation(space, p)
    assert ep.apply(SimpleFunction(space, [1.0, 0.0, 0.0, 0.0])) == pytest.approx(
        [0.5, 0.5, 0.0, 0.0], abs=1e-15
    )


def test_conditional_expectation_is_contraction():
    rng = np.random.default_rng(0)
    for _ in range(100):
        space = random_space(rng, 8)
        labels = rng.integers(0, 3, 8)
        labels[:3] = [0, 1, 2]
        p = Partition(space, labels, 3)
        ep = conditional_expectation(space, p)
        f = random_function(rng, space)
        ef = SimpleFunction(space, ep.apply(f))
        assert l1_mu_norm(ef) <= l1_mu_norm(f) + 1e-12


def test_tower_property():
    rng = np.random.default_rng(1)
    space = MeasureSpace(rng.uniform(0.2, 1.0, 8))
    chain = dyadic_chain(3, space)
    for coarse, fine in zip(chain, chain[1:]):
        assert refine(coarse, fine)
        ec = conditional_expectation(space, coarse).as_matrix()
        ef = conditional_expectation(space, fine).as_matrix()
        assert ec @ ef == pytest.approx(ec, abs=1e-12)


def test_martingale_measure_examples(s1):
    space, m = s1
    singles = martingale_measure(m, Partition.singletons(space))
    assert np.array_equal(singles.atoms, m.atoms)
    p = Partition.from_blocks(space, [[0, 1], [2, 3]])
    m_eta = martingale_measure(m, p)
    assert m_eta.atoms[0] == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-15)
    one = martingale_measure(m, Partition.one_block(space))
    g = m.atoms.sum(axis=0) / space.total
    assert one.atoms == pytest.approx(space.weights[:, None] * g, abs=1e-15)


def test_integrate_martingale_examples(s1):
    space, m = s1
    p = Partition.from_blocks(space, [[0, 1], [2, 3]])
    chi_block = SimpleFunction(space, [1.0, 1.0, 0.0, 0.0])
    assert integrate_martingale(m, p, chi_block) == pytest.approx(
        [1.0, 1.0, 0.0, 0.0], abs=1e-15
    )
    f = SimpleFunction(space, [1.0, 0.0, 0.0, 0.0])
    value = integrate_martingale(m, p, f)
    assert value == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-15)
    assert norm(m.X, integrate(m, f) - value) == pytest.approx(0.25, abs=1e-15)
    singles = Partition.singletons(space)
    assert np.array_equal(integrate_martingale(m, singles, f), integrate(m, f))


def test_martingale_factorization():
    # I_{m_p}(f) = I_m(E_p f) = I_{martingale measure}(f), all within 1e-12
    rng = np.random.default_rng(2)
    for _ in range(100):
        space = random_space(rng, 9)
        X = random_norm_spec(rng, 3)
        m = random_measure(rng, space, X)
        labels = rng.integers(0, 3, 9)
        labels[:3] = [0, 1, 2]
        p = Partition(space, labels, 3)
        f = random_function(rng, space)
        direct = integrate_martingale(m, p, f)
        ef = SimpleFunction(space, conditional_expectation(space, p).apply(f))
        assert direct == pytest.approx(integrate(m, ef), abs=1e-12)
        assert direct == pytest.approx(integrate(martingale_measure(m, p), f), abs=1e-12)


def test_basis_truncation_examples(s2):
    space2, m2 = s2
    assert np.array_equal(basis_truncated_measure(m2, 2).atoms, m2.atoms)
    space = MeasureSpace.uniform(2)
    m = VectorMeasure(space, NormSpec.l2(3), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(
        basis_truncated_measure(m, 1).atoms, [[1.0, 0.0, 0.0], [4.0, 0.0, 0.0]]
    )
    with pytest.raises(ValueError):
        basis_truncated_measure(m, 0)
    with pytest.raises(ValueError):
        basis_truncated_measure(m, 4)
    # truncated norm of (3,-4) keeps only the first coordinate
    f = SimpleFunction(space2, [3.0, -4.0])
    assert norm_exact(basis_truncated_measure(m2, 1), f).value == 3.0


def test_rn_operator_coordinate_family_is_basis_projection():
    rng = np.random.default_rng(3)
    space = random_space(rng, 5)
    X = random_norm_spec(rng, 4)
    m = random_measure(rng, space, X)
    for k in range(1, 5):
        xs, vs = coordinate_family(m, k)
        R = rn_operator(m, xs, vs)
        mk = basis_truncated_measure(m, k)
        assert R.as_matrix() == pytest.approx(mk.atoms.T, abs=1e-12)
        assert associated_measure(R, space).atoms == pytest.approx(mk.atoms, abs=1e-12)


def test_rn_operator_empty_and_single_pair():
    rng = np.random.default_rng(4)
    space = random_space(rng, 4)
    X = random_norm_spec(rng, 3)
    m = random_measure(rng, space, X)
    zero = rn_operator(m, [], [])
    f = random_function(rng, space)
    assert np.array_equal(zero.apply(f), np.zeros(3))
    assert np.array_equal(associated_measure(zero, space).atoms, np.zeros((4, 3)))
    xs = rng.normal(size=3)
    x = rng.normal(size=3)
    single = rn_operator(m, [xs], [x])
    assert single.apply(f) == pytest.approx((integrate(m, f) @ xs) * x, abs=1e-12)


def test_expectation_family_reproduces_conditional_expectation(s1):
    space, m = s1
    p = Partition.from_blocks(space, [[0, 1], [2, 3]])
    xs, vs = expectation_family(m, p)
    R = rn_operator(m, xs, vs)
    ep = conditional_expectation(space, p)
    assert R.as_matrix() == pytest.approx(ep.as_matrix(), abs=1e-12)
    assert associated_measure(R, space).atoms == pytest.approx(
        martingale_measure(m, p).atoms, abs=1e-12
    )


def test_weakstar_gap_examples(s1):
    space, m = s1
    f = SimpleFunction(space, [1.0, 0.0, 0.0, 0.0])
    assert weakstar_gap(m, m, np.ones(4), [f]) == 0.0
    one_block = martingale_measure(m, Partition.one_block(space))
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    assert weakstar_gap(m, one_block, e0, [f]) == pytest.approx(0.75, abs=1e-15)
    assert weakstar_gap(m, one_block, e0, []) == 0.0
    assert weakstar_gap(m, one_block, np.eye(4), [f]) == weakstar_gap(m, one_block, e0, [f])
    assert weakstar_gap(m, one_block, np.eye(4), []) == 0.0
    assert weakstar_gap(m, one_block, [], [f]) == 0.0
    assert weakstar_gap(m, one_block, np.zeros((0, 4)), [f]) == 0.0
    with pytest.raises(ValueError, match="dimension 4"):
        weakstar_gap(m, one_block, np.ones(3), [f])


def test_run_net_trivial(s1, f1):
    _, m = s1
    report = run_net(m, [m, m, m], f1)
    for stats in report.levels:
        assert stats.norm_gap == 0.0
        assert stats.deviation == 0.0
        assert stats.pointwise_gap == 0.0
        assert stats.weakstar_gap == 0.0


def test_run_net_canonical_martingale(s1):
    space, m = s1
    chain = dyadic_chain(2, space)
    f = SimpleFunction(space, [1.0, 0.0, 0.0, 0.0])
    report = run_net(m, martingale_net(m, chain), f)
    assert report.column("pointwise_gap") == pytest.approx([0.375, 0.25, 0.0], abs=1e-15)
    assert report.column("norm_gap") == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)
    assert report.levels[-1].deviation == 0.0


def test_run_net_basis_on_s2(s2):
    space2, m2 = s2
    f = SimpleFunction(space2, [3.0, -4.0])
    report = run_net(m2, basis_net(m2), f)
    assert report.column("norm_gap") == pytest.approx([1.0, 0.0], abs=1e-15)


def test_basis_net_norm_one_inclusion_and_monotone():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 7))
        space = random_space(rng, n)
        X = random_norm_spec(rng, d)
        m = random_measure(rng, space, X)
        f = random_function(rng, space)
        values = [norm_exact(basis_truncated_measure(m, k), f).value for k in range(1, d + 1)]
        target = norm_exact(m, f).value
        for a, b in zip(values, values[1:]):
            assert a <= b + 1e-10
        assert all(v <= target + 1e-10 for v in values)
        assert values[-1] == target  # k = d leaves the measure untouched


def test_martingale_net_norm_one_inclusion_for_canonical_measures():
    # the indicator and rank-one canonical measures keep their norms under
    # block averaging, for arbitrary weights
    rng = np.random.default_rng(6)
    for _ in range(50):
        space = random_space(rng, 8)
        f = random_function(rng, space)
        g = np.abs(rng.normal(size=8)) + 0.1
        g /= np.sum(space.weights * g)
        for m in (indicator_measure(space), rank_one_measure(space, g)):
            for p in dyadic_chain(3, space):
                m_eta = martingale_measure(m, p)
                assert norm_exact(m_eta, f).value <= norm_exact(m, f).value + 1e-10


def test_norm_gap_dominated_by_deviation_on_nets():
    rng = np.random.default_rng(7)
    for _ in range(60):
        space = random_space(rng, 8)
        X = random_norm_spec(rng, 3)
        m = random_measure(rng, space, X)
        f = random_function(rng, space)
        for p in dyadic_chain(3, space):
            m_eta = martingale_measure(m, p)
            gap = abs(norm_exact(m, f).value - norm_exact(m_eta, f).value)
            assert gap <= deviation(m, m_eta, f) + 1e-10


def test_exhaustion_is_exact(s1, f1):
    space, m = s1
    singles = Partition.singletons(space)
    assert deviation(m, martingale_measure(m, singles), f1) == 0.0
    assert norm_exact(martingale_measure(m, singles), f1).value == norm_exact(m, f1).value
    rng = np.random.default_rng(8)
    X = random_norm_spec(rng, 4)
    m2 = random_measure(rng, space, X)
    assert deviation(m2, basis_truncated_measure(m2, 4), f1) == 0.0


def _reference_weakstar_gap(m, m1, probes, tests):
    # one probe at a time, with the 1-D pairing sum
    gap = 0.0
    for xstar in probes:
        phi = rn_derivative(m, xstar).coeffs
        phi1 = rn_derivative(m1, xstar).coeffs
        for f in tests:
            gap = max(gap, abs(float(np.sum(f.coeffs * (phi1 - phi) * m.space.weights))))
    return gap


def _block_tests(space, f, p):
    blocks = [MeasurableSet.from_indices(space, ids) for ids in p.blocks()]
    return [f] + [SimpleFunction.indicator(A) for A in blocks]


def _nets(m, chain):
    """basis, martingale and both rn_net families, as in the harness experiments."""
    nets = {"basis": list(basis_net(m)), "martingale": list(martingale_net(m, chain))}
    nets["rn_net/coordinate"] = list(rn_net(m))
    if m.X.dim == m.space.n:
        nets["rn_net/expectation"] = list(rn_net(m, chain))
    return nets


@pytest.mark.parametrize("kind", ["indicator", "l2"])
def test_run_net_weakstar_column_is_bitwise_the_per_probe_loop(kind):
    rng = np.random.default_rng(11)
    for n in (4, 8, 16) if kind == "indicator" else (4, 8, 12):
        space = random_space(rng, n)
        if kind == "indicator":
            m = indicator_measure(space)
        else:
            m = random_measure(rng, space, random_norm_spec(rng, 4, kind=L2))
        f = random_function(rng, space)
        chain = dyadic_chain(2, space)
        tests = _block_tests(space, f, chain[-1])
        probes = np.eye(m.X.dim)
        for name, net in _nets(m, chain).items():
            report = run_net(m, net, f, tests=tests, restarts=1)
            expected = [_reference_weakstar_gap(m, lv, probes, tests) for lv in net]
            assert report.column("weakstar_gap") == expected, (kind, n, name)
            assert any(v > 0.0 for v in expected), (kind, n, name)


def test_run_net_default_probes_have_the_product_bits():
    # run_net gathers the coordinate densities instead of multiplying by
    # np.eye(d); the bytes, signed zeros included, must be the product's
    from vmlab.approx_nets import _coordinate_densities

    rng = np.random.default_rng(13)
    for n, d in [(1, 1), (5, 3), (7, 12), (128, 128)]:
        space = random_space(rng, n)
        atoms = rng.normal(size=(n, d))
        atoms[rng.random(size=(n, d)) < 0.3] = -0.0
        atoms[rng.random(size=(n, d)) < 0.2] = 0.0
        m = VectorMeasure(space, random_norm_spec(rng, d), atoms)
        got = _coordinate_densities(m)
        assert got.tobytes() == rn_derivatives(m, np.eye(d)).tobytes()
        assert got.tobytes() == ((np.eye(d) @ m.atoms.T) / space.weights).tobytes()
        assert got.flags.c_contiguous and not np.shares_memory(got, m.atoms)
        f = random_function(rng, space)
        net = list(basis_net(m))
        expected = [weakstar_gap(m, lv, np.eye(d), [f]) for lv in net]
        assert run_net(m, net, f, restarts=1).column("weakstar_gap") == expected


def test_weakstar_gap_stack_matches_per_probe_loop_on_dense_probes():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        d = int(rng.integers(1, 7))
        space = random_space(rng, n)
        X = random_norm_spec(rng, d)
        m, m1 = random_measure(rng, space, X), random_measure(rng, space, X)
        probes = rng.normal(size=(int(rng.integers(1, 6)), d))
        tests = [random_function(rng, space) for _ in range(3)]
        expected = _reference_weakstar_gap(m, m1, probes, tests)
        assert weakstar_gap(m, m1, probes, tests) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "probes",
    [[], np.zeros((0, 4)), np.array([0.0, 1.0, 0.0, 0.0]), [np.array([0.5, -1.0, 2.0, 0.25])]],
    ids=["empty-list", "empty-stack", "single-1d", "single-dense"],
)
def test_weakstar_gap_probe_edge_cases(s1, f1, probes):
    space, m = s1
    net = list(martingale_net(m, dyadic_chain(2, space)))
    gaps = [weakstar_gap(m, lv, probes, [f1]) for lv in net]
    stack = np.asarray(probes, dtype=float).reshape(-1, 4)
    assert gaps == [_reference_weakstar_gap(m, lv, stack, [f1]) for lv in net]
    if len(stack) == 0:
        assert gaps == [0.0, 0.0, 0.0]


def test_run_net_empty_tests_and_weakstar_gap_wrong_probe_length(s1, f1):
    space, m = s1
    net = list(martingale_net(m, dyadic_chain(2, space)))
    assert run_net(m, net, f1, tests=[]).column("weakstar_gap") == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="dimension 4"):
        weakstar_gap(m, net[0], [np.ones(3)], [f1])
    with pytest.raises(ValueError, match="dimension 4"):
        weakstar_gap(m, net[0], np.ones(5), [f1])


def test_rn_operator_functionals_are_bitwise_the_stacked_derivatives():
    rng = np.random.default_rng(13)
    for _ in range(20):
        space = random_space(rng, 4 * int(rng.integers(1, 4)))
        X = random_norm_spec(rng, int(rng.integers(1, 6)))
        m = random_measure(rng, space, X)
        for k in range(1, X.dim + 1):
            xs, vs = coordinate_family(m, k)
            expected = np.stack([rn_derivative(m, x).coeffs for x in xs])
            assert np.array_equal(rn_operator(m, xs, vs).functionals, expected)
        ind = indicator_measure(space)
        for p in dyadic_chain(2, space):
            xs, vs = expectation_family(ind, p)
            expected = np.stack([rn_derivative(ind, x).coeffs for x in xs])
            assert np.array_equal(rn_operator(ind, xs, vs).functionals, expected)


def test_rn_net_levels_are_the_associated_measures_and_record_expectations():
    from vmlab.vector_measure import ATOMS, EXPECTATION, TRUNCATION

    rng = np.random.default_rng(14)
    space = random_space(rng, 8)
    chain = dyadic_chain(3, space)
    for m in (indicator_measure(space), random_measure(rng, space, NormSpec.l1_of_mu(space))):
        for family, levels in (("coordinate", rn_net(m)), ("expectation", rn_net(m, chain))):
            if family == "coordinate":
                expected = [coordinate_family(m, k) for k in range(1, m.X.dim + 1)]
            else:
                expected = [expectation_family(m, p) for p in chain]
            levels = list(levels)
            assert len(levels) == len(expected)
            for k, (level, (xs, vs)) in enumerate(zip(levels, expected)):
                plain = associated_measure(rn_operator(m, xs, vs), space)
                assert level.atoms.tobytes() == plain.atoms.tobytes()
                if family == "expectation" and m.kind == "indicator":
                    assert level.kind == EXPECTATION and level.partition is chain[k]
                elif m.kind == "indicator":
                    assert level.kind == TRUNCATION and level.rank == k + 1 and level.partition is None
                else:
                    assert level.kind == ATOMS and level.partition is None and level.rank is None


def test_net_generators_yield_one_level_at_a_time():
    space = MeasureSpace.uniform(8)
    m = indicator_measure(space)
    chain = dyadic_chain(3, space)
    for net, size in ((basis_net(m), 8), (martingale_net(m, chain), 4), (rn_net(m), 8), (rn_net(m, chain), 4)):
        assert not isinstance(net, (list, tuple))
        assert len(list(net)) == size and list(net) == []  # consumed


def test_a_streamed_basis_net_run_keeps_few_levels_alive():
    # n = 128: the 128 levels of 128 x 128 atoms take 16 MB when all are kept
    import tracemalloc

    space = MeasureSpace.uniform(128)
    m = indicator_measure(space)
    f = SimpleFunction(space, np.random.default_rng(15).normal(size=128))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = run_net(m, basis_net(m), f)
        streamed = tracemalloc.get_traced_memory()[1] - base
        del report
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        kept = list(basis_net(m))
        held = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(kept) == 128 and held >= 16 * 2**20  # the tracer sees the level atoms
    assert streamed < 4 * 2**20, streamed


def _dense_levels(m, net, f, tests):
    """run_net over the same levels rebuilt without their records: every level takes the dense path."""
    plain = [VectorMeasure(level.space, level.X, level.atoms) for level in net]
    return run_net(m, plain, f, tests=tests, restarts=1).levels


def _tied_function(rng, space):
    """Gaussian coefficients with about a fifth zeroed and a fifth tied in absolute value."""
    coeffs = rng.normal(size=space.n)
    coeffs[rng.random(space.n) < 0.2] = 0.0
    ties = rng.random(space.n) < 0.2
    coeffs[ties] = rng.choice([-0.75, 0.75], size=int(ties.sum()))
    return SimpleFunction(space, coeffs)


@pytest.mark.parametrize("n", [1, 2, 16, 100, 256])
@pytest.mark.parametrize("weights", ["uniform", "random"])
def test_truncation_rows_of_the_indicator_match_the_dense_path(n, weights):
    rng = np.random.default_rng(n)
    space = MeasureSpace.uniform(n) if weights == "uniform" else random_space(rng, n)
    m = indicator_measure(space)
    f = _tied_function(rng, space)
    a = np.abs(f.coeffs) * space.weights
    families = {"empty": [], "default": None, "several": [f, _tied_function(rng, space), random_function(rng, space)]}
    # the coordinate net builds its levels by matrix products, O(n^4) in all,
    # and a dense n = 256 reference takes about half a second
    nets = {"basis": basis_net, "coordinate": rn_net}
    if n == 256:
        nets, families = {"basis": basis_net}, {"several": families["several"]}
    for name, tests in families.items():
        rows = {}
        for net_name, make in nets.items():
            closed = rows[net_name] = run_net(m, make(m), f, tests=tests).levels
            dense = _dense_levels(m, make(m), f, tests)
            for got, want in zip(closed, dense, strict=True):
                assert got.weakstar_gap == want.weakstar_gap, (name, net_name, got.index)
                for column in ("norm_gap", "deviation", "pointwise_gap"):
                    error = abs(getattr(got, column) - getattr(want, column))
                    assert error <= 1e-13 * dense[0].norm_gap, (name, net_name, column, got.index)
        assert rows["basis"] == rows.get("coordinate", rows["basis"]), name
        assert rows["basis"][-1] == NetLevelStats(n - 1, 0.0, 0.0, 0.0, 0.0)
        for lv in rows["basis"]:
            assert lv.norm_gap == lv.deviation == lv.pointwise_gap
            assert abs(lv.norm_gap - a[lv.index + 1:].sum()) <= 1e-13 * a.sum()


def test_the_truncation_record_keeps_other_rows_bitwise():
    # an indicator into L2 (d = n) and a random measure into L1(mu) take the
    # dense path on every level, recorded or not
    rng = np.random.default_rng(24)
    space = random_space(rng, 12)
    f = _tied_function(rng, space)
    chain = dyadic_chain(2, space)
    for m in (indicator_measure(space, NormSpec.l2(12, rng.uniform(0.5, 2.0, size=12))),
              random_measure(rng, space, NormSpec.l1_of_mu(space))):
        for net in (list(basis_net(m)), list(rn_net(m)), list(martingale_net(m, chain))):
            tests = _block_tests(space, f, chain[-1])
            got = run_net(m, net, f, tests=tests, restarts=1).levels
            assert got == _dense_levels(m, net, f, tests)


def _spy(monkeypatch, calls, owner, name):
    """Count the calls of owner.name into calls[name]."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _spy_engines(monkeypatch) -> dict:
    """The dict that counts the calls of run_net's per-level engines from now on."""
    import vmlab.approx_nets as approx_nets
    import vmlab.l1m_norm as l1m_norm

    calls = {}
    for name in ("norm_best", "deviation_seminorm", "integrate", "_coordinate_densities", "_max_pairing"):
        _spy(monkeypatch, calls, approx_nets, name)
    _spy(monkeypatch, calls, l1m_norm, "norm_best")  # deviation's own engine walk
    _spy(monkeypatch, calls, l1m_norm, "combine")
    return calls


def test_an_indicator_basis_run_net_calls_no_engine_per_level(monkeypatch):
    space = MeasureSpace.uniform(64)
    m = indicator_measure(space)
    f = _tied_function(np.random.default_rng(25), space)
    calls = _spy_engines(monkeypatch)
    report = run_net(m, basis_net(m), f)
    assert len(report.levels) == 64
    # the target's norm, value and densities, once per net; nothing per level
    assert calls == {"norm_best": 1, "integrate": 1, "_coordinate_densities": 1}


def _pair_weights(rng, n):
    """Weights constant on the atom pairs {0, 1}, {2, 3}, ... and drawn per pair:
    on a dyadic chain the levels of blocks of one or two atoms have one weight
    per block, the coarser levels do not."""
    return MeasureSpace(np.repeat(rng.uniform(0.5, 2.0, size=(n + 1) // 2), 2)[:n])


@pytest.mark.parametrize("n", [1, 2, 16, 64, 256])
@pytest.mark.parametrize("weights", ["uniform", "pairs"])
def test_expectation_rows_of_the_indicator_match_the_dense_path(n, weights):
    from vmlab.l1m_norm import _block_partition

    rng = np.random.default_rng(200 + n)
    space = MeasureSpace.uniform(n) if weights == "uniform" else _pair_weights(rng, n)
    m = indicator_measure(space)
    f = _tied_function(rng, space)
    chain = dyadic_chain(n.bit_length() - 1, space)  # down to the singletons: it reaches m
    families = {"empty": [], "default": None, "blocks": _block_tests(space, f, chain[-1])}
    if n == 256:  # a dense reference over the 257 block tests takes about 2 s
        families = {"default": None}
    for name, tests in families.items():
        rows = {}
        for net_name, make in (("martingale", martingale_net), ("expectation", rn_net)):
            levels = list(make(m, chain))
            closed = rows[net_name] = run_net(m, levels, f, tests=tests, restarts=1).levels
            dense = _dense_levels(m, levels, f, tests)
            scale = max(dense[0].deviation, dense[0].pointwise_gap, dense[0].weakstar_gap)
            for got, want, level in zip(closed, dense, levels, strict=True):
                where = (name, net_name, got.index)
                one_weight = _block_partition(m, level) is level.partition
                assert one_weight == (weights == "uniform" or level.partition.n_blocks * 2 >= n)
                for column in ("norm_gap", "pointwise_gap", "weakstar_gap"):
                    error = abs(getattr(got, column) - getattr(want, column))
                    assert error <= 1e-13 * scale, (where, column)
                assert got.deviation == deviation(m, level, f, restarts=1), where
                if one_weight:
                    assert got.norm_gap == 0.0, where
            assert closed[-1].norm_gap == closed[-1].pointwise_gap == 0.0, (name, net_name)
            assert closed[-1] == NetLevelStats(len(chain) - 1, 0.0, 0.0, 0.0, 0.0), (name, net_name)
        if weights == "uniform":  # every level closed: the two nets read the same partitions
            assert rows["martingale"] == rows["expectation"], name


@pytest.mark.parametrize("weights", ["uniform", "pairs"])
def test_run_net_deviations_are_the_public_deviation_bitwise(weights):
    # blocks of 1, 2 and 4 atoms and one block: with pair weights the first
    # two take the block form, the others the engines (corners up to n = 20)
    rng = np.random.default_rng(27)
    for n in range(1, 21):
        space = MeasureSpace.uniform(n) if weights == "uniform" else _pair_weights(rng, n)
        m = indicator_measure(space)
        f = _tied_function(rng, space)
        sizes = sorted({1, min(2, n), min(4, n), n})
        partitions = [Partition(space, np.arange(n) // s, -(-n // s)) for s in sizes]
        for make in (martingale_net, rn_net):
            levels = list(make(m, partitions))
            report = run_net(m, levels, f, restarts=1)
            for got, level in zip(report.levels, levels, strict=True):
                assert got.deviation == deviation(m, level, f, restarts=1), (n, make.__name__, got.index)


def test_an_indicator_expectation_run_net_calls_no_engine_per_level(monkeypatch):
    space = MeasureSpace.uniform(64)
    m = indicator_measure(space)
    f = _tied_function(np.random.default_rng(26), space)
    chain = dyadic_chain(6, space)
    tests = _block_tests(space, f, chain[-1])
    calls = _spy_engines(monkeypatch)
    for net in (martingale_net(m, chain), rn_net(m, chain)):
        calls.clear()
        report = run_net(m, net, f, tests=tests)
        assert len(report.levels) == 7
        # the target's norm, value and densities, once per net; nothing per level
        assert calls == {"norm_best": 1, "integrate": 1, "_coordinate_densities": 1}


@pytest.mark.parametrize("n", [1, 5, 40, 128])
@pytest.mark.parametrize("weights", ["uniform", "random"])
def test_coordinate_levels_of_the_indicator_are_built_without_rn_operator(n, weights, monkeypatch):
    import vmlab.approx_nets as approx_nets

    rng = np.random.default_rng(300 + n)
    space = MeasureSpace.uniform(n) if weights == "uniform" else random_space(rng, n)
    for m in (indicator_measure(space), indicator_measure(space, NormSpec.l2(n, rng.uniform(0.5, 2.0, size=n)))):
        expected = [associated_measure(rn_operator(m, *coordinate_family(m, k)), space) for k in range(1, n + 1)]
        calls = {}
        _spy(monkeypatch, calls, approx_nets, "rn_operator")
        levels = list(rn_net(m))
        monkeypatch.undo()
        assert calls == {}
        assert len(levels) == n
        for k, (level, plain) in enumerate(zip(levels, expected), start=1):
            assert level.atoms.tobytes() == plain.atoms.tobytes(), k
            assert level.kind == "truncation" and level.rank == k


def test_other_rn_levels_still_go_through_rn_operator(monkeypatch):
    import vmlab.approx_nets as approx_nets

    rng = np.random.default_rng(31)
    space = random_space(rng, 8)
    chain = dyadic_chain(3, space)
    random = random_measure(rng, space, NormSpec.l1_of_mu(space))
    for m, net, size in ((random, rn_net(random), 8), (indicator_measure(space), rn_net(indicator_measure(space), chain), 4)):
        calls = {}
        _spy(monkeypatch, calls, approx_nets, "rn_operator")
        assert len(list(net)) == size
        monkeypatch.undo()
        assert calls == {"rn_operator": size}
