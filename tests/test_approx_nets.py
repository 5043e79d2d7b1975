import numpy as np
import pytest

from helpers import (
    KINDS,
    blocks,
    from_indices,
    indicator,
    l1_mu_norm,
    random_function,
    random_measure,
    random_norm_spec,
    random_space,
    refine,
    rn_derivative,
    spy_record_builds,
)
from vmlab import (
    L2,
    MeasureSpace,
    NetLevelStats,
    NormSpec,
    Partition,
    SimpleFunction,
    VectorMeasure,
    associated_measure,
    basis_net,
    basis_truncated_measure,
    combine_operators,
    coordinate_family,
    deviation,
    dyadic_chain,
    expectation_family,
    indicator_measure,
    integrate,
    integration_operator,
    martingale_measure,
    martingale_net,
    norm,
    norm_exact,
    opnorm_from_l1,
    rank_one_measure,
    rn_derivatives,
    rn_net,
    rn_operator,
    run_net,
    weakstar_gap,
)


def _conditional_expectation(space, p):
    """E_p, the rn operator of the indicator measure's expectation family."""
    m = indicator_measure(space)
    return rn_operator(m, *expectation_family(m, p))


def test_conditional_expectation_examples():
    space = MeasureSpace.uniform(4)
    singles = _conditional_expectation(space, Partition(space, np.arange(space.n)))
    assert singles.entries == pytest.approx(np.eye(4), abs=1e-15)
    one = _conditional_expectation(space, Partition(space, np.zeros(space.n, dtype=int)))
    f = SimpleFunction(space, [2.0, 0.0, 4.0, -2.0])
    assert one.entries @ f.coeffs == pytest.approx(np.full(4, 1.0), abs=1e-15)
    p = Partition(space, [0, 0, 1, 1])
    ep = _conditional_expectation(space, p)
    assert ep.entries @ [1.0, 0.0, 0.0, 0.0] == pytest.approx(
        [0.5, 0.5, 0.0, 0.0], abs=1e-15
    )


def test_conditional_expectation_is_contraction():
    rng = np.random.default_rng(0)
    for _ in range(100):
        space = random_space(rng, 8)
        labels = rng.integers(0, 3, 8)
        labels[:3] = [0, 1, 2]
        p = Partition(space, labels)
        ep = _conditional_expectation(space, p)
        f = random_function(rng, space)
        ef = SimpleFunction(space, ep.entries @ f.coeffs)
        assert l1_mu_norm(ef) <= l1_mu_norm(f) + 1e-12


def test_tower_property():
    rng = np.random.default_rng(1)
    space = MeasureSpace(rng.uniform(0.2, 1.0, 8))
    chain = dyadic_chain(3, space)
    for coarse, fine in zip(chain, chain[1:]):
        assert refine(coarse, fine)
        ec = _conditional_expectation(space, coarse).entries
        ef = _conditional_expectation(space, fine).entries
        assert ec @ ef == pytest.approx(ec, abs=1e-12)


def test_martingale_measure_examples(s1):
    space, m = s1
    singles = martingale_measure(m, Partition(space, np.arange(space.n)))
    assert np.array_equal(singles.atoms, m.atoms)
    p = Partition(space, [0, 0, 1, 1])
    m_eta = martingale_measure(m, p)
    assert m_eta.atoms[0] == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-15)
    one = martingale_measure(m, Partition(space, np.zeros(space.n, dtype=int)))
    g = m.atoms.sum(axis=0) / np.sum(space.weights)
    assert one.atoms == pytest.approx(space.weights[:, None] * g, abs=1e-15)


def test_integrate_martingale_examples(s1):
    space, m = s1
    p = Partition(space, [0, 0, 1, 1])
    chi_block = SimpleFunction(space, [1.0, 1.0, 0.0, 0.0])
    assert integrate(martingale_measure(m, p), chi_block) == pytest.approx(
        [1.0, 1.0, 0.0, 0.0], abs=1e-15
    )
    f = SimpleFunction(space, [1.0, 0.0, 0.0, 0.0])
    value = integrate(martingale_measure(m, p), f)
    assert value == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-15)
    assert norm(m.X, integrate(m, f) - value) == pytest.approx(0.25, abs=1e-15)
    singles = Partition(space, np.arange(space.n))
    assert np.array_equal(integrate(martingale_measure(m, singles), f), integrate(m, f))


def test_martingale_factorization():
    # sum over blocks of (integral of f over B / mu(B)) m(B) = I_m(E_p f)
    # = I_{martingale measure}(f), all within 1e-12
    rng = np.random.default_rng(2)
    for _ in range(100):
        space = random_space(rng, 9)
        X = random_norm_spec(rng, 3)
        m = random_measure(rng, space, X)
        labels = rng.integers(0, 3, 9)
        labels[:3] = [0, 1, 2]
        p = Partition(space, labels)
        f = random_function(rng, space)
        direct = sum(
            (f.coeffs[B] @ space.weights[B]) / space.weights[B].sum() * m.atoms[B].sum(axis=0)
            for B in blocks(p)
        )
        ef = SimpleFunction(space, _conditional_expectation(space, p).entries @ f.coeffs)
        assert direct == pytest.approx(integrate(m, ef), abs=1e-12)
        assert direct == pytest.approx(integrate(martingale_measure(m, p), f), abs=1e-12)


def test_basis_truncation_examples(s2):
    space2, m2 = s2
    assert np.array_equal(basis_truncated_measure(m2, 2).atoms, m2.atoms)
    space = MeasureSpace.uniform(2)
    m = VectorMeasure(space, NormSpec("L2", 3, 1.0), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
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
        assert R.entries == pytest.approx(mk.atoms.T, abs=1e-12)
        assert associated_measure(R).atoms == pytest.approx(mk.atoms, abs=1e-12)


def test_rn_operator_empty_and_single_pair():
    rng = np.random.default_rng(4)
    space = random_space(rng, 4)
    X = random_norm_spec(rng, 3)
    m = random_measure(rng, space, X)
    zero = rn_operator(m, [], [])
    f = random_function(rng, space)
    assert np.array_equal(zero.entries @ f.coeffs, np.zeros(3))
    assert np.array_equal(associated_measure(zero).atoms, np.zeros((4, 3)))
    xs = rng.normal(size=3)
    x = rng.normal(size=3)
    single = rn_operator(m, [xs], [x])
    assert single.entries @ f.coeffs == pytest.approx((integrate(m, f) @ xs) * x, abs=1e-12)


def test_expectation_family_reproduces_conditional_expectation(s1):
    space, m = s1
    p = Partition(space, [0, 0, 1, 1])
    xs, vs = expectation_family(m, p)
    R = rn_operator(m, xs, vs)
    # E_p has entry (i, j) = mu_j / mu(B) when atoms i and j share the block B
    same_block = p.block_of[:, None] == p.block_of[None, :]
    ep = same_block * space.weights / p.block_masses()[p.block_of][:, None]
    assert R.entries == pytest.approx(ep, abs=1e-12)
    assert associated_measure(R).atoms == pytest.approx(
        martingale_measure(m, p).atoms, abs=1e-12
    )


def test_rn_operator_refuses_mismatched_vectors():
    space = MeasureSpace.uniform(4)
    m = random_measure(np.random.default_rng(40), space, NormSpec("L2", 3, 1.0))
    xs = [np.ones(3), np.ones(3)]
    with pytest.raises(ValueError, match="one value vector per dual vector"):
        rn_operator(m, xs, [np.ones(3)])
    with pytest.raises(ValueError, match="one value vector per dual vector"):
        rn_operator(m, xs, [np.ones(2)] * 3)  # six numbers, as many as two vectors of length 3
    with pytest.raises(ValueError, match="dimension 3"):
        rn_operator(m, xs, [np.ones(2), np.ones(2)])
    zero = rn_operator(m, [], [])
    assert np.array_equal(zero.entries, np.zeros((3, 4)))


def test_distance_of_the_indicator_to_its_expectation_operator_is_the_block_closed_form():
    # ||I_m - R_p|| = ||Id - E_p|| = max_j 2 (1 - mu_j / mu(B_j)) from L1(mu) to L1(mu)
    rng = np.random.default_rng(41)
    singletons = mixed = 0
    for i in range(300):
        n = int(rng.integers(1, 13))
        space = MeasureSpace.uniform(n) if i % 5 == 0 else random_space(rng, n)
        n_blocks = int(rng.integers(1, n + 1))
        labels = rng.permutation(np.concatenate([np.arange(n_blocks), rng.integers(0, n_blocks, n - n_blocks)]))
        p = Partition(space, labels)
        m = indicator_measure(space)
        R = rn_operator(m, *expectation_family(m, p))
        distance = opnorm_from_l1(combine_operators(integration_operator(m), -1.0, R)).value
        closed = float(np.max(2.0 * (1.0 - space.weights / p.block_masses()[p.block_of])))
        assert distance == pytest.approx(closed, rel=1e-12, abs=1e-15), (i, n, n_blocks)
        singletons += np.any(np.bincount(p.block_of) == 1)
        mixed += any(np.ptp(space.weights[B]) > 0 for B in blocks(p))
    assert singletons > 50 and mixed > 50


def test_associated_measure_inverts_integration_operator_bitwise():
    rng = np.random.default_rng(42)
    for i in range(200):
        space = random_space(rng, int(rng.integers(1, 10)))
        X = random_norm_spec(rng, int(rng.integers(1, 6)), kind=KINDS[i % 3])
        m = random_measure(rng, space, X)
        assert associated_measure(integration_operator(m)).atoms.tobytes() == m.atoms.tobytes()
        k = int(rng.integers(0, X.dim + 1))
        R = rn_operator(m, rng.normal(size=(k, X.dim)), rng.normal(size=(k, X.dim)))
        assert integration_operator(associated_measure(R)).entries.tobytes() == R.entries.tobytes()


def test_rn_levels_are_bitwise_the_density_product():
    # every level's atoms are (phi * mu).T @ vectors, phi the stacked densities,
    # for the empty and one-term families as for the coordinate and expectation ones
    rng = np.random.default_rng(43)
    for i in range(60):
        space = random_space(rng, 4 * int(rng.integers(1, 4)))
        X = NormSpec.l1_of_mu(space) if i % 4 == 3 else random_norm_spec(rng, int(rng.integers(1, 6)), KINDS[i % 3])
        m = random_measure(rng, space, X)
        d = X.dim
        families = [([], []), ([rng.normal(size=d)], [rng.normal(size=d)])]
        families += [coordinate_family(m, k) for k in range(1, d + 1)]
        levels = [associated_measure(rn_operator(m, *family)) for family in families[:2]] + list(rn_net(m))
        if d == space.n:
            chain = dyadic_chain(2, space)
            families += [expectation_family(m, p) for p in chain]
            levels += list(rn_net(m, chain))
        for level, (xs, vs) in zip(levels, families, strict=True):
            phi = rn_derivatives(m, xs)
            vectors = np.array(vs, dtype=float).reshape(len(xs), d)
            assert level.atoms.tobytes() == ((phi * space.weights[None, :]).T @ vectors).tobytes()


def test_weakstar_gap_examples(s1):
    space, m = s1
    f = SimpleFunction(space, [1.0, 0.0, 0.0, 0.0])
    assert weakstar_gap(m, m, np.ones(4), [f]) == 0.0
    one_block = martingale_measure(m, Partition(space, np.zeros(space.n, dtype=int)))
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
    assert [lv.pointwise_gap for lv in report.levels] == pytest.approx([0.375, 0.25, 0.0], abs=1e-15)
    assert [lv.norm_gap for lv in report.levels] == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)
    assert report.levels[-1].deviation == 0.0


def test_run_net_basis_on_s2(s2):
    space2, m2 = s2
    f = SimpleFunction(space2, [3.0, -4.0])
    report = run_net(m2, basis_net(m2), f)
    assert [lv.norm_gap for lv in report.levels] == pytest.approx([1.0, 0.0], abs=1e-15)


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
    singles = Partition(space, np.arange(space.n))
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
    sets = [from_indices(space, ids) for ids in blocks(p)]
    return [f] + [indicator(A) for A in sets]


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
            assert [lv.weakstar_gap for lv in report.levels] == expected, (kind, n, name)
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
        assert [lv.weakstar_gap for lv in run_net(m, net, f, restarts=1).levels] == expected


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
    assert [lv.weakstar_gap for lv in run_net(m, net, f1, tests=[]).levels] == [0.0, 0.0, 0.0]
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
            assert np.array_equal(rn_derivatives(m, xs), expected)
        ind = indicator_measure(space)
        for p in dyadic_chain(2, space):
            xs, vs = expectation_family(ind, p)
            expected = np.stack([rn_derivative(ind, x).coeffs for x in xs])
            assert np.array_equal(rn_derivatives(ind, xs), expected)


def test_rn_net_levels_are_the_associated_measures_and_record_expectations():
    # the indicator's rn levels are its basis and martingale levels, records
    # and atoms bit for bit; other measures' are the associated measures
    from vmlab.vector_measure import Expectation, Truncation

    rng = np.random.default_rng(14)
    space = random_space(rng, 8)
    chain = dyadic_chain(3, space)
    for m in (indicator_measure(space), random_measure(rng, space, NormSpec.l1_of_mu(space))):
        for family, levels in (("coordinate", rn_net(m)), ("expectation", rn_net(m, chain))):
            if family == "coordinate":
                expected = [coordinate_family(m, k) for k in range(1, m.X.dim + 1)]
                twins, records = basis_net(m), [Truncation(k) for k in range(1, m.X.dim + 1)]
            else:
                expected = [expectation_family(m, p) for p in chain]
                twins, records = martingale_net(m, chain), [Expectation(p) for p in chain]
            for level, (xs, vs), twin, record in zip(levels, expected, twins, records, strict=True):
                plain = associated_measure(rn_operator(m, xs, vs))
                if m.record is None:
                    assert level.record is None
                    assert level.atoms.tobytes() == plain.atoms.tobytes()
                    continue
                assert level.record == twin.record == record
                assert level.atoms.tobytes() == twin.atoms.tobytes()
                assert np.all(np.abs(level.atoms - plain.atoms) <= 1e-15 * np.abs(plain.atoms)), record


def test_net_generators_yield_one_level_at_a_time():
    space = MeasureSpace.uniform(8)
    m = indicator_measure(space)
    chain = dyadic_chain(3, space)
    for net, size in ((basis_net(m), 8), (martingale_net(m, chain), 4), (rn_net(m), 8), (rn_net(m, chain), 4)):
        assert not isinstance(net, (list, tuple))
        assert len(list(net)) == size and list(net) == []  # consumed


def test_a_streamed_basis_net_run_keeps_few_levels_alive():
    # each time the net yields, count the earlier levels still alive
    import weakref

    space = MeasureSpace.uniform(128)
    m = indicator_measure(space)
    f = SimpleFunction(space, np.random.default_rng(15).normal(size=128))

    def watched(alive):
        refs = []
        for level in basis_net(m):
            alive.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(level))
            yield level

    streamed, kept = [], []
    report = run_net(m, watched(streamed), f)
    levels = list(watched(kept))  # a reader that keeps every level
    assert len(report.levels) == len(levels) == 128
    assert kept == list(range(128))  # the probe sees levels that are kept
    assert max(streamed) <= 1, streamed  # only the level run_net is on


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
    for m in (indicator_measure(space, NormSpec("L2", 12, rng.uniform(0.5, 2.0, size=12))),
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
    # every level is closed, so not even the target's norm, value or densities are read
    assert calls == {}


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
                one_weight = _block_partition(m, level) is level.record.p
                assert one_weight == (weights == "uniform" or level.record.p.n_blocks * 2 >= n)
                for column in ("norm_gap", "pointwise_gap", "weakstar_gap"):
                    error = abs(getattr(got, column) - getattr(want, column))
                    assert error <= 1e-13 * scale, (where, column)
                assert got.deviation == deviation(m, level, f, restarts=1), where
                if one_weight:
                    assert got.norm_gap == 0.0, where
            assert closed[-1].norm_gap == closed[-1].pointwise_gap == 0.0, (name, net_name)
            assert closed[-1] == NetLevelStats(len(chain) - 1, 0.0, 0.0, 0.0, 0.0), (name, net_name)
        # the indicator's expectation net is its martingale net, level for level
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
        partitions = [Partition(space, np.arange(n) // s) for s in sizes]
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
        # every level is closed, so not even the target's norm, value or densities are read
        assert calls == {}


@pytest.mark.parametrize("n", [1, 5, 40, 128])
@pytest.mark.parametrize("weights", ["uniform", "random"])
def test_coordinate_levels_of_the_indicator_are_built_without_rn_operator(n, weights, monkeypatch):
    import vmlab.approx_nets as approx_nets
    from vmlab.vector_measure import Truncation

    rng = np.random.default_rng(300 + n)
    space = MeasureSpace.uniform(n) if weights == "uniform" else random_space(rng, n)
    for m in (indicator_measure(space), indicator_measure(space, NormSpec("L2", n, rng.uniform(0.5, 2.0, size=n)))):
        expected = [associated_measure(rn_operator(m, *coordinate_family(m, k))) for k in range(1, n + 1)]
        calls = {}
        _spy(monkeypatch, calls, approx_nets, "rn_operator")
        _spy(monkeypatch, calls, approx_nets, "associated_measure")
        levels = list(rn_net(m))
        monkeypatch.undo()
        assert calls == {}
        for k, (level, twin, plain) in enumerate(zip(levels, basis_net(m), expected, strict=True), start=1):
            assert level.record == twin.record == Truncation(k)
            assert level.atoms.tobytes() == twin.atoms.tobytes(), k
            assert np.all(np.abs(level.atoms - plain.atoms) <= 1e-15 * np.abs(plain.atoms)), k


def test_other_rn_levels_still_go_through_rn_operator(monkeypatch):
    import vmlab.approx_nets as approx_nets

    rng = np.random.default_rng(31)
    space = random_space(rng, 8)
    chain = dyadic_chain(3, space)
    random = random_measure(rng, space, NormSpec.l1_of_mu(space))
    indicator = indicator_measure(space)
    for m, partitions, products in ((random, None, 8), (random, chain, 4), (indicator, None, 0), (indicator, chain, 0)):
        calls = {}
        _spy(monkeypatch, calls, approx_nets, "rn_operator")
        levels = list(rn_net(m, partitions))
        monkeypatch.undo()
        assert len(levels) == (8 if partitions is None else 4)
        assert calls.get("rn_operator", 0) == products, (m.record, partitions is None)


def test_indicator_net_levels_into_l1_of_mu_build_no_atoms(monkeypatch):
    # the closed rows read only each level's record, and with no dense level
    # run_net never reads the target's norm, value or densities either
    rng = np.random.default_rng(32)
    space = MeasureSpace.uniform(64)
    chain = dyadic_chain(6, space)
    f = _tied_function(rng, space)
    builds = spy_record_builds(monkeypatch)
    m = indicator_measure(space)
    for net in (basis_net(m), rn_net(m), martingale_net(m, chain), rn_net(m, chain)):
        run_net(m, net, f, tests=_block_tests(space, f, chain[-1]))
    assert builds == []
