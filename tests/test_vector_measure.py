import numpy as np
import pytest

from helpers import random_function, random_measure, random_norm_spec, random_space
from vmlab import (
    MeasurableSet,
    MeasureSpace,
    NormSpec,
    SimpleFunction,
    VectorMeasure,
    combine,
    dual_norm,
    find_rybakov,
    indicator_measure,
    integrate,
    is_rybakov,
    koethe_dual_norm,
    nonunique_derivative_pair,
    rank_one_measure,
    rn_derivative,
    rn_derivatives,
    scalarize,
    semivariation,
    set_value,
    variation,
)


def test_set_value_examples(s1):
    space, m = s1
    assert np.array_equal(set_value(m, MeasurableSet.empty(space)), np.zeros(4))
    A = MeasurableSet.from_indices(space, [0, 1])
    assert np.array_equal(set_value(m, A), [1.0, 1.0, 0.0, 0.0])
    g = np.array([2.0, -1.0, 0.5, 0.0])
    mr = rank_one_measure(space, g)
    assert set_value(mr, A) == pytest.approx(A.mass() * g, abs=1e-15)


def test_scalarize_examples(s1):
    space, m = s1
    assert np.array_equal(scalarize(m, np.zeros(4)).coeffs, np.zeros(4))
    assert np.array_equal(scalarize(m, [1.0, 2.0, 3.0, 4.0]).coeffs, [1.0, 2.0, 3.0, 4.0])
    g = np.array([1.0, 1.0, -1.0, 0.0])
    mr = rank_one_measure(space, g)
    xs = np.array([0.5, 1.0, 2.0, 0.0])
    assert scalarize(mr, xs).coeffs == pytest.approx(space.weights * (g @ xs), abs=1e-15)


def test_variation_examples():
    space = MeasureSpace.uniform(2)
    m = indicator_measure(space)
    omega = MeasurableSet.full(space)
    assert variation(m, [1.0, -1.0], omega) == 2.0
    assert variation(m, np.zeros(2), omega) == 0.0
    assert variation(m, [1.0, -1.0], MeasurableSet.empty(space)) == 0.0


def test_variation_dominates_set_value():
    rng = np.random.default_rng(0)
    for _ in range(200):
        space = random_space(rng, int(rng.integers(1, 8)))
        X = random_norm_spec(rng, int(rng.integers(1, 5)))
        m = random_measure(rng, space, X)
        xs = rng.normal(size=X.dim)
        A = MeasurableSet(space, rng.random(space.n) < 0.5)
        assert abs(set_value(m, A) @ xs) <= variation(m, xs, A) + 1e-12


def test_additivity_on_disjoint_sets():
    rng = np.random.default_rng(1)
    for _ in range(200):
        space = random_space(rng, 9)
        X = random_norm_spec(rng, 3)
        m = random_measure(rng, space, X)
        labels = rng.integers(0, 3, size=9)
        A = MeasurableSet(space, labels == 0)
        B = MeasurableSet(space, labels == 1)
        union = MeasurableSet(space, (labels == 0) | (labels == 1))
        assert set_value(m, union) == pytest.approx(
            set_value(m, A) + set_value(m, B), abs=1e-12
        )


def test_semivariation_examples(s1, s2):
    space, m = s1
    assert semivariation(m, MeasurableSet.empty(space)) == 0.0
    assert semivariation(m, MeasurableSet.full(space)) == pytest.approx(1.0, abs=1e-15)
    space2, m2 = s2
    assert semivariation(m2, MeasurableSet.full(space2)) == pytest.approx(1.0, abs=1e-15)


def test_semivariation_monotone():
    rng = np.random.default_rng(2)
    for _ in range(100):
        space = random_space(rng, 7)
        X = random_norm_spec(rng, 3)
        m = random_measure(rng, space, X)
        small = rng.random(7) < 0.4
        big = small | (rng.random(7) < 0.4)
        sv_small = semivariation(m, MeasurableSet(space, small))
        sv_big = semivariation(m, MeasurableSet(space, big))
        assert sv_small <= sv_big + 1e-12


def test_rn_derivative_examples(s1):
    space, m = s1
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(rn_derivative(m, np.zeros(4)).coeffs, np.zeros(4))
    assert np.array_equal(rn_derivative(m, e0).coeffs, [4.0, 0.0, 0.0, 0.0])
    g = np.array([1.0, -2.0, 0.0, 1.0])
    mr = rank_one_measure(space, g)
    xs = np.array([0.3, 0.7, -1.0, 2.0])
    assert rn_derivative(mr, xs).coeffs == pytest.approx(
        np.full(4, g @ xs), abs=1e-12
    )


def test_rn_derivative_linear_in_functional():
    rng = np.random.default_rng(3)
    space = random_space(rng, 6)
    X = random_norm_spec(rng, 4)
    m = random_measure(rng, space, X)
    x1 = rng.normal(size=4)
    x2 = rng.normal(size=4)
    c = float(rng.normal())
    lhs = rn_derivative(m, x1 + c * x2).coeffs
    rhs = rn_derivative(m, x1).coeffs + c * rn_derivative(m, x2).coeffs
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_rn_derivatives_match_stacked_rn_derivative():
    rng = np.random.default_rng(21)
    for _ in range(50):
        space = random_space(rng, int(rng.integers(1, 12)))
        X = random_norm_spec(rng, int(rng.integers(1, 7)))
        m = random_measure(rng, space, X)
        coordinates = np.eye(X.dim)
        stacked = np.stack([rn_derivative(m, x).coeffs for x in coordinates])
        assert np.array_equal(rn_derivatives(m, coordinates), stacked)
        dense = rng.normal(size=(int(rng.integers(1, 6)), X.dim))
        stacked = np.stack([rn_derivative(m, x).coeffs for x in dense])
        batched = rn_derivatives(m, dense)
        assert batched.flags.c_contiguous
        np.testing.assert_allclose(batched, stacked, rtol=1e-12, atol=1e-12 * np.max(np.abs(stacked)))


def test_rn_derivatives_shapes(s1):
    space, m = s1
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(rn_derivatives(m, e0), [[4.0, 0.0, 0.0, 0.0]])
    assert rn_derivatives(m, []).shape == (0, 4)
    assert rn_derivatives(m, np.zeros((0, 4))).shape == (0, 4)
    with pytest.raises(ValueError, match="dimension 4"):
        rn_derivatives(m, np.ones(3))
    with pytest.raises(ValueError, match="dimension 4"):
        rn_derivatives(m, np.ones((2, 5)))


def test_pairing_identity():
    # <I_m(f), x*> equals the weighted pairing of f with the derivative density
    rng = np.random.default_rng(4)
    for _ in range(200):
        space = random_space(rng, int(rng.integers(1, 9)))
        X = random_norm_spec(rng, int(rng.integers(1, 5)))
        m = random_measure(rng, space, X)
        f = random_function(rng, space)
        xs = rng.normal(size=X.dim)
        lhs = integrate(m, f) @ xs
        rhs = np.sum(f.coeffs * rn_derivative(m, xs).coeffs * space.weights)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_derivative_density_bound():
    # the dual function norm of the derivative density never exceeds ||x*||
    rng = np.random.default_rng(5)
    for _ in range(100):
        space = random_space(rng, int(rng.integers(1, 7)))
        kind = ("L1", "LINF")[int(rng.integers(2))]
        X = random_norm_spec(rng, int(rng.integers(1, 5)), kind)
        m = random_measure(rng, space, X)
        xs = rng.normal(size=X.dim)
        assert koethe_dual_norm(m, rn_derivative(m, xs)) <= dual_norm(X, xs) + 1e-9


def test_is_rybakov_examples(s1):
    space, m = s1
    assert is_rybakov(m, np.ones(4))
    assert not is_rybakov(m, [1.0, 0.0, 0.0, 0.0])
    zero = VectorMeasure(space, m.X, np.zeros((4, 4)))
    assert is_rybakov(zero, [1.0, 0.0, 0.0, 0.0])


def test_find_rybakov(s1):
    space, m = s1
    xs = find_rybakov(m)
    assert is_rybakov(m, xs)
    # a measure for which the all-ones functional fails but a random draw works
    atoms = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    tricky = VectorMeasure(MeasureSpace.uniform(3), NormSpec.l2(2), atoms)
    assert not is_rybakov(tricky, np.ones(2))
    assert is_rybakov(tricky, find_rybakov(tricky))


def test_combine_examples(s1):
    space, m = s1
    same = combine(m, 0.0, m)
    assert np.array_equal(same.atoms, m.atoms)
    zero = combine(m, -1.0, m)
    assert np.array_equal(zero.atoms, np.zeros((4, 4)))
    other = indicator_measure(MeasureSpace.uniform(3))
    with pytest.raises(ValueError):
        combine(m, 1.0, other)


def test_combine_against_one_block_martingale(s1):
    from vmlab import Partition, martingale_measure

    space, m = s1
    m_eta = martingale_measure(m, Partition.one_block(space))
    diff = combine(m, -1.0, m_eta)
    g = m.atoms.sum(axis=0) / space.total
    expected = m.atoms - space.weights[:, None] * g[None, :]
    assert diff.atoms == pytest.approx(expected, abs=1e-15)


def test_nonunique_derivative_pair():
    space = MeasureSpace.uniform(2)
    X = NormSpec.l2(3)
    flat = VectorMeasure(space, X, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    pair = nonunique_derivative_pair(flat)
    assert pair is not None
    a, b = pair
    assert not np.allclose(a, b)
    assert rn_derivative(flat, a).coeffs == pytest.approx(
        rn_derivative(flat, b).coeffs, abs=1e-12
    )
    full = indicator_measure(space)
    assert nonunique_derivative_pair(full) is None


def test_constructors_record_the_measure_kind():
    from vmlab import Partition, basis_truncated_measure, martingale_measure, rank_one_measure
    from vmlab.vector_measure import ATOMS, EXPECTATION, INDICATOR, MARTINGALE_DIFFERENCE, RANK_ONE, TRUNCATION

    space = MeasureSpace.uniform(4)
    p = Partition(space, np.array([0, 0, 1, 1]), 2)
    m = indicator_measure(space)
    assert m.kind == INDICATOR and m.partition is None and m.density is None
    assert indicator_measure(space, NormSpec.l2(4)).kind == INDICATOR
    averaged = martingale_measure(m, p)
    assert averaged.kind == EXPECTATION and averaged.partition is p
    r1 = rank_one_measure(space, np.ones(4))
    assert r1.kind == RANK_ONE and r1.partition is None
    truncated = basis_truncated_measure(m, 2)
    assert truncated.kind == TRUNCATION and truncated.rank == 2 and truncated.partition is None
    for other in (r1, truncated, averaged):
        assert martingale_measure(other, p).kind == ATOMS  # only the indicator's average is recorded
    difference = combine(m, -1.0, averaged)
    assert difference.kind == MARTINGALE_DIFFERENCE and difference.partition is p
    with pytest.raises(ValueError, match="unknown measure kind"):
        VectorMeasure(space, m.X, m.atoms, kind="bogus")
    for kind, partition in ((EXPECTATION, None), (MARTINGALE_DIFFERENCE, None), (INDICATOR, p)):
        with pytest.raises(ValueError, match="partition goes with"):
            VectorMeasure(space, m.X, m.atoms, kind=kind, partition=partition)
    elsewhere = Partition.one_block(MeasureSpace.uniform(4, total=2.0))
    with pytest.raises(ValueError, match="different space"):
        VectorMeasure(space, m.X, m.atoms, kind=EXPECTATION, partition=elsewhere)


def test_combine_records_the_martingale_difference_only_for_indicator_minus_expectation():
    from vmlab import Partition, basis_truncated_measure, martingale_measure
    from vmlab.vector_measure import ATOMS, MARTINGALE_DIFFERENCE

    rng = np.random.default_rng(21)
    space = random_space(rng, 8)
    p = Partition(space, np.arange(8) // 4, 2)
    for X in (NormSpec.l1_of_mu(space), NormSpec.l2(8)):
        m = indicator_measure(space, X)
        averaged = martingale_measure(m, p)
        difference = combine(m, -1.0, averaged)
        assert difference.kind == MARTINGALE_DIFFERENCE and difference.partition is p
        assert difference.atoms.tobytes() == (m.atoms - averaged.atoms).tobytes()
        g = rng.normal(size=8)
        others = [
            (m, lam, averaged) for lam in (1.0, -0.5, -2.0, 0.0)
        ] + [
            (averaged, -1.0, m),
            (m, -1.0, m),
            (averaged, -1.0, averaged),
            (rank_one_measure(space, g, X), -1.0, averaged),
            (basis_truncated_measure(m, 8), -1.0, averaged),
            (m, -1.0, martingale_measure(rank_one_measure(space, g, X), p)),
            (m, -1.0, difference),
        ]
        for a, lam, b in others:
            combined = combine(a, lam, b)
            assert combined.kind == ATOMS and combined.partition is None, (a.kind, lam, b.kind)
            assert combined.atoms.tobytes() == (a.atoms + lam * b.atoms).tobytes()


def test_rank_one_measure_records_its_density():
    from vmlab.vector_measure import RANK_ONE

    rng = np.random.default_rng(22)
    space = random_space(rng, 5)
    g = rng.normal(size=3)
    X = random_norm_spec(rng, 3)
    m = rank_one_measure(space, g, X)
    assert m.kind == RANK_ONE and m.X is X and m.partition is None
    assert m.density.tobytes() == g.tobytes() and m.density.shape == (3,)
    assert not m.density.flags.writeable and not np.shares_memory(m.density, g)
    assert m.atoms.tobytes() == (space.weights[:, None] * g[None, :]).tobytes()
    g[0] += 1.0  # the record is a copy
    assert m.density[0] != g[0]
    default = rank_one_measure(space, rng.normal(size=5))
    assert default.X.kind == NormSpec.l1_of_mu(space).kind and default.X.dim == 5
    with pytest.raises(ValueError, match="atom matrix must be 5 x 4"):
        rank_one_measure(space, g, NormSpec.l2(4))


def test_a_density_goes_with_the_rank_one_kind_only():
    from vmlab import Partition
    from vmlab.vector_measure import ATOMS, EXPECTATION, INDICATOR, MARTINGALE_DIFFERENCE, RANK_ONE

    space = MeasureSpace.uniform(4)
    m = indicator_measure(space)
    p = Partition.one_block(space)
    g = np.ones(4)
    for kind, partition in ((ATOMS, None), (INDICATOR, None), (EXPECTATION, p), (MARTINGALE_DIFFERENCE, p)):
        with pytest.raises(ValueError, match="density goes with"):
            VectorMeasure(space, m.X, m.atoms, kind=kind, partition=partition, density=g)
    with pytest.raises(ValueError, match="density goes with"):
        VectorMeasure(space, m.X, m.atoms, kind=RANK_ONE)
    with pytest.raises(ValueError, match="partition goes with"):
        VectorMeasure(space, m.X, m.atoms, kind=RANK_ONE, partition=p, density=g)
    with pytest.raises(ValueError, match="density must have shape"):
        VectorMeasure(space, m.X, m.atoms, kind=RANK_ONE, density=np.ones(3))


def test_a_rank_goes_with_the_truncation_kind_only():
    from vmlab import Partition, basis_truncated_measure
    from vmlab.vector_measure import ATOMS, EXPECTATION, INDICATOR, RANK_ONE, TRUNCATION

    space = MeasureSpace.uniform(4)
    m = indicator_measure(space)
    p = Partition.one_block(space)
    for rank in (1, 3, 4):
        assert VectorMeasure(space, m.X, m.atoms, kind=TRUNCATION, rank=rank).rank == rank
    with pytest.raises(ValueError, match="rank goes with"):
        VectorMeasure(space, m.X, m.atoms, kind=TRUNCATION)
    for kind, record in ((ATOMS, {}), (INDICATOR, {}), (EXPECTATION, {"partition": p}), (RANK_ONE, {"density": np.ones(4)})):
        with pytest.raises(ValueError, match="rank goes with"):
            VectorMeasure(space, m.X, m.atoms, kind=kind, rank=2, **record)
    for rank in (0, 5, -1, True, False, 2.0, np.int64(2), "2"):
        with pytest.raises(ValueError, match=r"rank must be an int in 1\.\.4"):
            VectorMeasure(space, m.X, m.atoms, kind=TRUNCATION, rank=rank)
    # the indicator's truncations are recorded into any value space; others stay atoms
    rng = np.random.default_rng(23)
    for X in (NormSpec.l1_of_mu(space), NormSpec.l2(4)):
        truncated = basis_truncated_measure(indicator_measure(space, X), 3)
        assert truncated.kind == TRUNCATION and truncated.rank == 3 and truncated.X is X
        assert truncated.atoms.tobytes() == (np.eye(4) * (np.arange(4) < 3)).tobytes()
        plain = basis_truncated_measure(random_measure(rng, space, X), 3)
        assert plain.kind == ATOMS and plain.rank is None
    assert basis_truncated_measure(truncated, 2).kind == ATOMS
    with pytest.raises(ValueError, match="out of range"):
        basis_truncated_measure(m, 0)
