import numpy as np
import pytest

from helpers import (
    dual_norm,
    from_indices,
    indicator,
    koethe_dual_norm,
    random_function,
    random_measure,
    random_norm_spec,
    random_space,
    rn_derivative,
    scalarize,
    spy_record_builds,
)
from vmlab import (
    MeasurableSet,
    MeasureSpace,
    NormSpec,
    VectorMeasure,
    combine,
    indicator_measure,
    integrate,
    norm_exact,
    rank_one_measure,
    rn_derivatives,
)


def _set_value(m, A):
    """m(A), the integral of the indicator of A."""
    return integrate(m, indicator(A))


def _variation(m, xstar, A):
    """Total variation on A of the scalar measure <m, x*>: the sum over A of |<m_i, x*>|."""
    return float(np.sum(np.abs(scalarize(m, xstar).coeffs)[A.members]))


def _semivariation(m, A):
    """Sup of the scalarized variations on A over the dual ball: the norm of chi_A."""
    return norm_exact(m, indicator(A)).value


def test_set_value_examples(s1):
    space, m = s1
    assert np.array_equal(_set_value(m, MeasurableSet(space, np.zeros(4, dtype=bool))), np.zeros(4))
    A = from_indices(space, [0, 1])
    assert np.array_equal(_set_value(m, A), [1.0, 1.0, 0.0, 0.0])
    g = np.array([2.0, -1.0, 0.5, 0.0])
    mr = rank_one_measure(space, g)
    assert _set_value(mr, A) == pytest.approx(np.sum(space.weights[A.members]) * g, abs=1e-15)


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
    assert _variation(m, [1.0, -1.0], omega) == 2.0
    assert _variation(m, np.zeros(2), omega) == 0.0
    assert _variation(m, [1.0, -1.0], MeasurableSet(space, np.zeros(2, dtype=bool))) == 0.0


def test_variation_dominates_set_value():
    rng = np.random.default_rng(0)
    for _ in range(200):
        space = random_space(rng, int(rng.integers(1, 8)))
        X = random_norm_spec(rng, int(rng.integers(1, 5)))
        m = random_measure(rng, space, X)
        xs = rng.normal(size=X.dim)
        A = MeasurableSet(space, rng.random(space.n) < 0.5)
        assert abs(_set_value(m, A) @ xs) <= _variation(m, xs, A) + 1e-12


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
        assert _set_value(m, union) == pytest.approx(
            _set_value(m, A) + _set_value(m, B), abs=1e-12
        )


def test_semivariation_examples(s1, s2):
    space, m = s1
    assert _semivariation(m, MeasurableSet(space, np.zeros(4, dtype=bool))) == 0.0
    assert _semivariation(m, MeasurableSet.full(space)) == pytest.approx(1.0, abs=1e-15)
    space2, m2 = s2
    assert _semivariation(m2, MeasurableSet.full(space2)) == pytest.approx(1.0, abs=1e-15)


def test_semivariation_monotone():
    rng = np.random.default_rng(2)
    for _ in range(100):
        space = random_space(rng, 7)
        X = random_norm_spec(rng, 3)
        m = random_measure(rng, space, X)
        small = rng.random(7) < 0.4
        big = small | (rng.random(7) < 0.4)
        sv_small = _semivariation(m, MeasurableSet(space, small))
        sv_big = _semivariation(m, MeasurableSet(space, big))
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
    m_eta = martingale_measure(m, Partition(space, np.zeros(space.n, dtype=int)))
    diff = combine(m, -1.0, m_eta)
    g = m.atoms.sum(axis=0) / np.sum(space.weights)
    expected = m.atoms - space.weights[:, None] * g[None, :]
    assert diff.atoms == pytest.approx(expected, abs=1e-15)


def test_nonunique_derivative_pair():
    # x* |-> density is linear with kernel the complement of the atom span: atoms
    # that do not span the value space give two functionals with one density
    space = MeasureSpace.uniform(2)
    X = NormSpec("L2", 3, 1.0)
    flat = VectorMeasure(space, X, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    z = np.linalg.svd(flat.atoms)[2][-1]  # a unit kernel vector of the atoms
    a, b = np.ones(3), np.ones(3) + z
    assert np.allclose(flat.atoms @ z, 0.0) and not np.allclose(a, b)
    assert rn_derivative(flat, a).coeffs == pytest.approx(
        rn_derivative(flat, b).coeffs, abs=1e-12
    )
    full = indicator_measure(space)
    assert np.linalg.matrix_rank(full.atoms) == full.X.dim  # the kernel is zero


def test_constructors_record_the_measure_kind():
    from vmlab import Partition, basis_truncated_measure, martingale_measure, rank_one_measure
    from vmlab.vector_measure import Expectation, Indicator, RankOne, Truncation

    space = MeasureSpace.uniform(4)
    p = Partition(space, np.array([0, 0, 1, 1]))
    m = indicator_measure(space)
    assert m.record == Indicator()
    assert indicator_measure(space, NormSpec("L2", 4, 1.0)).record == Indicator()
    averaged = martingale_measure(m, p)
    assert averaged.record == Expectation(p) and averaged.record.p is p
    r1 = rank_one_measure(space, np.ones(4))
    assert isinstance(r1.record, RankOne)
    truncated = basis_truncated_measure(m, 2)
    assert truncated.record == Truncation(2)
    for other in (r1, truncated, averaged):
        assert martingale_measure(other, p).record is None  # only the indicator's average is recorded
    difference = combine(m, -1.0, averaged)
    assert difference.record is None
    for record in ("indicator", "martingale_difference", Partition(space, np.zeros(4, dtype=int)), None):
        with pytest.raises(ValueError, match="unknown measure record|exactly one of"):
            VectorMeasure(space, m.X, record=record)
    # a recorded measure takes no atom matrix, so a record cannot disagree with its atoms
    for record in (Indicator(), Expectation(p), Truncation(2), RankOne(np.ones(4))):
        with pytest.raises(ValueError, match="exactly one of an atom matrix and a record"):
            VectorMeasure(space, m.X, 2 * np.eye(4), record=record)
    with pytest.raises(TypeError):
        VectorMeasure(space, m.X, 2 * np.eye(4), kind="indicator")
    elsewhere = Partition(MeasureSpace(np.full(4, 0.5)), np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="different space"):
        VectorMeasure(space, m.X, record=Expectation(elsewhere))
    with pytest.raises(ValueError, match="different space"):
        martingale_measure(m, elsewhere)


def _eager_atoms(record, space):
    """The atoms each record's constructor built eagerly before records built their own."""
    from vmlab.vector_measure import Expectation, Indicator, RankOne, Truncation

    n = space.n
    if isinstance(record, Indicator):
        return np.eye(n)
    if isinstance(record, Expectation):
        p = record.p
        block_values = np.zeros((p.n_blocks, n))
        np.add.at(block_values, p.block_of, np.eye(n))
        scale = space.weights / p.block_masses()[p.block_of]
        return scale[:, None] * block_values[p.block_of]
    if isinstance(record, Truncation):
        atoms = np.eye(n).copy()
        atoms[:, record.k:] = 0.0
        return atoms
    assert isinstance(record, RankOne)
    return np.outer(space.weights, record.g)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
@pytest.mark.parametrize("weights", ["uniform", "random"])
def test_record_atoms_equal_the_eager_construction(n, weights, monkeypatch):
    from vmlab import Partition, basis_truncated_measure, martingale_measure

    rng = np.random.default_rng(40 + n)
    space = MeasureSpace.uniform(n) if weights == "uniform" else random_space(rng, n)
    partitions = [Partition(space, np.zeros(n, dtype=int)), Partition(space, np.arange(n))]
    partitions.append(Partition(space, np.arange(n) % 3))
    builds = spy_record_builds(monkeypatch)
    for X in (NormSpec.l1_of_mu(space), NormSpec("L2", n, rng.uniform(0.5, 2.0, size=n))):
        m = indicator_measure(space, X)
        g = rng.normal(size=n)
        measures = [m, rank_one_measure(space, g, X)]
        measures += [martingale_measure(m, p) for p in partitions]
        measures += [basis_truncated_measure(m, k) for k in sorted({1, (n + 1) // 2, n})]
        assert builds == []  # nothing is built before the atoms are read
        for level in measures:
            atoms = level.atoms
            assert atoms.tobytes() == _eager_atoms(level.record, space).tobytes(), level.record
            assert atoms.shape == (n, n) and atoms.dtype == np.float64
            assert not atoms.flags.writeable
            with pytest.raises(ValueError):
                atoms[0, 0] = 1.0
            assert level.atoms is atoms
        assert builds == [level.record for level in measures]  # once each
        builds.clear()


def test_recorded_measures_check_their_record_at_construction():
    from vmlab import Partition
    from vmlab.vector_measure import Expectation, Indicator, Truncation

    space = MeasureSpace.uniform(4)
    for X in (NormSpec("L2", 3, 1.0), NormSpec("L1", 5, 1.0)):
        with pytest.raises(ValueError, match=rf"atom matrix must be 4 x {X.dim}, got \(4, 4\)"):
            indicator_measure(space, X)
        for record in (Indicator(), Expectation(Partition(space, np.zeros(4, dtype=int))), Truncation(1)):
            with pytest.raises(ValueError, match=rf"atom matrix must be 4 x {X.dim}"):
                VectorMeasure(space, X, record=record)
    plain = VectorMeasure(space, NormSpec("L2", 3, 1.0), np.ones((4, 3)))  # the positional form keeps its checks
    assert plain.record is None and plain.atoms.tobytes() == np.ones((4, 3)).tobytes()
    with pytest.raises(ValueError, match=r"atom matrix must be 4 x 3, got \(4, 4\)"):
        VectorMeasure(space, NormSpec("L2", 3, 1.0), np.eye(4))
    with pytest.raises(ValueError, match="atom values must be finite"):
        VectorMeasure(space, NormSpec("L2", 3, 1.0), np.full((4, 3), np.inf))


def test_combine_records_plain_atoms():
    from vmlab import Partition, basis_truncated_measure, martingale_measure

    rng = np.random.default_rng(21)
    space = random_space(rng, 8)
    p = Partition(space, np.arange(8) // 4)
    for X in (NormSpec.l1_of_mu(space), NormSpec("L2", 8, 1.0)):
        m = indicator_measure(space, X)
        averaged = martingale_measure(m, p)
        difference = combine(m, -1.0, averaged)
        assert difference.atoms.tobytes() == (m.atoms - averaged.atoms).tobytes()
        g = rng.normal(size=8)
        others = [
            (m, lam, averaged) for lam in (-1.0, 1.0, -0.5, -2.0, 0.0)
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
            assert combined.record is None, (a.record, lam, b.record)
            assert combined.atoms.tobytes() == (a.atoms + lam * b.atoms).tobytes()


def test_rank_one_measure_records_its_density():
    from vmlab.vector_measure import RankOne

    rng = np.random.default_rng(22)
    space = random_space(rng, 5)
    g = rng.normal(size=3)
    X = random_norm_spec(rng, 3)
    m = rank_one_measure(space, g, X)
    assert isinstance(m.record, RankOne) and m.X is X
    assert m.record.g.tobytes() == g.tobytes() and m.record.g.shape == (3,)
    assert not m.record.g.flags.writeable and not np.shares_memory(m.record.g, g)
    assert m.atoms.tobytes() == (space.weights[:, None] * g[None, :]).tobytes()
    g[0] += 1.0  # the record is a copy
    assert m.record.g[0] != g[0]
    default = rank_one_measure(space, rng.normal(size=5))
    assert default.X.kind == NormSpec.l1_of_mu(space).kind and default.X.dim == 5
    with pytest.raises(ValueError, match="atom matrix must be 5 x 4"):
        rank_one_measure(space, g, NormSpec("L2", 4, 1.0))


def test_a_rank_one_record_refuses_what_its_atoms_would_at_construction():
    space = MeasureSpace(np.array([0.5, 1.0, 2.0]))
    X = NormSpec("L2", 2, 1.0)
    for g in (np.ones(3), np.ones((2, 1)), np.ones((1, 2)), 1.0, []):
        with pytest.raises(ValueError, match="atom matrix must be 3 x 2"):
            rank_one_measure(space, g, X)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="atom values must be finite"):
            rank_one_measure(space, [1.0, bad], X)
    big = np.finfo(float).max
    with pytest.raises(ValueError, match="atom values must be finite"):
        rank_one_measure(space, [1.0, -big], X)  # 2 * big overflows
    edge = rank_one_measure(MeasureSpace(np.array([0.5, 1.0])), [1.0, -big], X)  # mu_i g_i all finite
    assert np.all(np.isfinite(edge.atoms))


def test_a_truncation_record_takes_an_int_in_1_to_d():
    from vmlab import Partition, basis_truncated_measure
    from vmlab.vector_measure import Truncation

    space = MeasureSpace.uniform(4)
    m = indicator_measure(space)
    for rank in (1, 3, 4, np.int64(3), np.uint8(4)):
        k = VectorMeasure(space, m.X, record=Truncation(rank)).record.k
        assert type(k) is int and k == rank
    for rank in (0, 5, -1, True, False, np.True_, 2.0, np.int64(0), "2", None):
        with pytest.raises(ValueError, match=r"rank must be an int in 1\.\.4"):
            VectorMeasure(space, m.X, record=Truncation(rank))
    assert basis_truncated_measure(m, np.int64(2)).record == Truncation(2)
    # the indicator's truncations are recorded into any value space; others stay atoms
    rng = np.random.default_rng(23)
    for X in (NormSpec.l1_of_mu(space), NormSpec("L2", 4, 1.0)):
        truncated = basis_truncated_measure(indicator_measure(space, X), 3)
        assert truncated.record == Truncation(3) and truncated.X is X
        assert truncated.atoms.tobytes() == (np.eye(4) * (np.arange(4) < 3)).tobytes()
        source = random_measure(rng, space, X)
        plain = basis_truncated_measure(source, 3)
        expected = source.atoms.copy()
        expected[:, 3:] = 0.0
        assert plain.record is None and plain.atoms.tobytes() == expected.tobytes()
    assert basis_truncated_measure(truncated, 2).record is None
    with pytest.raises(ValueError, match="out of range"):
        basis_truncated_measure(m, 0)


def test_derived_plain_atom_measures_hold_their_one_new_matrix():
    import tracemalloc

    from vmlab import Partition, basis_truncated_measure, martingale_measure

    n = 512  # 2 MB of atoms per measure
    rng = np.random.default_rng(512)
    space = random_space(rng, n)
    X = NormSpec("L2", n, 1.0)
    m, m1 = (VectorMeasure(space, X, rng.normal(size=(n, n))) for _ in range(2))
    p = Partition(space, np.arange(n) // (n // 2))
    builds = {
        "martingale_measure": lambda: martingale_measure(m, p),
        "basis_truncated_measure": lambda: basis_truncated_measure(m, n // 2),
        "combine": lambda: combine(m, 0.5, m1),
    }
    for name, build in builds.items():
        tracemalloc.start()
        try:
            level = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not level.atoms.flags.writeable
        assert peak <= 1.25 * level.atoms.nbytes, f"{name} peaked at {peak} bytes for {level.atoms.nbytes} of atoms"
