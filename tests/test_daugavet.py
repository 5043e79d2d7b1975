import tracemalloc

import numpy as np
import pytest

from helpers import dual_extreme_table, random_function, random_measure, random_norm_spec, random_space
from vmlab import (
    DefectReport,
    FactoredOperator,
    MeasureSpace,
    NormSpec,
    NotNormalized,
    NotPolyhedral,
    OperatorMatrix,
    SeriesGapReport,
    SimpleFunction,
    VectorMeasure,
    canonical_pair,
    center_defect,
    combine_operators,
    daugavet_defect,
    density_norm_identity,
    identity_operator,
    indicator_measure,
    integration_operator,
    l1_mu_norm,
    norm,
    norm_best,
    opnorm_from_l1,
    rank_one_defect,
    rank_one_measure,
    rank_one_operator,
    series_approximation_gap,
)
from vmlab import daugavet
from vmlab.rng import SplitMix64


def test_opnorm_examples():
    space = MeasureSpace.uniform(5)
    ident = identity_operator(space)
    assert opnorm_from_l1(ident).value == 1.0
    T = rank_one_operator(space, np.ones(5), np.ones(5))
    assert opnorm_from_l1(T).value == pytest.approx(1.0, abs=1e-15)
    doubled = OperatorMatrix(2.0 * np.eye(5), space, ident.codomain)
    assert opnorm_from_l1(doubled).value == 2.0


def test_operator_copies_a_read_only_view_of_a_writeable_array():
    space = MeasureSpace.uniform(3)
    a = np.eye(3)
    v = a.view()
    v.setflags(write=False)
    op = OperatorMatrix(v, space, NormSpec.l1_of_mu(space))
    a[0, 0] = 5.0
    assert not np.shares_memory(op.entries, a)
    assert opnorm_from_l1(op).value == 1.0


def test_operator_adopts_frozen_arrays_and_their_views():
    rng = np.random.default_rng(7)
    space = random_space(rng, 6)
    m = random_measure(rng, space, random_norm_spec(rng, 4))
    assert np.shares_memory(integration_operator(m).entries, m.atoms)
    ident = identity_operator(space)
    assert OperatorMatrix(ident.entries, space, ident.codomain).entries is ident.entries


def test_opnorm_dominates_sampled_ratios_and_witness_attains():
    rng = np.random.default_rng(0)
    for _ in range(20):
        space = random_space(rng, 6)
        X = random_norm_spec(rng, 4)
        S = OperatorMatrix(rng.normal(size=(4, 6)), space, X)
        res = opnorm_from_l1(S)
        for _ in range(50):
            f = random_function(rng, space, zero_prob=0.0)
            ratio = norm(X, S.apply(f)) / l1_mu_norm(f)
            assert ratio <= res.value + 1e-10
        column = SimpleFunction(
            space, np.eye(6)[res.witness_column] / space.weights[res.witness_column]
        )
        assert norm(X, S.apply(column)) == pytest.approx(res.value, rel=1e-12)


def test_daugavet_defect_rank_one_examples():
    for n in (4, 16):  # dyadic sizes: every quantity is an exact float
        space = MeasureSpace.uniform(n)
        pos = rank_one_operator(space, np.ones(n), np.ones(n))
        rep = daugavet_defect(pos)
        assert rep.norm_sum == 2.0
        assert rep.defect == 0.0
        neg = rank_one_operator(space, -np.ones(n), np.ones(n))
        rep = daugavet_defect(neg)
        assert rep.norm_sum == 2.0 - 2.0 / n
        assert rep.defect == 2.0 / n
    # non-dyadic sizes only reach the same values up to roundoff
    for n in (7, 23):
        space = MeasureSpace.uniform(n)
        pos = rank_one_operator(space, np.ones(n), np.ones(n))
        assert daugavet_defect(pos).defect == pytest.approx(0.0, abs=1e-12)
        neg = rank_one_operator(space, -np.ones(n), np.ones(n))
        assert daugavet_defect(neg).defect == pytest.approx(2.0 / n, abs=1e-12)
    space = MeasureSpace.uniform(3)
    zero = OperatorMatrix(np.zeros((3, 3)), space, NormSpec.l1_of_mu(space))
    assert daugavet_defect(zero).defect == 0.0


def test_negative_rank_one_defect_on_general_weights():
    rng = np.random.default_rng(1)
    for _ in range(50):
        weights = rng.uniform(0.05, 0.95, size=int(rng.integers(2, 9)))
        space = MeasureSpace(weights)
        T = rank_one_operator(space, -np.ones(space.n), np.ones(space.n))
        rep = daugavet_defect(T)
        assert rep.defect == pytest.approx(2.0 * float(np.min(weights)), abs=1e-12)


def _fields(rep):
    return (rep.norm_G, rep.norm_T, rep.norm_sum, rep.defect)


@pytest.mark.parametrize("n", [4, 64, 1024])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_rank_one_defect_is_bitwise_dense_on_uniform_sweeps(n, sign):
    space = MeasureSpace.uniform(n)
    g, h = sign * np.ones(n), np.ones(n)
    dense = daugavet_defect(rank_one_operator(space, g, h))
    assert _fields(rank_one_defect(space, g, h)) == _fields(dense)


def test_rank_one_defect_matches_dense_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(200):
        space = random_space(rng, int(rng.integers(1, 40)))
        g = rng.normal(size=space.n) * rng.uniform(0.0, 3.0)
        h = rng.normal(size=space.n) * rng.uniform(0.0, 3.0)
        g[rng.random(space.n) < 0.3] = 0.0
        h[rng.random(space.n) < 0.3] = 0.0
        dense = daugavet_defect(rank_one_operator(space, g, h))
        fast = rank_one_defect(space, g, h)
        assert fast.norm_G == dense.norm_G == 1.0
        assert fast.norm_T == pytest.approx(dense.norm_T, rel=1e-12, abs=0.0)
        assert fast.norm_sum == pytest.approx(dense.norm_sum, rel=1e-12, abs=0.0)
        assert fast.defect == pytest.approx(dense.defect, abs=1e-12 * dense.norm_sum)


def test_rank_one_defect_at_a_million_atoms():
    n = 10**6  # the dense operator would need 8 TB
    space = MeasureSpace.uniform(n)
    neg = rank_one_defect(space, -np.ones(n), np.ones(n))
    assert neg.norm_G == 1.0
    assert neg.norm_T == pytest.approx(1.0, abs=1e-12)
    assert neg.defect == pytest.approx(2.0 / n, abs=1e-12)
    assert rank_one_defect(space, np.ones(n), np.ones(n)).defect == pytest.approx(0.0, abs=1e-12)


def test_rank_one_defect_rejects_wrong_lengths():
    space = MeasureSpace.uniform(4)
    with pytest.raises(ValueError, match="length 4"):
        rank_one_defect(space, np.ones(3), np.ones(4))
    with pytest.raises(ValueError, match="length 4"):
        rank_one_defect(space, np.ones(4), np.ones((4, 1)))


def test_daugavet_defect_requires_l1_endomorphism():
    space = MeasureSpace.uniform(3)
    bad = OperatorMatrix(np.zeros((2, 3)), space, NormSpec.linf(2))
    with pytest.raises(ValueError):
        daugavet_defect(bad)


def test_center_defect_examples():
    rng = np.random.default_rng(2)
    space = random_space(rng, 5)
    G = OperatorMatrix(rng.normal(size=(5, 5)), space, NormSpec.l1_of_mu(space))
    assert center_defect(G, G).defect == pytest.approx(0.0, abs=1e-12)
    neg = OperatorMatrix(-G.entries, space, G.codomain)
    rep = center_defect(G, neg)
    assert rep.defect == pytest.approx(2.0 * opnorm_from_l1(G).value, rel=1e-12)


def test_center_defect_is_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(100):
        space = random_space(rng, 5)
        X = random_norm_spec(rng, 3)
        G = OperatorMatrix(rng.normal(size=(3, 5)), space, X)
        T = OperatorMatrix(rng.normal(size=(3, 5)), space, X)
        assert center_defect(G, T).defect >= -1e-10


def test_center_defect_bound_scales_with_the_norms():
    # at N(0, 1e7) entries the three norms agree only to about 1e-9 absolute;
    # an absolute -1e-10 bound refused about a quarter of these instances
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = int(rng.integers(2, 30))
        space = random_space(rng, n)
        A = OperatorMatrix(rng.normal(scale=1e7, size=(n, n)), space, NormSpec.l1_of_mu(space))
        rep = center_defect(A, OperatorMatrix(0.3 * A.entries, space, A.codomain))
        assert abs(rep.defect) <= 1e-10 * (rep.norm_G + rep.norm_T)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e7])
def test_defect_report_refuses_a_relative_excess(scale):
    with pytest.raises(ValueError, match="triangle inequality"):
        DefectReport(scale, scale, 2.0 * scale * (1.0 + 1e-6))


def test_center_defect_decays_under_refinement():
    # composing the identity with a negative rank-one map: defect 2/n -> 0
    defects = []
    for n in (4, 16, 64):
        space = MeasureSpace.uniform(n)
        G = integration_operator(
            VectorMeasure(space, NormSpec.l1_of_mu(space), np.eye(n))
        )
        T = rank_one_operator(space, -np.ones(n), np.ones(n))
        defects.append(center_defect(G, T).defect)
    assert defects == pytest.approx([0.5, 0.125, 0.03125], abs=1e-14)
    assert defects[0] > defects[1] > defects[2]


def test_density_identity_examples(s1):
    space, m = s1
    zero_other = VectorMeasure(space, m.X, np.zeros((4, 4)))
    rep = density_norm_identity(m, zero_other, 0.0)
    assert rep.operator_side == pytest.approx(1.0, abs=1e-15)
    assert rep.density_side == pytest.approx(1.0, abs=1e-15)
    rep = density_norm_identity(m, m, 1.0)
    assert rep.operator_side == pytest.approx(2.0, abs=1e-15)
    assert rep.gap <= 1e-15


def test_density_identity_canonical_pair(s1):
    space, _ = s1
    m0, m1 = canonical_pair(space, SimpleFunction(space, np.ones(4)))
    rep = density_norm_identity(m0, m1, 1.0)
    assert rep.operator_side == pytest.approx(2.0, abs=1e-12)
    assert rep.density_side == pytest.approx(2.0, abs=1e-12)
    assert rep.atom_side == pytest.approx(2.0, abs=1e-12)
    assert rep.gap <= 1e-12


def test_density_identity_random_polyhedral():
    rng = np.random.default_rng(4)
    for trial in range(200):
        n = int(rng.integers(1, 11))
        d = int(rng.integers(1, 7))
        space = random_space(rng, n)
        X = random_norm_spec(rng, d, ("L1", "LINF")[trial % 2])
        m = random_measure(rng, space, X)
        m1 = random_measure(rng, space, X)
        lam = float(rng.normal())
        rep = density_norm_identity(m, m1, lam)
        assert rep.gap <= 1e-10
        assert rep.operator_side == pytest.approx(rep.atom_side, abs=1e-10)


def _full_density_side(m, m1, lam):
    """The density side over every dual extreme point at once, in place."""
    full = (m.atoms + lam * m1.atoms) @ dual_extreme_table(m.X).T
    np.abs(full, out=full)
    full /= m.space.weights[:, None]
    return float(np.max(full))


def test_density_side_is_bitwise_the_full_enumeration():
    # density_norm_identity scores one of each +-x*, 2^12 at a time; |<v, -x*>| is |<v, x*>|
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = int(rng.integers(1, 17))
        space = random_space(rng, n)
        X = random_norm_spec(rng, int(rng.integers(1, 9)), ("L1", "LINF")[trial % 2])
        m, m1 = random_measure(rng, space, X), random_measure(rng, space, X)
        lam = float(rng.normal())
        assert density_norm_identity(m, m1, lam).density_side == _full_density_side(m, m1, lam)
    # one block of 2^12 corners up to d = 13, then 2, 16 and 128 blocks (d = 20 is the limit)
    for n, d in [(5, 13), (9, 13), (7, 14), (16, 14), (3, 17), (12, 17), (2, 20), (6, 20)]:
        space = random_space(rng, n)
        X = random_norm_spec(rng, d, "L1")
        m, m1 = random_measure(rng, space, X), random_measure(rng, space, X)
        lam = float(rng.normal())
        assert density_norm_identity(m, m1, lam).density_side == _full_density_side(m, m1, lam)
    for n in (16, 20):  # l1-of-mu, the identity templates of the operators benchmark at n = 16
        space = random_space(rng, n)
        m, m1 = indicator_measure(space), rank_one_measure(space, rng.normal(size=n))
        lam = float(rng.uniform(-2.0, 2.0))
        assert density_norm_identity(m, m1, lam).density_side == _full_density_side(m, m1, lam)


def test_density_identity_at_n16_holds_one_block_of_corners():
    # the 2^15 x 16 half of the corners, its product with the atoms and that
    # product's quotient took 12 MiB; one 2^12-row table and one 16 x 2^12
    # product buffer take 1 MiB
    space = random_space(np.random.default_rng(16), 16)
    m, m1 = indicator_measure(space), rank_one_measure(space, np.linspace(-1.0, 1.0, 16))
    want = density_norm_identity(m, m1, 0.75)  # the atoms are built and kept here
    tracemalloc.start()
    try:
        got = density_norm_identity(m, m1, 0.75)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 2 * 2**20, f"density_norm_identity at n = d = 16 peaked at {peak / 2**20:.2f} MiB"


def test_density_identity_requires_polyhedral():
    rng = np.random.default_rng(5)
    space = random_space(rng, 4)
    m = random_measure(rng, space, NormSpec.l2(3))
    with pytest.raises(NotPolyhedral):
        density_norm_identity(m, m, 1.0)


def test_series_gap_examples():
    space = MeasureSpace.uniform(8)
    G = identity_operator(space)
    assert series_approximation_gap(G, [G], samples=0).gap_norm == pytest.approx(
        0.0, abs=1e-15
    )
    T = rank_one_operator(space, -np.ones(8), np.ones(8))
    rep = series_approximation_gap(G, [T], samples=0)
    assert rep.gap_norm == pytest.approx(2.0, abs=1e-15)
    assert rep.c_estimate == pytest.approx(1.0 - 2.0 / 8, abs=1e-12)
    rep = series_approximation_gap(G, [], samples=0)
    assert rep.gap_norm == 1.0
    assert rep.c_estimate == np.inf


def test_series_gap_sampled_family_deterministic():
    space = MeasureSpace.uniform(6)
    G = identity_operator(space)
    T = rank_one_operator(space, -np.ones(6), np.ones(6))
    a = series_approximation_gap(G, [T], samples=16, seed=5)
    b = series_approximation_gap(G, [T], samples=16, seed=5)
    assert a == b
    # sampled operators have unit norm, so the estimate cannot exceed the
    # parts-only value and stays above the triangle-inequality floor
    assert a.c_estimate <= 1.0 - 2.0 / 6 + 1e-12
    assert a.c_estimate >= -1e-10


def _dense_family(space, samples, seed):
    """The sampled family as the dense implementation built it, one operator per sample."""
    gen = SplitMix64(seed)
    out = []
    for _ in range(samples):
        g = np.array(gen.normals(space.n))
        h = np.array(gen.normals(space.n))
        g /= l1_mu_norm(SimpleFunction(space, g))
        h /= float(np.max(np.abs(h)))
        out.append(rank_one_operator(space, g, h))
    return out


def _dense_series_gap(G, parts, family):
    """Reference: every norm from ``opnorm_from_l1`` on dense matrices."""
    total = np.zeros_like(G.entries)
    for T in parts:
        total = total + T.entries
    gap_norm = opnorm_from_l1(OperatorMatrix(G.entries - total, G.domain, G.codomain)).value
    c_estimate = np.inf
    for T in list(parts) + list(family):
        value = (
            opnorm_from_l1(combine_operators(G, 1.0, T)).value
            - opnorm_from_l1(T).value
        )
        c_estimate = min(c_estimate, value)
    return gap_norm, float(c_estimate)


def _l1_operators(rng, space):
    n = space.n
    l1 = NormSpec.l1_of_mu(space)
    return {
        "identity": identity_operator(space),
        "rank_one": rank_one_operator(space, rng.normal(size=n), np.ones(n)),
        "random": OperatorMatrix(rng.normal(size=(n, n)), space, l1),
        # one nonzero per column but not the identity
        "permutation": OperatorMatrix(np.eye(n)[::-1], space, l1),
        "scaled_diagonal": OperatorMatrix(np.diag(np.r_[2.0, np.ones(n - 1)]), space, l1),
    }


@pytest.mark.parametrize(
    "kind", ["identity", "rank_one", "random", "permutation", "scaled_diagonal"]
)
def test_series_gap_sampled_family_matches_dense_loop(kind):
    rng = np.random.default_rng(12)
    for space in (MeasureSpace.uniform(24), random_space(rng, 17)):
        G = _l1_operators(rng, space)[kind]
        parts = [rank_one_operator(space, -np.ones(space.n), np.ones(space.n))]
        for samples, seed in ((16, 0), (5, 2**64 - 1)):
            gap_norm, c_estimate = _dense_series_gap(
                G, parts, _dense_family(space, samples, seed)
            )
            rep = series_approximation_gap(G, parts, samples=samples, seed=seed)
            assert rep.gap_norm == gap_norm
            assert rep.c_estimate == pytest.approx(c_estimate, rel=1e-12)
            # the sampled family alone, so the parts cannot mask its minimum
            _, family_only = _dense_series_gap(G, [], _dense_family(space, samples, seed))
            rep = series_approximation_gap(G, [], samples=samples, seed=seed)
            assert rep.c_estimate == pytest.approx(family_only, rel=1e-12)


def test_series_gap_sampled_family_needs_l1_of_mu_codomain():
    space = MeasureSpace.uniform(3)
    G = OperatorMatrix(np.eye(3), space, NormSpec.l1(3))
    with pytest.raises(ValueError):
        series_approximation_gap(G, [], samples=2)
    assert series_approximation_gap(G, [], samples=0).c_estimate == np.inf


def _factored_identity(space):
    return integration_operator(indicator_measure(space))


def _factored_rank_one(space, g):
    return integration_operator(rank_one_measure(space, g))


def _dense(F):
    """The n x n matrix of a factored operator."""
    space = F.domain
    entries = F.delta * np.eye(space.n) + np.outer(F.g, space.weights)
    return OperatorMatrix(entries, space, F.codomain)


def _tied_draws(rng, space, samples):
    """Stand-in sampled rows whose h_s take five values, so min and max are tied."""
    g = rng.normal(size=(samples, space.n))
    g[rng.random(g.shape) < 0.2] = 0.0
    g /= np.maximum(np.sum(np.abs(g) * space.weights, axis=1, keepdims=True), 1e-300)
    h = rng.integers(-2, 3, size=(samples, space.n)).astype(float)
    h[:, 0] = 2.0  # unit sup norm after scaling
    return g, h / 2.0


def test_factored_series_gap_matches_dense_reference(monkeypatch):
    rng = np.random.default_rng(21)
    for trial in range(300):
        n = int(rng.integers(1, 41))
        space = MeasureSpace.uniform(n) if trial % 2 else random_space(rng, n)
        sign = float(rng.choice([-1.0, 1.0]))
        g = rng.normal(size=n) * rng.uniform(0.1, 3.0)
        g[rng.random(n) < 0.3] = 0.0
        samples = int(rng.integers(0, 21))
        seed = int(rng.integers(0, 2**63))
        if trial % 3 == 0:
            G = _factored_identity(space)
        elif trial % 3 == 1:  # the sampled family reads the entries of delta = 1, g != 0
            G = FactoredOperator(space, 1.0, g)
        else:
            G = _factored_rank_one(space, g)
        parts = [_factored_rank_one(space, sign * np.ones(n))]
        if trial % 5 == 0:
            parts.append(FactoredOperator(space, float(rng.integers(0, 2)), rng.normal(size=n)))
        if trial % 4 == 3:
            g_s, h_s = _tied_draws(rng, space, samples)
            monkeypatch.setattr(daugavet, "_sampled_rank_ones", lambda *_: (g_s, h_s))
            family = [rank_one_operator(space, a, b) for a, b in zip(g_s, h_s)]
        else:
            monkeypatch.undo()
            family = _dense_family(space, samples, seed)
        dense_parts = [_dense(T) for T in parts]
        gap_norm, c_estimate = _dense_series_gap(_dense(G), dense_parts, family)
        rep = series_approximation_gap(G, parts, samples=samples, seed=seed)
        assert rep.gap_norm == pytest.approx(gap_norm, rel=1e-12, abs=0.0)
        # c is a difference of norms: relative to those norms, not to itself
        scale = opnorm_from_l1(_dense(G)).value + max(
            [1.0] + [opnorm_from_l1(T).value for T in dense_parts]
        )
        assert rep.c_estimate == pytest.approx(c_estimate, rel=1e-12, abs=1e-12 * scale)


@pytest.mark.parametrize("n", [1, 8, 64, 512])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_factored_indicator_is_bitwise_the_dense_path(n, sign):
    space = MeasureSpace.uniform(n)
    factored = (_factored_identity(space), [_factored_rank_one(space, sign * np.ones(n))])
    dense = (identity_operator(space), [rank_one_operator(space, sign * np.ones(n), np.ones(n))])
    # gap and part: every column norm is an exact dyadic number
    assert repr(series_approximation_gap(*factored, samples=0)) == repr(
        series_approximation_gap(*dense, samples=0)
    )
    # default family: the per-sample O(n) defects of the same draws
    samples, seed = 64, n + 1
    g, h = daugavet._sampled_rank_ones(space, samples, seed)
    defects = [rank_one_defect(space, a, b) for a, b in zip(g, h)]
    sampled = min(rep.norm_sum - rep.norm_T for rep in defects)
    part_only = series_approximation_gap(*dense, samples=0)
    expect = SeriesGapReport(part_only.gap_norm, min(part_only.c_estimate, sampled))
    assert repr(series_approximation_gap(*factored, samples=samples, seed=seed)) == repr(expect)


def test_factored_series_gap_at_a_million_atoms():
    n = 10**6  # a dense operator would need 8 TB
    space = MeasureSpace.uniform(n)
    g = np.random.default_rng(23).normal(size=n)
    G = _factored_rank_one(space, g)
    part = _factored_rank_one(space, -np.ones(n))
    rep = series_approximation_gap(G, [part], samples=1, seed=3)
    norm_g = float(np.mean(np.abs(g)))
    assert rep.gap_norm == pytest.approx(float(np.mean(np.abs(g + 1.0))), rel=1e-12)
    # the part's value ||G + P|| - ||P|| bounds the estimate above, the
    # triangle inequality -||G|| below
    assert -norm_g - 1e-12 <= rep.c_estimate <= float(np.mean(np.abs(g - 1.0))) - 1.0 + 1e-12
    rep = series_approximation_gap(_factored_identity(space), [part], samples=1, seed=3)
    assert rep.gap_norm == pytest.approx(2.0, rel=1e-12)
    assert rep.c_estimate == pytest.approx(1.0 - 2.0 / n, abs=1e-9)


def test_factored_series_gap_refusals():
    space = MeasureSpace.uniform(4)
    G = FactoredOperator(space, 1.0, np.ones(4))
    # column j / mu_j: ||g|| + |1 + mu_j g_j| - |mu_j g_j| = 1 + 1.25 - 0.25
    assert series_approximation_gap(G, [], samples=0).gap_norm == 2.0
    with pytest.raises(ValueError, match="length 4"):
        FactoredOperator(space, 0.0, np.ones(3))


@pytest.mark.parametrize("n", [1, 8, 64, 512])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_factored_defects_are_bitwise_dense_on_uniform_sizes(n, sign):
    space = MeasureSpace.uniform(n)
    ident = _factored_identity(space)
    T = _factored_rank_one(space, sign * np.ones(n))
    for G, S in ((ident, ident), (ident, T), (T, ident), (T, T)):
        assert _fields(center_defect(G, S)) == _fields(center_defect(_dense(G), _dense(S)))
    assert _fields(daugavet_defect(T)) == _fields(daugavet_defect(_dense(T)))
    assert _fields(daugavet_defect(ident)) == _fields(daugavet_defect(_dense(ident)))


def test_factored_defects_match_dense_on_random_instances():
    rng = np.random.default_rng(24)
    for _ in range(200):
        space = random_space(rng, int(rng.integers(1, 30)))
        G, T = (
            FactoredOperator(space, rng.choice([0.0, 1.0, -1.0, 2.5]), rng.normal(size=space.n))
            for _ in range(2)
        )
        for fast, dense in (
            (center_defect(G, T), center_defect(_dense(G), _dense(T))),
            (daugavet_defect(T), daugavet_defect(_dense(T))),
        ):
            assert fast.norm_G == pytest.approx(dense.norm_G, rel=1e-12, abs=0.0)
            assert fast.norm_T == pytest.approx(dense.norm_T, rel=1e-12, abs=0.0)
            assert fast.norm_sum == pytest.approx(dense.norm_sum, rel=1e-12, abs=0.0)
            scale = dense.norm_G + dense.norm_T
            assert fast.defect == pytest.approx(dense.defect, abs=1e-12 * scale)


def test_factored_daugavet_defect_is_rank_one_defect():
    rng = np.random.default_rng(25)
    for _ in range(100):
        space = random_space(rng, int(rng.integers(1, 40)))
        g = rng.normal(size=space.n) * rng.uniform(0.0, 3.0)
        g[rng.random(space.n) < 0.3] = 0.0
        fast = rank_one_defect(space, g, np.ones(space.n))
        assert _fields(daugavet_defect(_factored_rank_one(space, g))) == _fields(fast)


def _random_factored(rng, space):
    return FactoredOperator(space, rng.choice([0.0, 1.0, -1.0, 2.5]), rng.normal(size=space.n))


def test_factored_entries_are_its_matrix_built_once_and_read_only():
    rng = np.random.default_rng(27)
    for _ in range(50):
        space = random_space(rng, int(rng.integers(1, 20)))
        F = _random_factored(rng, space)
        assert np.array_equal(F.entries, _dense(F).entries)
        assert F.entries is F.entries and not F.entries.flags.writeable
        assert OperatorMatrix(F.entries, space, F.codomain).entries is F.entries


def test_mixed_forms_are_the_dense_call_on_the_entries():
    # a factored F mixed with a dense D gives the bits of the same call with
    # F's matrix in its place; only F's own norm comes from the closed form
    rng = np.random.default_rng(28)
    for _ in range(200):
        space = random_space(rng, int(rng.integers(1, 30)))
        n = space.n
        F = _random_factored(rng, space)
        Fd = OperatorMatrix(F.entries, space, F.codomain)
        D, D2 = (OperatorMatrix(rng.normal(size=(n, n)), space, F.codomain) for _ in range(2))
        lam = float(rng.normal())
        for a, b, a_dense, b_dense in ((F, D, Fd, D), (D, F, D, Fd)):
            mixed = daugavet._plus(a, lam, b)
            assert type(mixed) is OperatorMatrix
            assert mixed.entries.tobytes() == daugavet._plus(a_dense, lam, b_dense).entries.tobytes()
        fast, dense = center_defect(F, D), center_defect(Fd, D)
        assert repr((fast.norm_T, fast.norm_sum)) == repr((dense.norm_T, dense.norm_sum))
        assert fast.norm_G == pytest.approx(dense.norm_G, rel=1e-15, abs=0.0)
        fast, dense = center_defect(D, F), center_defect(D, Fd)
        assert repr((fast.norm_G, fast.norm_sum)) == repr((dense.norm_G, dense.norm_sum))
        assert fast.norm_T == pytest.approx(dense.norm_T, rel=1e-15, abs=0.0)
        assert repr(daugavet_defect(D)) == repr(center_defect(identity_operator(space), D))
        # G = F: the residual and every sum are dense, and F's own norm is never read
        assert repr(series_approximation_gap(F, [D, D2], samples=0)) == repr(
            series_approximation_gap(Fd, [D, D2], samples=0)
        )
        if F.delta != 0.0:  # the sampled family on delta Id + g mu^T, g != 0, reads the entries
            seed = int(rng.integers(0, 2**63))
            assert repr(series_approximation_gap(F, [D], samples=4, seed=seed)) == repr(
                series_approximation_gap(Fd, [D], samples=4, seed=seed)
            )
        # F as a part: ||F|| enters the estimate
        fast = series_approximation_gap(D, [F, D2], samples=0)
        dense = series_approximation_gap(D, [Fd, D2], samples=0)
        assert repr(fast.gap_norm) == repr(dense.gap_norm)
        assert fast.c_estimate == pytest.approx(dense.c_estimate, rel=0.0, abs=1e-15 * opnorm_from_l1(Fd).value)


def _both_layouts(rng, space, X):
    entries = rng.normal(size=(X.dim, space.n))
    return [OperatorMatrix(order(entries), space, X) for order in (np.ascontiguousarray, np.asfortranarray)]


def test_opnorm_ignores_memory_layout():
    rng = np.random.default_rng(29)
    for trial in range(300):
        space = random_space(rng, int(rng.integers(2, 64)))
        if trial % 3 == 0:
            X = NormSpec.l1_of_mu(space)
        else:
            X = random_norm_spec(rng, int(rng.integers(1, 9)), ("L2", "LINF")[trial % 2])
        c_order, f_order = _both_layouts(rng, space, X)
        assert c_order.entries.flags.c_contiguous and f_order.entries.flags.f_contiguous
        assert repr(opnorm_from_l1(c_order)) == repr(opnorm_from_l1(f_order))


@pytest.mark.parametrize("n", [513, 1100])
@pytest.mark.parametrize("kind", ["l1-of-mu", "L2", "LINF"])
def test_opnorm_ignores_memory_layout_across_chunks(n, kind):
    rng = np.random.default_rng(n)
    space = random_space(rng, n)
    X = NormSpec.l1_of_mu(space) if kind == "l1-of-mu" else random_norm_spec(rng, 24, kind)
    c_order, f_order = _both_layouts(rng, space, X)
    assert repr(opnorm_from_l1(c_order)) == repr(opnorm_from_l1(f_order))


def test_integration_operator_takes_its_form_from_the_record(monkeypatch):
    from helpers import spy_record_builds
    from vmlab.vector_measure import Truncation

    builds = spy_record_builds(monkeypatch)
    rng = np.random.default_rng(30)
    space = random_space(rng, 5)
    g = rng.normal(size=5)
    ident = integration_operator(indicator_measure(space))
    assert type(ident) is FactoredOperator and ident.delta == 1.0 and not np.any(ident.g)
    rank_one = integration_operator(rank_one_measure(space, g))
    assert type(rank_one) is FactoredOperator and rank_one.delta == 0.0 and np.array_equal(rank_one.g, g)
    assert builds == []  # neither map reads atoms
    l1 = NormSpec.l1_of_mu(space)
    for m in (
        VectorMeasure(space, l1, record=Truncation(2)),
        VectorMeasure(space, l1, rng.normal(size=(5, 5))),
        indicator_measure(space, NormSpec.l2(5)),  # d = n, but not into L1(mu)
        rank_one_measure(space, g, NormSpec.linf(5)),
    ):
        op = integration_operator(m)
        assert type(op) is OperatorMatrix and np.array_equal(op.entries, m.atoms.T)


def test_dense_series_gap_with_two_parts_matches_reference():
    # the parts are subtracted one at a time, (G - T1) - T2, while the
    # reference forms G - (T1 + T2): equal up to rounding
    rng = np.random.default_rng(26)
    for _ in range(20):
        space = random_space(rng, int(rng.integers(2, 20)))
        n = space.n
        parts = [
            rank_one_operator(space, rng.normal(size=n), rng.normal(size=n)),
            OperatorMatrix(rng.normal(size=(n, n)), space, NormSpec.l1_of_mu(space)),
        ]
        for G in _l1_operators(rng, space).values():
            gap_norm, c_estimate = _dense_series_gap(G, parts, [])
            rep = series_approximation_gap(G, parts, samples=0)
            assert rep.gap_norm == pytest.approx(gap_norm, rel=1e-12, abs=0.0)
            assert rep.c_estimate == c_estimate  # the same sums G + T


def test_canonical_pair_isometry():
    rng = np.random.default_rng(6)
    for n in (4, 8):
        space = MeasureSpace.uniform(n)
        m0, m1 = canonical_pair(space, SimpleFunction(space, np.ones(n)))
        chi = SimpleFunction(space, np.ones(n))
        assert norm_best(m0, chi).value == pytest.approx(space.total, abs=1e-12)
        assert norm_best(m1, chi).value == pytest.approx(space.total, abs=1e-12)
        for _ in range(50):
            f = random_function(rng, space)
            reference = l1_mu_norm(f)
            assert norm_best(m0, f).value == pytest.approx(reference, abs=1e-10)
            assert norm_best(m1, f).value == pytest.approx(reference, abs=1e-10)


def test_canonical_pair_rejects_unnormalized(s1):
    space, _ = s1
    with pytest.raises(NotNormalized):
        canonical_pair(space, SimpleFunction(space, 2.0 * np.ones(4)))
