import numpy as np
import pytest

from vmlab import (
    MeasurableSet,
    MeasureSpace,
    Partition,
    SimpleFunction,
    dyadic_chain,
    refine,
    sign_function,
)


def test_space_validation():
    with pytest.raises(ValueError):
        MeasureSpace([1.0, 0.0])
    with pytest.raises(ValueError):
        MeasureSpace([1.0, -0.5])
    with pytest.raises(ValueError):
        MeasureSpace([])
    sp = MeasureSpace.uniform(4)
    assert sp.n == 4
    assert sp.total == pytest.approx(1.0, abs=0)


def test_values_are_immutable():
    sp = MeasureSpace.uniform(3)
    with pytest.raises(ValueError):
        sp.weights[0] = 2.0
    f = SimpleFunction(sp, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        f.coeffs[0] = 0.0


def test_sign_function_examples():
    sp = MeasureSpace.uniform(4)
    assert np.array_equal(
        sign_function(MeasurableSet.full(sp)).coeffs, np.ones(4)
    )
    assert np.array_equal(
        sign_function(MeasurableSet.empty(sp)).coeffs, -np.ones(4)
    )
    A = MeasurableSet.from_indices(sp, [0, 2])
    assert np.array_equal(sign_function(A).coeffs, [1.0, -1.0, 1.0, -1.0])


def test_sign_function_squares_to_one():
    rng = np.random.default_rng(3)
    sp = MeasureSpace(rng.uniform(0.1, 1.0, 7))
    A = MeasurableSet(sp, rng.random(7) < 0.5)
    h = sign_function(A).coeffs
    assert np.array_equal(h * h, np.ones(7))
    assert set(np.unique(h)) <= {-1.0, 1.0}


def test_refine_examples():
    sp = MeasureSpace.uniform(4)
    one = Partition.one_block(sp)
    singles = Partition.singletons(sp)
    assert refine(one, singles)
    assert not refine(singles, one)
    p = Partition.from_blocks(sp, [[0, 1], [2, 3]])
    q = Partition.from_blocks(sp, [[0], [1], [2, 3]])
    assert refine(p, q)
    assert not refine(q, p)


def test_partition_validation():
    sp = MeasureSpace.uniform(4)
    with pytest.raises(ValueError):
        Partition(sp, [0, 0, 1, 3], 4)  # block 2 empty
    with pytest.raises(ValueError):
        Partition(sp, [0, 0, 0, 5], 2)
    with pytest.raises(ValueError):
        Partition.from_blocks(sp, [[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError):
        Partition.from_blocks(sp, [[0, 1], [3]])


def test_dyadic_chain_shapes():
    sp = MeasureSpace.uniform(4)
    chain = dyadic_chain(2, sp)
    assert [p.n_blocks for p in chain] == [1, 2, 4]
    assert [sorted(map(tuple, p.blocks())) for p in chain] == [
        [(0, 1, 2, 3)],
        [(0, 1), (2, 3)],
        [(0,), (1,), (2,), (3,)],
    ]
    chain8 = dyadic_chain(1, MeasureSpace.uniform(8))
    assert [len(b) for b in chain8[0].blocks()] == [8]
    assert [len(b) for b in chain8[1].blocks()] == [4, 4]
    with pytest.raises(ValueError):
        dyadic_chain(3, sp)


def test_dyadic_chain_refuses_a_huge_level_count_without_computing_its_power():
    sp = MeasureSpace.uniform(8)
    with pytest.raises(ValueError, match=r"number of atoms 8 is not divisible by 2\*\*1000000000000"):
        dyadic_chain(10**12, sp)
    with pytest.raises(ValueError, match=r"not divisible by 2\*\*4"):
        dyadic_chain(4, sp)
    assert len(dyadic_chain(3, sp)) == 4


def test_dyadic_chain_refines():
    sp = MeasureSpace(np.random.default_rng(0).uniform(0.1, 1.0, 16))
    chain = dyadic_chain(4, sp)
    for a, b in zip(chain, chain[1:]):
        assert refine(a, b)


def test_block_masses_sum_to_total():
    rng = np.random.default_rng(1)
    sp = MeasureSpace(rng.uniform(0.1, 1.0, 12))
    for blocks in ([[0, 5], [1, 2, 3], [4, 6, 7, 8, 9, 10, 11]],):
        p = Partition.from_blocks(sp, blocks)
        assert np.sum(p.block_masses()) == pytest.approx(sp.total, abs=1e-12)
