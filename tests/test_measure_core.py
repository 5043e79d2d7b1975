import numpy as np
import pytest

from helpers import refine
from vmlab import (
    MeasurableSet,
    MeasureSpace,
    NormSpec,
    Partition,
    SimpleFunction,
    VectorMeasure,
    associated_measure,
    coordinate_family,
    dyadic_chain,
    integration_operator,
    rank_one_measure,
    rn_operator,
    sign_function,
)
from vmlab.daugavet import FactoredOperator
from vmlab.measure_core import _frozen


def test_space_validation():
    with pytest.raises(ValueError):
        MeasureSpace([1.0, 0.0])
    with pytest.raises(ValueError):
        MeasureSpace([1.0, -0.5])
    with pytest.raises(ValueError):
        MeasureSpace([])
    sp = MeasureSpace.uniform(4)
    assert sp.n == 4
    assert np.sum(sp.weights) == pytest.approx(1.0, abs=0)


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
        sign_function(MeasurableSet(sp, np.zeros(4, dtype=bool))).coeffs, -np.ones(4)
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
    one = Partition(sp, np.zeros(4, dtype=int))
    singles = Partition(sp, np.arange(4))
    assert refine(one, singles)
    assert not refine(singles, one)
    p = Partition(sp, [0, 0, 1, 1])
    q = Partition(sp, [0, 1, 2, 2])
    assert refine(p, q)
    assert not refine(q, p)


def test_partition_validation():
    sp = MeasureSpace.uniform(4)
    for block_of in ([0, 0, 1, 3], [0, 0, 0, 5]):  # block 2, blocks 1 to 4 empty
        with pytest.raises(ValueError, match="every block must be nonempty"):
            Partition(sp, block_of)
    with pytest.raises(ValueError, match="block indices must be nonnegative"):
        Partition(sp, [0, 0, -1, 1])
    with pytest.raises(ValueError, match="block map length"):
        Partition(sp, [0, 1])


def test_partition_derives_its_block_count_from_its_map():
    sp = MeasureSpace.uniform(4)
    for block_of, count in (([0, 0, 0, 0], 1), ([2, 0, 1, 1], 3), (np.arange(4), 4)):
        p = Partition(sp, block_of)
        assert p.n_blocks == count and type(p.n_blocks) is int
    with pytest.raises(TypeError):
        Partition(sp, [0, 0, 1, 1], 2)


def test_partition_refuses_non_integer_block_indices():
    sp = MeasureSpace.uniform(3)
    for block_of in ([0.0, 0.7, 1.5], np.array([0.0, 1.0, 1.0]), ["0", "1", "1"]):
        with pytest.raises(ValueError, match="block indices must be integers"):
            Partition(sp, block_of)
    p = Partition(sp, np.array([0, 1, 1], dtype=np.uint8))
    assert p.block_of.tolist() == [0, 1, 1] and p.n_blocks == 2


@pytest.mark.parametrize("indices", [[-1], [0, -4], [-5]])
def test_atom_indices_refuse_a_negative_index(indices):
    sp = MeasureSpace.uniform(4)  # [-1] would select the last atom
    with pytest.raises(ValueError, match=r"atom indices must be integers in 0\.\.3"):
        MeasurableSet.from_indices(sp, indices)


@pytest.mark.parametrize("indices", [[0.7, 2.9], [1.0], [True], ["1"]])
def test_atom_indices_refuse_non_integers(indices):
    sp = MeasureSpace.uniform(4)  # [0.7, 2.9] would select atoms 0 and 2
    with pytest.raises(ValueError, match=r"atom indices must be integers in 0\.\.3"):
        MeasurableSet.from_indices(sp, indices)


@pytest.mark.parametrize("indices", [[4], [0, 7]])
def test_atom_indices_refuse_an_index_past_the_last_atom(indices):
    sp = MeasureSpace.uniform(4)
    with pytest.raises(ValueError, match=r"atom indices must be integers in 0\.\.3"):
        MeasurableSet.from_indices(sp, indices)
    assert MeasurableSet.from_indices(sp, [3, 0]).members.tolist() == [True, False, False, True]
    assert not MeasurableSet.from_indices(sp, []).members.any()


def test_dyadic_chain_shapes():
    sp = MeasureSpace.uniform(4)
    chain = dyadic_chain(2, sp)
    assert [p.n_blocks for p in chain] == [1, 2, 4]
    assert [p.n_blocks for p in dyadic_chain(np.int64(2), sp)] == [1, 2, 4]
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


@pytest.mark.parametrize("levels", [True, False, 2.0, 1.5, "2", None, -1])
def test_dyadic_chain_refuses_levels_that_are_not_an_integer(levels):
    # True once read as level 1, 2.0 failed in 1 << levels with a TypeError
    with pytest.raises(ValueError, match="levels must be an integer >= 0"):
        dyadic_chain(levels, MeasureSpace.uniform(8))


def test_dyadic_chain_refines():
    sp = MeasureSpace(np.random.default_rng(0).uniform(0.1, 1.0, 16))
    chain = dyadic_chain(4, sp)
    for a, b in zip(chain, chain[1:]):
        assert refine(a, b)


def test_block_masses_sum_to_total():
    rng = np.random.default_rng(1)
    sp = MeasureSpace(rng.uniform(0.1, 1.0, 12))
    p = Partition(sp, [0, 1, 1, 1, 2, 0, 2, 2, 2, 2, 2, 2])
    assert np.sum(p.block_masses()) == pytest.approx(np.sum(sp.weights), abs=1e-12)


def _frozen_owner(shape, dtype=float):
    a = np.arange(int(np.prod(shape)), dtype=dtype).reshape(shape).copy()
    a.setflags(write=False)
    return a


def _read_only_view_of_writable():
    v = np.arange(6.0).reshape(2, 3)[:]
    v.setflags(write=False)
    return v


def _frozen_np_matrix():
    a = np.matrix(np.arange(6.0).reshape(2, 3))
    a.setflags(write=False)
    return a


def _read_only_memmap(tmp_path):
    path = tmp_path / "atoms.bin"
    np.arange(6.0).tofile(path)
    return np.memmap(path, dtype=float, mode="r", shape=(2, 3))


HELD = {
    "frozen C array": lambda tmp_path: _frozen_owner((2, 3)),
    "transpose of a frozen C array": lambda tmp_path: _frozen_owner((2, 3)).T,
    "frozen zero-size array": lambda tmp_path: _frozen_owner((0, 3)),
}
COPIED = {
    "writable array": lambda tmp_path: np.arange(6.0).reshape(2, 3).copy(),
    "writable Fortran array": lambda tmp_path: np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    "read-only view of a writable owner": lambda tmp_path: _read_only_view_of_writable(),
    "strided frozen view": lambda tmp_path: _frozen_owner((2, 6))[:, ::2],
    "frozen array of another dtype": lambda tmp_path: _frozen_owner((2, 3), np.float32),
    "frozen np.matrix": lambda tmp_path: _frozen_np_matrix(),
    "np.frombuffer array": lambda tmp_path: np.frombuffer(np.arange(6.0).tobytes()),
    "read-only np.memmap": _read_only_memmap,
}


@pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
@pytest.mark.parametrize("case", sorted(HELD) + sorted(COPIED))
def test_frozen_holds_a_frozen_contiguous_array_and_copies_the_rest(case, tmp_path):
    a = {**HELD, **COPIED}[case](tmp_path)
    out = _frozen(a, float)
    if case in HELD:
        assert out is a
        return
    assert type(out) is np.ndarray and out.dtype == np.float64 and not out.flags.writeable
    assert np.array_equal(out, np.asarray(a)) and not np.shares_memory(out, a)
    if isinstance(a, np.ndarray) and (a.flags.c_contiguous or a.flags.f_contiguous):
        assert (out.flags.c_contiguous, out.flags.f_contiguous) == (a.flags.c_contiguous, a.flags.f_contiguous)


def _rn_level_and_its_operator():
    space = MeasureSpace([0.5, 1.0, 1.5, 2.0])
    m = VectorMeasure(space, NormSpec("L2", 3, [1.0, 2.0, 0.5]), np.arange(12.0).reshape(4, 3) - 5.0)
    R = rn_operator(m, *coordinate_family(m, 2))
    return associated_measure(R).atoms, R.entries


def _round_trip_through_the_integration_operator():
    space = MeasureSpace([0.5, 1.0, 1.5, 2.0])
    m = VectorMeasure(space, NormSpec("LINF", 3, 1.0), np.arange(12.0).reshape(4, 3) - 5.0)
    return associated_measure(integration_operator(m)).atoms, m.atoms


def _l1_of_mu_and_the_weights():
    space = MeasureSpace([0.5, 1.0, 1.5, 2.0])
    return NormSpec.l1_of_mu(space).scale, space.weights


def _factored_operator_and_a_rank_one_record():
    space = MeasureSpace([0.5, 1.0, 1.5, 2.0])
    record = rank_one_measure(space, [1.0, -2.0, 0.5, 3.0]).record
    return FactoredOperator(space, 0.0, record.g).g, record.g


SHARED = {
    "an rn level and its operator's entries": _rn_level_and_its_operator,
    "m -> I_m -> m": _round_trip_through_the_integration_operator,
    "l1_of_mu and the weights": _l1_of_mu_and_the_weights,
    "a FactoredOperator and a RankOne record's g": _factored_operator_and_a_rank_one_record,
}


@pytest.mark.parametrize("case", sorted(SHARED))
def test_value_types_hold_what_another_value_type_froze(case):
    held, frozen = SHARED[case]()
    assert np.shares_memory(held, frozen)
