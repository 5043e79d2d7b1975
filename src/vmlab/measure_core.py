"""Finite atomized measure spaces, measurable sets, partitions, simple functions.

Everything lives on a fixed list of atoms with strictly positive weights; the
sigma-algebra is the full power set, realized as dense boolean masks.  All
types are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _frozen(a, dtype) -> np.ndarray:
    """The freeze rule of every value type: ``a`` itself if it is a plain C- or
    F-contiguous ndarray of ``dtype``, read-only down to the ndarray owning its
    data, else a read-only copy in ``a``'s layout (so ``np.matrix``, ``np.memmap``
    and data owned by ``bytes`` or an ``mmap`` are copied).  Immutability is by
    convention: holding what the caller froze adds no way to mutate a value."""
    if type(a) is np.ndarray and not a.flags.writeable and a.dtype == dtype and a.flags.forc:
        owner = a
        while type(owner) is np.ndarray and not owner.flags.writeable:
            if owner.base is None:
                return a
            owner = owner.base
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Atoms 0..n-1 with strictly positive weights mu_i."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen(self.weights, float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be positive and finite")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n: int) -> "MeasureSpace":
        if n < 1:
            raise ValueError("need at least one atom")
        return cls(np.full(n, 1.0 / n))

    @property
    def n(self) -> int:
        return self.weights.size


def same_space(a: MeasureSpace, b: MeasureSpace) -> bool:
    return a is b or (a.n == b.n and np.array_equal(a.weights, b.weights))


@dataclass(frozen=True, eq=False)
class MeasurableSet:
    """Subset of atoms as a boolean membership mask."""

    space: MeasureSpace
    members: np.ndarray

    def __post_init__(self):
        mask = _frozen(self.members, bool)
        if mask.shape != (self.space.n,):
            raise ValueError("membership mask length must equal the number of atoms")
        object.__setattr__(self, "members", mask)

    @classmethod
    def full(cls, space: MeasureSpace) -> "MeasurableSet":
        mask = np.ones(space.n, dtype=bool)
        mask.setflags(write=False)  # fresh, so the set holds it
        return cls(space, mask)

    @classmethod
    def from_indices(cls, space: MeasureSpace, indices) -> "MeasurableSet":
        ids = np.asarray(indices)  # no truncation of floats, no wrap-around from the end
        if ids.size and (ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= space.n):
            raise ValueError(f"atom indices must be integers in 0..{space.n - 1}")
        mask = np.zeros(space.n, dtype=bool)
        mask[ids.astype(int)] = True
        return cls(space, mask)


@dataclass(frozen=True, eq=False)
class SimpleFunction:
    """Real coefficient per atom; doubles as a function, a density, or a dual element."""

    space: MeasureSpace
    coeffs: np.ndarray

    def __post_init__(self):
        c = _frozen(self.coeffs, float)
        if c.shape != (self.space.n,):
            raise ValueError("coefficient vector length must equal the number of atoms")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zeros(cls, space: MeasureSpace) -> "SimpleFunction":
        return cls(space, np.zeros(space.n))

    @classmethod
    def indicator(cls, A: MeasurableSet) -> "SimpleFunction":
        return cls(A.space, A.members.astype(float))


def l1_mu_norm(f: SimpleFunction) -> float:
    """Scalar L1(mu) norm, sum of mu_i |f_i|."""
    return float(np.sum(np.abs(f.coeffs) * f.space.weights))


def sign_function(A: MeasurableSet) -> SimpleFunction:
    """The +-1 valued function that is +1 on A and -1 on its complement."""
    return SimpleFunction(A.space, np.where(A.members, 1.0, -1.0))


@dataclass(frozen=True, eq=False)
class Partition:
    """Partition of the atoms into nonempty blocks 0..n_blocks-1, stored atom -> block;
    ``n_blocks``, the largest block index plus one, is derived from ``block_of``."""

    space: MeasureSpace
    block_of: np.ndarray
    n_blocks: int = field(init=False)

    def __post_init__(self):
        if np.asarray(self.block_of).dtype.kind not in "iu":
            raise ValueError("block indices must be integers")
        b = _frozen(self.block_of, int)
        if b.shape != (self.space.n,):
            raise ValueError("block map length must equal the number of atoms")
        if b.min() < 0:
            raise ValueError("block indices must be nonnegative")
        if not (sizes := np.bincount(b)).all():
            raise ValueError("every block must be nonempty")
        object.__setattr__(self, "block_of", b)
        object.__setattr__(self, "n_blocks", sizes.size)

    def blocks(self) -> list[np.ndarray]:
        """Derived view: list of atom-index arrays, one per block."""
        return [np.flatnonzero(self.block_of == k) for k in range(self.n_blocks)]

    def block_masses(self) -> np.ndarray:
        return np.bincount(self.block_of, weights=self.space.weights, minlength=self.n_blocks)


def dyadic_chain(levels: int, space: MeasureSpace) -> list[Partition]:
    """Refinement chain P_0, ..., P_levels where P_k has 2^k contiguous equal-size
    blocks; ``levels`` is an integer >= 0 (not a bool) with 2^levels dividing n."""
    if isinstance(levels, bool) or not isinstance(levels, (int, np.integer)) or levels < 0:
        raise ValueError(f"levels must be an integer >= 0, got {levels!r}")
    n = space.n
    if levels >= n.bit_length() or n % (1 << levels) != 0:
        raise ValueError(f"number of atoms {n} is not divisible by 2**{levels}")
    return [Partition(space, np.arange(n) // (n >> k)) for k in range(levels + 1)]
