"""Vector measures on an atomized space.

A measure is determined by its value on each atom; the value on a set is the
sum over its atoms.  Scalarizing against a dual vector x* gives a scalar
measure with atom masses <m_i, x*>, whose density against the atom weights

    phi_i = <m_i, x*> / mu_i

is the discrete Radon-Nikodym derivative; ``rn_derivatives`` gives the
densities of a whole stack of dual vectors with one matrix product.  The
integration map sends a coefficient vector f to sum_i f_i m_i.

A measure is given by its atom matrix or by a ``record`` of what it is,
which builds the atoms on first read (see ``VectorMeasure``); ``combine``
records nothing.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .measure_core import MeasureSpace, Partition, SimpleFunction, _frozen, same_space
from .normed_space import NormSpec, same_norm


def block_average(atoms: np.ndarray, p: Partition) -> np.ndarray:
    """Atom i of the average over the blocks of p: (mu_i / mu(B(i))) m(B(i))."""
    block_values = np.zeros((p.n_blocks, atoms.shape[1]))
    np.add.at(block_values, p.block_of, atoms)
    scale = p.space.weights / p.block_masses()[p.block_of]
    return scale[:, None] * block_values[p.block_of]


def truncate(atoms: np.ndarray, k: int) -> np.ndarray:
    """A copy of the atoms with value-space coordinates k on zeroed."""
    return np.where(np.arange(atoms.shape[1]) < k, atoms, 0.0)


@dataclass(frozen=True)
class Indicator:
    """A |-> chi_A, atom i |-> e_i; the value space has dimension n."""

    def build(self, space: MeasureSpace) -> np.ndarray:
        return np.eye(space.n)


@dataclass(frozen=True)
class Expectation:
    """A |-> E_p chi_A, the indicator measure averaged over the blocks of p."""

    p: Partition

    def build(self, space: MeasureSpace) -> np.ndarray:
        return block_average(np.eye(space.n), self.p)


@dataclass(frozen=True)
class Truncation:
    """A |-> P_k chi_A, the indicator measure with coordinates k on zeroed."""

    k: int

    def build(self, space: MeasureSpace) -> np.ndarray:
        return truncate(np.eye(space.n), self.k)


@dataclass(frozen=True, eq=False)
class RankOne:
    """A |-> mu(A) g; g goes through ``measure_core._frozen``."""

    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g", _frozen(self.g, float))

    def build(self, space: MeasureSpace) -> np.ndarray:
        return np.outer(space.weights, self.g)


@dataclass(frozen=True, eq=False)
class VectorMeasure:
    """Assignment of a value-space vector to each atom; additive on sets.

    Built from an atom matrix (positionally), it holds the matrix if it is
    frozen, contiguous and float, else a frozen copy (``measure_core._frozen``),
    checks that it is finite, and ``record`` is None.  Built from a ``record``
    instead, ``Indicator()`` (A |-> chi_A), ``Expectation(p)`` (A |-> E_p
    chi_A), ``Truncation(k)`` (A |-> P_k chi_A) or ``RankOne(g)`` (A |-> mu(A)
    g), it checks the record now and builds ``atoms`` from it once, on first
    read, so the two cannot disagree.  Engines read the record, never the atom
    entries.
    """

    space: MeasureSpace
    X: NormSpec
    matrix: InitVar[Optional[np.ndarray]] = None
    record: Optional[object] = None

    def __post_init__(self, matrix):
        r, n, d = self.record, self.space.n, self.X.dim
        if (matrix is None) == (r is None):
            raise ValueError("a measure takes exactly one of an atom matrix and a record")
        if r is not None and type(r) not in (Indicator, Expectation, Truncation, RankOne):
            raise ValueError(f"unknown measure record {r!r}")
        a = _frozen(matrix, float) if r is None else None
        shape = a.shape if r is None else (n, *r.g.shape) if type(r) is RankOne else (n, n)
        if shape != (n, d):
            raise ValueError(f"atom matrix must be {n} x {d}, got {shape}")
        if type(r) is Expectation and not same_space(r.p.space, self.space):
            raise ValueError("partition lives on a different space")
        if type(r) is Truncation and not (type(r.k) is int and 1 <= r.k <= d):
            raise ValueError(f"rank must be an int in 1..{d}, got {r.k!r}")
        # the entries mu_i g_j are all finite iff the product of the two maxima is
        peak = float(self.space.weights.max()) * float(np.abs(r.g).max()) if type(r) is RankOne else 0.0
        if not np.isfinite(peak) or (a is not None and not np.all(np.isfinite(a))):
            raise ValueError("atom values must be finite")
        if a is not None:
            self.__dict__["atoms"] = a

    @cached_property
    def atoms(self) -> np.ndarray:
        """The read-only n x d atom matrix."""
        a = self.record.build(self.space)
        a.setflags(write=False)
        return a


def same_setting(m: VectorMeasure, m1: VectorMeasure) -> bool:
    return same_space(m.space, m1.space) and same_norm(m.X, m1.X)


def indicator_measure(space: MeasureSpace, X: Optional[NormSpec] = None) -> VectorMeasure:
    """A |-> chi_A, atom i |-> e_i, into X (default the discretized L1(mu), where
    its integration map is the identity); X must have dimension n."""
    X = NormSpec.l1_of_mu(space) if X is None else X
    return VectorMeasure(space, X, record=Indicator())


def rank_one_measure(space: MeasureSpace, g, X: Optional[NormSpec] = None) -> VectorMeasure:
    """A |-> mu(A) * g into X (default the discretized L1(mu)), recorded as RankOne(g)."""
    X = NormSpec.l1_of_mu(space) if X is None else X
    return VectorMeasure(space, X, record=RankOne(g))


def scalarize(m: VectorMeasure, xstar) -> SimpleFunction:
    """Atom masses of the scalar measure A |-> <m(A), x*>."""
    xstar = np.asarray(xstar, dtype=float)
    return SimpleFunction(m.space, m.atoms @ xstar)


def rn_derivative(m: VectorMeasure, xstar) -> SimpleFunction:
    """Density of the scalarized measure against the atom weights."""
    return SimpleFunction(m.space, scalarize(m, xstar).coeffs / m.space.weights)


def rn_derivatives(m: VectorMeasure, xstars) -> np.ndarray:
    """Densities for a stack of dual vectors: row k is the density for xstars[k].

    Accepts one dual vector or a (p, d) stack, and returns a C-contiguous
    (p, n) array; an empty stack gives shape (0, n).  The densities come from
    one matrix product, which is exact for coordinate vectors (every row then
    has the bits of ``rn_derivative``) but may round differently from
    one-at-a-time ``rn_derivative`` calls for general dense vectors.
    """
    xstars = np.asarray(xstars, dtype=float)
    if xstars.shape == (0,):
        xstars = xstars.reshape(0, m.X.dim)
    xstars = np.atleast_2d(xstars)
    if xstars.ndim != 2 or xstars.shape[1] != m.X.dim:
        raise ValueError(f"dual vectors must have dimension {m.X.dim}, got shape {xstars.shape}")
    return (xstars @ m.atoms.T) / m.space.weights


def combine(m: VectorMeasure, lam: float, m1: VectorMeasure) -> VectorMeasure:
    """m + lam * m1 atomwise, recorded as plain atoms."""
    if not same_setting(m, m1):
        raise ValueError("measures live on different spaces or value spaces")
    return VectorMeasure(m.space, m.X, m.atoms + lam * m1.atoms)
