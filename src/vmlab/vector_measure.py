"""Vector measures on an atomized space.

A measure is determined by its value on each atom; the value on a set is the
sum over its atoms.  Scalarizing against a dual vector x* gives a scalar
measure with atom masses <m_i, x*>, whose density against the atom weights

    phi_i = <m_i, x*> / mu_i

is the discrete Radon-Nikodym derivative; ``rn_derivatives`` gives the
densities of a whole stack of dual vectors with one matrix product.  The
integration map sends a coefficient vector f to sum_i f_i m_i.

Records (``kind``, with ``partition``, ``density`` or ``rank``) are written
only by the constructors: ``indicator_measure`` and ``rank_one_measure``
here, ``martingale_measure``, ``basis_truncated_measure`` and ``rn_net`` in
``approx_nets``; ``combine`` records nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NoRybakovFound
from .measure_core import MeasurableSet, MeasureSpace, Partition, SimpleFunction, same_space
from .normed_space import NormSpec, same_norm
from .rng import SplitMix64


ATOMS = "atoms"
INDICATOR = "indicator"
EXPECTATION = "expectation"
RANK_ONE = "rank_one"
TRUNCATION = "truncation"


@dataclass(frozen=True, eq=False)
class VectorMeasure:
    """Assignment of a value-space vector to each atom; additive on sets.

    ``kind`` records what the constructor knows the measure to be; engines
    read it, never the atom entries, to pick a closed form:

      ATOMS        nothing beyond the atom matrix (the default),
      INDICATOR    A |-> chi_A, atom i |-> e_i (``indicator_measure``),
      EXPECTATION  A |-> E_p chi_A, the indicator measure averaged over the
                   blocks of ``partition``,
      RANK_ONE     A |-> mu(A) * g, g kept as ``density`` (``rank_one_measure``),
      TRUNCATION   A |-> P_k chi_A, coordinates k = ``rank`` on zeroed
                   (``basis_truncated_measure``, ``rn_net``, whose atoms keep
                   their operator's rounding).

    ``partition`` is set exactly for EXPECTATION, ``density`` (frozen, shape (X.dim,)) exactly for RANK_ONE, and ``rank``
    (an int in 1..X.dim) exactly for TRUNCATION.
    """

    space: MeasureSpace
    X: NormSpec
    atoms: np.ndarray
    kind: str = ATOMS
    partition: Optional[Partition] = None
    density: Optional[np.ndarray] = None
    rank: Optional[int] = None

    def __post_init__(self):
        a = np.array(self.atoms, dtype=float, copy=True)
        if a.shape != (self.space.n, self.X.dim):
            raise ValueError(
                f"atom matrix must be {self.space.n} x {self.X.dim}, got {a.shape}"
            )
        if not np.all(np.isfinite(a)):
            raise ValueError("atom values must be finite")
        if self.kind not in (ATOMS, INDICATOR, EXPECTATION, RANK_ONE, TRUNCATION):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if (self.partition is not None) != (self.kind == EXPECTATION):
            raise ValueError(f"a partition goes with the kind {EXPECTATION!r} only")
        if self.partition is not None and not same_space(self.partition.space, self.space):
            raise ValueError("partition lives on a different space")
        if (self.density is not None) != (self.kind == RANK_ONE):
            raise ValueError(f"a density goes with the kind {RANK_ONE!r} only")
        if (self.rank is not None) != (self.kind == TRUNCATION):
            raise ValueError(f"a rank goes with the kind {TRUNCATION!r} only")
        if self.rank is not None and not (type(self.rank) is int and 1 <= self.rank <= self.X.dim):
            raise ValueError(f"rank must be an int in 1..{self.X.dim}, got {self.rank!r}")
        if self.density is not None:
            g = np.array(self.density, dtype=float, copy=True)
            if g.shape != (self.X.dim,):
                raise ValueError(f"density must have shape ({self.X.dim},), got {g.shape}")
            g.setflags(write=False)
            object.__setattr__(self, "density", g)
        a.setflags(write=False)
        object.__setattr__(self, "atoms", a)


def same_setting(m: VectorMeasure, m1: VectorMeasure) -> bool:
    return same_space(m.space, m1.space) and same_norm(m.X, m1.X)


def indicator_measure(space: MeasureSpace, X: Optional[NormSpec] = None) -> VectorMeasure:
    """A |-> chi_A, atom i |-> e_i, into X (default the discretized L1(mu), where
    its integration map is the identity); X must have dimension n."""
    X = NormSpec.l1_of_mu(space) if X is None else X
    return VectorMeasure(space, X, np.eye(space.n), kind=INDICATOR)


def rank_one_measure(space: MeasureSpace, g, X: Optional[NormSpec] = None) -> VectorMeasure:
    """A |-> mu(A) * g into X (default the discretized L1(mu)), recorded with density g."""
    X = NormSpec.l1_of_mu(space) if X is None else X
    return VectorMeasure(space, X, np.outer(space.weights, g), kind=RANK_ONE, density=g)


def set_value(m: VectorMeasure, A: MeasurableSet) -> np.ndarray:
    """m(A) = sum of the atom vectors over A."""
    if not same_space(m.space, A.space):
        raise ValueError("set lives on a different space")
    return m.atoms[A.members].sum(axis=0) if np.any(A.members) else np.zeros(m.X.dim)


def scalarize(m: VectorMeasure, xstar) -> SimpleFunction:
    """Atom masses of the scalar measure A |-> <m(A), x*>."""
    xstar = np.asarray(xstar, dtype=float)
    return SimpleFunction(m.space, m.atoms @ xstar)


def variation(m: VectorMeasure, xstar, A: MeasurableSet) -> float:
    """Total variation of the scalarized measure on A: sum over A of |<m_i, x*>|."""
    masses = np.abs(scalarize(m, xstar).coeffs)
    return float(np.sum(masses[A.members]))


def semivariation(m: VectorMeasure, A: MeasurableSet) -> float:
    """Sup of scalarized variations over the dual ball; equals the norm of chi_A."""
    from . import l1m_norm  # deferred: l1m_norm depends on this module

    return l1m_norm.norm_exact(m, SimpleFunction.indicator(A)).value


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
        raise ValueError(
            f"dual vectors must have dimension {m.X.dim}, got shape {xstars.shape}"
        )
    return (xstars @ m.atoms.T) / m.space.weights


def is_rybakov(m: VectorMeasure, xstar, tol: float = 1e-12) -> bool:
    """True iff the scalarized variation dominates m atomwise.

    Whenever <m_i, x*> vanishes (within tol) the whole atom vector m_i must
    vanish; combined with the built-in domination by mu this makes the
    variation measure |<m, x*>| an equivalent base measure for m.
    """
    masses = np.abs(scalarize(m, xstar).coeffs)
    atom_sizes = np.max(np.abs(m.atoms), axis=1)
    return bool(np.all((masses > tol) | (atom_sizes <= tol)))


def find_rybakov(m: VectorMeasure, attempts: int = 100, seed: int = 0, tol: float = 1e-12):
    """Search for a dual vector whose variation measure dominates m.

    Tries the all-ones functional first, then Gaussian draws; generic
    directions work except on a null set, so failure is exceptional.
    """
    ones = np.ones(m.X.dim)
    if is_rybakov(m, ones, tol):
        return ones
    gen = SplitMix64(seed)
    for _ in range(attempts):
        xstar = gen.normals(m.X.dim)
        if is_rybakov(m, xstar, tol):
            return xstar
    raise NoRybakovFound(f"no dominating functional in {attempts} random attempts")


def combine(m: VectorMeasure, lam: float, m1: VectorMeasure) -> VectorMeasure:
    """m + lam * m1 atomwise, recorded as plain atoms."""
    if not same_setting(m, m1):
        raise ValueError("measures live on different spaces or value spaces")
    return VectorMeasure(m.space, m.X, m.atoms + lam * m1.atoms)


def nonunique_derivative_pair(m: VectorMeasure, tol: float = 1e-12):
    """Two distinct dual vectors with identical derivative densities, if any.

    The map x* -> density is linear with kernel equal to the orthogonal
    complement of the atom span, so a pair exists iff the atoms do not span
    the value space.  Returns None when the map is injective.
    """
    _, s, vt = np.linalg.svd(m.atoms, full_matrices=True)
    rank = int(np.sum(s > tol * (s[0] if s.size else 1.0)))
    if rank >= m.X.dim:
        return None
    z = vt[-1]
    base = np.ones(m.X.dim)
    return base, base + z
