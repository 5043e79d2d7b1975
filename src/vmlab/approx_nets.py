"""Approximation nets for integration maps and their convergence diagnostics.

Two concrete net generators are provided:

  * martingale nets: averaging a measure over the blocks of a partition,
    m_p on atom i equals (mu_i / mu(B(i))) * m(B(i)); its integration map
    factors through the conditional-expectation projection of the partition;
  * basis-projection nets: truncating the value-space coordinates, which
    compose the measure with a norm-one projection.

Finite-rank operators built from derivative densities (one density and one
value vector per term) cover both conditional expectations and coordinate
projections; ``run_net`` reports, per net level, the norm gap, the deviation
seminorm, the pointwise integration gap, and a weak* gap over probe
functionals, which together witness or refute convergence of the net.

Derivative densities are computed for the whole stack of probes (or of
family functionals) with one matrix product per measure, via
``rn_derivatives``.  For coordinate probes, the default, that product is
exact and every pairing has the bits of a one-probe-at-a-time computation;
``run_net`` then skips the product and transposes the atoms, with the same
bits.  A stack of general dense probes may round differently in the last
bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .l1m_norm import deviation as deviation_seminorm
from .l1m_norm import DEFAULT_EXACT_CUTOFF, integrate, norm_best
from .measure_core import MeasureSpace, Partition, SimpleFunction, same_space
from .normed_space import NormSpec, norm as x_norm
from .vector_measure import VectorMeasure, rn_derivatives, same_setting


@dataclass(frozen=True, eq=False)
class FiniteRankOperator:
    """f |-> sum_k (sum_i f_i g_{k,i} mu_i) x_k with densities g_k and vectors x_k."""

    space: MeasureSpace
    codomain: NormSpec
    functionals: np.ndarray  # (k, n)
    vectors: np.ndarray      # (k, d)

    def __post_init__(self):
        g = np.atleast_2d(np.array(self.functionals, dtype=float, copy=True))
        x = np.atleast_2d(np.array(self.vectors, dtype=float, copy=True))
        if g.size == 0:
            g = g.reshape(0, self.space.n)
        if x.size == 0:
            x = x.reshape(0, self.codomain.dim)
        if g.shape[1] != self.space.n or x.shape[1] != self.codomain.dim:
            raise ValueError("term dimensions do not match the space or codomain")
        if g.shape[0] != x.shape[0]:
            raise ValueError("need one value vector per functional")
        g.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "functionals", g)
        object.__setattr__(self, "vectors", x)

    def apply(self, f: SimpleFunction) -> np.ndarray:
        if not same_space(f.space, self.space):
            raise ValueError("function lives on a different space")
        coeffs = self.functionals @ (f.coeffs * self.space.weights)
        return coeffs @ self.vectors

    def as_matrix(self) -> np.ndarray:
        """Dense (d, n) matrix of the operator on coefficient vectors."""
        return self.vectors.T @ (self.functionals * self.space.weights[None, :])


def conditional_expectation(space: MeasureSpace, p: Partition) -> FiniteRankOperator:
    """Block averaging: one term per block with density chi_B / mu(B) and vector chi_B.

    The codomain is the discretized L1 over the same atoms, so the operator
    doubles as the n x n averaging matrix via ``as_matrix``.
    """
    if not same_space(space, p.space):
        raise ValueError("partition lives on a different space")
    masses = p.block_masses()
    functionals = np.zeros((p.n_blocks, space.n))
    vectors = np.zeros((p.n_blocks, space.n))
    for b in range(p.n_blocks):
        members = p.block_of == b
        functionals[b, members] = 1.0 / masses[b]
        vectors[b, members] = 1.0
    return FiniteRankOperator(space, NormSpec.l1_of_mu(space), functionals, vectors)


def martingale_measure(m: VectorMeasure, p: Partition) -> VectorMeasure:
    """Average m over the blocks of p: atom i carries (mu_i / mu(B(i))) m(B(i))."""
    if not same_space(m.space, p.space):
        raise ValueError("partition lives on a different space")
    masses = p.block_masses()
    block_values = np.zeros((p.n_blocks, m.X.dim))
    np.add.at(block_values, p.block_of, m.atoms)
    scale = m.space.weights / masses[p.block_of]
    return VectorMeasure(m.space, m.X, scale[:, None] * block_values[p.block_of])


def integrate_martingale(m: VectorMeasure, p: Partition, f: SimpleFunction) -> np.ndarray:
    """sum over blocks of (integral of f over B / mu(B)) * m(B), evaluated blockwise."""
    if not same_space(m.space, p.space):
        raise ValueError("partition lives on a different space")
    masses = p.block_masses()
    block_integrals = np.bincount(
        p.block_of, weights=f.coeffs * m.space.weights, minlength=p.n_blocks
    )
    block_values = np.zeros((p.n_blocks, m.X.dim))
    np.add.at(block_values, p.block_of, m.atoms)
    return (block_integrals / masses) @ block_values


def basis_truncated_measure(m: VectorMeasure, k: int) -> VectorMeasure:
    """Compose m with the projection onto the first k value-space coordinates."""
    if not 1 <= k <= m.X.dim:
        raise ValueError(f"truncation rank {k} out of range 1..{m.X.dim}")
    atoms = m.atoms.copy()
    atoms[:, k:] = 0.0
    return VectorMeasure(m.space, m.X, atoms)


def rn_operator(m: VectorMeasure, functionals: Sequence, vectors: Sequence) -> FiniteRankOperator:
    """Finite-rank operator with one derivative density per supplied dual vector."""
    densities = rn_derivatives(m, list(functionals))
    vectors = np.asarray(list(vectors), dtype=float)
    if len(densities) != len(vectors):
        raise ValueError("need one value vector per dual vector")
    return FiniteRankOperator(m.space, m.X, densities, vectors)


def associated_measure(R: FiniteRankOperator, space: MeasureSpace) -> VectorMeasure:
    """The measure A |-> R(chi_A); on atom i it is R applied to the i-th indicator."""
    if not same_space(space, R.space):
        raise ValueError("operator lives on a different space")
    atoms = (R.functionals * space.weights[None, :]).T @ R.vectors
    return VectorMeasure(space, R.codomain, atoms)


def coordinate_family(m: VectorMeasure, k: int):
    """Dual/vector pairs whose finite-rank operator is the k-term basis projection of I_m."""
    if not 1 <= k <= m.X.dim:
        raise ValueError(f"family size {k} out of range 1..{m.X.dim}")
    eye = np.eye(m.X.dim)
    return [eye[j] for j in range(k)], [eye[j] for j in range(k)]


def expectation_family(m: VectorMeasure, p: Partition):
    """Dual/vector pairs realizing block averaging for measures into discretized L1.

    For the indicator measure the resulting finite-rank operator coincides
    with the conditional expectation of the partition and its associated
    measure with the martingale measure.
    """
    if m.X.dim != m.space.n:
        raise ValueError("expectation family needs the value space indexed by the atoms")
    masses = p.block_masses()
    mu = m.space.weights
    xstars = []
    values = []
    for b in range(p.n_blocks):
        members = (p.block_of == b).astype(float)
        xstars.append(mu * members / masses[b])
        values.append(members @ m.atoms)  # m(B)
    return xstars, values


def _max_pairing(
    diff: np.ndarray, weights: np.ndarray, tests: Sequence[SimpleFunction]
) -> float:
    """max over rows of diff and test functions of | sum_i f_i diff_i mu_i |.

    Each row sum runs over the contiguous last axis, so it has the bits of the
    1-D ``np.sum`` of that row alone.
    """
    gap = 0.0
    for f in tests:
        row_gaps = np.abs(np.sum(f.coeffs * diff * weights, axis=1))
        gap = max(gap, float(np.max(row_gaps, initial=0.0)))
    return gap


def weakstar_gap(
    m: VectorMeasure, m1: VectorMeasure, xstars, tests: Sequence[SimpleFunction]
) -> float:
    """max over dual vectors and test functions of | sum_i f_i (phi1_i - phi_i) mu_i |.

    ``xstars`` is one dual vector or a (p, d) stack; an empty stack or an
    empty test family gives 0.0.  The densities of the stack come from one
    matrix product: exact for coordinate vectors, while general dense
    vectors may round differently in the last bits from one-at-a-time calls.
    """
    if not same_setting(m, m1):
        raise ValueError("measures live on different spaces or value spaces")
    diff = rn_derivatives(m1, xstars) - rn_derivatives(m, xstars)
    return _max_pairing(diff, m.space.weights, tests)


@dataclass(frozen=True)
class NetLevelStats:
    index: int
    norm_gap: float
    deviation: float
    pointwise_gap: float
    weakstar_gap: float


@dataclass(frozen=True)
class NetReport:
    levels: tuple

    def column(self, name: str) -> list[float]:
        return [getattr(level, name) for level in self.levels]


def martingale_net(m: VectorMeasure, partitions: Sequence[Partition]) -> list[VectorMeasure]:
    return [martingale_measure(m, p) for p in partitions]


def basis_net(m: VectorMeasure, ks: Optional[Sequence[int]] = None) -> list[VectorMeasure]:
    if ks is None:
        ks = range(1, m.X.dim + 1)
    return [basis_truncated_measure(m, k) for k in ks]


def _coordinate_densities(m: VectorMeasure) -> np.ndarray:
    """``rn_derivatives(m, np.eye(d))`` with the same bits, without a matrix product.

    Row k of the densities of the coordinate probes is column k of the atoms
    over the weights.  At n = d = 128 the product is large enough for BLAS to
    split it over threads, and on a busy machine each call could then stall
    for milliseconds waiting for a core.
    """
    densities = np.array(m.atoms.T, order="C")
    densities += 0.0  # -0.0 -> +0.0, as the product's zero-started sums give
    densities /= m.space.weights
    return densities


def run_net(
    m: VectorMeasure,
    net: Sequence[VectorMeasure],
    f: SimpleFunction,
    probes: Optional[Sequence] = None,
    tests: Optional[Sequence[SimpleFunction]] = None,
    exact_cutoff: int = DEFAULT_EXACT_CUTOFF,
    restarts: int = 8,
    seed: int = 0,
) -> NetReport:
    """Convergence diagnostics of a net of measures against its target.

    Per level: the norm gap | ||f||_level - ||f||_m |, the deviation
    seminorm (which always dominates the norm gap), the pointwise gap
    || I_m f - I_level f ||_X, and the largest weak* gap over the probe
    functionals evaluated on the test family (defaults to {f}).
    The probes (coordinate vectors by default, whose densities are exact)
    are one stack, rounded as in ``weakstar_gap``; the target's densities
    are computed once per net.
    """
    if probes is None:
        densities = _coordinate_densities
    else:
        densities = partial(rn_derivatives, xstars=np.asarray(probes, dtype=float))
    phi = densities(m)
    if tests is None:
        tests = [f]
    kw = dict(exact_cutoff=exact_cutoff, restarts=restarts, seed=seed)
    target_norm = norm_best(m, f, **kw).value
    target_value = integrate(m, f)
    levels = []
    for idx, m_level in enumerate(net):
        if not same_setting(m, m_level):
            raise ValueError("net member lives on a different space or value space")
        level_norm = norm_best(m_level, f, **kw).value
        dev = deviation_seminorm(m, m_level, f, **kw)
        pointwise = x_norm(m.X, target_value - integrate(m_level, f))
        wsgap = _max_pairing(densities(m_level) - phi, m.space.weights, tests)
        levels.append(
            NetLevelStats(idx, abs(level_norm - target_norm), dev, pointwise, wsgap)
        )
    return NetReport(tuple(levels))
