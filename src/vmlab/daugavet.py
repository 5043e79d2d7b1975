"""Operator norms on the discretized scalar L1 and Daugavet-equation defects.

The unit ball of the discretized L1(mu) has extreme points +-chi_i/mu_i, so
the norm of any operator with that domain is the maximum of the codomain
norms of its weighted columns.  On top of that column formula the module
measures

  * the Daugavet defect  ||Id|| + ||T|| - ||Id + T||  (zero iff the Daugavet
    equation holds for T); for a rank-one T = g (h mu)^T the columns of
    Id + T have the closed-form norms of ``rank_one_defect``, so that case
    takes O(n) time and memory instead of dense n x n matrices,
  * the center defect    ||G|| + ||T|| - ||G + T||,
  * the identity between the operator norm of a combined integration map
    I_m + lambda I_m1 on L1(mu) and the sup over dual extreme points of the
    sup-norm of the combined derivative densities,
  * an empirical gap bound for approximating an operator by a finite sum:
    whenever ||G + T|| >= C + ||T|| over a family, any sum T_hat from that
    family keeps ||G - T_hat|| >= C.

The canonical measure pair (indicator measure, rank-one measure mu(A) * g)
realizes the same function space twice with integration maps of a completely
different nature; both representations are isometric to the scalar L1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NotNormalized
from .measure_core import MeasureSpace, SimpleFunction, l1_mu_norm, same_space
from .normed_space import L1, NormSpec, dual_extreme_points, norm_rows, same_norm
from .rng import SplitMix64
from .vector_measure import VectorMeasure, indicator_measure, rank_one_measure, same_setting

_COLUMN_CHUNK = 512


def _frozen_matrix(a) -> np.ndarray:
    """Read-only float matrix; float arrays read-only down to their data's owner pass uncopied."""
    owner = a
    while isinstance(owner, np.ndarray) and not owner.flags.writeable and owner.base is not None:
        owner = owner.base
    if isinstance(owner, np.ndarray) and not owner.flags.writeable and a.dtype == np.float64:
        return a
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense operator from the discretized L1(mu) into a normed value space.

    Input arrays are copied unless they and every array they view are
    read-only; those are adopted as-is (the internal builders freeze what
    they own, so operator algebra at large n never duplicates the entries).
    """

    entries: np.ndarray  # (codomain.dim, domain.n)
    domain: MeasureSpace
    codomain: NormSpec

    def __post_init__(self):
        e = _frozen_matrix(self.entries)
        if e.shape != (self.codomain.dim, self.domain.n):
            raise ValueError(
                f"entries must be {self.codomain.dim} x {self.domain.n}, got {e.shape}"
            )
        object.__setattr__(self, "entries", e)

    def apply(self, f: SimpleFunction) -> np.ndarray:
        return self.entries @ f.coeffs


def _same_shape(a: OperatorMatrix, b: OperatorMatrix) -> bool:
    return same_space(a.domain, b.domain) and same_norm(a.codomain, b.codomain)


def identity_operator(space: MeasureSpace) -> OperatorMatrix:
    entries = np.eye(space.n)
    entries.setflags(write=False)
    return OperatorMatrix(entries, space, NormSpec.l1_of_mu(space))


def integration_operator(m: VectorMeasure) -> OperatorMatrix:
    """The matrix of f |-> sum_i f_i m_i with columns the atom vectors."""
    return OperatorMatrix(m.atoms.T, m.space, m.X)


def rank_one_operator(space: MeasureSpace, g, h) -> OperatorMatrix:
    """f |-> (sum_i h_i f_i mu_i) * g on the discretized L1(mu)."""
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    entries = np.outer(g, h * space.weights)
    entries.setflags(write=False)
    return OperatorMatrix(entries, space, NormSpec.l1_of_mu(space))


def combine_operators(a: OperatorMatrix, lam: float, b: OperatorMatrix) -> OperatorMatrix:
    if not _same_shape(a, b):
        raise ValueError("operators have different domains or codomains")
    entries = a.entries + b.entries if lam == 1.0 else a.entries + lam * b.entries
    entries.setflags(write=False)
    return OperatorMatrix(entries, a.domain, a.codomain)


@dataclass(frozen=True)
class OpNormResult:
    """Operator norm with the attaining (smallest-index) scaled column."""

    value: float
    witness_column: int


def opnorm_from_l1(S: OperatorMatrix) -> OpNormResult:
    """max_i || S (chi_i / mu_i) ||, the exact norm off the L1(mu) ball."""
    n = S.domain.n
    mu = S.domain.weights
    best_value = -np.inf
    best_column = 0
    for start in range(0, n, _COLUMN_CHUNK):
        stop = min(start + _COLUMN_CHUNK, n)
        vals = norm_rows(S.codomain, S.entries[:, start:stop].T) / mu[start:stop]
        i = int(np.argmax(vals))
        if vals[i] > best_value:
            best_value = float(vals[i])
            best_column = start + i
    return OpNormResult(best_value, best_column)


@dataclass(frozen=True)
class DefectReport:
    """Norms of two operators and their sum; defect zero means equality in the triangle."""

    norm_G: float
    norm_T: float
    norm_sum: float

    def __post_init__(self):
        if self.defect < -1e-10:
            raise ValueError("triangle inequality violated; norms are inconsistent")

    @property
    def defect(self) -> float:
        return self.norm_G + self.norm_T - self.norm_sum


def _require_l1_endomorphism(T: OperatorMatrix):
    ok = (
        T.codomain.kind == L1
        and T.codomain.dim == T.domain.n
        and np.array_equal(T.codomain.scale, T.domain.weights)
    )
    if not ok:
        raise ValueError("operator must map the discretized L1(mu) to itself")


def daugavet_defect(T: OperatorMatrix) -> DefectReport:
    """||Id|| + ||T|| - ||Id + T|| with every norm computed, none assumed."""
    _require_l1_endomorphism(T)
    ident = identity_operator(T.domain)
    return center_defect(ident, T)


def _rank_one_norms(mu: np.ndarray, g: np.ndarray, t: np.ndarray):
    """(||T||, ||Id + T||) for T = g t^T on L1(mu), batched over leading axes.

    Column j of Id + T is e_j + t_j g, whose L1(mu) norm is
    |t_j| ||g|| + mu_j (|1 + t_j g_j| - |t_j g_j|); column j of T alone has
    norm |t_j| ||g||.  Each operator norm is the largest column norm over mu_j.
    """
    g_norm = np.sum(np.abs(g) * mu, axis=-1, keepdims=True)
    cols = np.abs(t) * g_norm
    tg = t * g
    sums = cols + mu * (np.abs(1.0 + tg) - np.abs(tg))
    return np.max(cols / mu, axis=-1), np.max(sums / mu, axis=-1)


def rank_one_defect(space: MeasureSpace, g, h) -> DefectReport:
    """``daugavet_defect(rank_one_operator(space, g, h))`` in O(n), no matrix built.

    At power-of-two uniform sizes with g = +-1 and h = 1 the result is
    bitwise the dense one; elsewhere the two differ in the last bits.
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if g.shape != (space.n,) or h.shape != (space.n,):
        raise ValueError(f"g and h must have length {space.n}")
    norm_t, norm_sum = _rank_one_norms(space.weights, g, h * space.weights)
    return DefectReport(1.0, float(norm_t), float(norm_sum))


def center_defect(G: OperatorMatrix, T: OperatorMatrix) -> DefectReport:
    """||G|| + ||T|| - ||G + T||; zero iff G and T add their norms."""
    if not _same_shape(G, T):
        raise ValueError("operators have different domains or codomains")
    norm_g = opnorm_from_l1(G).value
    norm_t = opnorm_from_l1(T).value
    norm_sum = opnorm_from_l1(combine_operators(G, 1.0, T)).value
    return DefectReport(norm_g, norm_t, norm_sum)


@dataclass(frozen=True)
class DensityIdentityReport:
    """Two evaluations of || I_m + lambda I_m1 || that must agree.

    ``operator_side`` is the column formula on L1(mu); ``density_side`` is
    the sup over dual extreme points of the sup-norm of the combined
    derivative densities; ``atom_side`` is the common closed form
    max_i || m_i + lambda m1_i || / mu_i obtained by exchanging the suprema.
    """

    operator_side: float
    density_side: float
    atom_side: float

    @property
    def gap(self) -> float:
        return abs(self.operator_side - self.density_side)


def density_norm_identity(
    m: VectorMeasure, m1: VectorMeasure, lam: float
) -> DensityIdentityReport:
    """Check that the combined operator norm equals the density-side supremum."""
    if not same_setting(m, m1):
        raise ValueError("measures live on different spaces or value spaces")
    combined = combine_operators(integration_operator(m), lam, integration_operator(m1))
    operator_side = opnorm_from_l1(combined).value

    mu = m.space.weights
    pts = dual_extreme_points(m.X)  # NotPolyhedral for L2-type value norms
    densities = np.abs((m.atoms + lam * m1.atoms) @ pts.T) / mu[:, None]
    density_side = float(np.max(densities))

    atom_side = float(np.max(norm_rows(m.X, m.atoms + lam * m1.atoms) / mu))
    return DensityIdentityReport(operator_side, density_side, atom_side)


@dataclass(frozen=True)
class SeriesGapReport:
    """Measured distance ||G - sum(parts)|| against the empirical center constant."""

    gap_norm: float
    c_estimate: float


def _sampled_rank_ones(space: MeasureSpace, samples: int, seed: int):
    """Rows g_s, t_s = h_s mu of ``samples`` seeded rank-one operators g_s t_s^T.

    Each sample draws n normals for g, then n for h; g is scaled to unit
    L1(mu) norm and h to unit sup norm, so every operator has norm one.
    """
    draws = SplitMix64(seed).normals(2 * samples * space.n).reshape(samples, 2, space.n)
    g, h = draws[:, 0], draws[:, 1]
    g /= np.sum(np.abs(g) * space.weights, axis=1, keepdims=True)
    h /= np.max(np.abs(h), axis=1, keepdims=True)
    return g, h * space.weights


def _is_identity(G: OperatorMatrix) -> bool:
    e = G.entries
    return np.count_nonzero(e) == G.domain.n and bool(np.all(np.diagonal(e) == 1.0))


def _sampled_center_values(G: OperatorMatrix, samples: int, seed: int) -> np.ndarray:
    """||G + T_s|| - ||T_s|| over the default sampled family, without operator copies.

    The identity is recognised from its entries (n nonzeros, unit diagonal).
    """
    if not same_norm(G.codomain, NormSpec.l1_of_mu(G.domain)):
        raise ValueError("operators have different domains or codomains")
    mu = G.domain.weights
    g, t = _sampled_rank_ones(G.domain, samples, seed)
    norm_t, norm_id_sum = _rank_one_norms(mu, g, t)
    if _is_identity(G):
        return norm_id_sum - norm_t
    columns = np.ascontiguousarray(G.entries.T)  # row j is column j of G
    norm_sum = np.empty(samples)
    for s in range(samples):
        column_abs = np.outer(t[s], g[s])
        column_abs += columns
        np.abs(column_abs, out=column_abs)
        norm_sum[s] = np.max((column_abs @ mu) / mu)
    return norm_sum - norm_t


def series_approximation_gap(
    G: OperatorMatrix,
    parts: Sequence[OperatorMatrix],
    family: Optional[Sequence[OperatorMatrix]] = None,
    samples: int = 64,
    seed: int = 0,
) -> SeriesGapReport:
    """Distance from G to the sum of the parts, with the center constant estimated.

    ``c_estimate`` is the minimum of ||G + T|| - ||T|| over the parts and the
    comparison family (by default ``samples`` seeded random rank-one
    operators of unit norm).  When that minimum is a true lower bound C over
    the span, no sum from the family can approach G closer than C; at finite
    n the bound only holds approximately, so both numbers are reported and
    nothing is asserted.

    The default family never becomes ``OperatorMatrix`` objects: its norms
    come from the O(n) rank-one column formula when G is the identity, and
    from the column sums of |G + T_s| otherwise.  The parts and an explicit
    ``family`` go through ``opnorm_from_l1`` on dense matrices.
    """
    for T in parts:
        if not _same_shape(G, T):
            raise ValueError("operators have different domains or codomains")
    total = np.zeros_like(G.entries)
    for T in parts:
        total = total + T.entries
    residual = G.entries - total
    residual.setflags(write=False)
    gap_norm = opnorm_from_l1(OperatorMatrix(residual, G.domain, G.codomain)).value
    candidates = list(parts) + (list(family) if family is not None else [])
    c_estimate = np.inf
    for T in candidates:
        value = (
            opnorm_from_l1(combine_operators(G, 1.0, T)).value
            - opnorm_from_l1(T).value
        )
        c_estimate = min(c_estimate, value)
    if family is None and samples > 0:
        c_estimate = min(c_estimate, float(np.min(_sampled_center_values(G, samples, seed))))
    return SeriesGapReport(gap_norm, float(c_estimate))


def canonical_pair(space: MeasureSpace, g: SimpleFunction, tol: float = 1e-10):
    """The indicator measure and the rank-one measure mu(A) * g, g of unit L1(mu) norm.

    Both represent the discretized scalar L1 isometrically; their integration
    maps are the identity and a rank-one map.
    """
    if not same_space(space, g.space):
        raise ValueError("density lives on a different space")
    gnorm = l1_mu_norm(g)
    if abs(gnorm - 1.0) > tol:
        raise NotNormalized(f"the rank-one density must have unit L1(mu) norm, got {gnorm}")
    return indicator_measure(space), rank_one_measure(space, g.coeffs)
