"""Operator norms on the discretized scalar L1 and Daugavet-equation defects.

The unit ball of the discretized L1(mu) has extreme points +-chi_i/mu_i, so
the norm of any operator with that domain is the maximum of the codomain
norms of its weighted columns.  Operators come dense (``OperatorMatrix``) or
factored (``FactoredOperator`` delta Id + g mu^T, the form that
``integration_operator`` gives the indicator and rank-one measures into
L1(mu)).  Factored sums stay factored, with O(n) closed-form norms; any other
sum is dense, and dense norms depend on the entries only, not on their memory
layout.  On any mix of forms the module measures

  * the Daugavet defect  ||Id|| + ||T|| - ||Id + T||  (zero iff the Daugavet
    equation holds for T); ``rank_one_defect`` is the O(n) case
    T = g (h mu)^T for any h,
  * the center defect    ||G|| + ||T|| - ||G + T||,
  * an empirical gap bound for approximating an operator by a finite sum:
    whenever ||G + T|| >= C + ||T|| over a family, any sum T_hat from that
    family keeps ||G - T_hat|| >= C; on the factored Id and g mu^T the gap,
    the parts and the sampled family cost O(samples * n),

and, from the atoms, the identity between the operator norm of
a combined map I_m + lambda I_m1 on L1(mu) and the sup over dual extreme
points of the sup-norm of the combined derivative densities.

The canonical measure pair (indicator measure, rank-one measure mu(A) * g)
realizes the same function space twice with integration maps of a completely
different nature; both representations are isometric to the scalar L1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .measure_core import MeasureSpace, _frozen, same_space
from .normed_space import NormSpec, dual_extreme_blocks, norm_rows, same_norm
from .rng import SplitMix64
from .vector_measure import Indicator, RankOne, VectorMeasure, combine, indicator_measure

_COLUMN_CHUNK = 512


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense operator from the discretized L1(mu) into a normed value space.

    ``entries`` go through ``measure_core._frozen``: a frozen contiguous
    float array is held, anything else copied.  The internal builders
    freeze what they make, so operator algebra at large n never duplicates
    the entries.
    """

    entries: np.ndarray  # (codomain.dim, domain.n)
    domain: MeasureSpace
    codomain: NormSpec

    def __post_init__(self):
        e = _frozen(self.entries, float)
        if e.shape != (self.codomain.dim, self.domain.n):
            raise ValueError(
                f"entries must be {self.codomain.dim} x {self.domain.n}, got {e.shape}"
            )
        object.__setattr__(self, "entries", e)


def _same_shape(a: OperatorMatrix, b: OperatorMatrix) -> bool:
    return same_space(a.domain, b.domain) and same_norm(a.codomain, b.codomain)


def identity_operator(space: MeasureSpace) -> OperatorMatrix:
    entries = np.eye(space.n)
    entries.setflags(write=False)
    return OperatorMatrix(entries, space, NormSpec.l1_of_mu(space))


def integration_operator(m: VectorMeasure):
    """f |-> sum_i f_i m_i: factored for the records ``Indicator()`` and ``RankOne(g)``
    into L1(mu), building no atoms; otherwise the matrix whose columns are the atoms."""
    if same_norm(m.X, NormSpec.l1_of_mu(m.space)):
        if type(m.record) is Indicator:
            return FactoredOperator(m.space, 1.0, np.zeros(m.space.n))
        if type(m.record) is RankOne:
            return FactoredOperator(m.space, 0.0, m.record.g)
    return OperatorMatrix(m.atoms.T, m.space, m.X)


def rank_one_operator(space: MeasureSpace, g, h) -> OperatorMatrix:
    """f |-> (sum_i h_i f_i mu_i) * g on the discretized L1(mu)."""
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    entries = np.outer(g, h * space.weights)
    entries.setflags(write=False)
    return OperatorMatrix(entries, space, NormSpec.l1_of_mu(space))


@dataclass(frozen=True, eq=False)
class FactoredOperator:
    """delta * Id + g mu^T on the discretized L1(mu), kept as delta and g.

    Column j is delta e_j + mu_j g.  Id and g mu^T are the integration
    maps of ``indicator_measure`` and ``rank_one_measure`` (see
    ``integration_operator``); sums and differences of such maps keep the
    form.  ``g`` goes through ``measure_core._frozen``, so a frozen float
    vector such as a ``RankOne`` record's g is held, not copied.
    """

    domain: MeasureSpace
    delta: float
    g: np.ndarray

    def __post_init__(self):
        g = _frozen(self.g, float)
        if g.shape != (self.domain.n,):
            raise ValueError(f"g must have length {self.domain.n}, got shape {g.shape}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def codomain(self) -> NormSpec:
        return NormSpec.l1_of_mu(self.domain)

    @cached_property
    def entries(self) -> np.ndarray:
        """The read-only n x n matrix delta Id + g mu^T, built on first read."""
        e = np.outer(self.g, self.domain.weights)
        e.flat[:: self.domain.n + 1] += self.delta
        e.setflags(write=False)
        return e


def combine_operators(a, lam: float, b) -> OperatorMatrix:
    """a + lam * b as a dense operator; either may be factored."""
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
        rows = np.ascontiguousarray(S.entries[:, start:stop].T)  # bits independent of layout
        vals = norm_rows(S.codomain, rows) / mu[start:stop]
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
        if self.defect < -1e-10 * max(1.0, self.norm_G + self.norm_T):
            raise ValueError("triangle inequality violated; norms are inconsistent")

    @property
    def defect(self) -> float:
        return self.norm_G + self.norm_T - self.norm_sum


def daugavet_defect(T) -> DefectReport:
    """||Id|| + ||T|| - ||Id + T|| with every norm computed, Id factored; T maps L1(mu) to itself."""
    return center_defect(integration_operator(indicator_measure(T.domain)), T)


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


def _opnorm(S) -> float:
    """||S||: the column formula on a dense S, the closed form on a factored one.

    ||delta Id + g mu^T|| = |delta| ||Id + (g / delta) mu^T|| by ``_rank_one_norms``.
    """
    if isinstance(S, OperatorMatrix):
        return opnorm_from_l1(S).value
    mu = S.domain.weights
    if S.delta == 0.0:
        return float(_rank_one_norms(mu, S.g, mu)[0])
    return abs(S.delta) * float(_rank_one_norms(mu, S.g / S.delta, mu)[1])


def _plus(a, lam: float, b):
    """a + lam * b: factored when both are, else dense by ``combine_operators``."""
    both_factored = isinstance(a, FactoredOperator) and isinstance(b, FactoredOperator)
    if both_factored and same_space(a.domain, b.domain):
        return FactoredOperator(a.domain, a.delta + lam * b.delta, a.g + lam * b.g)
    return combine_operators(a, lam, b)


def rank_one_defect(space: MeasureSpace, g, h) -> DefectReport:
    """``daugavet_defect(rank_one_operator(space, g, h))`` in O(n), no matrix built.

    At power-of-two uniform sizes with g = +-1 and h = 1 the result is
    bitwise the dense one; elsewhere the two differ in the last bits.  With
    h = 1 it is bitwise ``daugavet_defect(integration_operator(rank_one_measure(space, g)))``.
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if g.shape != (space.n,) or h.shape != (space.n,):
        raise ValueError(f"g and h must have length {space.n}")
    norm_t, norm_sum = _rank_one_norms(space.weights, g, h * space.weights)
    return DefectReport(1.0, float(norm_t), float(norm_sum))


def center_defect(G, T) -> DefectReport:
    """||G|| + ||T|| - ||G + T||, in either form; zero iff they add norms."""
    total = _plus(G, 1.0, T)
    return DefectReport(_opnorm(G), _opnorm(T), _opnorm(total))


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
    """Check that the combined operator norm equals the density-side supremum.

    The columns of I_m + lambda I_m1 are the combined atoms m_i + lambda m1_i,
    ``combine(m, lam, m1).atoms``; the report holds the three evaluations.
    The density side scores the dual extreme points 2^12 at a time into one
    n x 2^12 buffer: O(n 2^12) floats, about 1 MB of temporaries at n = d = 16."""
    combined = combine(m, lam, m1).atoms
    operator_side = opnorm_from_l1(OperatorMatrix(combined.T, m.space, m.X)).value

    mu = m.space.weights
    peaks, values = [], np.empty(0)
    for pts in dual_extreme_blocks(m.X):  # one of each +-x*; NotPolyhedral for L2-type value norms
        out = values if values.shape[1:] == pts.shape[:1] else None  # one buffer for all full blocks
        values = np.matmul(combined, pts.T, out=out)
        peaks.append(np.max(np.divide(np.abs(values, out=values), mu[:, None], out=values)))
    density_side = float(np.max(peaks))
    atom_side = float(np.max(norm_rows(m.X, combined) / mu))
    return DensityIdentityReport(operator_side, density_side, atom_side)


@dataclass(frozen=True)
class SeriesGapReport:
    """Measured distance ||G - sum(parts)|| against the empirical center constant."""

    gap_norm: float
    c_estimate: float


def _sampled_rank_ones(space: MeasureSpace, samples: int, seed: int):
    """Rows g_s, h_s of ``samples`` seeded rank-one operators g_s (h_s mu)^T.

    Each sample draws n normals for g, then n for h; g is scaled to unit
    L1(mu) norm and h to unit sup norm, so every operator has norm one.
    """
    draws = SplitMix64(seed).normals(2 * samples * space.n).reshape(samples, 2, space.n)
    g, h = draws[:, 0], draws[:, 1]
    g /= np.sum(np.abs(g) * space.weights, axis=1, keepdims=True)
    h /= np.max(np.abs(h), axis=1, keepdims=True)
    return g, h


def _sampled_center_values(G, samples: int, seed: int) -> np.ndarray:
    """||G + T_s|| - ||T_s|| over the sampled family, without operator copies.

    For a factored G = g mu^T, column j of G + g_s (h_s mu)^T is
    mu_j (g + h_sj g_s), whose norm over mu_j is the convex function
    phi_s(r) = sum_i mu_i |g_i + r g_si| at r = h_sj; its largest value over j
    sits at the smallest or the largest h_sj, so two columns per sample
    suffice.  For G = delta Id the columns of ``_rank_one_norms`` apply.  Any
    other G, dense or factored, pays one n x n temporary per sample.
    """
    if not same_norm(G.codomain, NormSpec.l1_of_mu(G.domain)):
        raise ValueError("operators have different domains or codomains")
    factored = isinstance(G, FactoredOperator)
    mu = G.domain.weights
    g, h = _sampled_rank_ones(G.domain, samples, seed)
    t = h * mu
    if factored and G.delta != 0.0 and not np.any(G.g):
        norm_t, norm_sum = _rank_one_norms(mu, g / G.delta, t)
        return abs(G.delta) * (norm_sum - norm_t)
    norm_t = _rank_one_norms(mu, g, t)[0]
    if factored and G.delta == 0.0:
        ends = np.stack([np.min(h, axis=1), np.max(h, axis=1)], axis=1)
        columns = ends[:, :, None] * g[:, None, :]  # (samples, 2, n)
        columns += G.g
        np.abs(columns, out=columns)
        return np.max(columns @ mu, axis=1) - norm_t
    columns = np.ascontiguousarray(G.entries.T)  # row j is column j of G
    norm_sum = np.empty(samples)
    for s in range(samples):
        column_abs = np.outer(t[s], g[s])
        column_abs += columns
        np.abs(column_abs, out=column_abs)
        norm_sum[s] = np.max((column_abs @ mu) / mu)
    return norm_sum - norm_t


def series_approximation_gap(G, parts: Sequence, samples: int = 64, seed: int = 0) -> SeriesGapReport:
    """Distance from G to the sum of the parts, with the center constant estimated.

    ``c_estimate`` is the minimum of ||G + T|| - ||T|| over the parts and,
    when ``samples > 0``, ``samples`` seeded random rank-one operators of
    unit norm.  When that minimum is a true lower bound C over the span, no
    sum of such operators can approach G closer than C; at finite n the
    bound only holds approximately, so both numbers are reported and nothing
    is asserted.

    G and the parts may mix the two forms; the parts are subtracted one at a
    time.  Sums of factored operators stay factored: the residual and every
    sum are again delta Id + g mu^T, with column norms over mu_j equal to
    ||g|| + |delta + mu_j g_j| - |mu_j g_j|.  The sampled operators are never
    built, so on G = delta Id or G = g mu^T the whole call costs
    O(samples * n); any other G reads its n x n entries.
    """
    residual = G
    for T in parts:
        residual = _plus(residual, -1.0, T)
    gap_norm = _opnorm(residual)
    c_estimate = np.inf
    for T in parts:
        c_estimate = min(c_estimate, _opnorm(_plus(G, 1.0, T)) - _opnorm(T))
    if samples > 0:
        c_estimate = min(c_estimate, float(np.min(_sampled_center_values(G, samples, seed))))
    return SeriesGapReport(gap_norm, float(c_estimate))
