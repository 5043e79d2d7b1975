"""The norm engine for spaces of functions integrable against a vector measure.

For a simple function f the norm equals both

    sup over sets A of  || integral of f * h_A dm ||_X      (h_A = chi_A - chi_A^c)
    sup over the dual ball of  sum_i |f_i| |<m_i, x*>|,

which at finite n reduces to a maximum over sign patterns, respectively over
the extreme points of the dual ball.  Three engines realize this:

  * ``norm_exact``        exhaustive enumeration of sign patterns against the
                          entrywise absolute value of f, scored in blocks of
                          2^12 patterns (pattern count is 2^(support-1); ties
                          go to the lexicographically smallest pattern,
                          all-plus encoded as zero),
  * ``norm_closed_form``  enumeration of dual extreme points for polyhedral
                          value norms, with O(n d) fast paths for sup-type
                          norms and for sign-consistent atom matrices,
  * ``norm_heuristic``    seeded steepest-ascent hill climbing, a lower bound.

``koethe_dual_norm`` evaluates the associated dual function norm
``sup { |sum_i f_i g_i mu_i| : ||f|| <= 1 }`` by linear programming on
polyhedral value spaces (finitely many ball inequalities over u = |f| >= 0,
with f = sign(g)*u), and by projected supergradient ascent otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapacityExceeded, NotPolyhedral
from .measure_core import MeasurableSet, SimpleFunction
from .normed_space import L1, L1_EXTREME_LIMIT, L2, LINF, dual_extreme_half, norm_rows
from .normed_space import norm as x_norm
from .opt_engine import LinearProgram, UNBOUNDED, best_sign_pattern, hill_climb, solve_lp
from .rng import SplitMix64
from .vector_measure import VectorMeasure, combine

EXACT = "exact"
CLOSED_FORM = "closed_form"
HEURISTIC = "heuristic"

DEFAULT_EXACT_CUTOFF = 16
DEFAULT_LP_CUTOFF = 12
# 2^(d-1) ball constraints in the dual-norm LP stop here.
KOETHE_CORNER_LIMIT = 14


@dataclass(frozen=True, eq=False)
class NormResult:
    """A norm value together with the set attaining it and the engine used."""

    value: float
    witness_set: MeasurableSet
    method: str


def integrate(m: VectorMeasure, f: SimpleFunction) -> np.ndarray:
    """The integration map: sum_i f_i m_i."""
    return f.coeffs @ m.atoms


def _support(f: SimpleFunction) -> np.ndarray:
    return np.flatnonzero(f.coeffs != 0.0)


def _witness_from_pattern(f: SimpleFunction, support, delta) -> MeasurableSet:
    """The set {i : delta_i f_i >= 0}, with off-support atoms carrying +1."""
    mask = np.ones(f.space.n, dtype=bool)
    mask[support] = delta * f.coeffs[support] > 0.0
    return MeasurableSet(f.space, mask)


def norm_exact(
    m: VectorMeasure, f: SimpleFunction, exact_cutoff: int = DEFAULT_EXACT_CUTOFF
) -> NormResult:
    """Exhaustive sign-pattern maximum of || sum_i eps_i |f_i| m_i ||_X.

    Atoms where f vanishes contribute nothing and are skipped, so the budget
    is 2^(support size - 1) patterns, refused above ``exact_cutoff``.
    """
    support = _support(f)
    k = support.size
    if k == 0:
        return NormResult(0.0, MeasurableSet.full(f.space), EXACT)
    if k > exact_cutoff:
        raise CapacityExceeded(f"support size {k} exceeds the exact cutoff {exact_cutoff}")
    a = np.abs(f.coeffs[support])[:, None] * m.atoms[support]
    delta, _ = best_sign_pattern(a, lambda sums: norm_rows(m.X, sums))
    value = x_norm(m.X, delta @ a)  # the winner's value, free of block summation order
    return NormResult(value, _witness_from_pattern(f, support, delta), EXACT)


def _closed_form_linf(m: VectorMeasure, f: SimpleFunction) -> NormResult:
    absf = np.abs(f.coeffs)
    per_coord = m.X.scale * (absf @ np.abs(m.atoms))
    j = int(np.argmax(per_coord))
    mask = f.coeffs * m.atoms[:, j] >= 0.0
    return NormResult(float(per_coord[j]), MeasurableSet(f.space, mask), CLOSED_FORM)


def _rows_sign_consistent(rows: np.ndarray) -> bool:
    return bool(np.all((rows.min(axis=1) >= 0.0) | (rows.max(axis=1) <= 0.0)))


def norm_closed_form(m: VectorMeasure, f: SimpleFunction) -> NormResult:
    """Maximum of sum_i |f_i| |<m_i, x*>| over the dual ball's extreme points.

    Requires a polyhedral value norm.  Sup-type norms need only the 2d
    coordinate functionals; l1-type norms need the 2^(d-1) corners with a
    fixed sign in the last coordinate (a corner and its negative score alike),
    except that sign-consistent atom rows make the all-plus corner provably
    maximal and the enumeration collapses to a single evaluation.
    """
    if m.X.kind == L2:
        raise NotPolyhedral("no finite dual extreme-point set for an L2-type value norm")
    if m.X.kind == LINF:
        return _closed_form_linf(m, f)

    w = m.X.scale
    absf = np.abs(f.coeffs)
    support = _support(f)
    if support.size == 0 or _rows_sign_consistent(m.atoms[support]):
        # |<m_i, sigma*w>| <= sum_j w_j |m_ij| for every corner, with equality
        # at the all-plus corner when each row has one sign
        value = float(absf @ (np.abs(m.atoms) @ w))
        mask = f.coeffs * (m.atoms @ w) >= 0.0
        return NormResult(value, MeasurableSet(f.space, mask), CLOSED_FORM)

    d = m.X.dim
    if d > L1_EXTREME_LIMIT:
        raise CapacityExceeded(
            f"2^{d} dual corners exceed the enumeration limit (d <= {L1_EXTREME_LIMIT})"
        )
    weighted = absf[:, None] * m.atoms  # (n, d)
    # a corner and its negative score alike, so the pinned half suffices;
    # reversed rows give code bit j to coordinate j
    axes = np.diag(w)[::-1]
    pattern, best_value = best_sign_pattern(axes, lambda c: np.abs(weighted @ c.T).sum(axis=0))
    best_corner = pattern[::-1] * w
    mask = f.coeffs * (m.atoms @ best_corner) >= 0.0
    return NormResult(best_value, MeasurableSet(f.space, mask), CLOSED_FORM)


def norm_heuristic(
    m: VectorMeasure, f: SimpleFunction, restarts: int = 8, seed: int = 0
) -> NormResult:
    """Hill-climbing lower bound for the sign-pattern maximum; deterministic per seed."""
    if restarts < 1:
        raise ValueError("need at least one restart")
    support = _support(f)
    if support.size == 0:
        return NormResult(0.0, MeasurableSet.full(f.space), HEURISTIC)
    a = np.abs(f.coeffs[support])[:, None] * m.atoms[support]
    # the value is x_norm(m.X, delta @ a) bitwise, the one a caller recomputes
    delta, value = hill_climb(a, lambda sums: x_norm(m.X, sums), restarts=restarts, seed=seed)
    return NormResult(value, _witness_from_pattern(f, support, delta), HEURISTIC)


def norm_best(
    m: VectorMeasure,
    f: SimpleFunction,
    exact_cutoff: int = DEFAULT_EXACT_CUTOFF,
    restarts: int = 8,
    seed: int = 0,
) -> NormResult:
    """Cheapest sound engine for the instance; heuristic only as a last resort."""
    if m.X.is_polyhedral:
        try:
            return norm_closed_form(m, f)
        except CapacityExceeded:
            pass
    try:
        return norm_exact(m, f, exact_cutoff=exact_cutoff)
    except CapacityExceeded:
        return norm_heuristic(m, f, restarts=restarts, seed=seed)


def deviation(
    m: VectorMeasure,
    m1: VectorMeasure,
    f: SimpleFunction,
    exact_cutoff: int = DEFAULT_EXACT_CUTOFF,
    restarts: int = 8,
    seed: int = 0,
) -> float:
    """sup over A of || integral of f h_A d(m - m1) ||, the deviation seminorm.

    Exact engines are used whenever capacity allows; the value bounds the
    difference of the two function-space norms of f.
    """
    diff = combine(m, -1.0, m1)
    return norm_best(diff, f, exact_cutoff=exact_cutoff, restarts=restarts, seed=seed).value


def norm_gap_bound_check(
    m: VectorMeasure,
    m1: VectorMeasure,
    f: SimpleFunction,
    tol: float = 1e-10,
    exact_cutoff: int = DEFAULT_EXACT_CUTOFF,
) -> bool:
    """Verify | ||f||_m - ||f||_m1 | <= deviation(m, m1, f) + tol."""
    na = norm_best(m, f, exact_cutoff=exact_cutoff).value
    nb = norm_best(m1, f, exact_cutoff=exact_cutoff).value
    return abs(na - nb) <= deviation(m, m1, f, exact_cutoff=exact_cutoff) + tol


@dataclass(frozen=True, eq=False)
class KoetheDualResult:
    value: float
    method: str
    maximizer: Optional[SimpleFunction]


def _koethe_ball_rows(m: VectorMeasure) -> np.ndarray:
    """|<m_i, x*>| for one of each pair +-x* of dual extreme points, one row per x*."""
    if m.X.kind == L1 and m.X.dim > KOETHE_CORNER_LIMIT:
        raise CapacityExceeded(
            f"2^{m.X.dim - 1} ball constraints exceed the limit (d <= {KOETHE_CORNER_LIMIT})"
        )
    return np.abs(dual_extreme_half(m.X) @ m.atoms.T)


def koethe_dual_norm_info(
    m: VectorMeasure,
    g: SimpleFunction,
    lp_cutoff: int = DEFAULT_LP_CUTOFF,
    seed: int = 0,
) -> KoetheDualResult:
    """Dual function norm of g with the engine and maximizer reported."""
    if m.X.kind == L2:
        value, fstar = _koethe_supergradient(m, g, seed=seed)
        return KoetheDualResult(value, HEURISTIC, fstar)
    if m.space.n > lp_cutoff:
        raise CapacityExceeded(f"{m.space.n} atoms exceed the dual-norm LP cutoff {lp_cutoff}")

    # the ball norm depends on |f| alone: an LP over u = |f| >= 0, with f = sign(g)*u
    c = g.coeffs * m.space.weights
    sol = solve_lp(LinearProgram(np.abs(c), [(row, "<=", 1.0) for row in _koethe_ball_rows(m)]))
    if sol.status == UNBOUNDED:
        return KoetheDualResult(float("inf"), EXACT, None)
    fstar = SimpleFunction(m.space, np.sign(c) * sol.point)
    return KoetheDualResult(max(float(sol.value), 0.0), EXACT, fstar)


def koethe_dual_norm(
    m: VectorMeasure,
    g: SimpleFunction,
    lp_cutoff: int = DEFAULT_LP_CUTOFF,
    seed: int = 0,
) -> float:
    """sup { |sum_i f_i g_i mu_i| : ||f|| <= 1 }.

    LP-exact for polyhedral value norms; for L2-type norms the value is a
    supergradient-ascent lower bound (see ``koethe_dual_norm_info``).
    """
    return koethe_dual_norm_info(m, g, lp_cutoff=lp_cutoff, seed=seed).value


_ASCENT_RESTARTS = 32
_ASCENT_STEPS = 48


def _ball_norms(m: VectorMeasure, F: np.ndarray) -> np.ndarray:
    """``norm_best`` of each row of F, bitwise.

    Rows without a zero share one stacked exact sign search when the value
    norm is not polyhedral and n is within the exact cutoff; every other row
    (a shrunken support, a closed form or the heuristic) takes ``norm_best``
    alone.
    """
    exact = not m.X.is_polyhedral and F.shape[1] <= DEFAULT_EXACT_CUTOFF
    stacked = np.all(F != 0.0, axis=1) & exact
    out = np.empty(F.shape[0])
    for r in (~stacked).nonzero()[0]:
        out[r] = norm_best(m, SimpleFunction(m.space, F[r])).value
    if stacked.any():
        a = np.abs(F[stacked])[:, :, None] * m.atoms
        pattern, _ = best_sign_pattern(a, lambda sums: norm_rows(m.X, sums))
        out[stacked] = x_norm(m.X, np.matmul(pattern[:, None, :], a)[:, 0])
    return out


def _koethe_supergradient(m: VectorMeasure, g: SimpleFunction, seed: int = 0):
    """Projected supergradient ascent of the linear objective over the unit ball.

    All restarts advance together as the rows of one array.  The best value
    is the first maximum in restart-major, step-minor order, kept only when
    it is positive.
    """
    n = m.space.n
    c = g.coeffs * m.space.weights
    cn = float(np.sqrt(np.sum(c * c)))
    if cn == 0.0:
        return 0.0, SimpleFunction.zeros(m.space)
    direction = c / cn
    F = SplitMix64(seed).normals(_ASCENT_RESTARTS * n).reshape(_ASCENT_RESTARTS, n)
    nrm = _ball_norms(m, F)
    np.divide(F, nrm[:, None], out=F, where=(nrm > 0.0)[:, None])
    best = np.zeros(_ASCENT_RESTARTS)
    best_F = np.zeros_like(F)
    for t in range(_ASCENT_STEPS):
        F += (1.0 / np.sqrt(t + 1.0)) * direction
        nrm = _ball_norms(m, F)
        np.divide(F, nrm[:, None], out=F, where=(nrm > 1.0)[:, None])
        value = np.abs(np.matmul(F[:, None, :], c)[:, 0])  # each row bitwise c @ f
        better = value > best
        best[better] = value[better]
        best_F[better] = F[better]
    r = int(np.argmax(best))
    if not best[r] > 0.0:
        return 0.0, SimpleFunction.zeros(m.space)
    return float(best[r]), SimpleFunction(m.space, best_F[r])
