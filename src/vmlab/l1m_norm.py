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

``ENGINES`` holds (label, refusal, run) for each, closed form first; refusals
decide from sizes and the support's sign pattern.  ``norm_best`` runs the
first engine that does not refuse; ``NormResult.refused`` has the reasons.

``deviation`` runs no engine for the indicator measure into L1(mu) against
its average A |-> E_p chi_A over blocks of one weight: there the deviation
has a block closed form, one sort per block, O(n log n) and exact at any size.

``koethe_dual_norm_info`` evaluates the associated dual function norm
``sup { |sum_i f_i g_i mu_i| : ||f|| <= 1 }`` by linear programming on
polyhedral value spaces (finitely many ball inequalities over u = |f| >= 0,
with f = sign(g)*u), and by projected supergradient ascent otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import CapacityExceeded, NotPolyhedral
from .measure_core import MeasurableSet, Partition, SimpleFunction
from .normed_space import L1, L1_EXTREME_LIMIT, L2, LINF, NormSpec, dual_extreme_blocks, norm_rows
from .normed_space import norm as x_norm, same_norm
from .opt_engine import SIGN_ENUM_LIMIT, LinearProgram, UNBOUNDED, best_sign_pattern, hill_climb
from .opt_engine import solve_lp
from .rng import SplitMix64
from .vector_measure import Expectation, Indicator, VectorMeasure, combine, same_setting

EXACT = "exact"
CLOSED_FORM = "closed_form"
HEURISTIC = "heuristic"

DEFAULT_EXACT_CUTOFF = 16
DEFAULT_LP_CUTOFF = 12
# 2^(d-1) ball constraints in the dual-norm LP stop here.
KOETHE_CORNER_LIMIT = 14


@dataclass(frozen=True, eq=False)
class NormResult:
    """A norm value, the set attaining it, the engine used and the engines passed over."""

    value: float
    witness_set: MeasurableSet
    method: str
    refused: tuple = ()


def integrate(m: VectorMeasure, f: SimpleFunction) -> np.ndarray:
    """The integration map: sum_i f_i m_i."""
    return f.coeffs @ m.atoms


def _support(f: SimpleFunction) -> np.ndarray:
    return np.flatnonzero(f.coeffs != 0.0)


def _witness_from_pattern(f: SimpleFunction, support, delta) -> MeasurableSet:
    """The set {i : delta_i f_i >= 0}, with off-support atoms carrying +1."""
    mask = np.ones(f.space.n, dtype=bool)
    mask[support] = delta * f.coeffs[support] > 0.0
    mask.setflags(write=False)  # fresh, so the set holds it
    return MeasurableSet(f.space, mask)


def _enumeration_refusal(m: VectorMeasure, f: SimpleFunction, exact_cutoff: int):
    k, limit = np.count_nonzero(f.coeffs), min(exact_cutoff, SIGN_ENUM_LIMIT)
    if k > limit:
        return CapacityExceeded(f"support size {k} exceeds the enumeration limit {limit}")
    return None


def norm_exact(
    m: VectorMeasure, f: SimpleFunction, exact_cutoff: int = DEFAULT_EXACT_CUTOFF
) -> NormResult:
    """Exhaustive sign-pattern maximum of || sum_i eps_i |f_i| m_i ||_X.

    Atoms where f vanishes contribute nothing and are skipped, so the budget
    is 2^(support size - 1) patterns, refused above min(exact_cutoff, SIGN_ENUM_LIMIT).
    """
    if (refusal := _enumeration_refusal(m, f, exact_cutoff)) is not None:
        raise refusal
    support = _support(f)
    if support.size == 0:
        return NormResult(0.0, MeasurableSet.full(f.space), EXACT)
    a = np.abs(f.coeffs[support])[:, None] * m.atoms[support]
    delta, _ = best_sign_pattern(a, lambda sums: norm_rows(m.X, sums))
    value = x_norm(m.X, delta @ a)  # the winner's value, free of block summation order
    return NormResult(value, _witness_from_pattern(f, support, delta), EXACT)


def _rows_sign_consistent(rows: np.ndarray) -> bool:
    """No row has both a positive and a negative entry (zeros of either sign are neither)."""
    negative = rows < 0.0
    if not negative.any():
        return True
    mixed = np.logical_or.reduce(negative, axis=1) & np.logical_or.reduce(rows > 0.0, axis=1)
    return not mixed.any()


def _closed_form_refusal(m: VectorMeasure, f: SimpleFunction, exact_cutoff=None):
    if m.X.kind == L2:
        return NotPolyhedral("no finite dual extreme-point set for an L2-type value norm")
    d = m.X.dim
    if m.X.kind == L1 and d > L1_EXTREME_LIMIT:
        if not _rows_sign_consistent(m.atoms if np.all(f.coeffs) else m.atoms[_support(f)]):
            return CapacityExceeded(f"2^{d} dual corners exceed the limit d <= {L1_EXTREME_LIMIT}")
    return None


def norm_closed_form(m: VectorMeasure, f: SimpleFunction) -> NormResult:
    """Maximum of sum_i |f_i| |<m_i, x*>| over the dual ball's extreme points.

    Requires a polyhedral value norm.  Sup-type norms need only the 2d
    coordinate functionals; l1-type norms need the 2^(d-1) corners with a
    fixed sign in the last coordinate (a corner and its negative score alike),
    except that sign-consistent atom rows make the all-plus corner provably
    maximal and the enumeration collapses to a single evaluation.
    """
    if (refusal := _closed_form_refusal(m, f)) is not None:
        raise refusal
    absf, w = np.abs(f.coeffs), m.X.scale
    if m.X.kind == LINF:
        per_coord = w * (absf @ np.abs(m.atoms))
        j = int(np.argmax(per_coord))
        value, pairing = float(per_coord[j]), m.atoms[:, j]
    # past the refusal, rows beyond the corner limit are sign-consistent
    elif m.X.dim > L1_EXTREME_LIMIT or _rows_sign_consistent(m.atoms[_support(f)]):
        # |<m_i, sigma*w>| <= sum_j w_j |m_ij| for every corner, with equality
        # at the all-plus corner when each row has one sign
        value, pairing = float(absf @ (np.abs(m.atoms) @ w)), m.atoms @ w
    else:
        weighted = absf[:, None] * m.atoms  # (n, d)
        # a corner and its negative score alike, so the pinned half suffices;
        # reversed rows give code bit j to coordinate j
        axes = np.diag(w)[::-1]
        pattern, value = best_sign_pattern(axes, lambda c: np.abs(weighted @ c.T).sum(axis=0))
        pairing = m.atoms @ (pattern[::-1] * w)
    mask = f.coeffs * pairing >= 0.0  # <m_i, x*> at the best functional
    mask.setflags(write=False)  # fresh, so the set holds it
    return NormResult(value, MeasurableSet(f.space, mask), CLOSED_FORM)


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


def _block_partition(m: VectorMeasure, m1: VectorMeasure) -> Optional[Partition]:
    """p when m is the indicator measure into L1(mu) and m1 its average
    A |-> E_p chi_A over the blocks of p, every block of one weight; else None."""
    if not isinstance(m.record, Indicator) or not isinstance(m1.record, Expectation):
        return None
    if not same_setting(m, m1) or not same_norm(m.X, NormSpec.l1_of_mu(m.space)):
        return None
    p = m1.record.p
    block_weight = np.empty(p.n_blocks)
    block_weight[p.block_of] = p.space.weights
    return p if np.array_equal(block_weight[p.block_of], p.space.weights) else None


def _norm_block_closed_form(p: Partition, f: SimpleFunction) -> float:
    """The norm over A |-> chi_A - E_p chi_A into L1(mu), blocks of equal weight.

    On a block B of b atoms of weight w_B, with c = |f| and x = eps * c, the
    integral of f h_A has coordinates x_j - mean(x), so B adds
    w_B sum_j |x_j - mean(x)|.  Over the signs that is
    (2/b) max_q [(b - 2q) S_q + q T]: T is the sum of c over B, q the number
    of minus signs and S_q the sum of the q largest c.  The value is
    symmetric under q -> b - q, so q <= b/2 suffices.  Blocks of one size
    are sorted and summed as the rows of one array.
    """
    c = np.abs(f.coeffs)
    sizes = np.bincount(p.block_of, minlength=p.n_blocks)
    members = np.argsort(p.block_of, kind="stable")  # the atoms block by block
    starts = np.cumsum(sizes) - sizes
    block_values = np.zeros(p.n_blocks)
    for b in np.unique(sizes):
        blocks = np.flatnonzero(sizes == b)
        ids = members[starts[blocks, None] + np.arange(b)]
        prefix = np.zeros((blocks.size, b + 1))  # prefix[:, q] is S_q, prefix[:, b] is T
        np.cumsum(-np.sort(-c[ids], axis=1), axis=1, out=prefix[:, 1:])
        q = np.arange(b // 2 + 1)
        scores = (b - 2 * q) * prefix[:, q] + q * prefix[:, -1:]
        block_values[blocks] = (2.0 / b) * p.space.weights[ids[:, 0]] * scores.max(axis=1)
    return float(block_values.sum())


# each run looks its engine up at call time, so wrappers of the module names see the calls
ENGINES = (
    ("closed_form", _closed_form_refusal, lambda m, f, *_: norm_closed_form(m, f)),
    ("enumeration", _enumeration_refusal, lambda m, f, cutoff, *_: norm_exact(m, f, cutoff)),
    ("hill_climbing", lambda *_: None, lambda m, f, _, r, s: norm_heuristic(m, f, r, s)),
)


def norm_best(
    m: VectorMeasure,
    f: SimpleFunction,
    exact_cutoff: int = DEFAULT_EXACT_CUTOFF,
    restarts: int = 8,
    seed: int = 0,
) -> NormResult:
    """Cheapest sound engine for the instance; heuristic only as a last resort.

    Walks ``ENGINES`` (closed form, enumeration, hill climbing), runs the
    first engine that does not refuse, and lists the (label, reason) pairs
    of those before it in ``refused``.
    """
    refused = []
    for label, refusal, run in ENGINES:
        if (reason := refusal(m, f, exact_cutoff)) is None:
            result = run(m, f, exact_cutoff, restarts, seed)
            return replace(result, refused=tuple(refused)) if refused else result
        refused.append((label, str(reason)))


def deviation(
    m: VectorMeasure,
    m1: VectorMeasure,
    f: SimpleFunction,
    exact_cutoff: int = DEFAULT_EXACT_CUTOFF,
    restarts: int = 8,
    seed: int = 0,
) -> float:
    """sup over A of || integral of f h_A d(m - m1) ||, the deviation seminorm.

    The value is ``norm_best`` of f over ``combine(m, -1.0, m1)``, exact
    whenever capacity allows; it bounds the difference of the two norms of f.
    For the indicator measure into L1(mu) against its average over blocks of
    one weight it is the block closed form, exact at any size.
    """
    if (p := _block_partition(m, m1)) is not None:
        return _norm_block_closed_form(p, f)
    diff = combine(m, -1.0, m1)
    return norm_best(diff, f, exact_cutoff=exact_cutoff, restarts=restarts, seed=seed).value


@dataclass(frozen=True, eq=False)
class KoetheDualResult:
    value: float
    method: str
    maximizer: Optional[SimpleFunction]


def _koethe_ball_rows(m: VectorMeasure) -> np.ndarray:
    """|<m_i, x*>| for one of each pair +-x* of dual extreme points, one row per x*,
    written block by block into one array."""
    X = m.X
    if X.kind == L1 and X.dim > KOETHE_CORNER_LIMIT:
        raise CapacityExceeded(
            f"2^{X.dim - 1} ball constraints exceed the limit (d <= {KOETHE_CORNER_LIMIT})"
        )
    blocks = dual_extreme_blocks(X)
    rows = np.empty((X.dim if X.kind == LINF else 1 << (X.dim - 1), m.space.n))
    start = 0
    for block in blocks:  # the product goes straight into its rows: no temporary
        out = rows[start : start + len(block)]
        np.abs(np.matmul(block, m.atoms.T, out=out), out=out)
        start += len(block)
    return rows


def koethe_dual_norm_info(m: VectorMeasure, g: SimpleFunction, seed: int = 0) -> KoetheDualResult:
    """Dual function norm of g with the engine and maximizer reported."""
    if m.X.kind == L2:
        value, fstar = _koethe_supergradient(m, g, seed=seed)
        return KoetheDualResult(value, HEURISTIC, fstar)
    if m.space.n > DEFAULT_LP_CUTOFF:
        raise CapacityExceeded(f"{m.space.n} atoms exceed the LP cutoff {DEFAULT_LP_CUTOFF}")

    # the ball norm depends on |f| alone: an LP over u = |f| >= 0, with f = sign(g)*u
    c = g.coeffs * m.space.weights
    rows = _koethe_ball_rows(m)
    sol = solve_lp(LinearProgram(np.abs(c), rows, np.ones(len(rows))))
    if sol.status == UNBOUNDED:
        return KoetheDualResult(float("inf"), EXACT, None)
    fstar = SimpleFunction(m.space, np.sign(c) * sol.point)
    return KoetheDualResult(max(float(sol.value), 0.0), EXACT, fstar)


_ASCENT_RESTARTS = 32
_ASCENT_STEPS = 48


def _enumerates_full_support(m: VectorMeasure) -> bool:
    """Whether ``norm_best`` gives a function without a zero to enumeration.

    The ``ENGINES`` refusals read only sizes and the support, so the all-ones
    function answers for every function without a zero.
    """
    full = SimpleFunction(m.space, np.ones(m.space.n))
    for label, refusal, _ in ENGINES:
        if refusal(m, full, DEFAULT_EXACT_CUTOFF) is None:
            return label == "enumeration"


def _ball_norms(m: VectorMeasure, F: np.ndarray, enumerates: bool) -> np.ndarray:
    """``norm_best`` of each row of F, bitwise.

    With ``enumerates`` (``_enumerates_full_support``) and no zero in F, the
    rows share one stacked exact sign search; otherwise each row (a shrunken
    support, a closed form or the heuristic) takes norm_best alone.
    """
    if enumerates and F.all():
        a = np.abs(F)[:, :, None] * m.atoms
        pattern, _ = best_sign_pattern(a, lambda sums: norm_rows(m.X, sums))
        return x_norm(m.X, np.matmul(pattern[:, None, :], a)[:, 0])
    return np.array([norm_best(m, SimpleFunction(m.space, row)).value for row in F])


def _koethe_supergradient(m: VectorMeasure, g: SimpleFunction, seed: int = 0):
    """Projected supergradient ascent of the linear objective over the unit ball.

    All restarts advance together as the rows of one array.  The engine that
    norms them is decided once per call, and the step vectors are built once.
    The best value is the first maximum in restart-major, step-minor order,
    kept only when it is positive.
    """
    n = m.space.n
    c = g.coeffs * m.space.weights
    cn = float(np.sqrt(np.sum(c * c)))
    if cn == 0.0:
        return 0.0, SimpleFunction.zeros(m.space)
    direction = c / cn
    steps = (1.0 / np.sqrt(np.arange(1.0, _ASCENT_STEPS + 1.0)))[:, None] * direction
    enumerates = _enumerates_full_support(m)
    F = SplitMix64(seed).normals(_ASCENT_RESTARTS * n).reshape(_ASCENT_RESTARTS, n)
    nrm = _ball_norms(m, F, enumerates)
    np.divide(F, nrm[:, None], out=F, where=(nrm > 0.0)[:, None])
    best = np.zeros(_ASCENT_RESTARTS)
    best_F = np.zeros_like(F)
    for step in steps:
        F += step
        nrm = _ball_norms(m, F, enumerates)
        np.divide(F, nrm[:, None], out=F, where=(nrm > 1.0)[:, None])
        value = np.abs(np.matmul(F[:, None, :], c)[:, 0])  # each row bitwise c @ f
        better = value > best
        np.copyto(best, value, where=better)
        np.copyto(best_F, F, where=better[:, None])
    r = int(np.argmax(best))
    if not best[r] > 0.0:
        return 0.0, SimpleFunction.zeros(m.space)
    return float(best[r]), SimpleFunction(m.space, best_F[r])
