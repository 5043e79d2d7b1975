"""Shared optimization kernels.

Three small deterministic tools back the norm and dual-norm engines:

  * a one-phase simplex for ``LinearProgram(objective, a, b)``: max
    objective @ x over x >= 0, a @ x <= b with b >= 0, from the slack basis
    with Bland's anti-cycling rule, on the condensed (Tucker)
    tableau: n + 1 columns, one per nonbasic variable plus the right-hand
    side, where the full tableau has n + m + 1.  A pivot gives the entering
    column's slot to the leaving variable and runs one masked elimination,
    so every entry keeps the bits of the full tableau's,
  * exhaustive search over sign patterns (first component pinned to +1),
    scored in blocks of 2^12 patterns by one matrix product each, for one
    problem or a stack of them,
  * steepest-ascent single-flip hill climbing with seeded random restarts
    that ascend in lockstep as the rows of one array; the k flips of every
    live restart are scored from its running sums, in blocks of 2^14 sum
    entries, and the near-best flips again by one stacked product.

Problem sizes are desk scale (a few hundred variables, a few thousand
constraints).  The simplex and the sign kernels replace per-row and
per-pattern Python loops by numpy arrays; their tie rules keep results
bit-for-bit deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CapacityExceeded
from .rng import SplitMix64

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-9
SIGN_ENUM_LIMIT = 24
_BLOCK_BITS = 12
_BATCH_RTOL = 1e-9  # batch values this close to the batch maximum are scored again
_FLIP_BLOCK = 1 << 14  # flip sum entries per hill_climb objective call


def sign_table(scale, bits: int) -> np.ndarray:
    """The (2^bits, len(scale)) table whose row t is -scale_j where bit j of t
    is set and +scale_j otherwise; columns from ``bits`` on keep +scale_j.

    Built by doubling: rows [0, 2^j) are copied to [2^j, 2^(j+1)) and column j
    of the copy is set to -scale_j, so every entry is exactly +-scale_j.
    """
    scale = np.asarray(scale, dtype=float)
    table = np.empty((1 << bits, scale.size))
    table[0] = scale
    for j in range(bits):
        h = 1 << j
        table[h : 2 * h] = table[:h]
        table[h : 2 * h, j] = -scale[j]  # the rows below 2h with bit j set
    return table


# row t holds the signs of the low code bits of t: -1 where bit b of t is set;
# the last column is +1 throughout
_LOW_SIGNS = sign_table(np.ones(_BLOCK_BITS + 1), _BLOCK_BITS)
_LOW_SIGNS.setflags(write=False)


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective @ x over x >= 0 subject to a @ x <= b with b >= 0, for an
    m x n row array ``a``; float arrays are held as given, not copied.  The origin
    is feasible, so the slack basis starts the simplex."""

    objective: np.ndarray
    a: np.ndarray
    b: np.ndarray

    bounds = None  # read by bench/spans.py until ROADMAP item 2

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if c.ndim != 1 or b.ndim != 1 or a.shape != (b.size, c.size):
            raise ValueError(f"shapes a {a.shape}, b {b.shape}, objective {c.shape}; want (m, n), (m,), (n,)")
        negative = ~(b >= 0.0)  # NaN too
        if negative.any():
            raise ValueError(f"right-hand side {float(b[negative.argmax()])!r} must be >= 0")
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
            raise ValueError("objective, rows and right-hand sides must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def constraints(self) -> list:  # read by bench/spans.py until ROADMAP item 2
        return [(ai, "<=", bi) for ai, bi in zip(self.a, self.b)]


@dataclass(frozen=True)
class LPSolution:
    status: str
    point: Optional[np.ndarray]
    value: Optional[float]
    pivots: int  # pivots the simplex made; reports do not serialize it


def _pivot(T, basis, nonbasic, i, c):
    """Swap nonbasic[c] into the basis at row i: one pivot of the condensed tableau.

    Column c takes the leaving variable's unit column; then only the rows
    with a nonzero in the old column c and the columns with a nonzero in
    row i change, and every other entry keeps its bits, signed zeros
    included.
    """
    factor = T[:, c].copy()
    T[:, c] = 0.0
    T[i, c] = 1.0
    T[i] /= factor[i]
    eliminated = factor != 0.0
    eliminated[i] = False
    np.subtract(T, np.multiply.outer(factor, T[i]), out=T, where=eliminated[:, None] & (T[i] != 0.0))
    basis[i], nonbasic[c] = nonbasic[c], basis[i]


def solve_lp(lp: LinearProgram) -> LPSolution:
    """One-phase simplex on the condensed tableau [a + 0.0 | b] from the slack
    basis over x >= 0, a @ x <= b with b >= 0.

    Column c of the tableau holds variable nonbasic[c], the last column the
    right-hand side.  Bland's rule: the smallest improving variable enters;
    the leaving row has the minimum ratio, ties going to the smallest basic
    variable.  Deterministic; the only statuses are OPTIMAL and UNBOUNDED.
    Zeros enter the tableau, and leave it in the point, as +0.0.
    """
    c = lp.objective
    m, n = lp.a.shape
    T = np.concatenate((lp.a + 0.0, lp.b[:, None]), axis=1)
    basis, nonbasic = n + np.arange(m), np.arange(n)
    cost = np.zeros(n + m)
    cost[:n] = 0.0 + c
    pivots = 0
    while True:
        improving = (cost[nonbasic] - cost[basis] @ T[:, :-1] > _PIVOT_TOL).nonzero()[0]
        if improving.size == 0:
            break
        j = improving[nonbasic[improving].argmin()]
        rows = (T[:, j] > _PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return LPSolution(UNBOUNDED, None, None, pivots)
        ratios = T[rows, -1] / T[rows, j]
        ties = rows[ratios == ratios.min()]
        _pivot(T, basis, nonbasic, ties[basis[ties].argmin()], j)
        pivots += 1
    x = np.zeros(n + m)
    x[basis] = T[:, -1]
    x = x[:n] + 0.0
    return LPSolution(OPTIMAL, x, float(c @ x), pivots)


def best_sign_pattern(
    a: np.ndarray, score: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, float | np.ndarray]:
    """Exhaustive maximum of ``score(eps @ a)`` over sign vectors with eps_0 = +1.

    ``a`` has one row per position and ``score`` maps an (N, d) array of sums
    to N values.  A pattern's code has bit k-1-j set where eps_j = -1, so the
    all-plus pattern is code 0.  The low 12 bits are enumerated once as a
    block of sums and the higher bits shift that block; ties in the maximum
    go to the smallest code (``argmax`` within a block, strict ``>`` across
    blocks in ascending code order).

    A stack ``a`` of shape (..., k, d) is searched slice by slice in one
    pass: ``score`` then maps (..., N, d) to (..., N), and the result is a
    (..., k) array of patterns with a (...) array of values, each slice
    bitwise its own 2-D call.
    """
    k = a.shape[-2]
    if k < 1:
        raise ValueError("need at least one position")
    if k > SIGN_ENUM_LIMIT:
        raise CapacityExceeded(f"2^{k - 1} sign patterns exceed the limit (k <= {SIGN_ENUM_LIMIT})")
    rev = a[..., ::-1, :]  # rev[..., b, :] is the row of code bit b, rev[..., k-1, :] the pinned row
    low = min(k - 1, _BLOCK_BITS)
    high = k - 1 - low
    if high == 0:
        # column `low` of the table is +1, so one product adds the pinned row
        # last, bitwise the block's sums plus that row
        block = _LOW_SIGNS[: 1 << low, :k] @ rev
    else:
        block = _LOW_SIGNS[: 1 << low, :low] @ rev[..., :low, :]
        heads = _LOW_SIGNS[: 1 << high, :high] @ rev[..., low : k - 1, :] + a[..., :1, :]
    for h in range(1 << high):
        values = score(block if high == 0 else block + heads[..., h : h + 1, :])
        i, top = values.argmax(axis=-1), values.max(axis=-1)
        if h == 0:
            best_code, best_value = i, top
        else:
            better = top > best_value
            best_code = np.where(better, (h << low) + i, best_code)
            best_value = np.where(better, top, best_value)
    # code bit b is column k-1-b; the signs of both halves are rows of _LOW_SIGNS
    pattern = np.ones(np.shape(best_code) + (k,))
    pattern[..., k - 1 : high : -1] = _LOW_SIGNS[best_code & ((1 << low) - 1), :low]
    if high:
        pattern[..., high:0:-1] = _LOW_SIGNS[best_code >> low, :high]
    return pattern, (float(best_value) if a.ndim == 2 else best_value)


def hill_climb(
    a: np.ndarray,
    objective: Callable[[np.ndarray], np.ndarray],
    restarts: int = 8,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Steepest-ascent single-flip local search for the maximum of ``objective(eps @ a)``.

    ``objective`` maps an (..., d) array of sums to (...) values, each row as
    if alone.  The restarts take their starts restart-major from one
    SplitMix64(seed) draw and ascend in lockstep as one array: each step scores
    all k flips of every live restart from its running sums S as
    S - 2 eps_j a_j, ``_FLIP_BLOCK`` sum entries per objective call at most,
    and flips within a relative 1e-9 of a restart's batch maximum again by
    one stacked product, bitwise the single-pattern ``eps @ a``; that product
    holds the next sums.  A restart applies its best strictly improving flip
    (smallest index on ties) until none remains, and then leaves the arrays;
    the first best restart wins.  A batch maximum of +inf is matched
    exactly, so an ascent stops at its first +inf; NaN raises.
    """
    k, d = a.shape
    if k < 1:
        raise ValueError("need at least one position")
    if restarts < 1:
        raise ValueError("need at least one restart")
    eps = SplitMix64(seed).signs(restarts * k).reshape(restarts, k)
    sums = np.matmul(eps[:, None, :], a)[:, 0]
    value = np.array(objective(sums), dtype=float)
    if np.isnan(value).any():
        raise ValueError("hill_climb objective returned NaN")
    final_eps, final_value = np.empty_like(eps), np.empty_like(value)
    ids = np.arange(restarts)  # the restart of each live row
    per_call = max(1, _FLIP_BLOCK // max(1, k * d))  # restarts scored per objective call
    twice = 2.0 * a
    screen = np.empty((min(per_call, restarts), k, d))
    while ids.size:
        batch = np.empty((ids.size, k))
        for i in range(0, ids.size, per_call):
            block = screen[: min(per_call, ids.size - i)]
            np.multiply(eps[i : i + per_call, :, None], twice, out=block)
            np.subtract(sums[i : i + per_call, None], block, out=block)
            batch[i : i + per_call] = objective(block)
        top = batch.max(axis=1)
        if np.isnan(top).any():
            raise ValueError("hill_climb objective returned NaN")
        slack = np.where(top < np.inf, _BATCH_RTOL * np.abs(top), 0.0)  # inf - inf is NaN
        near = batch >= (top - slack)[:, None]
        rows, cols = near.nonzero()
        flipped = eps[rows]
        flipped[np.arange(rows.size), cols] *= -1.0
        rescored = np.matmul(flipped[:, None, :], a)[:, 0]  # each row bitwise flipped[i] @ a
        gain = np.asarray(objective(rescored), dtype=float)
        if rows.size == ids.size:  # one near flip per restart: it is the best
            pick = rows
        else:
            scored = np.full(near.shape, -np.inf)
            scored[rows, cols] = gain
            j = scored.argmax(axis=1)  # first maximum: the smallest flip index on ties
            gain = scored[np.arange(ids.size), j]
            # the index of (row, j) among the near flips; it is used only where the restart goes up
            pick = np.searchsorted(rows * k + cols, np.arange(ids.size) * k + j)
        up = gain > value
        if not up.all():
            final_eps[ids[~up]] = eps[~up]
            final_value[ids[~up]] = value[~up]
            ids, pick, gain = ids[up], pick[up], gain[up]
        eps, sums, value = flipped[pick], rescored[pick], gain
    w = int(final_value.argmax())
    return final_eps[w].copy(), float(final_value[w])
