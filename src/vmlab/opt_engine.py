"""Shared optimization kernels.

Three small deterministic tools back the norm and dual-norm engines:

  * a dense one-phase tableau simplex from the slack basis over x >= 0,
    rows <= b with b >= 0, with Bland's anti-cycling rule, whose pivots are
    one vectorised row elimination, ``_pivot``, over only the rows with a
    nonzero in the pivot column and the columns with a nonzero in the
    pivot row,
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
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapacityExceeded
from .rng import SplitMix64

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-9
SIGN_ENUM_LIMIT = 24
_BLOCK_BITS = 12
# row t holds the signs of the low code bits of t: -1 where bit b of t is set
_LOW_SIGNS = 1.0 - 2.0 * ((np.arange(1 << _BLOCK_BITS)[:, None] >> np.arange(_BLOCK_BITS)) & 1)
_LOW_SIGNS.setflags(write=False)
_BATCH_RTOL = 1e-9  # batch values this close to the batch maximum are scored again
_FLIP_BLOCK = 1 << 14  # flip sum entries per hill_climb objective call


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective @ x over x >= 0 subject to rows (a, "<=", b) with b >= 0.

    The origin is feasible, so the slack basis starts the simplex.  ``bounds``
    must stay None: every variable is bounded below by 0 alone.
    """

    objective: np.ndarray
    constraints: Sequence[tuple]
    bounds: Optional[Sequence[tuple]] = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        if c.ndim != 1:
            raise ValueError("objective must be a vector")
        object.__setattr__(self, "objective", c)
        for a, rel, b in self.constraints:
            if rel != "<=":
                raise ValueError(f"unsupported relation {rel!r}; rows are a @ x <= b")
            if not b >= 0:
                raise ValueError(f"right-hand side {b!r} must be >= 0")
            if np.asarray(a, dtype=float).shape != c.shape:
                raise ValueError("constraint row length mismatch")
        if self.bounds is not None:
            raise ValueError("bounds must be None; variables are x >= 0")


@dataclass(frozen=True)
class LPSolution:
    status: str
    point: Optional[np.ndarray]
    value: Optional[float]


def _pivot(T, basis, i, j):
    """Make column j basic in row i: one pivot of the one-phase simplex.

    Only the rows with a nonzero in column j and the columns with a nonzero
    in row i change; every other entry keeps its bits, which differ from a
    full row elimination at most in the sign of a zero.
    """
    T[i] /= T[i, j]
    rows = T[:, j].nonzero()[0]
    rows = rows[rows != i]
    cols = T[i].nonzero()[0]
    T[rows[:, None], cols] -= T[rows, j][:, None] * T[i, cols]
    basis[i] = j


def _bland_simplex(T, basis, cost):
    """Maximize cost over the tableau in place. Returns 'optimal' or 'unbounded'.

    Bland's rule: the first improving column enters; the leaving row has the
    minimum ratio, ties going to the smallest basic variable.
    """
    while True:
        reduced = cost - cost[basis] @ T[:, :-1]
        reduced[basis] = 0.0
        improving = (reduced > _PIVOT_TOL).nonzero()[0]
        if improving.size == 0:
            return OPTIMAL
        j = improving[0]
        rows = (T[:, j] > _PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return UNBOUNDED
        ratios = T[rows, -1] / T[rows, j]
        ties = rows[ratios == ratios.min()]
        _pivot(T, basis, ties[np.argmin(basis[ties])], j)


def solve_lp(lp: LinearProgram) -> LPSolution:
    """One-phase dense simplex from the slack basis over x >= 0, rows <= b with b >= 0.

    Deterministic; the only statuses are OPTIMAL and UNBOUNDED.  Zeros enter
    the tableau, and leave it in the point, as +0.0.
    """
    c = lp.objective
    n, m = c.size, len(lp.constraints)
    T = np.zeros((m, n + m + 1))
    T[:, :n] = 0.0 + np.array([a for a, _, _ in lp.constraints], dtype=float).reshape(m, n)
    T[np.arange(m), n + np.arange(m)] = 1.0
    T[:, -1] = [b for _, _, b in lp.constraints]
    basis = n + np.arange(m)
    cost = np.zeros(n + m)
    cost[:n] = 0.0 + c
    if _bland_simplex(T, basis, cost) == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, None)
    x = np.zeros(n + m)
    x[basis] = T[:, -1]
    x = x[:n] + 0.0
    return LPSolution(OPTIMAL, x, float(c @ x))


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
    rev = a[..., ::-1, :]  # rev[..., b, :] is the row of code bit b
    low = min(k - 1, _BLOCK_BITS)
    high = k - 1 - low
    block = _LOW_SIGNS[: 1 << low, :low] @ rev[..., :low, :]
    heads = _LOW_SIGNS[: 1 << high, :high] @ rev[..., low : k - 1, :] + a[..., :1, :]
    for h in range(1 << high):
        values = score(block + heads[..., h : h + 1, :])
        i, top = values.argmax(axis=-1), values.max(axis=-1)
        if h == 0:
            best_code, best_value = i, top
        else:
            better = top > best_value
            best_code = np.where(better, (h << low) + i, best_code)
            best_value = np.where(better, top, best_value)
    pattern = 1.0 - 2.0 * ((best_code[..., None] >> np.arange(k - 1, -1, -1)) & 1)
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
    one stacked product, bitwise the single-pattern ``eps @ a``.  A restart
    applies its best strictly improving flip (smallest index on ties) until
    none remains; the first best restart wins.  A batch maximum of +inf is
    matched exactly, so an ascent stops at its first +inf; NaN raises.
    """
    k, d = a.shape
    if k < 1:
        raise ValueError("need at least one position")
    if restarts < 1:
        raise ValueError("need at least one restart")
    eps = SplitMix64(seed).signs(restarts * k).reshape(restarts, k)
    sums = np.matmul(eps[:, None, :], a)[:, 0]
    value = np.array(objective(sums), dtype=float)
    per_call = max(1, _FLIP_BLOCK // max(1, k * d))  # restarts scored per objective call
    live = np.arange(restarts)
    while live.size:
        blocks = [live[i : i + per_call] for i in range(0, live.size, per_call)]
        batch = np.concatenate([objective(sums[r, None] - 2 * eps[r, :, None] * a) for r in blocks])
        top, current = batch.max(axis=1), value[live]
        if np.isnan(top).any() or np.isnan(current).any():
            raise ValueError("hill_climb objective returned NaN")
        slack = np.where(top < np.inf, _BATCH_RTOL * np.abs(top), 0.0)  # inf - inf is NaN
        near = batch >= (top - slack)[:, None]
        rows, cols = near.nonzero()
        flipped = eps[live[rows]]
        flipped[np.arange(rows.size), cols] *= -1.0
        scored = np.full(near.shape, -np.inf)
        scored[rows, cols] = objective(np.matmul(flipped[:, None, :], a)[:, 0])
        j = scored.argmax(axis=1)  # first maximum: the smallest flip index on ties
        gain = scored[np.arange(live.size), j]
        up = gain > current
        live, j = live[up], j[up]
        eps[live, j] *= -1.0
        sums[live] = np.matmul(eps[live, None], a)[:, 0]
        value[live] = gain[up]
    w = int(value.argmax())
    return eps[w].copy(), float(value[w])
