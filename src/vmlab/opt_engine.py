"""Shared optimization kernels.

Three small deterministic tools back the norm and dual-norm engines:

  * a dense two-phase tableau simplex with Bland's anti-cycling rule, whose
    pivots (in both phases and in the drive-out of artificials) are one
    vectorised row elimination, ``_pivot``,
  * exhaustive search over sign patterns (first component pinned to +1),
    scored in blocks of 2^12 patterns by one matrix product each,
  * steepest-ascent single-flip hill climbing with seeded random restarts,
    scoring all k flips of a pattern in one batched objective call.

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
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-9
SIGN_ENUM_LIMIT = 24
_BLOCK_BITS = 12
# row t holds the signs of the low code bits of t: -1 where bit b of t is set
_LOW_SIGNS = 1.0 - 2.0 * ((np.arange(1 << _BLOCK_BITS)[:, None] >> np.arange(_BLOCK_BITS)) & 1)
_LOW_SIGNS.setflags(write=False)
_BATCH_RTOL = 1e-9  # batch values this close to the batch maximum are scored again


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective @ x subject to rows (a, rel, b), rel in {"<=", ">=", "="}.

    ``bounds`` gives one (lower, upper) pair per variable with None meaning
    unbounded on that side; omitted bounds default to (0, None).
    """

    objective: np.ndarray
    constraints: Sequence[tuple]
    bounds: Optional[Sequence[tuple]] = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        if c.ndim != 1:
            raise ValueError("objective must be a vector")
        object.__setattr__(self, "objective", c)
        for a, rel, _ in self.constraints:
            if rel not in ("<=", ">=", "="):
                raise ValueError(f"unknown relation {rel!r}")
            if np.asarray(a, dtype=float).shape != c.shape:
                raise ValueError("constraint row length mismatch")
        if self.bounds is not None and len(self.bounds) != c.size:
            raise ValueError("need one bound pair per variable")


@dataclass(frozen=True)
class LPSolution:
    status: str
    point: Optional[np.ndarray]
    value: Optional[float]


def _pivot(T, basis, i, j):
    """Make column j basic in row i; rows with a zero in column j are untouched."""
    T[i] /= T[i, j]
    rows = np.flatnonzero(T[:, j])
    rows = rows[rows != i]
    T[rows] -= np.outer(T[rows, j], T[i])
    basis[i] = j


def _bland_simplex(T, basis, cost):
    """Maximize cost over the tableau in place. Returns 'optimal' or 'unbounded'.

    Bland's rule: the first improving column enters; the leaving row has the
    minimum ratio, ties going to the smallest basic variable.
    """
    while True:
        reduced = cost - cost[basis] @ T[:, :-1]
        reduced[basis] = 0.0
        improving = np.flatnonzero(reduced > _PIVOT_TOL)
        if improving.size == 0:
            return OPTIMAL
        j = improving[0]
        rows = np.flatnonzero(T[:, j] > _PIVOT_TOL)
        if rows.size == 0:
            return UNBOUNDED
        ratios = T[rows, -1] / T[rows, j]
        ties = rows[ratios == ratios.min()]
        _pivot(T, basis, ties[np.argmin(basis[ties])], j)


def _standard_columns(bounds):
    """Column map of the standard form, in which every column is >= 0.

    A variable bounded below is lo + y, one bounded only above is hi - y and
    a free one is y+ - y-.  Returns the map ``(orig, sign, shifted, offset)``
    (per column its variable and sign; the shifted variables and their lo,
    else hi) and the (column, hi - lo) range rows of two-sided bounds.
    """
    orig, sign, shifted, offset, ranged = [], [], [], [], []
    for j, (lo, hi) in enumerate(bounds):
        if lo is None and hi is None:
            orig += [j, j]
            sign += [1.0, -1.0]
            continue
        orig.append(j)
        sign.append(1.0 if lo is not None else -1.0)
        shifted.append(j)
        offset.append(float(lo if lo is not None else hi))
        if lo is not None and hi is not None:
            ranged.append((len(orig) - 1, float(hi) - float(lo)))
    cols = (np.array(orig, dtype=int), np.array(sign), np.array(shifted, dtype=int), offset)
    return cols, ranged


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Two-phase dense simplex; deterministic, never raises on well-formed input."""
    c = lp.objective
    nvars = c.size
    bounds = list(lp.bounds) if lp.bounds is not None else [(0.0, None)] * nvars
    cols, ranged = _standard_columns(bounds)
    orig, sign, shifted, offset = cols
    nstd = orig.size

    A = np.array([np.asarray(a, dtype=float) for a, _, _ in lp.constraints])
    A = A.reshape(len(lp.constraints), nvars)
    # the affine shifts of bounded variables move into the right-hand side
    shift = np.zeros(A.shape[0])
    for j, off in zip(shifted, offset):
        shift += A[:, j] * off
    ranges = np.zeros((len(ranged), nstd))
    ranges[np.arange(len(ranged)), [k for k, _ in ranged]] = 1.0
    R = np.vstack([0.0 + sign * A[:, orig], ranges])
    rhs = np.concatenate([[float(b) for _, _, b in lp.constraints] - shift, [ub for _, ub in ranged]])
    rels = np.array([rel for _, rel, _ in lp.constraints] + ["<="] * len(ranged), dtype=object)
    cstd = 0.0 + sign * c[orig]

    m = R.shape[0]
    if m == 0:
        # unconstrained over the nonnegative orthant
        if np.any(cstd > _PIVOT_TOL):
            return LPSolution(UNBOUNDED, None, None)
        x = _recover(np.zeros(nstd), cols, nvars)
        return LPSolution(OPTIMAL, x, float(c @ x))

    # rows become <= or =, then get a nonnegative right-hand side; a slack
    # whose sign flips with its row, or an equality, needs an artificial
    ge = rels == ">="
    R[ge], rhs[ge] = -R[ge], -rhs[ge]
    flip = ~(rhs >= 0)
    R[flip], rhs[flip] = -R[flip], -rhs[flip]
    slack_rows = np.flatnonzero(rels != "=")
    art_rows = np.flatnonzero(flip | (rels == "="))
    nslack, nart = slack_rows.size, art_rows.size
    ncols = nstd + nslack + nart
    T = np.zeros((m, ncols + 1))
    T[:, :nstd] = R
    T[slack_rows, nstd + np.arange(nslack)] = np.where(flip[slack_rows], -1.0, 1.0)
    T[art_rows, nstd + nslack + np.arange(nart)] = 1.0
    T[:, -1] = rhs
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = nstd + np.arange(nslack)
    basis[art_rows] = nstd + nslack + np.arange(nart)

    if nart > 0:
        cost1 = np.zeros(ncols)
        cost1[nstd + nslack :] = -1.0
        _bland_simplex(T, basis, cost1)
        if cost1[basis] @ T[:, -1] < -1e-7:
            return LPSolution(INFEASIBLE, None, None)
        # pivot remaining artificials out of the basis, or drop redundant rows
        keep = np.ones(m, dtype=bool)
        for i in np.flatnonzero(basis >= nstd + nslack):
            candidates = np.flatnonzero(np.abs(T[i, : nstd + nslack]) > _PIVOT_TOL)
            if candidates.size:
                _pivot(T, basis, i, candidates[0])
            else:
                keep[i] = False
        T = T[keep]
        basis = basis[keep]

    T = np.hstack([T[:, : nstd + nslack], T[:, -1:]])
    cost2 = np.zeros(nstd + nslack)
    cost2[:nstd] = cstd
    if _bland_simplex(T, basis, cost2) == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, None)

    xstd = np.zeros(nstd + nslack)
    xstd[basis] = T[:, -1]
    x = _recover(xstd[:nstd], cols, nvars)
    return LPSolution(OPTIMAL, x, float(c @ x))


def _recover(xstd, cols, nvars):
    orig, sign, shifted, offset = cols
    x = np.zeros(nvars)
    np.add.at(x, orig, sign * xstd)  # in column order: a free variable sums y+, then -y-
    x[shifted] += offset
    return x


def best_sign_pattern(
    a: np.ndarray, score: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, float]:
    """Exhaustive maximum of ``score(eps @ a)`` over sign vectors with eps_0 = +1.

    ``a`` has one row per position and ``score`` maps an (N, d) array of sums
    to N values.  A pattern's code has bit k-1-j set where eps_j = -1, so the
    all-plus pattern is code 0.  The low 12 bits are enumerated once as a
    block of sums and the higher bits shift that block; ties in the maximum
    go to the smallest code (``argmax`` within a block, strict ``>`` across
    blocks in ascending code order).
    """
    k = a.shape[0]
    if k < 1:
        raise ValueError("need at least one position")
    if k > SIGN_ENUM_LIMIT:
        raise CapacityExceeded(f"2^{k - 1} sign patterns exceed the limit (k <= {SIGN_ENUM_LIMIT})")
    rev = a[::-1]  # rev[b] is the row of code bit b
    low = min(k - 1, _BLOCK_BITS)
    high = k - 1 - low
    block = _LOW_SIGNS[: 1 << low, :low] @ rev[:low]
    heads = _LOW_SIGNS[: 1 << high, :high] @ rev[low : k - 1] + a[0]
    best_code, best_value = 0, -np.inf
    for h, head in enumerate(heads):
        values = score(block + head)
        i = int(np.argmax(values))
        if values[i] > best_value:
            best_code, best_value = (h << low) + i, float(values[i])
    pattern = 1.0 - 2.0 * ((best_code >> np.arange(k - 1, -1, -1)) & 1)
    return pattern, best_value


def hill_climb(
    k: int,
    objective: Callable[[np.ndarray], np.ndarray],
    restarts: int = 8,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Steepest-ascent single-flip local search over sign vectors.

    ``objective`` maps an (N, k) array of patterns to N values; one call
    scores all k flips of the current pattern.  A batch may round unlike a
    single pattern, so flips within a relative 1e-9 of the best are scored
    again alone, and every decision and the returned value use single-pattern
    values.  Deterministic for a fixed seed: restarts start from
    SplitMix64(seed) draws, each ascent applies the best strictly improving
    flip (smallest index on ties) until none remains, and the best restart
    wins (first one on exact ties).
    """
    if k < 1:
        raise ValueError("need at least one position")
    if restarts < 1:
        raise ValueError("need at least one restart")
    gen = SplitMix64(seed)
    flips = 1.0 - 2.0 * np.eye(k)  # row j flips position j
    best_pattern = None
    best_value = -np.inf
    for _ in range(restarts):
        eps = np.array(gen.signs(k))
        value = float(objective(eps[None])[0])
        while True:
            batch = objective(flips * eps)
            top = batch.max()
            near = np.flatnonzero(batch >= top - _BATCH_RTOL * abs(top))
            values = [float(objective(flips[j : j + 1] * eps)[0]) for j in near]
            i = int(np.argmax(values))
            if not values[i] > value:
                break
            eps[near[i]] = -eps[near[i]]
            value = values[i]
        if value > best_value:
            best_value = value
            best_pattern = eps.copy()
    return best_pattern, best_value
