"""Shared optimization kernels.

Three small deterministic tools back the norm and dual-norm engines:

  * a dense two-phase tableau simplex with Bland's anti-cycling rule,
  * exhaustive search over sign patterns (first component pinned to +1),
    scored in blocks of 2^12 patterns by one matrix product each,
  * steepest-ascent single-flip hill climbing with seeded random restarts,
    scoring all k flips of a pattern in one batched objective call.

Problem sizes are desk scale (a few hundred variables, a few thousand
constraints).  The sign kernels replace per-pattern Python loops by numpy
blocks; their tie rules keep results bit-for-bit deterministic.
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


def _bland_simplex(T, basis, cost, ncols, tol=_PIVOT_TOL):
    """Maximize cost over the tableau in place. Returns 'optimal' or 'unbounded'."""
    m = T.shape[0]
    while True:
        cb = cost[basis]
        reduced = cost[:ncols] - cb @ T[:, :ncols]
        reduced[basis] = 0.0
        entering = -1
        for j in range(ncols):
            if reduced[j] > tol:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        col = T[:, entering]
        leaving = -1
        best_ratio = np.inf
        for i in range(m):
            if col[i] > tol:
                ratio = T[i, -1] / col[i]
                if ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leaving]
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return UNBOUNDED
        piv = T[leaving, entering]
        T[leaving] /= piv
        for i in range(m):
            if i != leaving and T[i, entering] != 0.0:
                T[i] -= T[i, entering] * T[leaving]
        basis[leaving] = entering


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Two-phase dense simplex; deterministic, never raises on well-formed input."""
    c = lp.objective
    nvars = c.size
    bounds = list(lp.bounds) if lp.bounds is not None else [(0.0, None)] * nvars

    # Standard form: every column variable >= 0.  Each original variable
    # becomes one or two columns plus an optional range row.
    cols = []          # (orig index, coeff sign, shift) per column
    extra_rows = []    # (column index, upper bound) for two-sided bounds
    for j, (lo, hi) in enumerate(bounds):
        if lo is None and hi is None:
            cols.append((j, 1.0, 0.0))
            cols.append((j, -1.0, 0.0))
        elif lo is not None:
            cols.append((j, 1.0, float(lo)))
            if hi is not None:
                extra_rows.append((len(cols) - 1, float(hi) - float(lo)))
        else:
            cols.append((j, -1.0, float(hi)))

    nstd = len(cols)
    rows = []
    for a, rel, b in lp.constraints:
        a = np.asarray(a, dtype=float)
        row = np.zeros(nstd)
        for k, (j, sgn, _off) in enumerate(cols):
            row[k] += sgn * a[j]
        # the affine shifts of bounded variables move into the right-hand side
        shift = 0.0
        for j, (lo, hi) in enumerate(bounds):
            if lo is not None:
                shift += a[j] * float(lo)
            elif hi is not None:
                shift += a[j] * float(hi)
        rows.append((row, rel, float(b) - shift))
    for k, ub in extra_rows:
        row = np.zeros(nstd)
        row[k] = 1.0
        rows.append((row, "<=", ub))

    cstd = np.zeros(nstd)
    const = 0.0
    for k, (j, sgn, off) in enumerate(cols):
        cstd[k] += sgn * c[j]
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None:
            const += c[j] * float(lo)
        elif hi is not None:
            const += c[j] * float(hi)

    m = len(rows)
    if m == 0:
        # unconstrained over the nonnegative orthant
        if np.any(cstd > _PIVOT_TOL):
            return LPSolution(UNBOUNDED, None, None)
        x = _recover(np.zeros(nstd), cols, bounds, nvars)
        return LPSolution(OPTIMAL, x, float(c @ x))

    nslack = sum(1 for _, rel, _ in rows if rel != "=")
    A = np.zeros((m, nstd + nslack))
    b = np.zeros(m)
    needs_artificial = []
    si = 0
    for i, (row, rel, bi) in enumerate(rows):
        if rel == ">=":
            row, rel, bi = -row, "<=", -bi
        if rel == "<=":
            if bi >= 0:
                A[i, :nstd] = row
                A[i, nstd + si] = 1.0
                b[i] = bi
                needs_artificial.append(False)
            else:
                A[i, :nstd] = -row
                A[i, nstd + si] = -1.0
                b[i] = -bi
                needs_artificial.append(True)
            si += 1
        else:
            if bi >= 0:
                A[i, :nstd] = row
                b[i] = bi
            else:
                A[i, :nstd] = -row
                b[i] = -bi
            needs_artificial.append(True)

    nart = sum(needs_artificial)
    ncols = nstd + nslack + nart
    T = np.zeros((m, ncols + 1))
    T[:, : nstd + nslack] = A
    T[:, -1] = b
    basis = np.empty(m, dtype=int)
    ai = 0
    si = 0
    for i, (row, rel, bi) in enumerate(rows):
        if needs_artificial[i]:
            T[i, nstd + nslack + ai] = 1.0
            basis[i] = nstd + nslack + ai
            ai += 1
        else:
            basis[i] = nstd + si
        if rel != "=":
            si += 1

    if nart > 0:
        cost1 = np.zeros(ncols)
        cost1[nstd + nslack :] = -1.0
        _bland_simplex(T, basis, cost1, ncols)
        if cost1[basis] @ T[:, -1] < -1e-7:
            return LPSolution(INFEASIBLE, None, None)
        # pivot remaining artificials out of the basis, or drop redundant rows
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= nstd + nslack:
                pivoted = False
                for j in range(nstd + nslack):
                    if abs(T[i, j]) > _PIVOT_TOL:
                        piv = T[i, j]
                        T[i] /= piv
                        for r in range(m):
                            if r != i and T[r, j] != 0.0:
                                T[r] -= T[r, j] * T[i]
                        basis[i] = j
                        pivoted = True
                        break
                if not pivoted:
                    keep[i] = False
        T = T[keep]
        basis = basis[keep]
        m = T.shape[0]

    T = np.hstack([T[:, : nstd + nslack], T[:, -1:]])
    ncols = nstd + nslack
    cost2 = np.zeros(ncols)
    cost2[:nstd] = cstd
    status = _bland_simplex(T, basis, cost2, ncols)
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, None)

    xstd = np.zeros(ncols)
    xstd[basis] = T[:, -1]
    x = _recover(xstd[:nstd], cols, bounds, nvars)
    return LPSolution(OPTIMAL, x, float(c @ x))


def _recover(xstd, cols, bounds, nvars):
    x = np.zeros(nvars)
    for k, (j, sgn, off) in enumerate(cols):
        x[j] += sgn * xstd[k]
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None:
            x[j] += float(lo)
        elif hi is not None:
            x[j] += float(hi)
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
