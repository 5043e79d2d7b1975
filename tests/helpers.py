"""Shared fixtures-by-hand: random instance generators and independent oracles.

The oracles deliberately avoid every shortcut the engines use: the norm
oracle enumerates all 2^n sign vectors with itertools (no blocks, no
support skipping, no pinning), and the LP oracle is scipy's HiGHS solver.
``loop_solve_lp`` keeps a general two-phase simplex with one Python loop
per row and per column; on the programs ``solve_lp`` takes (x >= 0, rows
<= b with b >= 0) the one-phase simplex from the slack basis must equal it
bit for bit.  ``loop_koethe_supergradient`` runs the L2 Köthe ascent one
restart at a time with one ``norm_best`` call per iterate, the reference
for the stacked ascent.
"""

import itertools

import numpy as np

from vmlab import (
    L1,
    L2,
    LINF,
    LPSolution,
    MeasureSpace,
    NormSpec,
    OPTIMAL,
    SimpleFunction,
    UNBOUNDED,
    VectorMeasure,
    norm,
)

KINDS = (L1, L2, LINF)


def random_space(rng, n):
    return MeasureSpace(rng.uniform(0.2, 1.5, size=n))


def random_norm_spec(rng, d, kind=None):
    if kind is None:
        kind = KINDS[rng.integers(len(KINDS))]
    return NormSpec(kind, d, rng.uniform(0.5, 2.0, size=d))


def random_measure(rng, space, X):
    return VectorMeasure(space, X, rng.normal(size=(space.n, X.dim)))


def random_function(rng, space, zero_prob=0.2):
    coeffs = rng.normal(size=space.n)
    coeffs[rng.random(space.n) < zero_prob] = 0.0
    return SimpleFunction(space, coeffs)


def brute_norm(m, f):
    """Independent oracle: max over all 2^n sign vectors of ||sum h_i f_i m_i||."""
    best = 0.0
    for h in itertools.product((1.0, -1.0), repeat=m.space.n):
        v = (np.asarray(h) * f.coeffs) @ m.atoms
        best = max(best, norm(m.X, v))
    return best


def brute_deviation(m, m1, f):
    diff = VectorMeasure(m.space, m.X, m.atoms - m1.atoms)
    return brute_norm(diff, f)


def koethe_scipy(m, g):
    """Dual function norm via scipy's HiGHS LP solver (independent of the simplex)."""
    from scipy.optimize import linprog

    from vmlab import dual_extreme_points

    n = m.space.n
    pts = dual_extreme_points(m.X)
    rows = np.abs(pts @ m.atoms.T)  # one ball constraint per extreme point
    # vars (f, u): maximize g*mu @ f <=> minimize -(g*mu) @ f
    c = np.concatenate([-(g.coeffs * m.space.weights), np.zeros(n)])
    eye = np.eye(n)
    A_ub = np.vstack(
        [
            np.hstack([eye, -eye]),
            np.hstack([-eye, -eye]),
            np.hstack([np.zeros_like(rows), rows]),
        ]
    )
    b_ub = np.concatenate([np.zeros(2 * n), np.ones(rows.shape[0])])
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * n + [(0, None)] * n,
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


# ---------------------------------------------------------------------------
# reference simplex: one Python loop per row and per column, with Bland's rule

_PIVOT_TOL = 1e-9
INFEASIBLE = "infeasible"  # a status of this general reference only


def _loop_bland_simplex(T, basis, cost, ncols, tol=_PIVOT_TOL):
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


def loop_solve_lp(lp):
    """The per-row, per-column two-phase simplex that ``solve_lp`` must equal bitwise."""
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
    for k, (j, sgn, off) in enumerate(cols):
        cstd[k] += sgn * c[j]

    m = len(rows)
    if m == 0:
        # unconstrained over the nonnegative orthant
        if np.any(cstd > _PIVOT_TOL):
            return LPSolution(UNBOUNDED, None, None)
        x = _loop_recover(np.zeros(nstd), cols, bounds, nvars)
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
        _loop_bland_simplex(T, basis, cost1, ncols)
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
    status = _loop_bland_simplex(T, basis, cost2, ncols)
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, None)

    xstd = np.zeros(ncols)
    xstd[basis] = T[:, -1]
    x = _loop_recover(xstd[:nstd], cols, bounds, nvars)
    return LPSolution(OPTIMAL, x, float(c @ x))


def _loop_recover(xstd, cols, bounds, nvars):
    x = np.zeros(nvars)
    for k, (j, sgn, off) in enumerate(cols):
        x[j] += sgn * xstd[k]
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None:
            x[j] += float(lo)
        elif hi is not None:
            x[j] += float(hi)
    return x


# ---------------------------------------------------------------------------
# reference ascent: one restart at a time, one norm_best call per iterate


def loop_koethe_supergradient(m, g, seed=0, restarts=32, steps=48):
    """The per-restart supergradient ascent that the L2 Köthe dual norm must equal bitwise."""
    from vmlab import norm_best
    from vmlab.rng import SplitMix64

    n = m.space.n
    c = g.coeffs * m.space.weights
    cn = float(np.sqrt(np.sum(c * c)))
    if cn == 0.0:
        return 0.0, SimpleFunction.zeros(m.space)
    direction = c / cn
    gen = SplitMix64(seed)
    best = 0.0
    best_f = np.zeros(n)

    def ball_norm(vec):
        return norm_best(m, SimpleFunction(m.space, vec)).value

    for _ in range(restarts):
        f = gen.normals(n)
        nrm = ball_norm(f)
        if nrm > 0.0:
            f /= nrm
        for t in range(steps):
            f = f + (1.0 / np.sqrt(t + 1.0)) * direction
            nrm = ball_norm(f)
            if nrm > 1.0:
                f /= nrm
            value = abs(float(c @ f))
            if value > best:
                best = value
                best_f = f.copy()
    return best, SimpleFunction(m.space, best_f)
