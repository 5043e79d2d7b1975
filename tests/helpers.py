"""Shared fixtures-by-hand: random instance generators and independent oracles.

The oracles deliberately avoid every shortcut the engines use: the norm
oracle enumerates all 2^n sign vectors with itertools (no blocks, no
support skipping, no pinning), and the LP oracle is scipy's HiGHS solver.
"""

import itertools

import numpy as np

from vmlab import (
    L1,
    L2,
    LINF,
    MeasureSpace,
    NormSpec,
    SimpleFunction,
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
