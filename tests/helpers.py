"""Shared fixtures-by-hand: random instance generators and independent oracles.

The oracles deliberately avoid every shortcut the engines use: the norm
oracle enumerates all 2^n sign vectors with itertools (no blocks, no
support skipping, no pinning), the LP oracle is scipy's HiGHS solver, and
``dual_extreme_table`` lists the polyhedral dual extreme points with
itertools rather than the library's ``sign_table``.
``loop_solve_lp`` runs the simplex from the slack basis on the full
tableau, slack columns included, with one Python loop per row and per
column; ``solve_lp`` on the condensed tableau must equal it bit for bit.  ``loop_koethe_supergradient`` runs the L2 Köthe ascent one
restart at a time with one ``norm_best`` call per iterate, the reference
for the stacked ascent.

From ``NotNormalized`` to ``canonical_pair`` follow the textbook objects that
the tests compute and no experiment does: the scalar L1(mu) norm, the sign
function h_A, sets from atom indices, indicators and block lists, the dual
norm, the Köthe dual norm value, scalarization, one Radon-Nikodym derivative
and the canonical measure pair.
"""

import ctypes
import itertools
import platform
from pathlib import Path

import numpy as np

from vmlab import (
    L1,
    L2,
    LINF,
    LPSolution,
    MeasurableSet,
    MeasureSpace,
    NormSpec,
    OPTIMAL,
    SimpleFunction,
    UNBOUNDED,
    VectorMeasure,
    VmlabError,
    indicator_measure,
    koethe_dual_norm_info,
    norm,
    rank_one_measure,
)
from vmlab.measure_core import same_space

KINDS = (L1, L2, LINF)


def openblas_kernel() -> str:
    """The kernel that numpy's bundled OpenBLAS runs on this CPU, or "unknown"."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):  # another BLAS, or another platform
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def numerics() -> str:
    """The numpy, BLAS and its kernel, machine, libc and Python that bitwise results depend on,
    for failure messages and the CI log."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its configuration only
        blas = "unknown"
    return (
        f"numpy {np.__version__}, BLAS {blas}, kernel {openblas_kernel()}, "
        f"{platform.machine()}, libc {' '.join(platform.libc_ver())}, Python {platform.python_version()}"
    )


def random_space(rng, n):
    return MeasureSpace(rng.uniform(0.2, 1.5, size=n))


def random_norm_spec(rng, d, kind=None):
    if kind is None:
        kind = KINDS[rng.integers(len(KINDS))]
    return NormSpec(kind, d, rng.uniform(0.5, 2.0, size=d))


def random_measure(rng, space, X):
    return VectorMeasure(space, X, rng.normal(size=(space.n, X.dim)))


def spy_record_builds(monkeypatch) -> list:
    """The list each record's ``build`` appends its record to from now on."""
    from vmlab.vector_measure import Expectation, Indicator, RankOne, Truncation

    builds = []
    for cls in (Indicator, Expectation, Truncation, RankOne):
        build = cls.build
        monkeypatch.setattr(cls, "build", lambda self, *a, build=build: builds.append(self) or build(self, *a))
    return builds


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


def refine(p, q):
    """True iff q refines p: every block of q lies inside one block of p."""
    return all(np.unique(p.block_of[block]).size == 1 for block in blocks(q))


class NotNormalized(VmlabError):
    """A vector that must have unit norm does not."""


def l1_mu_norm(f):
    """Scalar L1(mu) norm, sum of mu_i |f_i|."""
    return float(np.sum(np.abs(f.coeffs) * f.space.weights))


def sign_function(A):
    """The +-1 valued function that is +1 on A and -1 on its complement."""
    return SimpleFunction(A.space, np.where(A.members, 1.0, -1.0))


def from_indices(space, indices):
    """The set of the given atoms."""
    ids = np.asarray(indices)  # no truncation of floats, no wrap-around from the end
    if ids.size and (ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= space.n):
        raise ValueError(f"atom indices must be integers in 0..{space.n - 1}")
    mask = np.zeros(space.n, dtype=bool)
    mask[ids.astype(int)] = True
    return MeasurableSet(space, mask)


def indicator(A):
    """chi_A as a simple function."""
    return SimpleFunction(A.space, A.members.astype(float))


def blocks(p):
    """The atom-index arrays of the blocks of p, one per block."""
    return [np.flatnonzero(p.block_of == k) for k in range(p.n_blocks)]


_DUAL_KIND = {L1: LINF, L2: L2, LINF: L1}


def dual_spec(X):
    """The norm on the dual space under the plain pairing: swapped kind, inverse scale."""
    return NormSpec(_DUAL_KIND[X.kind], X.dim, 1.0 / X.scale)


def dual_norm(X, xstar):
    return norm(dual_spec(X), xstar)


def koethe_dual_norm(m, g):
    """sup { |sum_i f_i g_i mu_i| : ||f|| <= 1 }.

    LP-exact for polyhedral value norms; for L2-type norms the value is a
    supergradient-ascent lower bound from seed 0 (see ``koethe_dual_norm_info``).
    """
    return koethe_dual_norm_info(m, g).value


def scalarize(m, xstar):
    """Atom masses of the scalar measure A |-> <m(A), x*>."""
    xstar = np.asarray(xstar, dtype=float)
    return SimpleFunction(m.space, m.atoms @ xstar)


def rn_derivative(m, xstar):
    """Density of the scalarized measure against the atom weights."""
    return SimpleFunction(m.space, scalarize(m, xstar).coeffs / m.space.weights)


def canonical_pair(space, g):
    """The indicator measure and the rank-one measure mu(A) * g, ||g||_L1(mu) = 1 +- 1e-10.

    Both represent the discretized scalar L1 isometrically; their integration
    maps are the identity and a rank-one map.
    """
    if not same_space(space, g.space):
        raise ValueError("density lives on a different space")
    gnorm = l1_mu_norm(g)
    if abs(gnorm - 1.0) > 1e-10:
        raise NotNormalized(f"the rank-one density must have unit L1(mu) norm, got {gnorm}")
    return indicator_measure(space), rank_one_measure(space, g.coeffs)


def dual_extreme_table(X):
    """Independent oracle: every extreme point of the polyhedral dual ball, one
    per row.  LINF rows 2j, 2j + 1 are +-w_j e_j; L1 row t has -w_j where bit j
    of t is set, else +w_j, so its first half has + in the last coordinate."""
    assert X.kind != L2, "the L2 unit ball has no finite extreme-point set"
    if X.kind == LINF:
        pts = np.zeros((2 * X.dim, X.dim))
        for j, w in enumerate(X.scale):
            pts[2 * j, j], pts[2 * j + 1, j] = w, -w
        return pts
    # row t lists the bits of t from the highest, since itertools varies the last entry fastest
    bits = b"".join(map(bytes, itertools.product((0, 1), repeat=X.dim)))
    return np.where(np.frombuffer(bits, np.uint8).reshape(-1, X.dim)[:, ::-1], -X.scale, X.scale)


def koethe_scipy(m, g):
    """Dual function norm via scipy's HiGHS LP solver (independent of the simplex)."""
    from scipy.optimize import linprog

    n = m.space.n
    pts = dual_extreme_table(m.X)
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


def _loop_bland_simplex(T, basis, cost, ncols, tol=_PIVOT_TOL):
    """Maximize cost over the tableau in place. Returns 'optimal' or 'unbounded'
    and the pivots made."""
    m = T.shape[0]
    pivots = 0
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
            return OPTIMAL, pivots
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
            return UNBOUNDED, pivots
        piv = T[leaving, entering]
        T[leaving] /= piv
        for i in range(m):
            if i != leaving and T[i, entering] != 0.0:
                T[i] -= T[i, entering] * T[leaving]
        basis[leaving] = entering
        pivots += 1


def loop_solve_lp(lp):
    """Bland's rule on the full m x (n + m + 1) tableau, slack columns
    included, that ``solve_lp`` must equal bitwise, pivot count included."""
    c = lp.objective
    m, n = lp.a.shape
    T = np.zeros((m, n + m + 1))
    for i in range(m):
        for j in range(n):
            T[i, j] = lp.a[i, j] + 0.0
        T[i, n + i] = 1.0
        T[i, -1] = lp.b[i]
    basis = n + np.arange(m)
    cost = np.zeros(n + m)
    cost[:n] = c + 0.0
    status, pivots = _loop_bland_simplex(T, basis, cost, n + m)
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, None, pivots)
    x = np.zeros(n + m)
    x[basis] = T[:, -1]
    x = x[:n] + 0.0
    return LPSolution(OPTIMAL, x, float(c @ x), pivots)


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
