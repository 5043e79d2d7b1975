"""Approximation nets for integration maps and their convergence diagnostics.

Three net generators yield their levels one at a time, so ``run_net`` keeps
one level alive rather than the whole net:

  * martingale nets: averaging a measure over the blocks of a partition,
    m_p on atom i equals (mu_i / mu(B(i))) * m(B(i)); its integration map
    factors through the conditional-expectation projection of the partition.
    The average of the indicator measure is the record ``Expectation(p)``;
    into L1(mu) with one weight per block, ``deviation`` gives each level's
    deviation by a block closed form, exact at any size, with no engine run;
  * basis-projection nets: truncating the value-space coordinates, which
    compose the measure with a norm-one projection; the truncations of the
    indicator measure are the records ``Truncation(k)``;
  * rn nets: the measures of finite-rank operators built from derivative
    densities (one density and one value vector per term) of the coordinate
    or expectation families; on the indicator measure these operators are
    its truncations and its block averages, so its rn nets are its basis
    and martingale nets, level for level.  ``rn_operator`` returns an
    ``OperatorMatrix``, the type of ``integration_operator`` (which
    ``associated_measure`` inverts on plain atoms), so ||I_m - R|| is
    ``opnorm_from_l1(combine_operators(integration_operator(m), -1.0, R))``.

``run_net`` reports, per net level, the norm gap, the deviation seminorm,
the pointwise integration gap, and a weak* gap over the coordinate probe
functionals, which together witness or refute convergence of the net.
Against the indicator measure into L1(mu), levels recorded as its
truncations read their rows from suffix sums, O(n) per net and exact at any
n; its averages over blocks of one weight read theirs from block means,
O(n + T n) per level for T test functions; no norm engine runs and no level
builds its atoms for either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .daugavet import OperatorMatrix
from .l1m_norm import deviation as deviation_seminorm
from .l1m_norm import DEFAULT_EXACT_CUTOFF, integrate, norm_best
from .l1m_norm import _block_partition, _norm_block_closed_form
from .measure_core import Partition, SimpleFunction, same_space
from .normed_space import NormSpec, norm as x_norm, same_norm
from .vector_measure import Expectation, Indicator, Truncation, VectorMeasure, block_average, truncate
from .vector_measure import rn_derivatives, same_setting


def martingale_measure(m: VectorMeasure, p: Partition) -> VectorMeasure:
    """Average m over the blocks of p: atom i carries (mu_i / mu(B(i))) m(B(i));
    the indicator measure's average is the record ``Expectation(p)``."""
    if not same_space(m.space, p.space):
        raise ValueError("partition lives on a different space")
    if isinstance(m.record, Indicator):
        return VectorMeasure(m.space, m.X, record=Expectation(p))
    return VectorMeasure(m.space, m.X, block_average(m.atoms, p))


def basis_truncated_measure(m: VectorMeasure, k: int) -> VectorMeasure:
    """Compose m with the projection onto the first k value-space coordinates;
    the indicator measure's is the record ``Truncation(k)``."""
    if not 1 <= k <= m.X.dim:
        raise ValueError(f"truncation rank {k} out of range 1..{m.X.dim}")
    if isinstance(m.record, Indicator):
        return VectorMeasure(m.space, m.X, record=Truncation(k))
    return VectorMeasure(m.space, m.X, truncate(m.atoms, k))


def rn_operator(m: VectorMeasure, functionals: Sequence, vectors: Sequence) -> OperatorMatrix:
    """R f = sum_k (sum_i f_i phi_{k,i} mu_i) x_k, with phi_k the derivative density
    of the k-th dual vector and x_k the k-th value vector; an empty family gives 0.
    R holds the transpose of its frozen n x d product; ``associated_measure`` holds the product."""
    phi = rn_derivatives(m, list(functionals))
    vectors = [np.asarray(x, dtype=float) for x in vectors]
    if len(vectors) != len(phi):
        raise ValueError("need one value vector per dual vector")
    if any(x.shape != (m.X.dim,) for x in vectors):
        raise ValueError(f"value vectors must have dimension {m.X.dim}")
    x = np.array(vectors).reshape(len(phi), m.X.dim)  # (0,) -> (0, d) when empty
    product = (phi * m.space.weights).T @ x
    product.setflags(write=False)
    return OperatorMatrix(product.T, m.space, m.X)


def associated_measure(R: OperatorMatrix) -> VectorMeasure:
    """The measure A |-> R(chi_A): on atom i, R applied to the i-th indicator, the
    i-th column of R; the inverse of ``integration_operator`` on plain atoms."""
    return VectorMeasure(R.domain, R.codomain, R.entries.T)


def coordinate_family(m: VectorMeasure, k: int):
    """Dual/vector pairs whose finite-rank operator is the k-term basis projection of I_m."""
    if not 1 <= k <= m.X.dim:
        raise ValueError(f"family size {k} out of range 1..{m.X.dim}")
    eye = np.eye(m.X.dim)
    return [eye[j] for j in range(k)], [eye[j] for j in range(k)]


def expectation_family(m: VectorMeasure, p: Partition):
    """Dual/vector pairs realizing block averaging for measures into discretized L1.

    For the indicator measure the resulting finite-rank operator coincides
    with the conditional expectation of the partition and its associated
    measure with the martingale measure.
    """
    if m.X.dim != m.space.n:
        raise ValueError("expectation family needs the value space indexed by the atoms")
    blocks = [(p.block_of == b).astype(float) for b in range(p.n_blocks)]
    xstars = [m.space.weights * members / mass for members, mass in zip(blocks, p.block_masses())]
    return xstars, [members @ m.atoms for members in blocks]  # the values m(B)


def _max_pairing(diff: np.ndarray, weights: np.ndarray, tests: Sequence[SimpleFunction]) -> float:
    """max over rows of diff and test functions of | sum_i f_i diff_i mu_i |.

    Each row sum runs over the contiguous last axis, so it has the bits of the
    1-D ``np.sum`` of that row alone.
    """
    gap = 0.0
    for f in tests:
        row_gaps = np.abs(np.sum(f.coeffs * diff * weights, axis=1))
        gap = max(gap, float(np.max(row_gaps, initial=0.0)))
    return gap


def weakstar_gap(
    m: VectorMeasure, m1: VectorMeasure, xstars, tests: Sequence[SimpleFunction]
) -> float:
    """max over dual vectors and test functions of | sum_i f_i (phi1_i - phi_i) mu_i |.

    ``xstars`` is one dual vector or a (p, d) stack; an empty stack or an
    empty test family gives 0.0.  The densities of the stack come from one
    matrix product: exact for coordinate vectors, while general dense
    vectors may round differently in the last bits from one-at-a-time calls.
    """
    if not same_setting(m, m1):
        raise ValueError("measures live on different spaces or value spaces")
    diff = rn_derivatives(m1, xstars) - rn_derivatives(m, xstars)
    return _max_pairing(diff, m.space.weights, tests)


@dataclass(frozen=True)
class NetLevelStats:
    index: int
    norm_gap: float
    deviation: float
    pointwise_gap: float
    weakstar_gap: float


@dataclass(frozen=True)
class NetReport:
    levels: tuple


def martingale_net(m: VectorMeasure, partitions: Iterable[Partition]) -> Iterator[VectorMeasure]:
    return (martingale_measure(m, p) for p in partitions)


def basis_net(m: VectorMeasure) -> Iterator[VectorMeasure]:
    return (basis_truncated_measure(m, k) for k in range(1, m.X.dim + 1))


def rn_net(m: VectorMeasure, partitions: Optional[Iterable[Partition]] = None) -> Iterator[VectorMeasure]:
    """Levels A |-> R(chi_A) of the rn operators R of m's k-term coordinate families
    (k = 1..d) or, given partitions, of their expectation families.  On the
    indicator measure R(chi_A) is P_k chi_A, respectively E_p chi_A, so the
    net is ``basis_net(m)``, respectively ``martingale_net(m, partitions)``."""
    if isinstance(m.record, Indicator):
        return basis_net(m) if partitions is None else martingale_net(m, partitions)
    if partitions is None:
        families = (coordinate_family(m, k) for k in range(1, m.X.dim + 1))
    else:
        families = (expectation_family(m, p) for p in partitions)
    return (associated_measure(rn_operator(m, *family)) for family in families)


def _coordinate_densities(m: VectorMeasure) -> np.ndarray:
    """``rn_derivatives(m, np.eye(d))`` with the same bits, without a matrix product.

    Row k of the densities of the coordinate probes is column k of the atoms
    over the weights.  At n = d = 128 the product is large enough for BLAS to
    split it over threads, and on a busy machine each call could then stall
    for milliseconds waiting for a core.
    """
    densities = np.array(m.atoms.T, order="C")
    densities += 0.0  # -0.0 -> +0.0, as the product's zero-started sums give
    densities /= m.space.weights
    return densities


def _truncation_tails(w: np.ndarray, f: SimpleFunction, tests: Sequence[SimpleFunction]):
    """Rows of the rank-k truncations of the indicator measure into L1(mu): the
    three gaps are tail[k] = sum_{i >= k} |f_i| w_i, the weak* gap is wtail[k] =
    max over tests t and j >= k of |(t_j (1/w_j)) w_j|, the one nonzero term of
    a dense pairing row, with its bits; k = 0..n, both 0 at n."""
    tail = np.zeros(w.size + 1)
    tail[:-1] = np.cumsum((np.abs(f.coeffs) * w)[::-1])[::-1]
    wtail = np.zeros(w.size + 1)
    for t in tests:
        np.maximum(wtail[:-1], np.abs(t.coeffs * (1.0 / w) * w), out=wtail[:-1])
    wtail[:-1] = np.maximum.accumulate(wtail[-2::-1])[::-1]
    return tail.tolist(), wtail.tolist()


def _expectation_row(X: NormSpec, p: Partition, f: SimpleFunction, stack: np.ndarray):
    """Deviation (the block closed form), pointwise gap || f - E_p f || and weak* gap
    max_{t, j} |(E_p t)_j - t_j| of the level A |-> E_p chi_A, every block of one
    weight; the rows of ``stack`` are f and the tests, their block means unweighted."""
    rows, n_blocks = stack.shape[0], p.n_blocks
    cells = (np.arange(rows)[:, None] * n_blocks + p.block_of).ravel()
    sums = np.bincount(cells, weights=stack.ravel(), minlength=rows * n_blocks)
    means = sums.reshape(rows, n_blocks) / np.bincount(p.block_of, minlength=n_blocks)
    gaps = means[:, p.block_of] - stack  # exactly 0 on a singleton block
    weakstar = float(np.max(np.abs(gaps[1:]), initial=0.0))
    return _norm_block_closed_form(p, f), x_norm(X, gaps[0]), weakstar


def run_net(
    m: VectorMeasure,
    net: Iterable[VectorMeasure],
    f: SimpleFunction,
    tests: Optional[Sequence[SimpleFunction]] = None,
    exact_cutoff: int = DEFAULT_EXACT_CUTOFF,
    restarts: int = 8,
    seed: int = 0,
) -> NetReport:
    """Convergence diagnostics of a net of measures against its target.

    Per level: the norm gap | ||f||_level - ||f||_m |, the deviation
    seminorm (which always dominates the norm gap), the pointwise gap
    || I_m f - I_level f ||_X, and the largest weak* gap over the coordinate
    probe functionals evaluated on the test family (defaults to {f}).  The
    net is read one level at a time; the target's densities, norm and
    integral are computed once per net, on the first level that needs them,
    so a net of closed rows never reads the target's atoms.  Against the
    indicator measure into L1(mu), levels recorded as its truncations read
    their rows from ``_truncation_tails``, and its averages over blocks of
    one weight from ``_expectation_row``.
    """
    tests = [f] if tests is None else tests
    kw = dict(exact_cutoff=exact_cutoff, restarts=restarts, seed=seed)
    target = None  # densities, norm of f and I_m f, read on the first dense level
    closed = isinstance(m.record, Indicator) and same_norm(m.X, NormSpec.l1_of_mu(m.space))
    if closed:
        tail, wtail = _truncation_tails(m.space.weights, f, tests)
        stack = np.array([f.coeffs, *(t.coeffs for t in tests)])
    levels = []
    for idx, m_level in enumerate(net):
        if not same_setting(m, m_level):
            raise ValueError("net member lives on a different space or value space")
        if closed and isinstance(m_level.record, Truncation):
            k = m_level.record.k
            levels.append(NetLevelStats(idx, tail[k], tail[k], tail[k], wtail[k]))
            continue
        if (p := _block_partition(m, m_level)) is not None:  # implies closed: stack is set
            # the level's atoms are nonnegative, so its norm of f is the target's
            levels.append(NetLevelStats(idx, 0.0, *_expectation_row(m.X, p, f, stack)))
            continue
        if target is None:
            target = _coordinate_densities(m), norm_best(m, f, **kw).value, integrate(m, f)
        phi, target_norm, target_value = target
        level_norm = norm_best(m_level, f, **kw).value
        dev = deviation_seminorm(m, m_level, f, **kw)
        pointwise = x_norm(m.X, target_value - integrate(m_level, f))
        wsgap = _max_pairing(_coordinate_densities(m_level) - phi, m.space.weights, tests)
        levels.append(NetLevelStats(idx, abs(level_norm - target_norm), dev, pointwise, wsgap))
    return NetReport(tuple(levels))
