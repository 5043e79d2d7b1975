"""Weighted l1/l2/linf norms on the value space R^d and their duals.

The pairing is always the plain Euclidean one; every weighting lives inside
the norm's ``scale`` vector.  Under that convention the dual of the weighted
l1 norm ``sum_j w_j |v_j|`` is the weighted sup norm ``max_j |x_j| / w_j``
and vice versa, and the dual unit balls of the polyhedral kinds have finite
extreme-point sets that this module enumerates:

  * kind LINF, scale w:  dual ball extreme points are the 2d vectors
    +-w_j e_j  (each has dual norm sum_j |x_j|/w_j equal to one).
  * kind L1, scale w:    dual ball is the box |x_j| <= w_j, extreme points
    the 2^d corners with coordinates +-w_j.

A discretized scalar L1(mu) is kind L1 with scale equal to the atom weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded, NotPolyhedral
from .measure_core import MeasureSpace

L1 = "L1"
L2 = "L2"
LINF = "LINF"

_KINDS = (L1, L2, LINF)
_DUAL_KIND = {L1: LINF, L2: L2, LINF: L1}

# 2^d corner enumeration stops here; beyond it callers get a capacity error
# instead of a silent slowdown.
L1_EXTREME_LIMIT = 20


@dataclass(frozen=True, eq=False)
class NormSpec:
    """A weighted l1/l2/linf norm: kind applied to the entrywise product scale*v."""

    kind: str
    dim: int
    scale: np.ndarray

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        s = np.array(self.scale, dtype=float, copy=True)
        if s.ndim == 0:
            s = np.full(self.dim, float(s))
        if s.shape != (self.dim,) or np.any(s <= 0.0) or not np.all(np.isfinite(s)):
            raise ValueError("scale must be a positive finite vector of length dim")
        s.setflags(write=False)
        object.__setattr__(self, "scale", s)

    @classmethod
    def l1(cls, dim: int, scale=1.0) -> "NormSpec":
        return cls(L1, dim, scale)

    @classmethod
    def l2(cls, dim: int, scale=1.0) -> "NormSpec":
        return cls(L2, dim, scale)

    @classmethod
    def linf(cls, dim: int, scale=1.0) -> "NormSpec":
        return cls(LINF, dim, scale)

    @classmethod
    def l1_of_mu(cls, space: MeasureSpace) -> "NormSpec":
        """The discretized scalar L1 over the given atoms."""
        return cls(L1, space.n, space.weights)

    @property
    def is_polyhedral(self) -> bool:
        return self.kind in (L1, LINF)


def same_norm(a: NormSpec, b: NormSpec) -> bool:
    return a is b or (a.kind == b.kind and a.dim == b.dim and np.array_equal(a.scale, b.scale))


def _check_dim(X: NormSpec, v: np.ndarray):
    if v.shape[-1] != X.dim:
        raise ValueError(f"vector of length {v.shape[-1]} in a {X.dim}-dimensional space")


def norm(X: NormSpec, v) -> float | np.ndarray:
    """The norm of a vector, or the norms of the rows of an (N, d) array, each as if alone."""
    v = np.asarray(v, dtype=float)
    _check_dim(X, v)
    s = X.scale * v
    if X.kind == L1:
        out = np.sum(np.abs(s), axis=-1)
    elif X.kind == L2:
        out = np.sqrt(np.sum(s * s, axis=-1))
    else:
        out = np.max(np.abs(s), axis=-1)
    return float(out) if v.ndim == 1 else out


def norm_rows(X: NormSpec, V) -> np.ndarray:
    """Norms of the rows of an (N, d) array; the L1 kind sums by a matrix
    product, so its last bits can differ from ``norm``."""
    if X.kind != L1:
        return norm(X, V)
    V = np.asarray(V, dtype=float)
    _check_dim(X, V)
    return np.abs(V) @ X.scale  # scale > 0, so |v * w| sums as |v| @ w


def dual_spec(X: NormSpec) -> NormSpec:
    """The norm on the dual space under the plain pairing: swapped kind, inverse scale."""
    return NormSpec(_DUAL_KIND[X.kind], X.dim, 1.0 / X.scale)


def dual_norm(X: NormSpec, xstar) -> float:
    return norm(dual_spec(X), xstar)


def dual_extreme_points(X: NormSpec) -> np.ndarray:
    """Extreme points of the dual unit ball, one per row.

    Row order: LINF rows 2j, 2j + 1 are +-w_j e_j; L1 row t has -w_j where bit
    j of t is set, else +w_j, so its first half pins + in the last coordinate.

    Only the polyhedral kinds have finitely many; L2 raises NotPolyhedral and
    callers must switch to an optimization route.
    """
    d = X.dim
    if X.kind == LINF:
        pts = np.empty((2 * d, d))
        pts[0::2] = np.diag(X.scale)
        pts[1::2] = np.diag(-X.scale)  # not -np.diag(...), which puts -0.0 off the diagonal
        return pts
    if X.kind == L1:
        if d > L1_EXTREME_LIMIT:
            raise CapacityExceeded(
                f"2^{d} dual extreme points exceed the enumeration limit (d <= {L1_EXTREME_LIMIT})"
            )
        t = np.arange(1 << d, dtype=np.int64)
        bits = (t[:, None] >> np.arange(d)) & 1
        return (1.0 - 2.0 * bits) * X.scale
    raise NotPolyhedral("the L2 unit ball has no finite extreme-point set")


def dual_extreme_half(X: NormSpec) -> np.ndarray:
    """One of each pair +-x* of ``dual_extreme_points``, in their row order:
    the +w_j e_j rows for LINF, the first half (+ in the last coordinate) for L1."""
    pts = dual_extreme_points(X)
    return pts[::2] if X.kind == LINF else pts[: len(pts) // 2]
