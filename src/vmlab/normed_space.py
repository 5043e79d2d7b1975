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
from .measure_core import MeasureSpace, _frozen
from .opt_engine import _BLOCK_BITS, sign_table

L1 = "L1"
L2 = "L2"
LINF = "LINF"

_KINDS = (L1, L2, LINF)

# 2^d corner enumeration stops here; beyond it callers get a capacity error
# instead of a silent slowdown.
L1_EXTREME_LIMIT = 20

# numpy sums fewer terms than this from +0.0 left to right in any layout, so
# ``norm`` forms shorter rows coordinate-major and sums whole columns; longer
# rows it forms row-major, the one layout whose pairwise block sums match a
# lone vector's (tests/test_normed_space.py guards both facts)
_SHORT_ROW = 8


@dataclass(frozen=True, eq=False)
class NormSpec:
    """A weighted l1/l2/linf norm: kind applied to the entrywise product scale*v."""

    kind: str
    dim: int
    scale: np.ndarray

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        s = _frozen(self.scale, float)
        if s.ndim == 0:
            s = np.full(self.dim, s)
            s.setflags(write=False)
        if s.shape != (self.dim,) or np.any(s <= 0.0) or not np.all(np.isfinite(s)):
            raise ValueError("scale must be a positive finite vector of length dim")
        object.__setattr__(self, "scale", s)

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
    """The norm of a vector, or the norms of the rows of an (..., d) array, each
    as if alone, whatever the array's memory layout (see ``_SHORT_ROW``)."""
    v = np.asarray(v, dtype=float)
    _check_dim(X, v)
    # copy, then scale in place: a ufunc that writes another layout than it reads
    # goes through a 64 KiB buffer on every call
    s = np.array(v, order="F" if v.ndim > 1 and X.dim < _SHORT_ROW else "C")
    s *= X.scale
    # s is a fresh array, so it takes the squares or absolute values in place;
    # the bare reductions are np.sum and np.max without their Python wrappers
    if X.kind == L2:
        out = np.sqrt(np.add.reduce(np.multiply(s, s, out=s), axis=-1))
    else:
        out = (np.add if X.kind == L1 else np.maximum).reduce(np.abs(s, out=s), axis=-1)
    return float(out) if v.ndim == 1 else out


def norm_rows(X: NormSpec, V) -> np.ndarray:
    """Norms of the rows of an (N, d) array; the L1 kind sums by a matrix
    product, so its last bits can differ from ``norm``."""
    if X.kind != L1:
        return norm(X, V)
    V = np.asarray(V, dtype=float)
    _check_dim(X, V)
    return np.abs(V) @ X.scale  # scale > 0, so |v * w| sums as |v| @ w


def dual_extreme_blocks(X: NormSpec):
    """One of each pair +-x* of the dual ball's extreme points, in blocks of at
    most 2^12 rows (``opt_engine._BLOCK_BITS``), so a caller that reduces block
    by block holds O(2^12 d) floats, not 2^(d-1) d.

    Row order: LINF row j is +w_j e_j; L1 row t < 2^(d-1) has -w_j where bit j
    of t is set, else +w_j, so + in the last coordinate.  The L1 blocks are one
    table, ``sign_table(X.scale, min(d - 1, 12))`` (built by doubling, so every
    entry is exactly +-w_j), whose high code bits' columns each block sets in
    place: a caller that keeps a block copies it.  Kind and capacity are checked
    at the call, before any block is built; L2 raises NotPolyhedral."""
    d, size = X.dim, 1 << _BLOCK_BITS
    if X.kind == LINF:
        return (np.eye(min(size, d - start), d, start) * X.scale for start in range(0, d, size))
    if X.kind != L1:
        raise NotPolyhedral("the L2 unit ball has no finite extreme-point set")
    if d > L1_EXTREME_LIMIT:
        raise CapacityExceeded(
            f"2^{d} dual extreme points exceed the enumeration limit (d <= {L1_EXTREME_LIMIT})"
        )
    low = min(d - 1, _BLOCK_BITS)
    block, heads = sign_table(X.scale, low), sign_table(X.scale[low:], d - 1 - low)

    def overwrite():  # block h takes row h of heads in its columns from low on
        for head in heads:
            block[:, low:] = head
            yield block
    return overwrite()
