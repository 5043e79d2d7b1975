"""Deterministic 64-bit random generator used by every heuristic code path.

The generator is SplitMix64 with the usual constants, so any result that is
tagged as heuristic can be reproduced from the seed alone, independent of
numpy's generator versioning:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

Derived draws (documented because reports depend on them):
  * ``random()``   uniform in [0, 1): top 53 bits of the next output.
  * ``signs(k)``   k signs as a float64 array, bitwise k ``sign()`` calls:
                   entry i is +1 when the low bit of the mix of
                   ``state + (i + 1) * GAMMA mod 2**64`` is 0.  A call
                   asking for more than ``SIGNS_LIMIT`` signs (2**24, 128 MB
                   of output next to two uint64 temporaries of that size)
                   raises ``CapacityExceeded`` before anything is allocated.
  * ``normal()``   Box-Muller from two uniforms, cosine branch only.
  * ``normals(k)`` k normals as a float64 array, bitwise k ``normal()`` calls:
                   output i is the mix of ``state + (i + 1) * GAMMA``, so
                   the outputs come from numpy uint64 arithmetic.  The
                   cosine is numpy's float64 ``cos``, whose loop calls
                   libm's ``cos`` per element as ``math.cos`` does.  The
                   logarithm is ``_log``: float64 double-double arithmetic
                   under a rounding test that keeps ``math.log``'s bits
                   (numpy's float64 ``log`` does not always match them).
                   Each call allocates one workspace of ``_NORMALS_ROWS``
                   rows of ``min(k, _NORMALS_SLICE)`` float64 (12 x 2**14 x
                   8 bytes = 1.5 MiB) and runs every step of each 2**14-normal
                   slice in place there, so no slice-sized temporary is freed
                   and faulted in again.  A call asking for more than
                   ``NORMALS_LIMIT`` normals (2**25, 256 MB of output)
                   raises ``CapacityExceeded`` before anything is allocated.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import CapacityExceeded

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_NORMALS_SLICE = 1 << 14
_NORMALS_ROWS = 12  # (i + 1) GAMMA (2 rows), u1, cos, log, and _log's 7 scratch rows
NORMALS_LIMIT = 1 << 25
SIGNS_LIMIT = 1 << 24

# ``_log`` and its estimate: cells, constants and the rounding test, as their docstrings prove
_LOG_CROSSOVER = 448  # shorter arrays take math.log per entry, which is cheaper there (measured)
_CELL_SHIFT = 43  # 52 - 9: 2**9 cells per binade-long stretch
_CELL_BASE = 0x3FE6A00000000000  # the bits of 0.70703125, the lowest cell edge
_K_BITS = 0x4338000000000000  # the bits of 1.5 * 2**52: k + _K_BITS is the double 1.5 * 2**52 + k
_TINY = 2.0**-1022  # the least normal double
_SPLIT = 2.0**27 + 1.0  # Veltkamp: 26-bit high part
_LN2_HI = float.fromhex("0x1.62e42ffp-1")  # ln 2 rounded to 32 bits
_LN2_LO = float.fromhex("-0x1.718432a1b0e26p-35")  # |ln 2 - _LN2_HI - _LN2_LO| < 2**-89
_LOG_ERROR = 2.0**-8  # E: |L - log u| <= E s, see ``_estimate``
_LOG_MARGIN = 0.5 - 2.0**-5 + 2.0**-10 - _LOG_ERROR  # of the spacing s from D toward zero


@functools.cache
def _log_table():
    """Per cell, its reciprocal r (24 bits; 1 on the two cells next to 1) and
    -log r as T_hi + T_lo, within 2**-100, from ``decimal`` on first use."""
    import decimal  # here, so that importing vmlab does not load it

    edges = (_CELL_BASE + (np.arange(513, dtype=np.int64) << _CELL_SHIFT)).view(np.float64)
    r = (2.0 / (edges[:-1] + edges[1:])).astype(np.float32).astype(np.float64)
    one = np.searchsorted(edges, 1.0)  # the cell that starts at 1
    r[one - 1 : one + 1] = 1.0
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        minus_log = [-decimal.Decimal(v).ln() for v in r.tolist()]
        hi = [float(t) for t in minus_log]
        lo = [float(t - decimal.Decimal(h)) for t, h in zip(minus_log, hi)]
    table = r, np.array(hi) + 0.0, np.array(lo) + 0.0  # + 0.0 turns the -0.0 of r = 1 into +0.0
    for column in table:
        column.setflags(write=False)  # shared by every call
    return table


def _reduce(u: np.ndarray, work: np.ndarray):
    """The exact reduction behind ``_estimate`` of the positive float64 array
    u, in the rows of ``work`` (7, len(u)).

    u = 2^k x with x in [c, 2c), c = 0.70703125, read from the bits of u
    (a subnormal u is first scaled by 2^52).  [c, 2c) is cut into 512
    cells, 2^-10 wide below 1 and 2^-9 above; ``_log_table`` gives each its
    reciprocal r.  t = x r - 1 is exact as t_hi + t_lo: with Veltkamp's
    split x = x_hi + x_lo (26 and at most 27 bits), x_hi r and x_lo r are
    exact, x_hi r - 1 is exact by Sterbenz and TwoSum adds x_lo r.
    Returns views of (cell, k ln2_hi, k ln2_lo, t_hi, t_lo), which hold
    rows 0, 3, 4, 2 and 1 of ``work``; rows 5 and 6 are free.
    """
    w0, w1, w2, w3, w4, w5, w6 = work
    i0, i1, i2 = w0.view(np.int64), w1.view(np.int64), w2.view(np.int64)
    x, subnormal = u, None
    if u.min() < _TINY:
        subnormal = np.flatnonzero(u < _TINY)
        x = u.copy()
        x[subnormal] *= 2.0**52
    np.subtract(x.view(np.int64), _CELL_BASE, out=i0)
    np.right_shift(i0, 52, out=i1)
    np.left_shift(i1, 52, out=i2)
    np.subtract(x.view(np.int64), i2, out=i2)  # the bits of x
    if subnormal is not None:
        i1[subnormal] -= 52  # k
    np.right_shift(i0, _CELL_SHIFT, out=i0)
    np.bitwise_and(i0, 511, out=i0)  # cell
    i1 += _K_BITS
    w1 -= 1.5 * 2.0**52  # k as a float
    np.multiply(w1, _LN2_LO, out=w4)
    np.multiply(w1, _LN2_HI, out=w3)  # exact
    np.multiply(w2, _SPLIT, out=w1)
    np.subtract(w1, w2, out=w5)
    np.subtract(w1, w5, out=w1)  # x_hi
    np.subtract(w2, w1, out=w5)  # x_lo
    np.take(_log_table()[0], i0, out=w2, mode="clip")  # r
    w1 *= w2
    w5 *= w2
    w1 -= 1.0  # a = x_hi r - 1 and b = x_lo r, exact; TwoSum:
    np.add(w1, w5, out=w2)  # t_hi
    np.subtract(w2, w1, out=w6)
    w5 -= w6
    np.subtract(w2, w6, out=w6)
    w1 -= w6
    w1 += w5  # t_lo
    return i0, w3, w4, w2, w1


def _estimate(u: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """L = D + (L - D), within 2^-8 of the spacing s of doubles from D toward
    zero of y = log u (Tang, ACM TOMS 16(4), 1990), in float64 alone: D goes
    to ``out`` and row 3 of ``work``, returned, holds L - D.

    From ``_reduce``, y = k ln2 + T + log(1 + t), where T = -log r =
    T_hi + T_lo within 2^-100 and ln2_hi (32 bits) times |k| <= 1074 is
    exact.  L - D is exact in the last step, and

        L = (k ln2_hi + T_hi + t_hi) + (k ln2_lo + T_lo + t_lo - t_hi t_lo
            + t_hi^2 (-1/2 + t_hi/3 - t_hi^2/4 + t_hi^3/5 - t_hi^4/6 + t_hi^5/7)),

    the first sum by two FastTwoSums (K = k ln2_hi is 0 or |K| > 0.69 >
    |T_hi|; |t| < 2^-10 < |T| where r != 1, and |t| < 2^-9 where r = 1)
    whose errors join the second, which adds the terms in the order written.
    The Taylor tail is below |t|^8 / 7 and t_lo below 2^-53 |t_hi|.  The
    second sum rounds only where it is small next to y; with s >= 2^-53 |D|:

      * k != 0: |y| >= |k| ln2 - 0.347 >= 0.346 |k| >= 0.346, and every
        partial sum of the second sum is below 2^-17.4 |y| (t^2 / 2 <=
        2^-19): its dozen roundings and the rest give E < 2^-13;
      * k = 0, r != 1: S = T_hi exactly, |y| >= 2^-10 and t^2 / 2 < 2^-12 |y|
        (worst on [1 + 2^-9, 1 + 2^-8)).  Terms but the last are below
        2^-52 and add with errors below 2^-104; t_hi^2, the Horner sum,
        their product and the last addition round by at most 2^-53 of about
        t^2 / 2 each: E < 4 * 2^-12 * 1.01 + 2^-20 < 2^-9.9;
      * k = 0, r = 1: t = x - 1 is exact, so t_lo = 0 and every term but the
        last is 0.  Three roundings of about t^2 / 2 and the tail, against
        |y| >= |t| (1 - |t| / 2): E < 3 * 2^-10 * 1.01 + 2^-12.8 < 2^-8.3.

    So |L - y| <= E s with E = 2^-8 (``_LOG_ERROR``).
    """
    _reduce(u, work)
    w0, w1, w2, w3, w4, w5, w6 = work
    _, T_hi, T_lo = _log_table()
    np.take(T_hi, w0.view(np.int64), out=w5, mode="clip")
    np.take(T_lo, w0.view(np.int64), out=w6, mode="clip")
    np.add(w3, w5, out=w0)  # S
    np.subtract(w0, w3, out=w3)
    np.subtract(w5, w3, out=w3)  # S_err
    np.add(w0, w2, out=w5)  # H
    np.subtract(w5, w0, out=w0)
    np.subtract(w2, w0, out=w0)  # H_err
    w3 += w0
    w3 += w4
    w3 += w6
    np.subtract(1.0, w2, out=w0)
    w0 *= w1
    w3 += w0  # S_err + H_err + k ln2_lo + T_lo + t_lo (1 - t_hi)
    np.multiply(w2, 1.0 / 7.0, out=w0)
    for c in (-1.0 / 6.0, 1.0 / 5.0, -1.0 / 4.0, 1.0 / 3.0):
        w0 += c
        w0 *= w2
    w0 -= 0.5
    np.multiply(w2, w2, out=w1)
    w0 *= w1
    w3 += w0  # the second sum
    np.add(w5, w3, out=out)  # D
    np.subtract(out, w5, out=w5)
    w3 -= w5
    return w3


def _log(u: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """``math.log`` of each entry of a positive float64 array, bitwise.

    Arrays shorter than ``_LOG_CROSSOVER`` take ``math.log`` per entry,
    which is cheaper there than the ~60 array operations of the others.
    Those pass Ziv's rounding test (A. Ziv, ACM TOMS 17(3), 1991) on the
    estimate L = D + (L - D) of y = log u from ``_estimate``, with
    |L - y| <= E s, E = 2^-8.  s is the spacing of doubles from D toward
    zero (half the ulp of D when |D| is a power of two), so no other double
    lies within s of D; it is D less the double whose int64 bits are D's
    minus one.  Where |L - D| <= (1/2 - 2^-5 + 2^-10 - E) s, D is
    ``math.log(u)``; the other entries, about one in fifteen, are
    recomputed by ``math.log``.  Proof: there |y - D| <=
    (1/2 - 2^-5 + 2^-10) s, and

      * libm's ``log`` returns y' rounded to nearest, with y' within
        2^-5 - 2^-10 ulp(y) of y, so its worst error is below
        1/2 + 2^-5 - 2^-10 ulp.  glibc >= 2.28 documents 0.519 ulp for its
        ``log``, which musl shares;
      * usually ulp(y) = s, and then |y' - D| < s / 2, so y' rounds to D.
        Otherwise |D| is a power of two and y lies beyond it, where
        ulp(y) = 2 s and the doubles are 2 s apart: y' is within
        (1/2 - 2^-5 + 2^-10) s + (2^-4 - 2^-9) s < s of D on that side, or
        within (2^-4 - 2^-9) s < s / 2 of it on the other, and rounds to D
        either way.

    ``out`` receives the result and ``work``, (7, len(u)) float64, is
    scratch; each is allocated when not given.  Only ``math.log`` is read
    from ``math``.
    """
    if out is None:
        out = np.empty(len(u))
    if len(u) < _LOG_CROSSOVER:
        out[:] = list(map(math.log, u.tolist()))
        return out
    if work is None:
        work = np.empty((7, len(u)))
    residual = _estimate(u, out, work)
    spacing = work[0]
    np.subtract(out.view(np.int64), 1, out=spacing.view(np.int64))  # NaN at D = 0, which passes
    np.subtract(out, spacing, out=spacing)
    np.abs(spacing, out=spacing)
    spacing *= _LOG_MARGIN
    np.abs(residual, out=residual)
    near = np.flatnonzero(residual > spacing)
    out[near] = list(map(math.log, u[near].tolist()))
    return out


def _mix(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64's output function of the uint64 states z, in place."""
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        if mix is not None:
            z *= np.uint64(mix)  # wraps mod 2**64
    return z


class SplitMix64:
    """Tiny splittable PRNG; one instance per heuristic call, never shared."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def sign(self) -> float:
        return 1.0 if (self.next_u64() & 1) == 0 else -1.0

    def _outputs(self, count: int) -> np.ndarray:
        """The next ``count`` outputs, as uint64, state unchanged."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)  # wraps mod 2**64
        z += np.uint64(self._state)
        return _mix(z, np.empty_like(z))

    def signs(self, k: int) -> np.ndarray:
        k = operator.index(k)  # a numpy integer times GAMMA would overflow int64
        if k > SIGNS_LIMIT:
            raise CapacityExceeded(f"{k} signs exceed the draw limit {SIGNS_LIMIT}")
        out = 1.0 - 2.0 * (self._outputs(k) & np.uint64(1)).astype(np.float64)
        self._state = (self._state + k * _GAMMA) & _MASK
        return out

    def normal(self) -> float:
        # (0,1] uniform avoids log(0); the sine mate of the pair is discarded.
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, k: int) -> np.ndarray:
        k = operator.index(k)  # a numpy integer times GAMMA would overflow int64
        if k > NORMALS_LIMIT:
            raise CapacityExceeded(f"{k} normals exceed the draw limit {NORMALS_LIMIT}")
        out = np.empty(k)
        work = np.empty((_NORMALS_ROWS, min(k, _NORMALS_SLICE)))
        steps = work[0:2].reshape(-1).view(np.uint64)
        steps.fill(_GAMMA)
        np.cumsum(steps, out=steps)  # (i + 1) * GAMMA mod 2**64
        for start in range(0, k, _NORMALS_SLICE):
            n = min(_NORMALS_SLICE, k - start)
            u1, angle, log, scratch = work[2, :n], work[3, :n], work[4, :n], work[5:, :n]
            z = work[5:7].reshape(-1).view(np.uint64)[: 2 * n]
            np.add(steps[: 2 * n], np.uint64((self._state + 2 * start * _GAMMA) & _MASK), out=z)
            _mix(z, work[7:9].reshape(-1).view(np.uint64)[: 2 * n])
            z >>= np.uint64(11)  # exact in float64 from here on
            np.add(z[0::2], 1.0, out=u1)
            u1 *= 2.0**-53
            # (2 pi 2^-53) top rounds as 2 pi (top 2^-53) does: the factor 2^-53 is exact
            np.multiply(z[1::2], 2.0 * math.pi * 2.0**-53, out=angle)
            np.cos(angle, out=angle)
            _log(u1, log, scratch)
            log *= -2.0
            np.sqrt(log, out=log)
            np.multiply(log, angle, out=out[start : start + n])
        self._state = (self._state + 2 * k * _GAMMA) & _MASK
        return out
