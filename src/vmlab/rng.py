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
                   logarithm is ``_log``, which keeps ``math.log``'s bits
                   by a rounding test (numpy's float64 ``log`` does not
                   always match them).  Both go in slices of 2**14
                   (``_NORMALS_SLICE``) normals, so the temporaries hold one
                   slice, about 1.5 MB.  A call asking for more than
                   ``NORMALS_LIMIT`` normals (2**25, 256 MB of output)
                   raises ``CapacityExceeded`` before anything is allocated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityExceeded

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_NORMALS_SLICE = 1 << 14
NORMALS_LIMIT = 1 << 25
SIGNS_LIMIT = 1 << 24
_LOG_MARGIN = 0.5 - 2.0**-5  # of the spacing from D toward zero; see ``_log``


def _log(u: np.ndarray) -> np.ndarray:
    """``math.log`` of each entry of a positive float64 array, bitwise.

    Ziv's rounding test (A. Ziv, ACM TOMS 17(3), 1991): take L = logl(u) in
    numpy's extended ``longdouble`` and its nearest double D.  Let s be the
    spacing of doubles from D toward zero (half the ulp of D when |D| is a
    power of two), so no other double lies within s of D.  Where
    |L - D| <= (1/2 - 2^-5) s, D is ``math.log(u)``; the other entries, about
    one in sixteen, are recomputed by ``math.log``.  Proof, with y = log u:

      * logl is within 2^-10 ulp(y) of y (two units of x87's 64-bit
        significand; quad precision is closer still);
      * libm's ``log`` returns y' rounded to nearest, with y' within
        2^-5 - 2^-10 ulp(y) of y, so its worst error is below
        1/2 + 2^-5 - 2^-10 ulp.  glibc >= 2.28 documents 0.519 ulp for its
        ``log``, which musl shares;
      * usually ulp(y) = s, and then |y' - D| < (1/2 - 2^-5) s + 2^-5 s =
        s / 2, so y' rounds to D.  Otherwise |D| is a power of two and y lies
        beyond it, where ulp(y) = 2 s and the doubles are 2 s apart: y' is
        within (1/2 - 2^-5) s + 2^-4 s < s of D on that side, or within
        2^-4 s < s / 2 of it on the other, and rounds to D either way.

    Where ``longdouble`` is ``double``, L is libm's ``log`` itself, so
    L = D and no entry is recomputed.
    """
    extended = u.astype(np.longdouble)
    np.log(extended, out=extended)  # in place where it can: fresh slice-sized temporaries cost page faults
    out = extended.astype(np.float64)
    extended -= out  # exact: the residual of the rounding
    residual = np.abs(extended.astype(np.float64))
    spacing = np.nextafter(out, 0.0)
    spacing -= out
    np.abs(spacing, out=spacing)
    spacing *= _LOG_MARGIN
    (near,) = np.nonzero(residual > spacing)
    out[near] = list(map(math.log, u[near].tolist()))
    return out


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

    def _outputs(self, skip: int, count: int) -> np.ndarray:
        """Outputs skip+1 .. skip+count from the current state, as uint64, state unchanged;
        every step runs in place, since each fresh slice-sized array costs page faults."""
        z = np.arange(skip + 1, skip + count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)  # wraps mod 2**64
        z += np.uint64(self._state)
        shifted = np.empty_like(z)
        for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
            np.right_shift(z, np.uint64(shift), out=shifted)
            z ^= shifted
            if mix is not None:
                z *= np.uint64(mix)
        return z

    def signs(self, k: int) -> np.ndarray:
        if k > SIGNS_LIMIT:
            raise CapacityExceeded(f"{k} signs exceed the draw limit {SIGNS_LIMIT}")
        out = 1.0 - 2.0 * (self._outputs(0, k) & np.uint64(1)).astype(np.float64)
        self._state = (self._state + k * _GAMMA) & _MASK
        return out

    def normal(self) -> float:
        # (0,1] uniform avoids log(0); the sine mate of the pair is discarded.
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, k: int) -> np.ndarray:
        if k > NORMALS_LIMIT:
            raise CapacityExceeded(f"{k} normals exceed the draw limit {NORMALS_LIMIT}")
        out = np.empty(k)
        for start in range(0, k, _NORMALS_SLICE):
            m = min(_NORMALS_SLICE, k - start)
            z = self._outputs(2 * start, 2 * m)
            z >>= np.uint64(11)
            top = z.astype(np.float64).reshape(m, 2)  # exact below 2**53
            u1 = (top[:, 0] + 1.0) * 2.0**-53
            u2 = top[:, 1] * 2.0**-53
            out[start : start + m] = np.sqrt(-2.0 * _log(u1)) * np.cos(2.0 * math.pi * u2)
        self._state = (self._state + 2 * k * _GAMMA) & _MASK
        return out
