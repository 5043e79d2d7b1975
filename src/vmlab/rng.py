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
                   ``state + (i + 1) * GAMMA mod 2**64`` is 0.
  * ``normal()``   Box-Muller from two uniforms, cosine branch only.
  * ``normals(k)`` k normals as a float64 array, bitwise k ``normal()`` calls:
                   output i is the mix of ``state + (i + 1) * GAMMA``, so
                   the outputs come from numpy uint64 arithmetic; log and
                   cos stay per element on ``math``, whose last bits numpy's
                   versions do not always match.  Both go in slices of
                   ``_NORMALS_SLICE`` normals, so the temporaries and the
                   Python float lists never hold more than one slice.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_NORMALS_SLICE = 1 << 16


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
        """Outputs skip+1 .. skip+count from the current state, as uint64, state unchanged."""
        steps = np.arange(skip + 1, skip + count + 1, dtype=np.uint64)
        z = steps * np.uint64(_GAMMA) + np.uint64(self._state)  # wraps mod 2**64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def signs(self, k: int) -> np.ndarray:
        out = 1.0 - 2.0 * (self._outputs(0, k) & np.uint64(1)).astype(np.float64)
        self._state = (self._state + k * _GAMMA) & _MASK
        return out

    def normal(self) -> float:
        # (0,1] uniform avoids log(0); the sine mate of the pair is discarded.
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, k: int) -> np.ndarray:
        out = np.empty(k)
        for start in range(0, k, _NORMALS_SLICE):
            m = min(_NORMALS_SLICE, k - start)
            z = self._outputs(2 * start, 2 * m)
            top = (z >> np.uint64(11)).astype(np.float64).reshape(m, 2)  # exact below 2**53
            u1 = (top[:, 0] + 1.0) * 2.0**-53
            u2 = top[:, 1] * 2.0**-53
            log_u1 = np.fromiter(map(math.log, u1.tolist()), np.float64, m)
            cos_u2 = np.fromiter(map(math.cos, (2.0 * math.pi * u2).tolist()), np.float64, m)
            out[start : start + m] = np.sqrt(-2.0 * log_u1) * cos_u2
        self._state = (self._state + 2 * k * _GAMMA) & _MASK
        return out
