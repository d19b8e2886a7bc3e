"""Bit-exact emulation of truncated-mantissa 16-bit float rounding.

The 16-bit format modeled here has 1 sign bit, 8 exponent bits and 7
fraction bits, i.e. the same exponent range as a 32-bit float but 16 fewer
mantissa bits. One numpy kernel does all the rounding, for a float or an
array alike: it casts to 32-bit floats and works on their bit patterns with
integer operations, so results are identical on every platform and never
depend on a native half-width dtype.

Only rounding is implemented. That is enough to study how coarse the
format's integer grid becomes at large magnitudes: every integer up to 2**8
is representable exactly, after which each binade [2**k, 2**(k+1)) holds
only 128 grid points.
"""

from __future__ import annotations

import sys
from enum import Enum

import numpy as np

__all__ = [
    "PrecisionMode",
    "round_trip",
    "quantize_position",
    "distinct_integer_census",
]

_FRAC_MASK = 0x007F
_QUIET_BIT = 0x0040


class PrecisionMode(Enum):
    """Precision used to represent position indices before angle products."""

    FULL32 = "full32"
    REDUCED16 = "reduced16"


def _round(x, mode: PrecisionMode):
    """The one rounding kernel: x represented in mode, as numpy 32-bit floats.

    x, a float or an array, is cast to 32-bit floats, so doubles beyond the
    32-bit range become infinity of matching sign. REDUCED16 then rounds
    each 32-bit pattern to its high half, nearest with ties to even: add
    0x7FFF plus the parity of the kept lsb, then truncate. A carry out of the
    mantissa walks into the exponent, which is exactly the IEEE
    overflow-to-infinity path. Subnormals round like any other value; there
    is no flush to zero. NaN keeps its high fraction bits, and the quiet bit
    is forced when they are all zero so the pattern cannot collapse to
    infinity. The patterns of a REDUCED16 result have zero low halves.
    """
    with np.errstate(over="ignore"):
        f = np.asarray(x, np.float32)[()]  # a numpy scalar for scalar x: cheaper arithmetic
        if mode is PrecisionMode.FULL32:
            return f
        u = f.view(np.uint32)
        rounded = (u + 0x7FFF + ((u >> 16) & 1)) & 0xFFFF0000
        quiet = np.uint32(_QUIET_BIT << 16) * ((u & (_FRAC_MASK << 16)) == 0)
        return np.where(np.isnan(f), (u & 0xFFFF0000) | quiet, rounded).view(np.float32)


def round_trip(x: float | np.ndarray) -> float | np.ndarray:
    """Value actually represented after rounding x (a float or an array) to the 16-bit format."""
    return quantize_position(x, PrecisionMode.REDUCED16)


def quantize_position(position: float | np.ndarray, mode: PrecisionMode) -> float | np.ndarray:
    """Represent a position index, or an array of them, in the given precision mode.

    A scalar is converted with float() and comes back as a float; an array
    comes back as a float64 array of the same shape.
    """
    if np.ndim(position) == 0:
        return float(_round(float(position), mode))
    return _round(position, mode).astype(np.float64)


def distinct_integer_census(limit: int) -> int:
    """Count distinct 16-bit roundings of the integers 0 .. limit-1.

    Closed form, O(1) in time and memory. Rounding (to a 32-bit float, then
    to 16 bits) is monotone, and every integer on the 16-bit grid rounds to
    itself. Let top = round(limit-1). By monotonicity nothing rounds past
    top, and a grid integer g below top is one of the positions, since
    g > limit-1 would give top <= round(g) = g. So the census is the number
    of grid integers in [0, top]. Every integer up to 256 is on the grid;
    above 256 the grid values are integers whose bit patterns run
    consecutively from 0x4380 (256.0). When limit-1 overflows the 32-bit
    range, top is infinity, the pattern after the largest finite value, and
    it counts once, as it would in an enumeration.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    try:
        last = float(limit - 1)
    except OverflowError:
        raise ValueError(
            f"limit must be at most {sys.float_info.max:.6e}, the float64 range"
        ) from None
    top = _round(last, PrecisionMode.REDUCED16)
    if top <= 256:
        return int(top) + 1
    return 257 + (int(top.view(np.uint32)) >> 16) - 0x4380
