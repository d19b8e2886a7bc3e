"""Bit-exact emulation of truncated-mantissa 16-bit float rounding.

The 16-bit format modeled here has 1 sign bit, 8 exponent bits and 7
fraction bits, i.e. the same exponent range as a 32-bit float but 16 fewer
mantissa bits. One kernel does all the rounding, one float at a time: it
packs the value as a 32-bit float and works on its bit pattern with integer
operations, so results are identical on every platform and never depend on
a native half-width dtype.

Only rounding is implemented. That is enough to study how coarse the
format's integer grid becomes at large magnitudes: every integer up to 2**8
is representable exactly, after which each binade [2**k, 2**(k+1)) holds
only 128 grid points.
"""

from __future__ import annotations

import struct
import sys
from enum import Enum

__all__ = [
    "PrecisionMode",
    "round_trip",
    "quantize_position",
    "distinct_integer_census",
]


class PrecisionMode(Enum):
    """Precision used to represent position indices before angle products."""

    FULL32 = "full32"
    REDUCED16 = "reduced16"


def _pattern(x: float, mode: PrecisionMode) -> int:
    """The one rounding kernel: the 32-bit pattern of x represented in mode.

    x is packed as a 32-bit float, so doubles beyond the 32-bit range become
    infinity of matching sign. REDUCED16 then rounds the pattern to its high
    half, nearest with ties to even: add 0x7FFF plus the parity of the kept
    lsb, then truncate. A carry out of the mantissa walks into the exponent,
    which is exactly the IEEE overflow-to-infinity path. Subnormals round
    like any other value; there is no flush to zero. A NaN skips the add,
    which would carry 0x7FFFFFFF into the sign bit; truncation keeps its
    quiet bit, which packing always sets, so it stays a NaN.
    """
    try:
        (bits,) = struct.unpack("<I", struct.pack("<f", x))
    except OverflowError:
        bits = 0x7F800000 if x > 0 else 0xFF800000
    if mode is PrecisionMode.REDUCED16:
        if x == x:
            bits += 0x7FFF + ((bits >> 16) & 1)
        bits &= 0xFFFF0000
    return bits


def round_trip(x: float) -> float:
    """Value actually represented after rounding x to the 16-bit format."""
    return quantize_position(x, PrecisionMode.REDUCED16)


def quantize_position(position: float, mode: PrecisionMode) -> float:
    """Represent a position index in the given precision mode, as a float."""
    return struct.unpack("<f", struct.pack("<I", _pattern(float(position), mode)))[0]


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
    top = _pattern(last, PrecisionMode.REDUCED16)
    if top <= 0x43800000:  # 256.0; nonnegative floats order like their patterns
        return int(round_trip(last)) + 1
    return 257 + (top >> 16) - 0x4380
