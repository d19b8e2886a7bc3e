"""Bit-exact emulation of truncated-mantissa 16-bit float rounding.

The 16-bit format modeled here has 1 sign bit, 8 exponent bits and 7
fraction bits, i.e. the same exponent range as a 32-bit float but 16 fewer
mantissa bits. Everything is done with integer bit manipulation on 32-bit
patterns, so results are identical on every platform and never depend on a
native half-width dtype.

Only rounding and widening are implemented. That is enough to study how
coarse the format's integer grid becomes at large magnitudes: every integer
up to 2**8 is representable exactly, after which each binade [2**k, 2**(k+1))
holds only 128 grid points.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "PrecisionMode",
    "Reduced16",
    "round_to_reduced16",
    "widen",
    "round_trip",
    "round_to_full32",
    "quantize_position",
    "distinct_integer_census",
]

_SIGN_MASK = 0x8000
_EXP_MASK = 0x7F80
_FRAC_MASK = 0x007F
_QUIET_BIT = 0x0040


class PrecisionMode(Enum):
    """Precision used to represent position indices before angle products."""

    FULL32 = "full32"
    REDUCED16 = "reduced16"


@dataclass(frozen=True)
class Reduced16:
    """A value of the 16-bit format, stored as its raw bit pattern."""

    bits: int

    def __post_init__(self):
        if not 0 <= self.bits <= 0xFFFF:
            raise ValueError(f"bits out of 16-bit range: {self.bits:#x}")

    @property
    def is_nan(self) -> bool:
        return (self.bits & _EXP_MASK) == _EXP_MASK and (self.bits & _FRAC_MASK) != 0

    @property
    def is_inf(self) -> bool:
        return (self.bits & _EXP_MASK) == _EXP_MASK and (self.bits & _FRAC_MASK) == 0


def _float_to_u32(x: float) -> int:
    """Bit pattern of x after conversion to a 32-bit float."""
    try:
        return struct.unpack("<I", struct.pack("<f", x))[0]
    except (OverflowError, struct.error):
        # Doubles beyond 32-bit range overflow to same-signed infinity.
        return 0x7F800000 if x > 0 else 0xFF800000


def _u32_to_float(u: int) -> float:
    return struct.unpack("<f", struct.pack("<I", u & 0xFFFFFFFF))[0]


def round_to_reduced16(x: float) -> Reduced16:
    """Round a 32-bit value to the nearest 16-bit value, ties to even.

    Overflow maps to infinity of matching sign; NaN stays NaN (the high
    fraction bits are kept and the quiet bit is forced so the pattern cannot
    collapse to infinity). Subnormals round like any other value; there is
    no flush to zero.
    """
    u = _float_to_u32(x)
    if math.isnan(x):
        bits = (u >> 16) & 0xFFFF
        if (bits & _FRAC_MASK) == 0:
            bits |= _QUIET_BIT
        return Reduced16(bits)
    # Round-to-nearest-even on the low 16 bits: add 0x7FFF plus the parity
    # of the result's lsb, then truncate. A carry out of the mantissa walks
    # into the exponent, which is exactly the IEEE overflow-to-infinity path.
    u += 0x7FFF + ((u >> 16) & 1)
    return Reduced16((u >> 16) & 0xFFFF)


def widen(v: Reduced16) -> float:
    """Exact embedding of a 16-bit value into a wider float. No rounding."""
    return _u32_to_float(v.bits << 16)


def round_trip(x: float) -> float:
    """Value actually represented after rounding x to the 16-bit format."""
    return widen(round_to_reduced16(x))


def round_to_full32(x: float) -> float:
    """Value actually represented after rounding x to a 32-bit float."""
    return _u32_to_float(_float_to_u32(x))


def quantize_position(position: float, mode: PrecisionMode) -> float:
    """Represent a position index in the given precision mode."""
    if mode is PrecisionMode.REDUCED16:
        return round_trip(float(position))
    return round_to_full32(float(position))


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
    top = round_to_reduced16(last)
    if widen(top) <= 256:
        return int(widen(top)) + 1
    return 257 + top.bits - 0x4380
