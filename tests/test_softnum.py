"""Rounding emulation checked against a first-principles software-float oracle.

The oracle below enumerates every finite value of the 1-8-7 format as an
exact Fraction and rounds by nearest-with-ties-to-even over that grid. It
shares no code with longctx.softnum, so agreement is meaningful.
"""

import math
import struct
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, strategies as st

from longctx.softnum import (
    PrecisionMode,
    distinct_integer_census,
    quantize_position,
    round_trip,
)

# Frozen from the exhaustive pre-build enumeration over integers [0, 524288).
CENSUS_524288 = 1665


def _oracle_grid():
    """All finite nonnegative values of the format, sorted, with their bits."""
    grid = [(Fraction(0), 0x0000)]
    for m in range(1, 128):  # subnormals: m * 2**-7 * 2**-126
        grid.append((Fraction(m, 128) * Fraction(1, 2**126), m))
    for e in range(1, 255):  # normals
        scale = Fraction(2**(e - 127)) if e >= 127 else Fraction(1, 2**(127 - e))
        for m in range(128):
            grid.append(((1 + Fraction(m, 128)) * scale, (e << 7) | m))
    return grid


_GRID = _oracle_grid()
_GRID_VALUES = [v for v, _ in _GRID]
_MAX_FINITE = _GRID_VALUES[-1]
_ULP_TOP = Fraction(2**120)  # spacing in the top binade


def oracle_round(x: float) -> float:
    """Nearest grid value, ties to even mantissa; overflow to infinity."""
    if math.isnan(x):
        return math.nan
    sign = -1.0 if math.copysign(1.0, x) < 0 else 1.0
    mag = Fraction(abs(x)) if not math.isinf(x) else None
    if mag is None or mag >= _MAX_FINITE + _ULP_TOP / 2:
        # At exactly max + ulp/2 the tie breaks toward the (even) next
        # binade, i.e. infinity.
        return sign * math.inf
    import bisect

    hi = bisect.bisect_left(_GRID_VALUES, mag)
    lo = hi - 1
    if hi == len(_GRID_VALUES):
        return sign * float(_GRID_VALUES[lo])
    below, above = _GRID[lo], _GRID[hi]
    if above[0] == mag:
        return sign * float(mag)
    d_below, d_above = mag - below[0], above[0] - mag
    if d_below < d_above:
        pick = below
    elif d_above < d_below:
        pick = above
    else:
        pick = below if below[1] % 2 == 0 else above
    return sign * float(pick[0])


def as_f32(x: float) -> float:
    try:
        return struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:
        return math.copysign(math.inf, x)


class TestRounding:
    def test_powers_of_two_exact(self):
        assert round_trip(256.0) == 256.0
        assert round_trip(0.0) == 0.0
        assert round_trip(1.0) == 1.0

    def test_tie_to_even_at_257(self):
        # 257 sits midway between 256 and 258; the even mantissa wins.
        assert oracle_round(257.0) == 256.0
        assert round_trip(257.0) == 256.0

    @pytest.mark.parametrize("value", [0.0, 1.0, 255.0, 256.0, 257.0, 258.0, 259.0, 511.0])
    def test_matches_oracle_on_small_integers(self, value):
        assert round_trip(value) == oracle_round(value)

    def test_matches_oracle_exhaustively_over_a_binade(self):
        for p in range(255, 514):
            assert round_trip(float(p)) == oracle_round(float(p)), p

    def test_matches_oracle_on_random_floats(self):
        rng = np.random.default_rng(13)
        exponents = rng.integers(-130, 129, size=400)
        mantissas = rng.random(size=400)
        for e, m in zip(exponents, mantissas):
            for sign in (1.0, -1.0):
                x = as_f32(sign * (1.0 + m) * 2.0 ** float(e))
                got = round_trip(x)
                want = oracle_round(x)
                assert got == want or (math.isnan(got) and math.isnan(want)), x

    def test_exact_tie_patterns(self):
        # Construct exact midpoints: representable value + half an ulp.
        for bits in (0x4380, 0x4381, 0x0001, 0x0002, 0x7F00, 0x7F7E):
            lo = float(np.uint32(bits << 16).view(np.float32))
            hi = float(np.uint32((bits + 1) << 16).view(np.float32))
            mid = as_f32((lo + hi) / 2.0)
            if mid in (lo, hi):  # midpoint not representable in 32-bit
                continue
            assert round_trip(mid) == oracle_round(mid), hex(bits)

    def test_overflow_to_signed_infinity(self):
        big = as_f32(3.4e38)
        assert round_trip(big) == math.inf
        assert round_trip(-big) == -math.inf
        assert round_trip(math.inf) == math.inf
        assert round_trip(-math.inf) == -math.inf

    def test_nan_stays_nan(self):
        assert math.isnan(round_trip(math.nan))

    def test_subnormals_survive(self):
        tiny = 2.0**-133  # representable subnormal of the 16-bit format
        assert round_trip(tiny) == tiny
        assert round_trip(2.0**-126) == 2.0**-126

    def test_no_warning_beyond_float32_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert round_trip(1e300) == math.inf
            assert quantize_position(-1e300, PrecisionMode.FULL32) == -math.inf
            assert distinct_integer_census(10**300) > 0


class TestProperties:
    def test_integers_up_to_256_exact(self):
        for p in range(257):
            assert round_trip(float(p)) == float(p)

    @given(
        st.floats(width=32, allow_nan=False),
        st.floats(width=32, allow_nan=False),
    )
    def test_monotone(self, x, y):
        if x > y:
            x, y = y, x
        assert round_trip(x) <= round_trip(y)

    @given(st.floats(width=32, allow_nan=False))
    def test_idempotent(self, x):
        once = round_trip(x)
        assert round_trip(once) == once

    @given(st.floats(width=32, allow_nan=False, allow_infinity=False))
    def test_round_lands_on_grid(self, x):
        r = round_trip(x)
        if math.isinf(r):
            return
        assert oracle_round(r) == r


class TestArrays:
    """Batches of inputs, each rounded through the scalar API."""

    @given(st.lists(st.floats(width=32), max_size=32))
    def test_array_matches_oracle_elementwise(self, xs):
        for x in xs:
            trip, full = round_trip(x), quantize_position(x, PrecisionMode.FULL32)
            want = oracle_round(x)
            assert trip == want or (math.isnan(trip) and math.isnan(want)), x
            assert full == as_f32(x) or (math.isnan(full) and math.isnan(x)), x
            assert quantize_position(x, PrecisionMode.REDUCED16) == trip or math.isnan(trip), x

    def test_nan_payload_in_the_low_half_stays_nan(self):
        # Truncating 0x7F800001 alone would leave the infinity pattern 0x7F80;
        # a NaN reaches the kernel quiet, so truncation keeps it a NaN. Rounding
        # 0x7FFFFFFF up would carry into the sign bit and give -0.0.
        for bits in (0x7F800001, 0xFF800001, 0x7FC00000, 0x7FFFFFFF, 0xFFFFFFFF):
            assert math.isnan(round_trip(struct.unpack("<f", struct.pack("<I", bits))[0])), hex(bits)

    @given(st.floats(width=32))
    def test_scalars_stay_python_floats(self, x):
        assert type(round_trip(x)) is float
        assert type(quantize_position(x, PrecisionMode.FULL32)) is float
        assert type(round_trip(3)) is float
        assert type(quantize_position(np.float32(0.1), PrecisionMode.FULL32)) is float
        assert type(quantize_position(257, PrecisionMode.REDUCED16)) is float


@lru_cache(maxsize=1)
def _enumerated_codes(count=2**20 + 2):
    """16-bit codes of every integer 0 .. count-1: add-and-truncate applied
    to each position's 32-bit pattern, as an array."""
    u = np.arange(count, dtype=np.float64).astype(np.float32).view(np.uint32).astype(np.uint64)
    u += 0x7FFF + ((u >> np.uint64(16)) & np.uint64(1))
    return (u >> np.uint64(16)).astype(np.uint16)


def enumerated_census(limit: int) -> int:
    return int(np.unique(_enumerated_codes()[:limit]).size)


class TestCensus:
    def test_small_limits(self):
        assert distinct_integer_census(257) == 257
        assert distinct_integer_census(512) == 385

    def test_frozen_large_value(self):
        assert distinct_integer_census(524288) == CENSUS_524288

    def test_agrees_with_scalar_path(self):
        for limit in (1, 2, 100, 300, 1000):
            expect = len({round_trip(float(p)) for p in range(limit)})
            assert distinct_integer_census(limit) == expect

    def test_agrees_with_independent_enumeration(self):
        # Same census, but counted with the Fraction-grid oracle instead of
        # any library code.
        want = len({oracle_round(float(p)) for p in range(4096)})
        assert distinct_integer_census(4096) == want

    def test_grows_128_per_binade(self):
        # From the second collision binade on, each doubling of the limit
        # contributes exactly the 128 grid points of one binade.
        for k in range(9, 16):
            assert distinct_integer_census(2 ** (k + 1)) - distinct_integer_census(2**k) == 128

    def test_monotone_in_limit(self):
        values = [distinct_integer_census(n) for n in range(1, 600, 7)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            distinct_integer_census(0)

    @pytest.mark.parametrize("k", range(21))
    def test_equals_enumeration_around_powers_of_two(self, k):
        for limit in (2**k - 1, 2**k, 2**k + 1):
            if limit >= 1:
                assert distinct_integer_census(limit) == enumerated_census(limit), limit

    @given(st.integers(1, 2**20))
    def test_equals_enumeration_at_random_limits(self, limit):
        assert distinct_integer_census(limit) == enumerated_census(limit)

    @pytest.mark.parametrize("limit", [10**12, 2**24 + 17, 2**200])
    def test_huge_limits_count_grid_integers_up_to_the_top(self, limit):
        # Nothing is enumerated: the images of 0 .. limit-1 are the grid
        # integers up to round(limit-1), plus infinity once that overflows.
        top = oracle_round(as_f32(float(limit - 1)))
        finite = sum(1 for v in _GRID_VALUES if v.denominator == 1 and v <= top)
        assert distinct_integer_census(limit) == finite + math.isinf(top)

    def test_rejects_limit_beyond_float64(self):
        with pytest.raises(ValueError, match="float64"):
            distinct_integer_census(10**400)


class TestQuantizePosition:
    def test_full32_keeps_integers_below_2_24(self):
        for p in (1, 1000, 300000, 2**24 - 1):
            assert quantize_position(p, PrecisionMode.FULL32) == float(p)

    def test_reduced16_collides_257_onto_256(self):
        assert quantize_position(257, PrecisionMode.REDUCED16) == 256.0
        assert quantize_position(256, PrecisionMode.REDUCED16) == 256.0

    def test_round_to_full32_is_identity_on_f32(self):
        assert quantize_position(0.1, PrecisionMode.FULL32) == as_f32(0.1)
