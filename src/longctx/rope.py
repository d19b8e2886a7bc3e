"""Rotary position encoding with precision injection and theta planning.

Positions are encoded by rotating feature pairs (2i, 2i+1) by the angle
position * theta_base**(-2i/d). The precision mode of a RopeConfig decides
how the position index is represented before the angle product is formed:
FULL32 keeps it as a 32-bit float (exact for every integer below 2**24),
REDUCED16 pushes it through the 16-bit rounding in softnum first, which is
the failure path where distant positions collide onto the same grid point.
Angles and trig are always evaluated in 64-bit afterwards, so any observed
damage is attributable to the position representation alone.

The planning half turns a target context length into a minimum usable
theta base (0.0424 * L**1.628). rotation_report holds three per-pair arrays
(inverse frequency, wavelength, whether it fits within max_position), and
plan_theta classifies candidate bases by the fraction of pairs that fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .softnum import PrecisionMode, quantize_position

__all__ = [
    "RopeConfig",
    "DimRotationReport",
    "CandidateReport",
    "ThetaPlan",
    "inverse_frequencies",
    "rotate",
    "relative_score",
    "rotation_report",
    "theta_lower_bound",
    "plan_theta",
    "BOUND_SLACK",
    "MAX_HEAD_DIM",
]

# Candidates at least this fraction of the lower bound count as meeting it.
# Validated long-context configurations sit slightly under the analytic
# curve (ratios around 0.86-0.89), so a hard >= test would reject working
# setups; 20% slack keeps those in band while still rejecting bases that
# miss the bound by a multiple.
BOUND_SLACK = 0.8
# Largest head dimension, checked before any per-dimension array or report
# row is built; real models use 64 to 256.
MAX_HEAD_DIM = 1 << 16


@dataclass(frozen=True)
class RopeConfig:
    """Positional-encoding universe: frequency base, width, reach, precision."""

    theta_base: float
    head_dim: int
    max_position: int
    precision: PrecisionMode = PrecisionMode.FULL32

    def __post_init__(self):
        if not 1 < self.theta_base < np.inf:
            raise ValueError(f"theta_base must be finite and > 1, got {self.theta_base}")
        if self.head_dim <= 0 or self.head_dim % 2 != 0:
            raise ValueError(f"head_dim must be a positive even integer, got {self.head_dim}")
        if self.head_dim > MAX_HEAD_DIM:
            raise ValueError(f"head_dim={self.head_dim} is more than MAX_HEAD_DIM={MAX_HEAD_DIM}")
        if self.max_position < 1:
            raise ValueError(f"max_position must be >= 1, got {self.max_position}")


def inverse_frequencies(cfg: RopeConfig) -> np.ndarray:
    """Frequency ladder theta_base**(-2i/d) for pair indices i in [0, d/2)."""
    i = np.arange(cfg.head_dim // 2, dtype=np.float64)
    return cfg.theta_base ** (-2.0 * i / cfg.head_dim)


def rotate(vector: np.ndarray, position: int, cfg: RopeConfig) -> np.ndarray:
    """Apply the per-pair rotation for a token at the given position.

    The position index is first represented in cfg.precision, then
    multiplied by each pair's inverse frequency; sin/cos run in 64-bit.
    Raises ValueError on dimension mismatch or position >= max_position,
    since either one signals a misconfigured encoding universe.
    """
    v = np.asarray(vector, dtype=np.float64)
    if v.shape != (cfg.head_dim,):
        raise ValueError(f"vector has shape {v.shape}, expected ({cfg.head_dim},)")
    if not 0 <= position < cfg.max_position:
        raise ValueError(f"position {position} outside [0, {cfg.max_position})")

    pos = quantize_position(position, cfg.precision)
    angles = pos * inverse_frequencies(cfg)
    cos, sin = np.cos(angles), np.sin(angles)

    out = np.empty_like(v)
    even, odd = v[0::2], v[1::2]
    out[0::2] = even * cos - odd * sin
    out[1::2] = even * sin + odd * cos
    return out


def relative_score(
    q: np.ndarray,
    k: np.ndarray,
    m: int,
    n: int,
    cfg: RopeConfig,
) -> float:
    """Attention score dot(rotate(q, m), rotate(k, n)).

    With exact position representation this depends on (m - n) only, which
    is the property the precision experiments probe.
    """
    return float(np.dot(rotate(q, m, cfg), rotate(k, n, cfg)))


@dataclass(frozen=True, eq=False)
class DimRotationReport:
    """Per-pair arrays: inverse frequency, wavelength, and whether it wraps in reach."""

    inv_freq: np.ndarray
    wavelength: np.ndarray
    complete: np.ndarray

    @property
    def fraction_complete(self) -> float:
        return float(self.complete.mean())


def rotation_report(cfg: RopeConfig) -> DimRotationReport:
    """Wavelength 2*pi*theta_base**(2i/d) per pair, flagged against max_position.

    A pair completes a full rotation iff its wavelength fits inside the
    position range; pairs that never wrap have seen only a fraction of
    their phase space during any pass over the data.
    """
    inv = inverse_frequencies(cfg)
    wavelength = 2.0 * np.pi / inv
    return DimRotationReport(inv, wavelength, wavelength <= cfg.max_position)


def theta_lower_bound(context_len: int) -> float:
    """Minimum workable frequency base for a target context length."""
    if context_len < 1:
        raise ValueError(f"context_len must be >= 1, got {context_len}")
    return 0.0424 * context_len**1.628


class ThetaClass(Enum):
    BELOW_BOUND = "below_bound"
    IN_BAND = "in_band"
    FAR_ABOVE_BOUND = "far_above_bound"


@dataclass(frozen=True)
class CandidateReport:
    theta: float
    bound_ratio: float
    fraction_complete: float
    classification: ThetaClass


@dataclass(frozen=True)
class ThetaPlan:
    context_len: int
    head_dim: int
    lower_bound: float
    candidates: list[CandidateReport]
    recommended: float | None


def plan_theta(
    context_len: int,
    candidates: list[float],
    head_dim: int = 128,
) -> ThetaPlan:
    """Classify candidate theta bases against the lower bound for context_len.

    Candidates below BOUND_SLACK of the bound are below_bound. Among the
    rest, the smallest is recommended. An eligible candidate larger than
    the recommendation is flagged far_above_bound when its fraction of
    incomplete rotations strictly exceeds the recommendation's, i.e. when
    the extra headroom costs additional never-wrapping dimensions, the
    mechanism behind degraded recall at sequence endpoints.
    """
    if not candidates:
        raise ValueError("candidates must be nonempty")
    bound = theta_lower_bound(context_len)

    fractions = {
        theta: rotation_report(RopeConfig(theta, head_dim, context_len)).fraction_complete
        for theta in candidates
    }

    eligible = sorted(t for t in candidates if t / bound >= BOUND_SLACK)
    recommended = eligible[0] if eligible else None

    reports = []
    for theta in candidates:
        if theta / bound < BOUND_SLACK:
            cls = ThetaClass.BELOW_BOUND
        elif theta != recommended and fractions[theta] < fractions[recommended]:
            cls = ThetaClass.FAR_ABOVE_BOUND
        else:
            cls = ThetaClass.IN_BAND
        reports.append(
            CandidateReport(
                theta=theta,
                bound_ratio=theta / bound,
                fraction_complete=fractions[theta],
                classification=cls,
            )
        )
    return ThetaPlan(
        context_len=context_len,
        head_dim=head_dim,
        lower_bound=bound,
        candidates=reports,
        recommended=recommended,
    )
