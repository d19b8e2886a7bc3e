"""Independent expected values for the benchmark's output checks.

Nothing here calls into longctx: each function recomputes, by a different
route, a value the package reports, so a check fails when the package is
wrong rather than agreeing with itself.
"""

from __future__ import annotations

import math

import numpy as np

ROPE_BOUND_SLACK = 0.8  # fraction of the theta lower bound that still counts as meeting it


def round16(x: float) -> float:
    """Round to 8 significant bits, ties to even (the 16-bit grid), via frexp."""
    if x == 0.0:
        return 0.0
    mantissa, exponent = math.frexp(x)  # x = mantissa * 2**exponent, 0.5 <= |mantissa| < 1
    return math.ldexp(round(mantissa * 256), exponent - 8)


def census_count(limit: int) -> int:
    """Distinct 16-bit roundings of the integers 0 .. limit-1, in O(1).

    Rounding is monotone and every grid integer rounds to itself, so the
    answer is the number of grid integers in [0, round16(limit - 1)]:
    all of 0..256, then 128 per binade [2**k, 2**(k+1)) for k >= 8.
    """
    top = int(round16(float(limit - 1)))
    if top <= 256:
        return top + 1
    k = top.bit_length() - 1
    return 256 + 128 * (k - 8) + (top - (1 << k)) // (1 << (k - 7)) + 1


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def lookup_table_bytes(devices: int, seq_len: int, q_chunk: int, kv_chunk: int) -> int:
    per_device = seq_len // devices
    return devices * (per_device // q_chunk) * (per_device // kv_chunk) * seq_len * 4


def chunk_plan_search(
    devices, seq_len, budget, min_q=1, min_kv=1, max_q=None, max_kv=None, power_of_two=False
):
    """First (q_chunk, kv_chunk) in ascending order whose table fits, or None."""
    per_device = seq_len // devices

    def sizes(lo, hi):
        return [
            d
            for d in _divisors(per_device)
            if d >= lo and (hi is None or d <= hi) and (not power_of_two or d & (d - 1) == 0)
        ]

    kv_sizes = sizes(min_kv, max_kv)
    for q in sizes(min_q, max_q):
        for kv in kv_sizes:
            if lookup_table_bytes(devices, seq_len, q, kv) <= budget:
                return q, kv
    return None


def theta_lower_bound(context_len: int) -> float:
    return 0.0424 * context_len**1.628


def wavelengths(theta: float, head_dim: int) -> np.ndarray:
    return np.array([2.0 * math.pi * theta ** (2.0 * i / head_dim) for i in range(head_dim // 2)])


def theta_plan(context_len: int, candidates: list[float], head_dim: int) -> tuple:
    """(recommended, [classification per candidate]) as rope-plan reports them."""
    bound = theta_lower_bound(context_len)
    complete = {t: float(np.mean(wavelengths(t, head_dim) <= context_len)) for t in candidates}
    eligible = sorted(t for t in candidates if t / bound >= ROPE_BOUND_SLACK)
    recommended = eligible[0] if eligible else None
    classes = []
    for t in candidates:
        if t / bound < ROPE_BOUND_SLACK:
            classes.append("below_bound")
        elif recommended is not None and t != recommended and complete[t] < complete[recommended]:
            classes.append("far_above_bound")
        else:
            classes.append("in_band")
    return recommended, classes


def rope_score(q: np.ndarray, k: np.ndarray, m: float, n: float, theta: float) -> float:
    """dot(rotate(q, m), rotate(k, n)) written as sum |q_i||k_i| cos(phase)."""
    d = q.size
    inv = theta ** (-2.0 * np.arange(d // 2) / d)
    qc = q[0::2] + 1j * q[1::2]
    kc = k[0::2] + 1j * k[1::2]
    return float(np.real(np.sum(qc * np.conj(kc) * np.exp(1j * (m - n) * inv))))
