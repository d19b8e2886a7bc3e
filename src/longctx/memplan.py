"""Compile-time lookup-table memory model for chunked ring attention.

Chunked attention over packed documents needs a chunk-to-segment mapping
so masks can be generated per block. When a compiler materializes that
mapping statically it allocates an int32 tensor of shape

    devices x num_q_chunks x num_kv_chunks x seq_len

(a broadcast axis of extent 1 drops out), i.e. exactly

    bytes = P * nq * nkv * S * 4.

With P=8, S=524288 and 1024/2048-token chunks that is 32 GiB before a
single training step runs. Fewer, larger chunks shrink nq * nkv
quadratically, which is why growing the chunk sizes reduces pre-allocated
memory even though per-block working sets grow. The planner searches chunk
configurations that keep the table under a byte budget.

Byte counts are exact Python integers throughout.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

__all__ = [
    "ELEMENT_BYTES",
    "MAX_SEARCH_SEQ_LEN",
    "ChunkPlan",
    "MemoryReport",
    "SearchConstraints",
    "lookup_table_bytes",
    "memory_report",
    "search_chunk_plan",
    "format_gib",
]

# The mapping table is an int32 tensor; fixed, not a tuning knob.
ELEMENT_BYTES = 4
# Longest sequence search_chunk_plan takes: its divisor scan runs to sqrt(S/P), 2^20 steps here.
MAX_SEARCH_SEQ_LEN = 1 << 40


@dataclass(frozen=True)
class ChunkPlan:
    """Device count, sequence length and chunk sizes, with derived counts."""

    devices: int
    seq_len: int
    q_chunk: int
    kv_chunk: int

    def __post_init__(self):
        for name in ("devices", "seq_len", "q_chunk", "kv_chunk"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seq_len % self.devices != 0:
            raise ValueError(f"devices {self.devices} must divide seq_len {self.seq_len}")
        per_device = self.seq_len // self.devices
        if per_device % self.q_chunk != 0:
            raise ValueError(f"q_chunk {self.q_chunk} must divide per-device length {per_device}")
        if per_device % self.kv_chunk != 0:
            raise ValueError(f"kv_chunk {self.kv_chunk} must divide per-device length {per_device}")

    @property
    def per_device(self) -> int:
        return self.seq_len // self.devices

    @property
    def num_q_chunks(self) -> int:
        return self.per_device // self.q_chunk

    @property
    def num_kv_chunks(self) -> int:
        return self.per_device // self.kv_chunk


def lookup_table_bytes(plan: ChunkPlan) -> int:
    """Exact size in bytes of the statically materialized mapping table."""
    return plan.devices * plan.num_q_chunks * plan.num_kv_chunks * plan.seq_len * ELEMENT_BYTES


def format_gib(nbytes: int) -> str:
    return f"{nbytes / 2**30:.3f} GiB"


@dataclass(frozen=True)
class MemoryReport:
    """Lookup-table bytes plus optional coarse extra terms and a budget check.

    extra_terms is free-form report plumbing (named byte counts supplied by
    the caller, summed additively); only the lookup-table term is modeled.
    breakdown lists every term, the table first, and sums to total_bytes.
    """

    lookup_table_bytes: int
    extra_terms: dict[str, int] = field(default_factory=dict)
    budget_bytes: int | None = None

    @property
    def breakdown(self) -> dict[str, int]:
        return {"lookup_table": self.lookup_table_bytes, **self.extra_terms}

    @property
    def total_bytes(self) -> int:
        return sum(self.breakdown.values())

    @property
    def fits(self) -> bool:
        return self.budget_bytes is None or self.total_bytes <= self.budget_bytes


def memory_report(
    plan: ChunkPlan,
    budget_bytes: int | None = None,
    extra_terms: dict[str, int] | None = None,
) -> MemoryReport:
    """Report on plan's lookup table, extra_terms and, if given, a budget.

    Raises ValueError for a budget <= 0 (search_chunk_plan refuses one too),
    an extra term that is not an int (bools included), a negative one, which
    would shrink the total, one whose name is blank or has leading or
    trailing whitespace, or one named lookup_table, which would replace the
    table's own entry in breakdown.
    """
    if budget_bytes is not None and budget_bytes <= 0:
        raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
    extra_terms = dict(extra_terms or {})
    for name, nbytes in extra_terms.items():
        if not isinstance(name, str) or not name or name != name.strip():
            raise ValueError(f"extra term names must be non-blank with no surrounding whitespace, got {name!r}")
        if isinstance(nbytes, bool) or not isinstance(nbytes, int):
            raise ValueError(f"extra term {name!r} must be an integer byte count, got {nbytes!r}")
    if "lookup_table" in extra_terms:
        raise ValueError("extra term name 'lookup_table' is reserved for the modeled table")
    negative = sorted(name for name, nbytes in extra_terms.items() if nbytes < 0)
    if negative:
        raise ValueError(f"extra terms must be non-negative byte counts, got negative {negative}")
    return MemoryReport(
        lookup_table_bytes=lookup_table_bytes(plan),
        extra_terms=extra_terms,
        budget_bytes=budget_bytes,
    )


@dataclass(frozen=True)
class SearchConstraints:
    """Per-side bounds on candidate chunk sizes."""

    min_q_chunk: int = 1
    min_kv_chunk: int = 1
    max_q_chunk: int | None = None
    max_kv_chunk: int | None = None
    power_of_two: bool = False


def _candidate_chunks(per_device: int, lo: int, hi: int | None, power_of_two: bool) -> list[int]:
    """Divisors of per_device within [lo, hi], ascending, by trial division to its square root."""
    small = [d for d in range(1, math.isqrt(per_device) + 1) if per_device % d == 0]
    divisors = small + [per_device // d for d in reversed(small) if d * d != per_device]
    return [
        size
        for size in divisors
        if size >= lo
        and (hi is None or size <= hi)
        and not (power_of_two and size & (size - 1))
    ]


def search_chunk_plan(
    devices: int,
    seq_len: int,
    budget_bytes: int,
    constraints: SearchConstraints = SearchConstraints(),
) -> ChunkPlan | None:
    """Smallest chunk sizes whose lookup table fits the budget, or None.

    Candidates are ordered by (q_chunk, kv_chunk) ascending and the first
    fit wins: smaller chunks mean smaller per-step working sets, so the
    search grows them only as far as the table forces. Candidates are the
    divisors of the per-device length, found in O(sqrt(n)) steps. Table
    bytes fall as kv_chunk grows, so for each q_chunk a bisection over the
    kv_chunk candidates finds the smallest one that fits.
    """
    if seq_len > MAX_SEARCH_SEQ_LEN:
        raise ValueError(f"seq_len={seq_len} is more than MAX_SEARCH_SEQ_LEN={MAX_SEARCH_SEQ_LEN}")
    if budget_bytes <= 0:
        raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
    ChunkPlan(devices, seq_len, 1, 1)  # checks the device layout before any search
    c = constraints
    if c.min_q_chunk < 1 or c.min_kv_chunk < 1:
        raise ValueError(
            f"minimum chunk sizes must be positive, got {c.min_q_chunk} and {c.min_kv_chunk}"
        )
    for side, lo, hi in (("q", c.min_q_chunk, c.max_q_chunk), ("kv", c.min_kv_chunk, c.max_kv_chunk)):
        if hi is not None and hi < lo:
            raise ValueError(f"max_{side}_chunk must be at least min_{side}_chunk={lo}, got {hi}")
    per_device = seq_len // devices
    q_sizes = _candidate_chunks(per_device, c.min_q_chunk, c.max_q_chunk, c.power_of_two)
    kv_sizes = _candidate_chunks(per_device, c.min_kv_chunk, c.max_kv_chunk, c.power_of_two)

    def plan(cq: int, ckv: int) -> ChunkPlan:
        return ChunkPlan(devices=devices, seq_len=seq_len, q_chunk=cq, kv_chunk=ckv)

    for cq in q_sizes:
        # Bytes fall as kv_chunk grows, so "fits" is False then True along kv_sizes.
        first_fit = bisect.bisect_left(
            kv_sizes, True, key=lambda ckv: lookup_table_bytes(plan(cq, ckv)) <= budget_bytes
        )
        if first_fit < len(kv_sizes):
            return plan(cq, kv_sizes[first_fit])
    return None

