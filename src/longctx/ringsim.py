"""Streaming attention on a simulated ring, checked against an exact oracle.

Everything here runs on one process at 64-bit precision; the point is to
make the mechanics checkable, not fast. A sequence of S tokens is packed
with per-token segment ids (documents are contiguous spans), attention is
causal and never crosses a segment boundary, and two routes compute the
same output:

  exact_attention       full softmax over the whole score matrix (oracle)
  ring_attention        P simulated devices; queries stay put, KV partitions
                        rotate peer to peer, online-softmax accumulation over
                        query/KV chunks inside each device

blockwise_attention is the one-device ring, so there is a single streaming
loop.

Online softmax keeps a running max, denominator and numerator per query
row, rescaling by exp(old_max - new_max) whenever the max moves. That makes
the result independent of chunk sizes and of the order KV blocks arrive,
which is what lets the ring schedule match the oracle.

Before any math, every (query chunk x KV chunk) block is classified from
per-chunk (first_pos, last_pos, first_seg, last_seg) tables. Segment ids
never decrease, so a block is *empty* when its two segment ranges do not
overlap or (causal) its first key comes after its last query, and *full*
when both chunks lie in one segment and (causal) its last key is at or
before its first query; every other block is *partial*. Empty blocks are
skipped, full blocks skip the mask, partial blocks are masked pair by pair.
Skipping is exact, not an approximation: an empty block's scores are all
-inf, so it leaves every row's max unchanged (alpha = 1, or the state is
still zero) and adds exp(-inf) = 0 to the sums; a full block's mask would
select every score. Outputs are bitwise those of visiting every block.

Simulated devices execute in a fixed sequential order, so outputs are
bit-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AttentionProblem",
    "RingMesh",
    "RingStep",
    "RingTrace",
    "DospLimits",
    "attention_weights",
    "exact_attention",
    "blockwise_attention",
    "ring_attention",
    "dosp_limits",
    "random_problem",
]


@dataclass
class AttentionProblem:
    """Q/K/V matrices of shape (S, d) plus per-token segment ids."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    segment_ids: np.ndarray
    scale: float | None = None
    causal: bool = True

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        self.k = np.asarray(self.k, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        self.segment_ids = np.asarray(self.segment_ids, dtype=np.int64)
        if self.q.ndim != 2:
            raise ValueError(f"q must be 2-D (S, d), got shape {self.q.shape}")
        if 0 in self.q.shape:
            raise ValueError(f"q must have S >= 1 rows and d >= 1 columns, got shape {self.q.shape}")
        if self.q.shape != self.k.shape or self.q.shape != self.v.shape:
            raise ValueError(
                f"Q/K/V shapes differ: {self.q.shape}, {self.k.shape}, {self.v.shape}"
            )
        if self.segment_ids.shape != (self.q.shape[0],):
            raise ValueError(
                f"segment_ids has shape {self.segment_ids.shape}, expected ({self.q.shape[0]},)"
            )
        if np.any(self.segment_ids < 0):
            raise ValueError("segment_ids must be non-negative")
        if np.any(np.diff(self.segment_ids) < 0):
            raise ValueError("segment_ids must be non-decreasing (contiguous documents)")
        if self.scale is None:
            self.scale = 1.0 / np.sqrt(self.q.shape[1])

    @property
    def seq_len(self) -> int:
        return self.q.shape[0]

    @property
    def head_dim(self) -> int:
        return self.q.shape[1]


@dataclass(frozen=True)
class RingMesh:
    """Simulated device ring: device count and intra-device chunk sizes."""

    device_count: int
    query_chunk: int
    kv_chunk: int

    def validate_for(self, seq_len: int) -> None:
        if seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {seq_len}")
        if self.device_count < 1 or self.query_chunk < 1 or self.kv_chunk < 1:
            raise ValueError("device_count and chunk sizes must be positive")
        if seq_len % self.device_count != 0:
            raise ValueError(f"device_count {self.device_count} must divide S={seq_len}")
        per_device = seq_len // self.device_count
        if per_device % self.query_chunk != 0:
            raise ValueError(f"query_chunk {self.query_chunk} must divide S/P={per_device}")
        if per_device % self.kv_chunk != 0:
            raise ValueError(f"kv_chunk {self.kv_chunk} must divide S/P={per_device}")


@dataclass(frozen=True)
class RingStep:
    step: int
    device: int
    kv_origin: int


@dataclass
class RingTrace:
    """Rotation schedule log, the peer-to-peer transfer counter and block counts.

    blocks_visited counts the (query chunk x KV chunk) blocks folded into
    the running state, blocks_full the visited blocks that needed no mask
    and blocks_skipped the empty ones; visited + skipped is P^2 * nq * nkv.
    """

    steps: list[RingStep] = field(default_factory=list)
    transfers: int = 0
    blocks_visited: int = 0
    blocks_full: int = 0
    blocks_skipped: int = 0


@dataclass(frozen=True)
class DospLimits:
    ring_dosp: int
    all_to_all_dosp: int


def _allowed_mask(p: AttentionProblem, rows: slice, cols: slice) -> np.ndarray:
    """Boolean mask of legal (query row, key col) pairs over two index ranges."""
    same_segment = p.segment_ids[rows][:, None] == p.segment_ids[cols][None, :]
    if p.causal:
        causal = np.arange(cols.start, cols.stop)[None, :] <= np.arange(rows.start, rows.stop)[:, None]
        return same_segment & causal
    return same_segment


def attention_weights(p: AttentionProblem) -> np.ndarray:
    """Full (S, S) softmax weight matrix; masked-out pairs are exactly 0.0.

    Every diagonal entry is legal (j = i passes both the causal and the
    segment test), so no row is ever empty.
    """
    everything = slice(0, p.seq_len)
    scores = (p.q @ p.k.T) * p.scale
    scores = np.where(_allowed_mask(p, everything, everything), scores, -np.inf)
    scores -= scores.max(axis=1, keepdims=True)
    w = np.exp(scores)
    return w / w.sum(axis=1, keepdims=True)


def exact_attention(p: AttentionProblem) -> np.ndarray:
    """Reference full-precision attention output, (S, d)."""
    return attention_weights(p) @ p.v


def _chunk_table(segment_ids: np.ndarray, chunk: int) -> tuple[np.ndarray, ...]:
    """(first_pos, last_pos, first_seg, last_seg) of every chunk, in order."""
    first = np.arange(0, segment_ids.size, chunk)
    last = first + (chunk - 1)
    return first, last, segment_ids[first], segment_ids[last]


def _classify_blocks(p: AttentionProblem, query_chunk: int, kv_chunk: int):
    """Live and full flags of every (query chunk x KV chunk) block.

    Returns two boolean arrays of shape (S / query_chunk, S / kv_chunk).
    A block is live when it holds at least one legal pair and full when
    every pair in it is legal; a block that is not live is empty.
    """
    q_first, q_last, q_seg0, q_seg1 = (a[:, None] for a in _chunk_table(p.segment_ids, query_chunk))
    k_first, k_last, k_seg0, k_seg1 = (a[None, :] for a in _chunk_table(p.segment_ids, kv_chunk))
    live = (k_seg0 <= q_seg1) & (q_seg0 <= k_seg1)
    full = (q_seg0 == q_seg1) & (k_seg0 == k_seg1) & (q_seg0 == k_seg0)
    if p.causal:
        live &= k_first <= q_last
        full &= k_last <= q_first
    return live, full


def _stream_block(p, rows: slice, cols: slice, masked: bool, m, l, acc) -> None:
    """Fold one live (query rows x key cols) block into the running state in place."""
    scores = (p.q[rows] @ p.k[cols].T) * p.scale
    m_old = m[rows]
    if masked:
        scores = np.where(_allowed_mask(p, rows, cols), scores, -np.inf)
        new_m = np.maximum(m_old, scores.max(axis=1))
        # Rows that have seen nothing legal yet keep new_m == -inf; shift those
        # by 0 so exp(-inf) cleanly produces all-zero contributions.
        shift = np.where(np.isneginf(new_m), 0.0, new_m)
    else:
        new_m = shift = np.maximum(m_old, scores.max(axis=1))
    # exp(-inf - shift) is 0, so rows with no state yet start from zero.
    alpha = np.exp(m_old - shift)
    e = np.exp(scores - shift[:, None])
    l[rows] = alpha * l[rows] + e.sum(axis=1)
    acc[rows] = alpha[:, None] * acc[rows] + e @ p.v[cols]
    m[rows] = new_m


def blockwise_attention(p: AttentionProblem, query_chunk: int, kv_chunk: int) -> np.ndarray:
    """Streaming attention over query/KV chunks on one device; equals exact_attention."""
    return ring_attention(p, RingMesh(1, query_chunk, kv_chunk))[0]


def ring_attention(p: AttentionProblem, mesh: RingMesh) -> tuple[np.ndarray, RingTrace]:
    """Sequence-parallel attention on a simulated device ring.

    The sequence is split into P contiguous partitions. Query partitions
    never move; at ring step s device dev holds the KV partition that
    originated on device (dev - s) mod P, folds its live blocks into the
    running online-softmax state of its query rows, then passes it along.
    After P steps every device has seen every KV partition exactly once and
    its rows are finalized. Each of the P-1 rotations moves P KV blocks, so
    the trace counts P * (P - 1) peer-to-peer transfers.

    Blocks are classified once up front (see the module docstring), and
    only the live ones are visited, in schedule order: by step, then
    device, then query chunk and KV chunk. Full blocks skip the mask.
    Every block lies in exactly one (device, kv_origin) pair, so the
    trace's block counts sum to P^2 * nq * nkv, with nq and nkv the query
    and KV chunks per device partition.
    """
    mesh.validate_for(p.seq_len)
    P = mesh.device_count
    per_device = p.seq_len // P
    qc, kc = mesh.query_chunk, mesh.kv_chunk
    live, full = _classify_blocks(p, qc, kc)

    qi, ki = np.nonzero(live)
    step = (qi // (per_device // qc) - ki // (per_device // kc)) % P
    order = np.lexsort((ki, qi, step))  # query chunks are grouped by device
    qi, ki = qi[order], ki[order]

    m = np.full(p.seq_len, -np.inf)
    l = np.zeros(p.seq_len)
    acc = np.zeros((p.seq_len, p.head_dim))
    for q0, k0, masked in zip((qi * qc).tolist(), (ki * kc).tolist(), (~full[qi, ki]).tolist()):
        _stream_block(p, slice(q0, q0 + qc), slice(k0, k0 + kc), masked, m, l, acc)

    visited = int(qi.size)
    trace = RingTrace(
        steps=[RingStep(step=s, device=d, kv_origin=(d - s) % P) for s in range(P) for d in range(P)],
        transfers=P * (P - 1),
        blocks_visited=visited,
        blocks_full=int(np.count_nonzero(full)),
        blocks_skipped=live.size - visited,
    )
    return acc / l[:, None], trace


def dosp_limits(kv_heads: int, devices: int) -> DospLimits:
    """Degree-of-sequence-parallelism ceiling for the two SP schemes.

    Ring rotation scales with the device count; the all-to-all transpose
    scheme must give each device at least one whole KV head, capping it at
    min(devices, kv_heads).
    """
    if kv_heads < 1 or devices < 1:
        raise ValueError("kv_heads and devices must be >= 1")
    return DospLimits(ring_dosp=devices, all_to_all_dosp=min(devices, kv_heads))


def random_problem(
    seq_len: int,
    head_dim: int,
    rng: np.random.Generator,
    num_segments: int | None = None,
    causal: bool = True,
) -> AttentionProblem:
    """Random packed-sequence problem with contiguous random-length segments."""
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    if num_segments is None:
        num_segments = int(rng.integers(1, max(2, seq_len // 4) + 1))
    num_segments = min(num_segments, seq_len)
    cuts = np.sort(rng.choice(np.arange(1, seq_len), size=num_segments - 1, replace=False))
    lengths = np.diff(np.concatenate([[0], cuts, [seq_len]]))
    segment_ids = np.repeat(np.arange(num_segments), lengths)
    return AttentionProblem(
        q=rng.standard_normal((seq_len, head_dim)),
        k=rng.standard_normal((seq_len, head_dim)),
        v=rng.standard_normal((seq_len, head_dim)),
        segment_ids=segment_ids,
        causal=causal,
    )
