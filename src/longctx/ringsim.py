"""Streaming attention on a simulated ring, checked against an exact oracle.

Everything here runs on one process at 64-bit precision; the point is to
make the mechanics checkable, not fast. A sequence of S tokens is packed
with per-token segment ids (documents are contiguous spans), attention is
causal and never crosses a segment boundary, and two routes compute the
same output:

  exact_attention       row-blocked oracle: each strip of query rows
                        takes only its legal key span and a full,
                        non-streaming softmax per row
  ring_attention        P simulated devices; queries stay put, KV partitions
                        rotate peer to peer, online-softmax accumulation over
                        query/KV chunks inside each device

Online softmax keeps a running max, denominator and numerator per query
row, rescaling by exp(old_max - new_max) whenever the max moves. That makes
the result independent of chunk sizes and of the order KV blocks arrive,
which is what lets the ring schedule match the oracle.

Segments are contiguous, so row i's legal keys are one interval
[lo_i, hi_i], from its segment's start to i (causal) or to the segment's
end; _legal_keys is the only place causality enters. Both bounds never
decrease and each interval holds its row, so the rows of a run together
read keys within [lo of its first row, hi of its last row], its *span*,
and every one of them reads all of [lo of its last row, hi of its first
row], its *core*. A (query chunk x KV chunk) block is *empty* when the KV
chunk misses the query chunk's span, *full* when it lies in the core and
*partial* otherwise, so each query chunk's live blocks, and its full
ones, are one contiguous run of KV chunks. Empty blocks are skipped. A
ring slab that holds a partial block sets each row's scores outside
[lo_i, hi_i] to -inf, which exp makes 0.0. The oracle masks only its
span's edges outside the core, as exp(0) zeroed after: numpy's exp takes
3.2 ns per -inf input against 0.7 ns per finite one, and those edges can
fill most of a strip, while the ring, which skips empty blocks, masks few
of its scores. Skipping is exact, not an approximation: an empty block's
scores are all -inf, so it leaves every row's max unchanged (alpha = 1,
or the state is still zero) and adds exp(-inf) = 0 to the sums; a full
block's mask selects every score; and every key outside a span would get
weight exactly 0.0, so the oracle's span changes which zeros are summed,
not the result. Outputs are bitwise those of visiting every block.

ring_attention folds each query chunk's live blocks in the ring's order:
query device dq gets KV partition dk at ring step (dq - dk) mod P, so a
block's fold step t is its rank in its query chunk by (ring step, KV
chunk). Only two updates read the running state, l = alpha * l + rowsum
and acc = alpha * acc + P.V, so everything else is computed ahead of them,
batched in slabs whose temporaries fit _SLAB_BYTES: QK^T (a stacked
matmul, one gemm per block), the scale, the -inf mask, the
row max, the running max (a cumulative max over t, seeded with the max
carried from earlier slabs), the shift, alpha, exp, the row sums and P.V.
The two recurrences then run once per fold step on a contiguous slice of
the state, whose rows go by descending fold count, so the rows still
folding at step t come first. Outputs are bitwise those of one block per
call: every row folds its blocks in the same order, a max is exact in any
order, and each block gets the same gemms, the same sums along its rows
and the same elementwise steps as a lone block.

Both routes fold independent units on worker threads where numpy's
work, which runs without the GIL, outweighs the Python between its calls.
_groups sizes both splits: one group per usable CPU, at most one per
unit, each holding one unit's scratch at a time, and no more groups than
the route's budget holds scratches. The oracle's unit is a row strip of
_oracle_rows(S) rows (as many as _SLAB_BYTES holds at width S, from 64
to 256 and at most S), its scratch one strip as wide as the widest span
of the strips it walks, updated in place by every pass, and its budget
the _ORACLE_ROWS x S strip random_problem admits, so it splits from
S = 1024. The ring's unit is a row block of _slab_cap query chunks, which
shares no state row with another, its scratch one slab's temporaries
(_SLAB_BYTES or one block) and its budget MAX_WORKING_SET_BYTES; it
splits only when one block's QK^T takes at least _THREADED_BLOCK_MACS
multiply-adds (a row block is then one query chunk) and each group gets
two row blocks or more. Group g of G takes units g, g + G, ... in order;
the calling thread runs group 0 and a per-call pool the rest. Bits cannot
move: each query chunk meets the same slabs, and each row strip the same
passes, as on one thread. Each ring group streams only its own slabs.
Workers call only private helpers, so a wrapper around a public function
(a tracer's, say) sees each call once, on the calling thread.
exact_attention never holds an S x S array; attention_weights returns
one, which ringsim --dump-weights writes as CSV only for S <= 3,213,
while 26 x S x S bytes fit cli.MAX_DUMP_BYTES.

Memory is bounded before anything is allocated: random_problem refuses a
problem whose Q/K/V plus a 256 x S oracle strip, the oracle's budget,
would pass MAX_WORKING_SET_BYTES, and RingMesh.validate_for a mesh with
more than MAX_CLASSIFIED_BLOCKS (query chunk x KV chunk) blocks,
which bounds the live blocks the ring's schedule lists, or whose one
block's scores and mask (at most 16 x query_chunk x kv_chunk bytes; a
slab holds at least one block) would pass MAX_WORKING_SET_BYTES. The
mesh's layout (positive sizes, P divides S, each chunk size divides S/P)
is checked by memplan.ChunkPlan, the one place that rule is written.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import memplan

__all__ = [
    "AttentionProblem",
    "RingMesh",
    "RingTrace",
    "attention_weights",
    "exact_attention",
    "ring_attention",
    "random_problem",
    "MAX_WORKING_SET_BYTES",
    "MAX_CLASSIFIED_BLOCKS",
]

_ORACLE_ROWS = 256  # most query rows per oracle strip
_ORACLE_MIN_ROWS = 64  # fewest: QK^T re-reads the span's keys once per strip
_SLAB_BYTES = 1 << 20  # bytes of one ring slab's temporaries, in blocks of at least one
# Fewest multiply-adds in one block's QK^T (query_chunk x kv_chunk x d) for the ring
# to fold on worker threads: from there on a slab's numpy work, which runs without
# the GIL, outweighs the Python between its calls, which holds it.
_THREADED_BLOCK_MACS = 1 << 20
# Size bounds, checked before anything sized by S is allocated. The oracle
# holds one strip and its edge masks at once and the ring schedule a few
# int32s per live block, so a run near either bound needs a few hundred MiB.
# Q/K/V plus an (_ORACLE_ROWS x S) oracle strip, in float64 bytes. The strip
# term is an upper bound: a strip never has more than _ORACLE_ROWS rows.
MAX_WORKING_SET_BYTES = 1 << 28
# (query chunk x KV chunk) blocks of one mesh, S / query_chunk * S / kv_chunk:
MAX_CLASSIFIED_BLOCKS = 1 << 22


@dataclass
class AttentionProblem:
    """Q/K/V matrices of shape (S, d) plus per-token segment ids."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    segment_ids: np.ndarray
    scale: float = field(init=False)  # 1 / sqrt(d), set by __post_init__
    causal: bool = True

    def __post_init__(self):
        self.q = np.ascontiguousarray(self.q, dtype=np.float64)
        self.k = np.ascontiguousarray(self.k, dtype=np.float64)
        self.v = np.ascontiguousarray(self.v, dtype=np.float64)
        ids = np.asarray(self.segment_ids)
        with np.errstate(invalid="ignore"):  # NaN, inf and out-of-range floats fail the check below
            self.segment_ids = ids.astype(np.int64)
        if ids.dtype.kind == "f" and not np.array_equal(self.segment_ids, ids):
            raise ValueError("segment_ids must be integers, got non-integral float values")
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
        memplan.ChunkPlan(self.device_count, seq_len, self.query_chunk, self.kv_chunk)  # the layout rule
        blocks = (seq_len // self.query_chunk) * (seq_len // self.kv_chunk)
        if blocks > MAX_CLASSIFIED_BLOCKS:
            raise ValueError(
                f"S={seq_len} with chunks {self.query_chunk}/{self.kv_chunk} makes {blocks} blocks "
                f"to classify, more than {MAX_CLASSIFIED_BLOCKS}"
            )
        block_bytes = 16 * self.query_chunk * self.kv_chunk  # one block's scores and mask, the mask at 8 bytes
        if block_bytes > MAX_WORKING_SET_BYTES:
            raise ValueError(
                f"chunks {self.query_chunk}/{self.kv_chunk} need {block_bytes} bytes for one block's "
                f"scores and mask, more than {MAX_WORKING_SET_BYTES}"
            )


@dataclass(frozen=True)
class RingTrace:
    """The ring's rotation schedule and peer-to-peer transfers, both closed forms of its device count P."""

    device_count: int

    @property
    def transfers(self) -> int:
        return self.device_count * (self.device_count - 1)

    @property
    def steps(self) -> list[dict]:
        """The schedule as ringsim prints it: device d holds partition (d - s) mod P at step s."""
        P = self.device_count  # built when read
        return [{"step": s, "device": d, "kv_origin": (d - s) % P} for s in range(P) for d in range(P)]


def _legal_keys(segment_ids: np.ndarray, causal: bool) -> tuple[np.ndarray, np.ndarray]:
    """Row i's legal keys [lo[i], hi[i]]: its segment's start to i (causal) or to the segment's end."""
    lo = np.searchsorted(segment_ids, segment_ids, side="left")
    hi = np.arange(segment_ids.size) if causal else np.searchsorted(segment_ids, segment_ids, side="right") - 1
    return lo.astype(np.int32), hi.astype(np.int32)


def _oracle_rows(seq_len: int) -> int:
    """Query rows per oracle strip: as many as _SLAB_BYTES hold at width S, within [64, 256], and at most S."""
    return min(_ORACLE_ROWS, max(_ORACLE_MIN_ROWS, _SLAB_BYTES // (8 * seq_len)), seq_len)


def _oracle_blocks(p: AttentionProblem, lo: np.ndarray, hi: np.ndarray, strips: slice = slice(None)):
    """Softmax weights of each _oracle_rows(S)-row query block over its legal key span.

    lo and hi are p's legal-key bounds (_legal_keys). Yields (rows, cols,
    weights), weights of shape (len(rows), len(cols)), for the row blocks
    strips selects, in order. See the module docstring for the span. Each
    row is a full softmax over its span, masked-out pairs exactly 0.0,
    computed in place in one scratch buffer allocated per call, as wide as
    the widest span it walks: weights is a contiguous view of its head,
    overwritten by the next block, so copy it to keep it.
    """
    rows, S = _oracle_rows(p.seq_len), p.seq_len
    starts = range(0, S, rows)[strips]
    scratch = np.empty(rows * int(max(hi[min(start + rows, S) - 1] + 1 - lo[start] for start in starts)))
    for start in starts:
        stop = min(start + rows, S)
        first, end = int(lo[start]), int(hi[stop - 1]) + 1
        w = scratch[: (stop - start) * (end - first)].reshape(stop - start, end - first)
        np.matmul(p.q[start:stop], p.k[first:end].T, out=w)
        w *= p.scale
        # Keys in the core, lo[stop - 1] to hi[start], are legal for every row.
        below = np.arange(first, lo[stop - 1], dtype=np.int32)
        above = np.arange(hi[start] + 1, end, dtype=np.int32)
        edges = [(w[:, : below.size], below < lo[start:stop, None])]
        edges.append((w[:, w.shape[1] - above.size :], above > hi[start:stop, None]))
        for x, illegal in edges:
            np.copyto(x, -np.inf, where=illegal)
        w -= w.max(axis=1, keepdims=True)
        for x, illegal in edges:  # exp is slow at -inf: masked scores take exp(0), zeroed after
            np.copyto(x, 0.0, where=illegal)
        np.exp(w, out=w)
        for x, illegal in edges:
            np.copyto(x, 0.0, where=illegal)
        w /= w.sum(axis=1, keepdims=True)
        yield slice(start, stop), slice(first, end), w


def attention_weights(p: AttentionProblem) -> np.ndarray:
    """Full (S, S) softmax weight matrix; masked-out pairs are exactly 0.0.

    Every diagonal entry is legal (j = i passes both the causal and the
    segment test), so no row is ever empty.
    """
    weights = np.zeros((p.seq_len, p.seq_len))
    for rows, cols, w in _oracle_blocks(p, *_legal_keys(p.segment_ids, p.causal)):
        weights[rows, cols] = w
    return weights


def exact_attention(p: AttentionProblem) -> np.ndarray:
    """Reference full-precision attention output, (S, d).

    Row blocks are independent, so up to one group per usable CPU walks
    every groups-th block, each with its own scratch strip, while those
    strips fit the _ORACLE_ROWS x S that random_problem admits. The
    groups share one copy of the legal-key bounds.
    """
    lo, hi = _legal_keys(p.segment_ids, p.causal)
    out = np.empty_like(p.v)
    height = _oracle_rows(p.seq_len)
    groups = _groups(-(-p.seq_len // height), height, _ORACLE_ROWS)

    def walk(group: int) -> None:
        for rows, cols, w in _oracle_blocks(p, lo, hi, slice(group, None, groups)):
            np.matmul(w, p.v[cols], out=out[rows])

    _run_groups(walk, groups)
    return out


def _live_ranges(lo: np.ndarray, hi: np.ndarray, query_chunk: int, kv_chunk: int) -> tuple[np.ndarray, ...]:
    """KV chunk runs [lo, hi) of live blocks and [flo, fhi) of full blocks, per query chunk.

    A block is live when it holds at least one legal pair, so when its KV
    chunk meets the query chunk's span, and full when every pair in it is
    legal, so when its KV chunk lies in the core (see the module docstring).
    An empty full run is clamped to start where it ends. Every query chunk
    holds its own diagonal, so lo < hi.
    """
    qc, kc = query_chunk, kv_chunk
    flo = -(-lo[qc - 1 :: qc] // kc)
    return lo[::qc] // kc, hi[qc - 1 :: qc] // kc + 1, flo, np.maximum((hi[::qc] + 1) // kc, flo)


def _fold_schedule(lo: np.ndarray, hi: np.ndarray, mesh: RingMesh) -> tuple[np.ndarray, ...]:
    """Every live block in fold-step order, from the legal-key intervals and the mesh alone (no Q/K/V).

    Returns (row, widths, qi, ki, full). Query chunk c folds into state row
    row[c]; rows go by descending live-block count, so the rows that fold
    at step t are the first widths[t]. qi, ki and full give the query chunk,
    KV chunk and full flag of every live block, by (t, state row).

    A block's step t is its rank in its query chunk's fold order (see the
    module docstring): listed by query chunk and KV chunk, the live blocks
    take one stable sort on the key query chunk * P + ring step.
    """
    P = mesh.device_count
    nq, nkv = (lo.size // c // P for c in (mesh.query_chunk, mesh.kv_chunk))
    lo, hi, flo, fhi = _live_ranges(lo, hi, mesh.query_chunk, mesh.kv_chunk)
    counts, chunks = hi - lo, np.arange(lo.size, dtype=np.int32)  # int32: every index and key is below 2**22
    start = np.cumsum(counts, dtype=np.int32) - counts  # each query chunk's first block
    i = np.repeat(chunks, counts)
    k = np.repeat(lo - start, counts)
    k += np.arange(k.size, dtype=np.int32)
    # i, k, key, t and at hold one entry per live block, so they are updated
    # in place and freed as soon as they are used.
    key = i // nq - k // nkv
    key %= P  # the ring step, (dq - dk) mod P
    key += i * P
    by_step = np.argsort(key, kind="stable")
    del key
    k = k.take(by_step)
    del by_step
    t = np.arange(k.size, dtype=np.int32)
    t -= np.repeat(start, counts)

    order = np.argsort(-counts, kind="stable")
    row = np.empty_like(chunks)
    row[order] = chunks
    widths = lo.size - np.cumsum(np.bincount(counts))[:-1]
    at = (np.cumsum(widths) - widths).astype(np.int32)[t]  # first block of step t, by (t, state row)
    del t
    at += row[i]
    qi, ki = np.empty_like(i), np.empty_like(k)
    qi[at], ki[at] = i, k
    del i, k, at
    return row, widths, qi, ki, (flo[qi] <= ki) & (ki < fhi[qi])


def _slabs(widths: list[int], cap: int, group: int, groups: int):
    """(b0, c0, ns) of each of group's slabs, in fold order: its first block, first state row and steps' widths.

    widths[t] is how many state rows fold at step t; it never grows with t.
    A slab takes consecutive steps, each from state row c0 on, and ns[r]
    rows at its r-th step; its blocks are b0 on in (step, state row) order.
    Its (step x state row) grid, len(ns) x ns[0], holds at most cap cells,
    so at most cap blocks; a step wider than cap is cut into slabs of one
    step each. So every slab's rows lie in one row block, rows
    [k * cap, (k + 1) * cap) with k = c0 // cap; only row blocks group,
    group + groups, ... are yielded, and a run of narrow steps is block 0.
    """
    t = b0 = 0
    while t < len(widths):
        w = widths[t]
        if w > cap:
            yield from ((b0 + c0, c0, [min(cap, w - c0)]) for c0 in range(group * cap, w, groups * cap))
            t, b0 = t + 1, b0 + w
        else:
            ns = widths[t : t + cap // w]
            if group == 0:
                yield b0, 0, ns
            t, b0 = t + len(ns), b0 + sum(ns)


def _block_bytes(qc: int, kc: int, d: int) -> int:
    """Bytes of one block's share of a ring slab's temporaries."""
    # In float64s: scores and mask (a bool, counted at 8); Q, K and V; P.V and P.V | rowsum; row max, shift, alpha.
    return 8 * (2 * qc * kc + 3 * qc * d + 2 * kc * d + 3 * qc)


def _slab_cap(qc: int, kc: int, d: int) -> int:
    """Blocks per ring slab: as many as _SLAB_BYTES hold, and at least one."""
    return max(1, _SLAB_BYTES // _block_bytes(qc, kc, d))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this OS
        return os.cpu_count() or 1


def _groups(units: int, scratch: int, budget: int) -> int:
    """Worker groups for units independent pieces of work, each group holding one scratch buffer at a time.

    One group per usable CPU, at most one per unit, and no more buffers than budget holds.
    """
    return max(1, min(units, _usable_cpus(), budget // scratch))


def _ring_groups(n_q: int, qc: int, kc: int, d: int) -> int:
    """Worker groups for the ring's row blocks, one query chunk each: two or more row blocks per group.

    Only blocks of at least _THREADED_BLOCK_MACS multiply-adds are worth a thread. Such a block takes
    at least 567,096 bytes by _block_bytes (AM-GM on 2qk + 3qd + 2kd), over half of _SLAB_BYTES, so it
    is a slab and its query chunk a row block. Each group holds one slab at a time, so the groups'
    slabs together stay within MAX_WORKING_SET_BYTES, one slab's admitted bound.
    """
    if qc * kc * d < _THREADED_BLOCK_MACS:
        return 1
    return _groups(n_q // 2, max(_SLAB_BYTES, _block_bytes(qc, kc, d)), MAX_WORKING_SET_BYTES)


def _run_groups(task, groups: int) -> None:
    """task(g) for g in range(groups): group 0 on the calling thread, the rest on a per-call pool."""
    if groups == 1:
        task(0)
        return
    with ThreadPoolExecutor(groups - 1) as pool:
        futures = [pool.submit(task, g) for g in range(1, groups)]
        task(0)
        for future in futures:
            future.result()


def _rows(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """a[index] along axis 0: a view for one index, else a copy (take beats a[index] on int32)."""
    return a[index[0] : index[0] + 1] if index.size == 1 else a.take(index, axis=0)


def ring_attention(p: AttentionProblem, mesh: RingMesh) -> tuple[np.ndarray, RingTrace]:
    """Sequence-parallel attention on a simulated device ring.

    The sequence is split into P contiguous partitions. Query partitions
    never move; at ring step s device dev holds the KV partition that
    originated on device (dev - s) mod P, folds its live blocks into the
    running online-softmax state of its query rows, then passes it along.
    After P steps every device has seen every KV partition exactly once and
    its rows are finalized. Each of the P-1 rotations moves P KV blocks, so
    the trace gives P * (P - 1) peer-to-peer transfers.

    Only live blocks are folded, by fold step and in slabs (see the module
    docstring for the order and bit-identity).
    """
    mesh.validate_for(p.seq_len)
    P, qc, kc, d = mesh.device_count, mesh.query_chunk, mesh.kv_chunk, p.head_dim
    n_q, n_kv = p.seq_len // qc, p.seq_len // kc
    # The schedule comes from the segment ids and the mesh alone. Slabs are streamed, not listed:
    # one causal document at S = 524,288 and 256/256 chunks makes 2.1M (385 MiB as tuples).
    lo, hi = _legal_keys(p.segment_ids, p.causal)
    row, widths, qi_all, ki_all, full = _fold_schedule(lo, hi, mesh)
    cap, steps = _slab_cap(qc, kc, d), widths.tolist()
    lo, hi = lo.reshape(n_q, qc, 1), hi.reshape(n_q, qc, 1)  # by query chunk, for the mask

    q, key, v = p.q.reshape(n_q, qc, d), p.k.reshape(n_kv, kc, d), p.v.reshape(n_kv, kc, d)
    m, state = np.full((n_q, qc), -np.inf), np.zeros((n_q, qc, d + 1))  # state: acc | l
    groups = _ring_groups(n_q, qc, kc, d)  # group g folds row blocks g, g + groups, ...

    def fold(group: int) -> None:
        for b0, c0, ns in _slabs(steps, cap, group, groups):
            # Batched: scores, mask, running max, shift, alpha, exp, row sums and P.V of every block.
            w, blocks = ns[0], slice(b0, b0 + sum(ns))
            qi, ki = qi_all[blocks], ki_all[blocks]
            scores = _rows(q, qi) @ _rows(key, ki).transpose(0, 2, 1)
            scores *= p.scale
            if not full[blocks].all():  # a full block's mask would keep every score
                keys = (ki * kc)[:, None, None] + np.arange(kc, dtype=np.int32)
                np.copyto(scores, -np.inf, where=keys < lo.take(qi, axis=0))
                np.copyto(scores, -np.inf, where=keys > hi.take(qi, axis=0))
            # Running max of each state row over its steps, seeded with its carried max:
            # a (step x state row) grid, -inf where a row has stopped folding.
            grid = np.full((len(ns) + 1, w, qc), -np.inf)
            grid[0] = m[c0 : c0 + w]
            before, after = grid[:-1].reshape(-1, qc), grid[1:].reshape(-1, qc)
            cells = slice(None)  # the grid's cells that hold a block, in block order
            if ns[-1] < w:
                cells = np.flatnonzero(np.arange(w) < np.array(ns)[:, None])
            # Row max: reduceat's per-row loop costs less than max(axis=2)'s, and a max is exact in any order.
            after[cells] = np.maximum.reduceat(scores.reshape(-1), np.arange(0, scores.size, kc)).reshape(-1, qc)
            np.maximum.accumulate(grid, axis=0, out=grid)
            m[c0 : c0 + w] = grid[-1]
            new_m = after[cells]
            # Rows that have seen nothing legal yet keep new_m == -inf; shift those
            # by 0 so exp(-inf) cleanly produces all-zero contributions.
            shift = np.where(new_m == -np.inf, 0.0, new_m)
            # exp(-inf - shift) is 0, so rows with no state yet start from zero.
            alpha = np.exp(before[cells] - shift)[..., None]
            e = scores
            e -= shift[..., None]
            np.exp(e, out=e)  # a masked score takes exp(-inf - shift), exactly 0.0
            terms = np.empty((qi.size, qc, d + 1))
            np.matmul(e, _rows(v, ki), out=terms[..., :d])
            terms[..., d] = e.sum(axis=2)
            # Sequential: per fold step, acc = alpha * acc + P.V and l = alpha * l + rowsum.
            b = 0
            for n in ns:
                rec = state[c0 : c0 + n]
                rec *= alpha[b : b + n]
                rec += terms[b : b + n]
                b += n

    _run_groups(fold, groups)
    np.divide(state[..., :d], state[..., d:], out=state[..., :d])
    return state[row, :, :d].reshape(p.seq_len, d), RingTrace(P)


def random_problem(
    seq_len: int,
    head_dim: int,
    rng: np.random.Generator,
    num_segments: int | None = None,
    causal: bool = True,
) -> AttentionProblem:
    """Random packed-sequence problem with contiguous random-length segments.

    Raises ValueError before allocating when Q/K/V plus the widest oracle
    strip, _ORACLE_ROWS x S, would take more than MAX_WORKING_SET_BYTES.
    """
    for name, n in (("seq_len", seq_len), ("head_dim", head_dim), ("num_segments", num_segments)):
        if n is not None and n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
    working_set = 8 * seq_len * (3 * head_dim + _ORACLE_ROWS)
    if working_set > MAX_WORKING_SET_BYTES:
        raise ValueError(
            f"S={seq_len}, d={head_dim} needs {working_set} bytes for Q/K/V and one oracle strip, "
            f"more than {MAX_WORKING_SET_BYTES}"
        )
    if num_segments is None:
        num_segments = int(rng.integers(1, max(2, seq_len // 4) + 1))
    num_segments = min(num_segments, seq_len)
    cuts = np.empty(0, dtype=np.int64)
    if num_segments > 1:
        # Same draw and stream as choosing from np.arange(1, seq_len), without building it.
        cuts = np.sort(rng.choice(seq_len - 1, size=num_segments - 1, replace=False) + 1)
    lengths = np.diff(np.concatenate([[0], cuts, [seq_len]]))
    segment_ids = np.repeat(np.arange(num_segments), lengths)
    return AttentionProblem(
        q=rng.standard_normal((seq_len, head_dim)),
        k=rng.standard_normal((seq_len, head_dim)),
        v=rng.standard_normal((seq_len, head_dim)),
        segment_ids=segment_ids,
        causal=causal,
    )
