"""Exact work and traffic counts of one ring-attention problem.

Everything here is computed from the problem's segment ids and mesh alone,
never from what the simulator did, so the counts describe the simulated
cluster's cost and repeat exactly for a given input. Attention is causal
and stays inside a segment, so key j is legal for query i exactly when
segstart(i) <= j <= i.
"""

from __future__ import annotations

import numpy as np

FLOAT_BYTES = 8  # the simulator keeps K and V in float64


def _segment_bounds(segment_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each row's segment and one past its last index."""
    seg = np.asarray(segment_ids)
    S = seg.size
    boundary = np.flatnonzero(np.diff(seg)) + 1
    seg_start = np.concatenate([[0], boundary])
    seg_end = np.concatenate([boundary, [S]])
    which = np.concatenate([[0], np.cumsum(np.diff(seg) != 0)])
    return seg_start[which], seg_end[which]


def problem_counts(segment_ids, devices: int, q_chunk: int, kv_chunk: int, head_dim: int) -> dict:
    """Block, pair and transfer counts of one problem on a contiguous ring.

    The ring visits every (query chunk x KV chunk) block of the whole
    sequence once: S/q_chunk * S/kv_chunk blocks. A block is live when it
    holds at least one legal pair and full when every pair in it is legal.
    Each device receives P-1 KV partitions of S/P rows, K and V each.
    """
    seg = np.asarray(segment_ids)
    S = seg.size
    starts, ends = _segment_bounds(seg)
    rows = np.arange(S)
    kv_lo = np.arange(0, S, kv_chunk)
    kv_hi = kv_lo + kv_chunk - 1
    lo = np.maximum(kv_lo[None, :], starts[:, None])
    hi = np.minimum(kv_hi[None, :], np.minimum(rows, ends - 1)[:, None])
    per_row = np.clip(hi - lo + 1, 0, None)  # (S, S/kv_chunk) legal keys per row and KV chunk
    blocks = per_row.reshape(S // q_chunk, q_chunk, -1).sum(axis=1)
    per_device = per_row.sum(axis=1).reshape(devices, -1).sum(axis=1)
    per_device_rows = S // devices
    return {
        "blocks_visited": int(blocks.size),
        "blocks_live": int(np.count_nonzero(blocks)),
        "blocks_full": int(np.count_nonzero(blocks == q_chunk * kv_chunk)),
        "legal_pairs": int(blocks.sum()),
        "device_pairs_max_over_mean": float(per_device.max() / per_device.mean()),
        "transfer_bytes": devices * (devices - 1) * 2 * per_device_rows * head_dim * FLOAT_BYTES,
    }


def summarize(per_problem: list[dict]) -> dict:
    """Sum the counts over problems.

    live_block_ratio is taken over the sums; device_pairs_max_over_mean is
    the mean of the per-problem ratios, so every problem weighs the same.
    """
    total = {
        key: sum(c[key] for c in per_problem)
        for key in ("blocks_visited", "blocks_live", "blocks_full", "legal_pairs", "transfer_bytes")
    }
    total["live_block_ratio"] = total["blocks_live"] / total["blocks_visited"] if per_problem else 0.0
    total["device_pairs_max_over_mean"] = (
        sum(c["device_pairs_max_over_mean"] for c in per_problem) / len(per_problem)
        if per_problem
        else 0.0
    )
    return total
