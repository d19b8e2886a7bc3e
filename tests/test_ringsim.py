"""Attention equivalence against a brute-force oracle, plus ring mechanics.

brute_force_attention below is the independent reference: per-row Python
loops over every key, softmax computed with math.exp, no shared code with
the vectorized implementations it checks.
"""

import contextlib
import dataclasses
import importlib.util
import itertools
import math
import os
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from longctx import ringsim
from longctx.memplan import ChunkPlan
from longctx.ringsim import (
    MAX_CLASSIFIED_BLOCKS,
    MAX_WORKING_SET_BYTES,
    AttentionProblem,
    RingMesh,
    RingTrace,
    _fold_schedule,
    _legal_keys,
    _live_ranges,
    _slab_cap,
    _slabs,
    attention_weights,
    exact_attention,
    random_problem,
    ring_attention,
)


def brute_force_attention(p: AttentionProblem) -> np.ndarray:
    S, d = p.seq_len, p.head_dim
    out = np.zeros((S, d))
    for i in range(S):
        legal = []
        for j in range(S):
            if p.segment_ids[i] != p.segment_ids[j]:
                continue
            if p.causal and j > i:
                continue
            legal.append(j)
        scores = [p.scale * sum(p.q[i, t] * p.k[j, t] for t in range(d)) for j in legal]
        top = max(scores)
        weights = [math.exp(s - top) for s in scores]
        denom = sum(weights)
        for j, w in zip(legal, weights):
            for t in range(d):
                out[i, t] += (w / denom) * p.v[j, t]
    return out


def allowed_mask(p: AttentionProblem, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pairwise legality: positions (..., R) and (..., C) give (..., R, C)."""
    allowed = p.segment_ids[rows][..., :, None] == p.segment_ids[cols][..., None, :]
    if p.causal:
        allowed &= cols[..., None, :] <= rows[..., :, None]
    return allowed


def classify_blocks(p: AttentionProblem, query_chunk: int, kv_chunk: int):
    """Live and full flags of every (query chunk x KV chunk) block, expanded from _live_ranges."""
    lo, hi, flo, fhi = (a[:, None] for a in _live_ranges(*_legal_keys(p.segment_ids, p.causal), query_chunk, kv_chunk))
    k = np.arange(p.seq_len // kv_chunk)
    return (lo <= k) & (k < hi), (flo <= k) & (k < fhi)


def fold_schedule(p: AttentionProblem, mesh: RingMesh) -> tuple[np.ndarray, ...]:
    """(row, widths, qi, ki, full): p's live blocks in fold-step order, as ring_attention folds them."""
    return _fold_schedule(*_legal_keys(p.segment_ids, p.causal), mesh)


def slab_count(p: AttentionProblem, mesh: RingMesh) -> int:
    """Slabs in p's one-group slab stream on mesh, at the _SLAB_BYTES in force."""
    cap = _slab_cap(mesh.query_chunk, mesh.kv_chunk, p.head_dim)
    return sum(1 for _ in _slabs(fold_schedule(p, mesh)[1].tolist(), cap, 0, 1))


def blockwise_attention(p: AttentionProblem, query_chunk: int, kv_chunk: int) -> np.ndarray:
    """Streaming attention over query/KV chunks on one device: the one-device ring."""
    return ring_attention(p, RingMesh(1, query_chunk, kv_chunk))[0]


def oracle_rows(seq_len: int) -> int:
    """Rows per oracle strip: ringsim._SLAB_BYTES of float64s at width S, clamped to [64, 256] and to S."""
    return min(256, max(64, ringsim._SLAB_BYTES // (8 * seq_len)), seq_len)


def per_pass_oracle_blocks(p: AttentionProblem, block_rows: int | None = None):
    """The row-blocked oracle with a fresh strip per pass and the pairwise mask: (rows, cols, weights).

    Row blocks have block_rows rows, oracle_rows(S) by default.
    """
    seg = p.segment_ids
    block_rows = oracle_rows(p.seq_len) if block_rows is None else block_rows
    for start in range(0, p.seq_len, block_rows):
        rows = slice(start, min(start + block_rows, p.seq_len))
        first = int(np.searchsorted(seg, seg[start], side="left"))
        stop = rows.stop if p.causal else int(np.searchsorted(seg, seg[rows.stop - 1], side="right"))
        cols = slice(first, stop)
        scores = (p.q[rows] @ p.k[cols].T) * p.scale
        legal = allowed_mask(p, np.arange(start, rows.stop), np.arange(first, stop))
        scores = np.where(legal, scores, -np.inf)
        scores -= scores.max(axis=1, keepdims=True)
        w = np.exp(scores)
        yield rows, cols, w / w.sum(axis=1, keepdims=True)


def max_rel_error(actual: np.ndarray, reference: np.ndarray) -> float:
    scale = np.max(np.abs(reference))
    return float(np.max(np.abs(actual - reference)) / scale)


def two_segment_problem(seq_len, head_dim, seed=0, split=None):
    rng = np.random.default_rng(seed)
    split = seq_len // 2 if split is None else split
    segment_ids = np.array([0] * split + [1] * (seq_len - split))
    return AttentionProblem(
        q=rng.standard_normal((seq_len, head_dim)),
        k=rng.standard_normal((seq_len, head_dim)),
        v=rng.standard_normal((seq_len, head_dim)),
        segment_ids=segment_ids,
    )


class TestProblemValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AttentionProblem(
                q=np.zeros((4, 2)), k=np.zeros((4, 2)), v=np.zeros((3, 2)),
                segment_ids=np.zeros(4, dtype=int),
            )

    def test_decreasing_segments_rejected(self):
        with pytest.raises(ValueError):
            AttentionProblem(
                q=np.zeros((4, 2)), k=np.zeros((4, 2)), v=np.zeros((4, 2)),
                segment_ids=np.array([0, 1, 0, 1]),
            )

    def test_segment_ids_of_another_length_rejected(self):
        with pytest.raises(ValueError, match=r"segment_ids has shape \(3,\), expected \(4,\)"):
            AttentionProblem(
                q=np.zeros((4, 2)), k=np.zeros((4, 2)), v=np.zeros((4, 2)),
                segment_ids=np.zeros(3, dtype=int),
            )

    def test_negative_segments_rejected(self):
        with pytest.raises(ValueError):
            AttentionProblem(
                q=np.zeros((2, 2)), k=np.zeros((2, 2)), v=np.zeros((2, 2)),
                segment_ids=np.array([-1, 0]),
            )

    @pytest.mark.parametrize("shape", [(0, 2), (4, 0)])
    def test_empty_dimension_rejected(self, shape):
        with pytest.raises(ValueError, match="S >= 1 rows and d >= 1 columns"):
            AttentionProblem(
                q=np.zeros(shape), k=np.zeros(shape), v=np.zeros(shape),
                segment_ids=np.zeros(shape[0], dtype=int),
            )

    def test_non_integral_segments_rejected(self):
        with pytest.raises(ValueError, match="segment_ids must be integers"):
            AttentionProblem(
                q=np.zeros((4, 2)), k=np.zeros((4, 2)), v=np.zeros((4, 2)),
                segment_ids=np.array([0, 0.5, 1.7, 1.9]),
            )

    def test_integral_float_segments_accepted(self):
        p = AttentionProblem(
            q=np.zeros((4, 2)), k=np.zeros((4, 2)), v=np.zeros((4, 2)),
            segment_ids=np.array([0.0, 0.0, 1.0, 1.0]),
        )
        assert p.segment_ids.dtype == np.int64 and p.segment_ids.tolist() == [0, 0, 1, 1]

    def test_one_dimensional_q_rejected(self):
        with pytest.raises(ValueError, match="q must be 2-D"):
            AttentionProblem(q=np.zeros(4), k=np.zeros(4), v=np.zeros(4), segment_ids=np.zeros(4, dtype=int))

    def test_default_scale(self):
        p = two_segment_problem(4, 16)
        assert p.scale == pytest.approx(0.25)


class TestExactAttention:
    def test_single_token_returns_value_row(self):
        rng = np.random.default_rng(1)
        p = AttentionProblem(
            q=rng.standard_normal((1, 4)), k=rng.standard_normal((1, 4)),
            v=rng.standard_normal((1, 4)), segment_ids=np.array([0]),
        )
        assert np.allclose(exact_attention(p), p.v, rtol=0, atol=1e-15)

    def test_uniform_scores_average_values(self):
        # Identical keys make both scores equal, so row 1 is the mean of V.
        rng = np.random.default_rng(2)
        k_row = rng.standard_normal(4)
        p = AttentionProblem(
            q=rng.standard_normal((2, 4)), k=np.stack([k_row, k_row]),
            v=rng.standard_normal((2, 4)), segment_ids=np.array([0, 0]),
        )
        out = exact_attention(p)
        assert np.allclose(out[1], p.v.mean(axis=0), rtol=1e-12)

    def test_matches_brute_force_two_segments(self):
        p = two_segment_problem(8, 4, seed=3)
        assert np.max(np.abs(exact_attention(p) - brute_force_attention(p))) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_random_layouts(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(12, 5, rng)
        assert np.max(np.abs(exact_attention(p) - brute_force_attention(p))) < 1e-10

    def test_non_causal_matches_brute_force(self):
        rng = np.random.default_rng(11)
        p = random_problem(10, 4, rng, causal=False)
        assert np.max(np.abs(exact_attention(p) - brute_force_attention(p))) < 1e-10


def dense_reference(p: AttentionProblem):
    """One-shot (S, S) softmax weights and output, with no row blocking."""
    i = np.arange(p.seq_len)
    legal = p.segment_ids[:, None] == p.segment_ids[None, :]
    if p.causal:
        legal &= i[None, :] <= i[:, None]
    scores = np.where(legal, (p.q @ p.k.T) * p.scale, -np.inf)
    w = np.exp(scores - scores.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    return legal, w, w @ p.v


@st.composite
def multi_block_problems(draw, min_len=257, max_len=700):
    """S in [min_len, max_len] (by default past one 256-row oracle block), documents cut anywhere, either causal."""
    S = draw(st.integers(min_len, max_len))
    cuts = sorted(draw(st.sets(st.integers(1, S - 1), max_size=5))) if S > 1 else []
    lengths = np.diff([0, *cuts, S])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 8))
    return AttentionProblem(
        q=rng.standard_normal((S, d)), k=rng.standard_normal((S, d)), v=rng.standard_normal((S, d)),
        segment_ids=np.repeat(np.arange(lengths.size), lengths), causal=draw(st.booleans()),
    )


class TestRowBlockedOracle:
    @settings(max_examples=40, deadline=None)
    @given(multi_block_problems())
    def test_matches_dense_reference(self, p):
        legal, w_ref, out_ref = dense_reference(p)
        w = attention_weights(p)
        assert np.all(w[~legal] == 0.0)  # cross-document and future pairs
        assert np.max(np.abs(w - w_ref)) < 1e-12
        assert np.max(np.abs(exact_attention(p) - out_ref)) < 1e-12

    def test_peak_memory_stays_below_s_squared(self):
        # One 4096-token document; a dense (S, S) float64 array alone is 128 MiB.
        rng = np.random.default_rng(0)
        S, d = 4096, 128
        p = AttentionProblem(
            q=rng.standard_normal((S, d)), k=rng.standard_normal((S, d)),
            v=rng.standard_normal((S, d)), segment_ids=np.zeros(S, dtype=np.int64),
        )
        tracemalloc.start()
        try:
            exact_attention(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20  # 6.1 MiB measured

    def test_scratch_fits_the_slab_budget(self):
        # One 4096-token document, walked in order on one CPU: a 64-row strip (2 MiB)
        # reused per row block, beside the 4 MiB output, not two fresh 256-row strips
        # (8 MiB each). TestWorkerGroups bounds the strips of a split walk.
        rng = np.random.default_rng(0)
        S, d = 4096, 128
        p = AttentionProblem(
            q=rng.standard_normal((S, d)), k=rng.standard_normal((S, d)),
            v=rng.standard_normal((S, d)), segment_ids=np.zeros(S, dtype=np.int64),
        )
        tracemalloc.start()
        try:
            with mock.patch.object(ringsim, "_usable_cpus", lambda: 1):
                exact_attention(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20  # 6.1 MiB measured

    @pytest.mark.parametrize(
        "seq_len, rows", [(1, 1), (200, 200), (512, 256), (520, 252), (1024, 128), (2048, 64), (2**17, 64)]
    )
    def test_strip_rows_follow_the_slab_budget(self, seq_len, rows):
        assert ringsim._oracle_rows(seq_len) == oracle_rows(seq_len) == rows


class TestMaskSoundness:
    def test_cross_segment_weights_are_exactly_zero(self):
        p = two_segment_problem(16, 4, seed=4)
        w = attention_weights(p)
        seg = p.segment_ids
        cross = seg[:, None] != seg[None, :]
        assert np.all(w[cross] == 0.0)

    def test_future_weights_are_exactly_zero(self):
        p = two_segment_problem(16, 4, seed=5)
        w = attention_weights(p)
        assert np.all(np.triu(w, k=1)[: 8, : 8] == 0.0)

    def test_rows_are_convex_combinations(self):
        p = two_segment_problem(16, 4, seed=6)
        w = attention_weights(p)
        assert np.all(w >= 0.0)
        assert np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        out = exact_attention(p)
        for i in range(p.seq_len):
            legal = np.flatnonzero(w[i] > 0)
            lo = p.v[legal].min(axis=0) - 1e-12
            hi = p.v[legal].max(axis=0) + 1e-12
            assert np.all(out[i] >= lo) and np.all(out[i] <= hi)


class TestBlockwise:
    def test_single_chunk_degenerates_to_exact(self):
        p = two_segment_problem(16, 4, seed=7)
        out = blockwise_attention(p, 16, 16)
        assert np.max(np.abs(out - exact_attention(p))) < 1e-12

    def test_matches_oracle_at_64_tokens(self):
        rng = np.random.default_rng(8)
        p = random_problem(64, 8, rng)
        assert max_rel_error(blockwise_attention(p, 8, 16), exact_attention(p)) < 1e-6

    def test_chunk_size_independence(self):
        rng = np.random.default_rng(9)
        p = random_problem(64, 8, rng)
        a = blockwise_attention(p, 8, 16)
        b = blockwise_attention(p, 16, 8)
        assert max_rel_error(a, b) < 1e-6

    def test_rejects_non_dividing_chunks(self):
        p = two_segment_problem(16, 4)
        with pytest.raises(ValueError):
            blockwise_attention(p, 5, 4)
        with pytest.raises(ValueError):
            blockwise_attention(p, 4, 7)


class TestRing:
    def test_single_device_equals_blockwise_with_zero_transfers(self):
        p = two_segment_problem(32, 4, seed=10)
        mesh = RingMesh(device_count=1, query_chunk=8, kv_chunk=16)
        out, trace = ring_attention(p, mesh)
        assert np.array_equal(out, per_block_ring(p, mesh))
        assert trace.transfers == 0

    def test_four_devices_match_oracle(self):
        rng = np.random.default_rng(12)
        p = random_problem(64, 8, rng)
        out, trace = ring_attention(p, RingMesh(4, 8, 16))
        assert max_rel_error(out, exact_attention(p)) < 1e-6
        assert trace.transfers == 12

    def test_two_documents_eight_devices(self):
        p = two_segment_problem(128, 8, seed=13)
        out, _ = ring_attention(p, RingMesh(8, 8, 8))
        assert max_rel_error(out, exact_attention(p)) < 1e-6
        w = attention_weights(p)
        cross = p.segment_ids[:, None] != p.segment_ids[None, :]
        assert np.all(w[cross] == 0.0)

    def test_device_count_invariance(self):
        rng = np.random.default_rng(14)
        p = random_problem(64, 4, rng)
        outputs = [ring_attention(p, RingMesh(P, 4, 4))[0] for P in (1, 2, 4, 8)]
        for other in outputs[1:]:
            assert max_rel_error(other, outputs[0]) < 1e-9

    def test_bit_stable_across_runs(self):
        p = two_segment_problem(32, 4, seed=15)
        mesh = RingMesh(4, 4, 8)
        assert np.array_equal(ring_attention(p, mesh)[0], ring_attention(p, mesh)[0])

    def test_trace_schedule(self):
        p = two_segment_problem(32, 4, seed=16)
        P = 4
        _, trace = ring_attention(p, RingMesh(P, 8, 8))
        assert trace.transfers == P * (P - 1)
        seen = {(s["device"], s["kv_origin"]) for s in trace.steps}
        assert len(seen) == len(trace.steps) == P * P
        for s in trace.steps:
            assert s["kv_origin"] == (s["device"] - s["step"]) % P

    def test_trace_is_the_device_count(self):
        # The trace holds P alone; its transfers and its schedule are closed forms of P.
        assert [f.name for f in dataclasses.fields(RingTrace)] == ["device_count"]
        for P in (1, 2, 5):
            _, trace = ring_attention(two_segment_problem(20, 2, seed=P), RingMesh(P, 2, 2))
            assert trace == RingTrace(P) and trace.transfers == P * (P - 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.device_count = 4

    def test_invalid_mesh_rejected(self):
        # The messages are memplan.ChunkPlan's: the mesh's layout rule is written there only.
        p = two_segment_problem(32, 4)
        with pytest.raises(ValueError, match="devices 3 must divide seq_len 32"):
            ring_attention(p, RingMesh(3, 4, 4))
        with pytest.raises(ValueError, match="q_chunk 3 must divide per-device length 8"):
            ring_attention(p, RingMesh(4, 3, 4))
        with pytest.raises(ValueError, match="devices must be positive, got 0"):
            ring_attention(p, RingMesh(0, 1, 1))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2048), st.integers(-2, 64), st.integers(-2, 64), st.integers(-2, 64))
    def test_mesh_check_is_the_chunk_plan_check(self, S, P, qc, kc):
        # At S <= 2048 a mesh has at most 2**22 blocks, so only the layout rule can refuse it.
        def raises(check) -> bool:
            try:
                check()
            except ValueError:
                return True
            return False

        assert raises(lambda: RingMesh(P, qc, kc).validate_for(S)) == raises(lambda: ChunkPlan(P, S, qc, kc))

    def test_output_gather_peak(self):
        # One 4096-token document at d = 128 on one CPU: the state and one gathered
        # output, 4 MiB each. TestWorkerGroups bounds the slabs of a split fold.
        rng = np.random.default_rng(0)
        S, d = 4096, 128
        p = AttentionProblem(
            q=rng.standard_normal((S, d)), k=rng.standard_normal((S, d)),
            v=rng.standard_normal((S, d)), segment_ids=np.zeros(S, dtype=np.int64),
        )
        tracemalloc.start()
        try:
            with mock.patch.object(ringsim, "_usable_cpus", lambda: 1):
                ring_attention(p, RingMesh(8, 128, 512))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20  # 8.1 MiB measured


@st.composite
def ring_layouts(draw):
    """Segment ids (gaps allowed), a dividing mesh and the causal flag."""
    P = draw(st.integers(1, 4))
    per_device = draw(st.integers(1, 12))
    S = P * per_device
    divisors = [c for c in range(1, per_device + 1) if per_device % c == 0]
    mesh = RingMesh(P, draw(st.sampled_from(divisors)), draw(st.sampled_from(divisors)))
    steps = draw(st.lists(st.integers(0, 2), min_size=S - 1, max_size=S - 1))
    return np.concatenate([[0], np.cumsum(steps, dtype=np.int64)]), mesh, draw(st.booleans())


class TestBlockClassification:
    @given(ring_layouts())
    def test_kinds_match_pairwise_legality(self, layout):
        segment_ids, mesh, causal = layout
        S, qc, kc = segment_ids.size, mesh.query_chunk, mesh.kv_chunk
        rng = np.random.default_rng(S)
        p = AttentionProblem(
            q=rng.standard_normal((S, 3)), k=rng.standard_normal((S, 3)),
            v=rng.standard_normal((S, 3)), segment_ids=segment_ids, causal=causal,
        )
        legal = np.array([
            [segment_ids[i] == segment_ids[j] and (j <= i or not causal) for j in range(S)]
            for i in range(S)
        ])
        blocks = legal.reshape(S // qc, qc, S // kc, kc).transpose(0, 2, 1, 3)
        live, full = classify_blocks(p, qc, kc)
        assert np.array_equal(live, blocks.any(axis=(2, 3)))  # empty <=> no legal pair
        assert np.array_equal(full, blocks.all(axis=(2, 3)))  # full <=> every pair legal

        # The ring folds the schedule's blocks: every live block once, with its full flag.
        _, _, qi, ki, scheduled_full = fold_schedule(p, mesh)
        assert ki.size == np.count_nonzero(live)
        assert np.count_nonzero(scheduled_full) == np.count_nonzero(full)
        assert sorted(zip(qi.tolist(), ki.tolist())) == list(zip(*(a.tolist() for a in np.nonzero(live))))
        assert np.array_equal(scheduled_full, full[qi, ki])
        assert max_rel_error(ring_attention(p, mesh)[0], exact_attention(p)) < 1e-6

    def test_every_small_segmentation_and_chunking(self):
        # Exhaustive where hypothesis samples: every cut set of S = 1..8, every
        # dividing pair of chunk sizes and both causal flags, 5,954 cases in all,
        # so every floor and ceil edge of the run bounds is met.
        cases = 0
        for S in range(1, 9):
            divisors = [c for c in range(1, S + 1) if S % c == 0]
            for cuts, causal in itertools.product(itertools.product([0, 1], repeat=S - 1), [True, False]):
                segment_ids = np.concatenate([[0], np.cumsum(cuts, dtype=np.int64)])
                p = AttentionProblem(
                    q=np.zeros((S, 1)), k=np.zeros((S, 1)), v=np.zeros((S, 1)),
                    segment_ids=segment_ids, causal=causal,
                )
                legal = allowed_mask(p, np.arange(S), np.arange(S))
                for qc, kc in itertools.product(divisors, divisors):
                    blocks = legal.reshape(S // qc, qc, S // kc, kc)
                    live, full = classify_blocks(p, qc, kc)
                    assert np.array_equal(live, blocks.any(axis=(1, 3))), (segment_ids, causal, qc, kc)
                    assert np.array_equal(full, blocks.all(axis=(1, 3))), (segment_ids, causal, qc, kc)
                    # Run lengths are block counts: an empty full run has length 0, never less.
                    lo, hi, flo, fhi = _live_ranges(*_legal_keys(p.segment_ids, p.causal), qc, kc)
                    assert np.array_equal(hi - lo, live.sum(axis=1)) and np.array_equal(fhi - flo, full.sum(axis=1))
                    cases += 1
        assert cases == 5954

    def test_block_counts_match_the_benchmark_counter(self):
        # perfbench/ringcounts.py counts blocks from segment ids by its own
        # per-row arithmetic (causal problems only), sharing no code with ringsim.
        path = Path(__file__).parent.parent / "perfbench" / "ringcounts.py"
        spec = importlib.util.spec_from_file_location("ringcounts", path)
        ringcounts = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ringcounts)
        rng = np.random.default_rng(12)
        for _ in range(300):
            P = int(rng.integers(1, 5))
            per_device = int(rng.integers(1, 13))
            divisors = [c for c in range(1, per_device + 1) if per_device % c == 0]
            qc, kc = (int(c) for c in rng.choice(divisors, size=2))
            p = random_problem(P * per_device, 2, rng)
            _, _, _, ki, full = fold_schedule(p, RingMesh(P, qc, kc))
            counts = ringcounts.problem_counts(p.segment_ids, P, qc, kc, p.head_dim)
            assert ki.size == counts["blocks_live"]
            assert np.count_nonzero(full) == counts["blocks_full"]
            assert (p.seq_len // qc) * (p.seq_len // kc) == counts["blocks_visited"]  # live or skipped

    @given(ring_layouts())
    def test_interval_mask_matches_pairwise_reference(self, layout):
        # Zero scores give every legal key a positive weight, and V = I reads each
        # weight off the output, so the oracle's strips and the ring's partial blocks
        # must mask exactly the pairs the pairwise reference rejects.
        segment_ids, mesh, causal = layout
        S = segment_ids.size
        p = AttentionProblem(
            q=np.zeros((S, S)), k=np.zeros((S, S)), v=np.eye(S), segment_ids=segment_ids, causal=causal,
        )
        legal = allowed_mask(p, np.arange(S), np.arange(S))
        lo, hi = _legal_keys(p.segment_ids, p.causal)
        assert np.array_equal((lo[:, None] <= np.arange(S)) & (np.arange(S) <= hi[:, None]), legal)
        assert np.array_equal(attention_weights(p) > 0, legal)
        assert np.array_equal(exact_attention(p) > 0, legal)
        assert np.array_equal(ring_attention(p, mesh)[0] > 0, legal)

    def test_packed_causal_ring_counts(self):
        # Two 8-token documents in 2-token chunks: each document's 4 x 4
        # chunk grid has 10 live blocks on and below the diagonal, of which
        # the 6 strictly below need no mask; the other 44 blocks are empty.
        p, mesh = two_segment_problem(16, 4, seed=17), RingMesh(4, 2, 2)
        _, _, _, ki, full = fold_schedule(p, mesh)
        assert (ki.size, np.count_nonzero(full), 8 * 8 - ki.size) == (20, 12, 44)
        assert max_rel_error(ring_attention(p, mesh)[0], exact_attention(p)) < 1e-6


def per_block_ring(p: AttentionProblem, mesh: RingMesh) -> np.ndarray:
    """The ring folded one block per call, in schedule order: by step, then query chunk, then KV chunk.

    This is the unbatched form of ring_attention's kernel, with its own mask;
    batching must reproduce it bit for bit.
    """
    P, qc, kc = mesh.device_count, mesh.query_chunk, mesh.kv_chunk
    per_device = p.seq_len // P
    live, full = classify_blocks(p, qc, kc)
    qi, ki = np.nonzero(live)
    step = (qi // (per_device // qc) - ki // (per_device // kc)) % P
    order = np.lexsort((ki, qi, step))
    m = np.full(p.seq_len, -np.inf)
    l = np.zeros(p.seq_len)
    acc = np.zeros((p.seq_len, p.head_dim))
    for q0, k0 in zip(qi[order] * qc, ki[order] * kc):
        rows, cols = slice(q0, q0 + qc), slice(k0, k0 + kc)
        scores = (p.q[rows] @ p.k[cols].T) * p.scale
        m_old = m[rows]
        if full[q0 // qc, k0 // kc]:
            new_m = shift = np.maximum(m_old, scores.max(axis=1))
        else:
            legal = p.segment_ids[rows][:, None] == p.segment_ids[cols][None, :]
            if p.causal:
                legal &= np.arange(k0, k0 + kc)[None, :] <= np.arange(q0, q0 + qc)[:, None]
            scores = np.where(legal, scores, -np.inf)
            new_m = np.maximum(m_old, scores.max(axis=1))
            shift = np.where(np.isneginf(new_m), 0.0, new_m)
        alpha = np.exp(m_old - shift)
        e = np.exp(scores - shift[:, None])
        l[rows] = alpha * l[rows] + e.sum(axis=1)
        acc[rows] = alpha[:, None] * acc[rows] + e @ p.v[cols]
        m[rows] = new_m
    return acc / l[:, None]


# (query_chunk, kv_chunk) with 512 to 8,192 scores per block. With SLAB_BUDGETS
# (a byte budget of 1 makes every slab one block of views) they give slabs of one
# block up to dozens, whose widest fold steps are cut across slabs.
SLAB_BUDGETS = [1, 1 << 14, 1 << 17, ringsim._SLAB_BYTES]
CAP_CHUNKS = [(8, 64), (64, 8), (16, 64), (32, 64), (64, 32), (64, 64), (32, 128), (64, 128), (128, 64)]


@st.composite
def packed_ring_problems(draw):
    """Packed documents on a dividing mesh, either causal flag; small chunks or CAP_CHUNKS."""
    P = draw(st.integers(1, 4))
    if draw(st.booleans()):
        per_device = draw(st.integers(1, 16))
        divisors = [c for c in range(1, per_device + 1) if per_device % c == 0]
        qc, kc = draw(st.sampled_from(divisors)), draw(st.sampled_from(divisors))
    else:
        per_device, (qc, kc) = 128, draw(st.sampled_from(CAP_CHUNKS))
    S = P * per_device
    cuts = sorted(draw(st.sets(st.integers(1, S - 1), max_size=6))) if S > 1 else []
    lengths = np.diff([0, *cuts, S])
    d = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = AttentionProblem(
        q=rng.standard_normal((S, d)), k=rng.standard_normal((S, d)), v=rng.standard_normal((S, d)),
        segment_ids=np.repeat(np.arange(lengths.size), lengths), causal=draw(st.booleans()),
    )
    return p, RingMesh(P, qc, kc)


def assert_bit_identical_to_per_pass_oracle(p: AttentionProblem, block_rows: int | None = None):
    weights, out = np.zeros((p.seq_len, p.seq_len)), np.empty_like(p.v)
    for rows, cols, w in per_pass_oracle_blocks(p, block_rows):
        weights[rows, cols], out[rows] = w, w @ p.v[cols]
    assert np.array_equal(attention_weights(p), weights)
    assert np.array_equal(exact_attention(p), out)


class TestInPlaceOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(multi_block_problems(), packed_ring_problems().map(lambda case: case[0])))
    def test_bit_identical_to_per_pass_oracle(self, p):
        assert_bit_identical_to_per_pass_oracle(p)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(multi_block_problems(1, 512), packed_ring_problems().map(lambda case: case[0])))
    def test_small_problems_keep_256_row_blocks(self, p):
        assert_bit_identical_to_per_pass_oracle(p, block_rows=256)

    @settings(max_examples=40, deadline=None)
    @given(multi_block_problems(), st.integers(1, 8 * 256 * 700))
    def test_many_strips_under_a_smaller_budget(self, p, budget):
        # Budgets below 64 rows' worth take the 64-row floor; the rest cut S = 257-700 into 64 to 256 rows.
        with mock.patch.object(ringsim, "_SLAB_BYTES", budget):
            starts = [rows.start for rows, _, _ in ringsim._oracle_blocks(p, *_legal_keys(p.segment_ids, p.causal))]
            assert starts == list(range(0, p.seq_len, oracle_rows(p.seq_len)))
            assert_bit_identical_to_per_pass_oracle(p)


@contextlib.contextmanager
def slabs_pulled():
    """Patch ringsim._slabs to count what it yields: a list that gets each stream's slab count once it ends."""
    pulled, stream = [], ringsim._slabs

    def counting(*args):
        n = 0
        for n, slab in enumerate(stream(*args), 1):
            yield slab
        pulled.append(n)  # one append per stream: safe across worker threads

    with mock.patch.object(ringsim, "_slabs", counting):
        yield pulled


@st.composite
def slab_streams(draw):
    """Non-increasing positive fold-step widths, a slab cap and a group count."""
    widths = sorted(draw(st.lists(st.integers(1, 200), min_size=1, max_size=40)), reverse=True)
    return widths, draw(st.integers(1, 64)), draw(st.integers(1, 4))


class TestBatchedKernel:
    @settings(max_examples=60, deadline=None)
    @given(packed_ring_problems(), st.sampled_from(SLAB_BUDGETS))
    def test_bit_identical_to_one_block_per_call(self, case, budget):
        p, mesh = case
        with mock.patch.object(ringsim, "_SLAB_BYTES", budget), slabs_pulled() as pulled:
            out, _ = ring_attention(p, mesh)
            slabs = slab_count(p, mesh)
        assert np.array_equal(out, per_block_ring(p, mesh))
        assert 1 <= sum(pulled) <= fold_schedule(p, mesh)[3].size
        assert sum(pulled) == slabs  # the slab stream is walked once, by the fold

    def test_few_slabs_at_one_token_chunks(self):
        # S = P: each device holds one token, and a slab scores up to _slab_cap(1, 1, 4) 1 x 1 blocks.
        P = 256
        p, mesh = random_problem(P, 4, np.random.default_rng(21)), RingMesh(P, 1, 1)
        with slabs_pulled() as pulled:
            out, _ = ring_attention(p, mesh)
        assert sum(pulled) <= 2 * P
        assert fold_schedule(p, mesh)[3].size == np.count_nonzero(classify_blocks(p, 1, 1)[0])
        assert max_rel_error(out, exact_attention(p)) < 1e-6

    @given(ring_layouts())
    def test_fold_steps_is_the_most_live_blocks_of_any_query_chunk(self, layout):
        segment_ids, mesh, causal = layout
        S, qc, kc = segment_ids.size, mesh.query_chunk, mesh.kv_chunk
        p = AttentionProblem(
            q=np.ones((S, 1)), k=np.ones((S, 1)), v=np.ones((S, 1)), segment_ids=segment_ids, causal=causal,
        )
        legal = np.array([
            [segment_ids[i] == segment_ids[j] and (j <= i or not causal) for j in range(S)]
            for i in range(S)
        ])
        live = legal.reshape(S // qc, qc, S // kc, kc).any(axis=(1, 3))
        _, widths, qi, ki, _ = fold_schedule(p, mesh)  # blocks by (fold step, state row)
        assert widths.size == live.sum(axis=1).max()
        assert widths.size == classify_blocks(p, qc, kc)[0].sum(axis=1).max()
        assert widths.size <= ki.size
        # Step t folds every query chunk with more than t live blocks.
        assert widths.tolist() == [np.count_nonzero(live.sum(axis=1) > t) for t in range(widths.size)]
        # Each query chunk folds its live KV chunks by ring step, (dq - dk) mod P, then by KV chunk.
        P = mesh.device_count
        nq, nkv = S // qc // P, S // kc // P
        for c in range(S // qc):
            ring_order = sorted(np.flatnonzero(live[c]), key=lambda k: ((c // nq - k // nkv) % P, k))
            assert ki[qi == c].tolist() == ring_order

    def test_fold_step_cut_across_slabs(self):
        # A slab holds _slab_cap(16, 16, 64) blocks. One causal document over about
        # 1.4 slabs' worth of query chunks: its early fold steps fold more query
        # chunks than a slab holds, so each is cut across two slabs. A slab
        # holding whole steps only would give no more slabs than fold steps.
        qc = kc = 16
        per_slab = _slab_cap(qc, kc, 64)
        S = 4 * qc * (3 * per_slab // 8)
        p = random_problem(S, 64, np.random.default_rng(23), num_segments=1)
        mesh = RingMesh(4, qc, kc)
        with slabs_pulled() as pulled:
            out, _ = ring_attention(p, mesh)
        assert S // qc > per_slab
        assert sum(pulled) > fold_schedule(p, mesh)[1].size == S // qc
        assert np.array_equal(out, per_block_ring(p, mesh))

    def test_carried_max_seeds_a_slab_that_starts_mid_step(self):
        # Non-causal, one document: every query chunk folds at every step, so every
        # step is cut and its second slab starts at state row per_slab, seeded with
        # the max carried from that row's earlier steps. Large scores move the max often.
        qc = kc = 16
        per_slab = _slab_cap(qc, kc, 64)
        S = 2 * qc * per_slab
        rng = np.random.default_rng(24)
        p = AttentionProblem(
            q=8 * rng.standard_normal((S, 64)), k=rng.standard_normal((S, 64)),
            v=rng.standard_normal((S, 64)), segment_ids=np.zeros(S, dtype=np.int64), causal=False,
        )
        mesh = RingMesh(2, qc, kc)
        with slabs_pulled() as pulled:
            out, _ = ring_attention(p, mesh)
        fold_steps = fold_schedule(p, mesh)[1].size
        assert fold_steps == S // kc and sum(pulled) == 2 * fold_steps
        assert np.array_equal(out, per_block_ring(p, mesh))

    @given(slab_streams())
    def test_each_group_streams_only_its_own_row_blocks(self, case):
        widths, cap, groups = case
        whole = list(_slabs(widths, cap, 0, 1))
        # One group's stream tiles every block once, in fold order.
        assert [b0 for b0, _, _ in whole] == np.cumsum([0] + [sum(ns) for _, _, ns in whole])[:-1].tolist()
        assert sum(sum(ns) for _, _, ns in whole) == sum(widths)
        streams = [list(_slabs(widths, cap, g, groups)) for g in range(groups)]
        for g, stream in enumerate(streams):
            assert all(c0 // cap % groups == g for _, c0, _ in stream)
        # Disjoint, and together the one-group stream: no block starts two slabs.
        merged = sorted((slab for stream in streams for slab in stream), key=lambda slab: slab[0])
        assert len({b0 for b0, _, _ in merged}) == len(merged)
        assert merged == whole

    @pytest.mark.parametrize("P", [1, 3, 8])
    def test_lazy_schedule_equals_eager_list(self, P):
        _, trace = ring_attention(two_segment_problem(24, 2, seed=P), RingMesh(P, 1, 1))
        eager = [{"step": s, "device": d, "kv_origin": (d - s) % P} for s in range(P) for d in range(P)]
        assert trace.steps == eager

    def test_peak_memory_at_a_million_live_blocks(self):
        # One non-causal document in 2 x 2 chunks: all (2048 / 2)^2 blocks are live.
        S, d = 2048, 8
        rng = np.random.default_rng(22)
        p = AttentionProblem(
            q=rng.standard_normal((S, d)), k=rng.standard_normal((S, d)), v=rng.standard_normal((S, d)),
            segment_ids=np.zeros(S, dtype=np.int64), causal=False,
        )
        mesh = RingMesh(8, 2, 2)
        tracemalloc.start()
        try:
            ring_attention(p, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _, _, _, ki, full = fold_schedule(p, mesh)
        assert ki.size == np.count_nonzero(full) == 1 << 20
        assert peak < 32 * 2**20  # 22.4 MiB measured


def cpus(n: int):
    """Patch the CPUs ringsim may use to n."""
    return mock.patch.object(ringsim, "_usable_cpus", lambda: n)


class TestUsableCpus:
    """Worker groups get every CPU the process may use: its affinity mask, else os.cpu_count()."""

    def test_affinity_mask_size(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
        assert ringsim._usable_cpus() == 3

    @pytest.mark.parametrize("count, usable", [(6, 6), (None, 1)])
    def test_cpu_count_without_an_affinity_mask(self, monkeypatch, count, usable):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert ringsim._usable_cpus() == usable


def oracle_groups(S: int) -> int:
    """The worker groups exact_attention takes at S, read from its _run_groups call without walking a strip."""
    groups = []
    p = AttentionProblem(q=np.zeros((S, 1)), k=np.zeros((S, 1)), v=np.zeros((S, 1)), segment_ids=np.zeros(S, int))
    with mock.patch.object(ringsim, "_run_groups", lambda task, n: groups.append(n)):
        exact_attention(p)
    return groups[0]


def no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was made")


def criterion3_meshes():
    """Every (S, P, query chunk, KV chunk) the acceptance sweep (criterion 3) can draw."""
    for S in (8, 16, 24, 32, 48, 64, 96, 128, 192, 256):
        for P in (P for P in range(1, S + 1) if S % P == 0):
            chunks = [c for c in range(1, S // P + 1) if S // P % c == 0]
            yield from ((S, P, qc, kc) for qc in chunks for kc in chunks)


def ring_long_meshes():
    """Every (S, P, query chunk, KV chunk) of the benchmark's large-block shapes: chunks >= 64."""
    for S in (1024, 2048, 4096):
        for P in (4, 8):
            chunks = [c for c in range(64, S // P + 1) if S // P % c == 0]
            yield from ((S, P, qc, kc) for qc in chunks for kc in chunks)


class TestWorkerGroups:
    """The ring's row blocks and the oracle's row strips on worker threads, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(packed_ring_problems(), st.sampled_from(SLAB_BUDGETS), st.sampled_from([2, 3]))
    def test_forced_ring_split_is_bit_identical(self, case, budget, n):
        # Any block size takes the split; 3 groups is more threads than a 2-CPU host
        # has, and a short switch interval hands the GIL over as often as it can.
        p, mesh = case
        with mock.patch.object(ringsim, "_SLAB_BYTES", budget):
            slabs = slab_count(p, mesh)
            with cpus(1), slabs_pulled() as alone_pulled:
                alone, alone_trace = ring_attention(p, mesh)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with cpus(n), mock.patch.object(ringsim, "_THREADED_BLOCK_MACS", 0), slabs_pulled() as pulled:
                    out, trace = ring_attention(p, mesh)
            finally:
                sys.setswitchinterval(interval)
        assert out.tobytes() == alone.tobytes() == per_block_ring(p, mesh).tobytes()
        assert trace == alone_trace
        # Each group streams only its own slabs: all groups together pull each slab once.
        assert sum(pulled) == sum(alone_pulled) == slabs

    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from([1024, 2048]), st.sets(st.integers(1, 1023), max_size=8), st.booleans(),
        st.integers(1, 16), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1),
    )  # fmt: skip
    def test_split_oracle_is_bit_identical(self, S, cuts, causal, d, n, seed):
        # S = 1024 gives at most 2 groups of 128-row strips, S = 2048 up to 4 of 64 rows.
        rng = np.random.default_rng(seed)
        lengths = np.diff([0, *sorted(cuts), S])
        p = AttentionProblem(
            q=rng.standard_normal((S, d)), k=rng.standard_normal((S, d)), v=rng.standard_normal((S, d)),
            segment_ids=np.repeat(np.arange(lengths.size), lengths), causal=causal,
        )
        with cpus(n):
            assert oracle_groups(S) == min(n, S // 512)
            split = exact_attention(p)
        with cpus(1):
            walk = exact_attention(p)
        assert split.tobytes() == walk.tobytes()

    def test_sweep_and_toolkit_shapes_take_one_group(self):
        # Acceptance-sweep (head_dim 2-32) and toolkit ringsim (8, 16, 32) shapes keep
        # one group and one strip walk however many CPUs the host has.
        toolkit = [(128, 4, 4, 8), (256, 4, 8, 8), (192, 2, 8, 12), (256, 8, 4, 16)]
        with cpus(64):
            for S, P, qc, kc in [*criterion3_meshes(), *toolkit]:
                assert oracle_groups(S) == 1
                assert all(ringsim._ring_groups(S // qc, qc, kc, d) == 1 for d in range(2, 33))

    def test_large_blocks_split(self):
        # A block at or past _THREADED_BLOCK_MACS is a slab, and so a row block, of its own.
        # The large-block shapes split wherever their blocks reach it, and the oracle from S = 1024.
        split = 0
        with cpus(2):
            for S, P, qc, kc in ring_long_meshes():
                assert oracle_groups(S) == 2
                for d in (64, 128):
                    big = qc * kc * d >= ringsim._THREADED_BLOCK_MACS
                    assert not big or _slab_cap(qc, kc, d) == 1
                    assert ringsim._ring_groups(S // qc, qc, kc, d) == (2 if big else 1)
                    split += big
        assert split == 134  # of 158 (mesh, d) pairs; the rest have 64 x 64 blocks, or 64 x 128 at d = 64

    @given(st.integers(1, 1 << 13), st.integers(1, 1 << 13), st.integers(0, 1 << 10))
    def test_threaded_blocks_are_one_block_slabs(self, qc, kc, extra):
        # Every block worth a thread (d from the fewest that reach _THREADED_BLOCK_MACS on)
        # takes over half of _SLAB_BYTES, so _ring_groups counts one query chunk a row block.
        d = -(-ringsim._THREADED_BLOCK_MACS // (qc * kc)) + extra
        assert qc * kc * d >= ringsim._THREADED_BLOCK_MACS
        assert 2 * ringsim._block_bytes(qc, kc, d) > ringsim._SLAB_BYTES
        assert _slab_cap(qc, kc, d) == 1

    def test_one_cpu_makes_no_pool(self):
        # A ring_long-like problem, which splits on two CPUs, run on one: no executor,
        # and the output and trace of the two-CPU run.
        rng = np.random.default_rng(31)
        p = random_problem(2048, 64, rng, num_segments=3)
        mesh = RingMesh(4, 128, 256)
        with cpus(2), mock.patch.object(ringsim, "_run_groups", wraps=ringsim._run_groups) as run:
            out, trace = ring_attention(p, mesh)
            reference = exact_attention(p)
        assert [c.args[1] for c in run.call_args_list] == [2, 2]
        with cpus(1), mock.patch.object(ringsim, "ThreadPoolExecutor", no_pool):
            alone, alone_trace = ring_attention(p, mesh)
            assert exact_attention(p).tobytes() == reference.tobytes()
        assert alone.tobytes() == out.tobytes()
        assert alone_trace == trace

    def test_split_oracle_scratch_fits_the_admitted_strip(self):
        # One 4096-token document at d = 128 with 64 CPUs: four groups at most, whose 64-row
        # strips (2 MiB each) are the _ORACLE_ROWS x S strip random_problem admits, beside
        # the 4 MiB output.
        rng = np.random.default_rng(0)
        S, d = 4096, 128
        p = AttentionProblem(
            q=rng.standard_normal((S, d)), k=rng.standard_normal((S, d)),
            v=rng.standard_normal((S, d)), segment_ids=np.zeros(S, dtype=np.int64),
        )
        with cpus(64):
            assert oracle_groups(S) == 4
            tracemalloc.start()
            try:
                exact_attention(p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 8 * S * (d + ringsim._ORACLE_ROWS) + 2**20  # 12.3 MiB measured

    def test_split_oracle_scratch_follows_the_widest_span(self):
        # 512 random-cut documents at S = 65,536 with 64 CPUs: four groups of 64-row strips,
        # each as wide as the widest span its group walks, not S (32 MiB a group), beside
        # the output, one shared copy of the legal-key bounds (two int32s a token) and the
        # strips' edge masks.
        S, d = 65536, 8
        p = random_problem(S, d, np.random.default_rng(0), num_segments=512)
        rows, starts = oracle_rows(S), np.arange(0, S, oracle_rows(S))
        # A causal strip's span runs from its first row's segment start to its last row.
        widest = int((np.minimum(starts + rows, S) - np.searchsorted(p.segment_ids, p.segment_ids[starts])).max())
        with cpus(64):
            groups = oracle_groups(S)
            assert groups == 4
            tracemalloc.start()
            try:
                exact_attention(p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 8 * (groups * rows * widest + S * (d + 1)) + 2**20  # 6.6 MiB measured

    def test_split_ring_holds_one_slab_per_group(self):
        # One 4096-token document at d = 128 with 64 CPUs and a working-set bound of four
        # 128 x 512 blocks (2.5 MiB each by _slab_cap's count): four groups, one slab each,
        # beside the state and output (4 MiB each).
        rng = np.random.default_rng(0)
        S, d, qc, kc = 4096, 128, 128, 512
        p = AttentionProblem(
            q=rng.standard_normal((S, d)), k=rng.standard_normal((S, d)),
            v=rng.standard_normal((S, d)), segment_ids=np.zeros(S, dtype=np.int64),
        )
        bound = 4 * 8 * (2 * qc * kc + 3 * qc * d + 2 * kc * d + 3 * qc)
        with cpus(64), mock.patch.object(ringsim, "MAX_WORKING_SET_BYTES", bound):
            assert ringsim._ring_groups(S // qc, qc, kc, d) == 4
            tracemalloc.start()
            try:
                ring_attention(p, RingMesh(8, qc, kc))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 8 * S * (2 * d + 1) + bound  # 8.9 MiB measured

    @pytest.mark.parametrize(
        "S, qc, kc, d, groups",
        [
            (65536, 4096, 4096, 1, 1),  # one block takes about MAX_WORKING_SET_BYTES
            (65536, 4096, 4096, 128, 1),
            (524_288, 1024, 2048, 128, 6),  # the paper's mesh: 39 MiB a block
            (524_288, 512, 512, 128, 39),
            (524_288, 256, 256, 128, 64),  # 64 CPUs bind before the bound
        ],
    )
    def test_ring_groups_fit_the_working_set_bound(self, S, qc, kc, d, groups):
        # However many CPUs: one slab per group, all of them within MAX_WORKING_SET_BYTES,
        # one slab's admitted bound; a lone slab is the mesh check's to bound.
        with cpus(64):
            assert ringsim._ring_groups(S // qc, qc, kc, d) == groups
        slab = max(ringsim._SLAB_BYTES, ringsim._block_bytes(qc, kc, d))
        assert groups == 1 or groups * slab <= MAX_WORKING_SET_BYTES

    def test_largest_one_block_mesh_fits_the_working_set_bound(self):
        # The mesh check admits 4096 x 4096 chunks: their scores and mask take exactly
        # MAX_WORKING_SET_BYTES. _block_bytes counts the bool mask at 8 bytes a score, so it
        # reads 256 MiB at d = 1. The ring holds the float64 scores and, while it masks, one
        # 1-byte compare temporary per score: its measured peak is 144.2 MiB (148.1 MiB at d = 128).
        rng = np.random.default_rng(0)
        S, d = 4096, 1
        p = AttentionProblem(
            q=rng.standard_normal((S, d)), k=rng.standard_normal((S, d)),
            v=rng.standard_normal((S, d)), segment_ids=np.zeros(S, dtype=np.int64),
        )
        tracemalloc.start()
        try:
            ring_attention(p, RingMesh(1, S, S))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= MAX_WORKING_SET_BYTES
        assert peak <= 9 * S * S + (4 << 20)  # 144.2 MiB measured


class TestSeqLenBound:
    def test_mesh_rejects_empty_sequence(self):
        with pytest.raises(ValueError, match="seq_len must be >= 1"):
            RingMesh(1, 1, 1).validate_for(0)

    def test_random_problem_rejects_empty_sequence(self):
        with pytest.raises(ValueError, match="seq_len must be >= 1"):
            random_problem(0, 4, np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["head_dim", "num_segments"])
    def test_random_problem_rejects_nonpositive_sizes(self, name):
        sizes = {"seq_len": 8, "head_dim": 4, "num_segments": 2, name: 0}
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
            random_problem(rng=np.random.default_rng(0), **sizes)

    def test_random_problem_bounds_working_set(self):
        with pytest.raises(ValueError, match=str(MAX_WORKING_SET_BYTES)):
            random_problem(10**12, 16, np.random.default_rng(0), num_segments=1)

    def test_mesh_bounds_classification_tables(self):
        with pytest.raises(ValueError, match=str(MAX_CLASSIFIED_BLOCKS)):
            RingMesh(1, 1, 1).validate_for(2**12)

    def test_mesh_bounds_one_block_scores(self):
        # A slab holds at least one block, whose scores and mask take 16 * qc * kc bytes.
        with pytest.raises(ValueError, match=f"chunks 65536/65536 .* more than {MAX_WORKING_SET_BYTES}"):
            RingMesh(1, 65536, 65536).validate_for(65536)
        RingMesh(1, 4096, 4096).validate_for(4096)  # exactly MAX_WORKING_SET_BYTES
        RingMesh(8, 1024, 2048).validate_for(524_288)  # the paper's mesh: 32 MiB


class TestRandomProblemDraw:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("num_segments", [2, 7, 40])
    def test_cut_points_match_the_arange_draw(self, seed, num_segments):
        S, d = 97, 3
        reference = np.random.default_rng(seed)
        cuts = np.sort(reference.choice(np.arange(1, S), size=num_segments - 1, replace=False))
        p = random_problem(S, d, np.random.default_rng(seed), num_segments=num_segments)
        assert np.array_equal(np.flatnonzero(np.diff(p.segment_ids)) + 1, cuts)
        assert np.array_equal(p.q, reference.standard_normal((S, d)))  # same stream after the draw

    def test_one_segment_draws_nothing(self):
        p = random_problem(50, 4, np.random.default_rng(3), num_segments=1)
        assert np.array_equal(p.q, np.random.default_rng(3).standard_normal((50, 4)))
        assert not p.segment_ids.any()
