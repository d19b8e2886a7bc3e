"""Attention equivalence against a brute-force oracle, plus ring mechanics.

brute_force_attention below is the independent reference: per-row Python
loops over every key, softmax computed with math.exp, no shared code with
the vectorized implementations it checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from longctx.ringsim import (
    AttentionProblem,
    RingMesh,
    _classify_blocks,
    attention_weights,
    blockwise_attention,
    dosp_limits,
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
        assert np.array_equal(out, blockwise_attention(p, 8, 16))
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
        seen = {(s.device, s.kv_origin) for s in trace.steps}
        assert len(seen) == len(trace.steps) == P * P
        for s in trace.steps:
            assert s.kv_origin == (s.device - s.step) % P

    def test_invalid_mesh_rejected(self):
        p = two_segment_problem(32, 4)
        with pytest.raises(ValueError):
            ring_attention(p, RingMesh(3, 4, 4))  # 3 does not divide 32
        with pytest.raises(ValueError):
            ring_attention(p, RingMesh(4, 3, 4))  # 3 does not divide 8
        with pytest.raises(ValueError):
            ring_attention(p, RingMesh(0, 1, 1))


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
        live, full = _classify_blocks(p, qc, kc)
        assert np.array_equal(live, blocks.any(axis=(2, 3)))  # empty <=> no legal pair
        assert np.array_equal(full, blocks.all(axis=(2, 3)))  # full <=> every pair legal

        out, trace = ring_attention(p, mesh)
        nq, nkv = S // mesh.device_count // qc, S // mesh.device_count // kc
        assert trace.blocks_visited + trace.blocks_skipped == mesh.device_count**2 * nq * nkv
        assert trace.blocks_visited == np.count_nonzero(live)
        assert trace.blocks_full == np.count_nonzero(full)
        assert max_rel_error(out, exact_attention(p)) < 1e-6

    def test_packed_causal_ring_counts(self):
        # Two 8-token documents in 2-token chunks: each document's 4 x 4
        # chunk grid has 10 live blocks on and below the diagonal, of which
        # the 6 strictly below need no mask; the other 44 blocks are empty.
        p = two_segment_problem(16, 4, seed=17)
        out, trace = ring_attention(p, RingMesh(4, 2, 2))
        assert (trace.blocks_visited, trace.blocks_full, trace.blocks_skipped) == (20, 12, 44)
        assert max_rel_error(out, exact_attention(p)) < 1e-6


class TestSeqLenBound:
    def test_mesh_rejects_empty_sequence(self):
        with pytest.raises(ValueError, match="seq_len must be >= 1"):
            RingMesh(1, 1, 1).validate_for(0)

    def test_random_problem_rejects_empty_sequence(self):
        with pytest.raises(ValueError, match="seq_len must be >= 1"):
            random_problem(0, 4, np.random.default_rng(0))


class TestDospLimits:
    def test_ring_scales_with_devices(self):
        limits = dosp_limits(kv_heads=8, devices=64)
        assert limits.ring_dosp == 64
        assert limits.all_to_all_dosp == 8

    def test_devices_bind_when_scarce(self):
        limits = dosp_limits(kv_heads=64, devices=8)
        assert limits.ring_dosp == 8
        assert limits.all_to_all_dosp == 8

    def test_degenerate(self):
        limits = dosp_limits(kv_heads=1, devices=1)
        assert (limits.ring_dosp, limits.all_to_all_dosp) == (1, 1)

    @given(st.integers(1, 1024), st.integers(1, 1024))
    def test_rule_sweep(self, kv_heads, devices):
        limits = dosp_limits(kv_heads, devices)
        assert limits.ring_dosp == devices
        assert limits.all_to_all_dosp == min(devices, kv_heads)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dosp_limits(0, 4)
