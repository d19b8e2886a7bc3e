"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
per criterion as it completes. Tolerances are pinned here and nowhere else.
"""

import functools
from pathlib import Path

import numpy as np

from longctx.memplan import ChunkPlan, lookup_table_bytes
from longctx.niah import EchoStub, NiahCase, Verdict, generate_case, run_grid, score
from longctx.recipe import emit_manifest, megabeam_recipe, validate
from longctx.ringsim import (
    AttentionProblem,
    RingMesh,
    RingTrace,
    attention_weights,
    exact_attention,
    ring_attention,
)
from longctx.rope import RopeConfig, relative_score, rotate, theta_lower_bound
from longctx.softnum import PrecisionMode, distinct_integer_census

# Pre-build exhaustive enumeration over integers [0, 524288): 1665 distinct
# 16-bit values. Cross-checked against the closed form 257 + 128 * 11
# (exact integers through 256, then 128 grid points per binade).
CENSUS_524288 = 1665


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL | {title}", flush=True)
                raise
            print(f"ACCEPTANCE {number} PASS | {title}", flush=True)

        return wrapper

    return decorate


@criterion(1, "theta lower bound reproduces the 28M / 86M anchor points")
def test_criterion_1_theta_bound():
    assert 2.75e7 <= theta_lower_bound(262_144) <= 2.85e7
    assert 8.5e7 <= theta_lower_bound(524_288) <= 8.7e7


@criterion(2, "lookup table is exactly 32 GiB and quarters when chunks double")
def test_criterion_2_memory_model():
    small = ChunkPlan(devices=8, seq_len=524_288, q_chunk=1024, kv_chunk=2048)
    large = ChunkPlan(devices=8, seq_len=524_288, q_chunk=2048, kv_chunk=4096)
    assert lookup_table_bytes(small) == 34_359_738_368
    assert lookup_table_bytes(small) == 4 * lookup_table_bytes(large)


@criterion(3, "ring attention matches the exact oracle on 200 random problems")
def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(90210)
    worst = 0.0
    for _ in range(200):
        seq_len = int(rng.choice([8, 16, 24, 32, 48, 64, 96, 128, 192, 256]))
        head_dim = int(rng.integers(2, 33))
        num_segments = int(rng.integers(1, max(2, seq_len // 8) + 1))
        cuts = np.sort(
            rng.choice(np.arange(1, seq_len), size=num_segments - 1, replace=False)
        )
        lengths = np.diff(np.concatenate([[0], cuts, [seq_len]]))
        problem = AttentionProblem(
            q=rng.standard_normal((seq_len, head_dim)),
            k=rng.standard_normal((seq_len, head_dim)),
            v=rng.standard_normal((seq_len, head_dim)),
            segment_ids=np.repeat(np.arange(num_segments), lengths),
        )
        divisors = [p for p in range(1, seq_len + 1) if seq_len % p == 0]
        devices = int(rng.choice(divisors))
        per_device = seq_len // devices
        chunk_choices = [c for c in range(1, per_device + 1) if per_device % c == 0]
        mesh = RingMesh(
            device_count=devices,
            query_chunk=int(rng.choice(chunk_choices)),
            kv_chunk=int(rng.choice(chunk_choices)),
        )
        reference = exact_attention(problem)
        out, _ = ring_attention(problem, mesh)
        rel = np.max(np.abs(out - reference)) / np.max(np.abs(reference))
        worst = max(worst, float(rel))
        if num_segments > 1:
            weights = attention_weights(problem)
            cross = problem.segment_ids[:, None] != problem.segment_ids[None, :]
            assert np.all(weights[cross] == 0.0)
    assert worst <= 1e-6, f"worst relative error {worst}"


@criterion(4, "16-bit rounding collides positions while 32-bit keeps them distinct")
def test_criterion_4_precision_failure():
    cfg = RopeConfig(
        theta_base=75e6, head_dim=64, max_position=1 << 20,
        precision=PrecisionMode.REDUCED16,
    )
    v = np.random.default_rng(1).standard_normal(64)
    assert np.array_equal(rotate(v, 257, cfg), rotate(v, 256, cfg))

    assert distinct_integer_census(524_288) == CENSUS_524288

    # 32-bit path: every integer position below 2**24 stays distinct.
    for start in range(0, 1 << 24, 1 << 22):
        block = np.arange(start, start + (1 << 22) + 1, dtype=np.float64).astype(np.float32)
        assert np.all(np.diff(block) > 0)


@criterion(5, "shift invariance holds in 32-bit and breaks at ~300K in 16-bit")
def test_criterion_5_shift_invariance():
    full = RopeConfig(theta_base=75e6, head_dim=64, max_position=1 << 21)
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        q, k = rng.standard_normal(64), rng.standard_normal(64)
        m = int(rng.integers(0, 1 << 20))
        n = int(rng.integers(0, 1 << 20))
        s = int(rng.integers(0, 1 << 20))
        a = relative_score(q, k, m, n, full)
        b = relative_score(q, k, m + s, n + s, full)
        assert abs(a - b) <= 1e-5 * max(abs(a), abs(b)), (m, n, s)

    reduced = RopeConfig(
        theta_base=75e6, head_dim=128, max_position=1 << 21,
        precision=PrecisionMode.REDUCED16,
    )
    rng = np.random.default_rng(2)
    q, k = rng.standard_normal(128), rng.standard_normal(128)
    m, n, s = 300_017, 299_000, 12_345
    a = relative_score(q, k, m, n, reduced)
    b = relative_score(q, k, m + s, n + s, reduced)
    assert abs(a - b) > 1e-3 * max(abs(a), abs(b))


@criterion(6, "built-in recipe validates clean, stays under 2B, matches golden")
def test_criterion_6_recipe():
    manifest = megabeam_recipe()
    assert validate(manifest) == []
    pretraining = sum(p.token_budget for p in manifest.phases if p.phase_id != "4")
    assert pretraining <= 2_000_000_000
    golden = Path(__file__).parent / "data" / "megabeam_manifest.json"
    assert emit_manifest(manifest) == golden.read_text(encoding="utf-8")


@criterion(7, "haystack generation is deterministic and scoring catches truncation")
def test_criterion_7_niah():
    case = NiahCase(haystack_tokens=2000, depth_percent=50.0, needle_payload="7418118", seed=99)
    assert generate_case(case).document == generate_case(case).document

    result = score("7418118", "the model recalled 741811 from the archive")
    assert result.verdict is Verdict.TRUNCATED

    grid = run_grid([600, 900], [0, 50, 100], 2, EchoStub(), base_seed=31)
    assert all(cell.rate("exact") == 1.0 for cell in grid.cells)


@criterion(8, "sequence-parallelism degree follows the ring vs all-to-all rule")
def test_criterion_8_dosp():
    # Ring: in P steps every device holds every KV partition once, so all P devices
    # share one sequence whatever its KV head count.
    for devices in (1, 2, 3, 8, 64, 256):
        steps = RingTrace(devices).steps
        assert len({(s["device"], s["kv_origin"]) for s in steps}) == len(steps) == devices**2
    # All-to-all: each device takes whole KV heads, so at most kv_heads devices get work.
    rng = np.random.default_rng(8)
    for _ in range(500):
        kv_heads = int(rng.integers(1, 257))
        devices = int(rng.integers(1, 1025))
        shares = np.array_split(np.arange(kv_heads), devices)
        assert sum(share.size > 0 for share in shares) == min(devices, kv_heads)
    assert sum(share.size > 0 for share in np.array_split(np.arange(8), 64)) == 8
