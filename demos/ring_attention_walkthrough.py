"""Ring-scheduled sequence-parallel attention, step by step.

Eight simulated devices hold fixed query partitions while KV partitions
rotate around the ring. Two packed documents share the sequence; the mask
keeps attention inside each document. The whole thing is checked against
a full-softmax oracle at the end.
"""

import numpy as np

from longctx.ringsim import (
    RingMesh,
    attention_weights,
    exact_attention,
    random_problem,
    ring_attention,
)

rng = np.random.default_rng(7)
SEQ_LEN, HEAD_DIM, DEVICES = 128, 16, 8

problem = random_problem(SEQ_LEN, HEAD_DIM, rng, num_segments=2)
mesh = RingMesh(device_count=DEVICES, query_chunk=8, kv_chunk=8)
doc_lengths = np.bincount(problem.segment_ids)
print(f"sequence: {SEQ_LEN} tokens, two documents of {doc_lengths[0]} and {doc_lengths[1]}")
print(f"mesh: {DEVICES} devices, {SEQ_LEN // DEVICES} tokens each, 8/8 token chunks")

out, trace = ring_attention(problem, mesh)

print()
print("=== Rotation schedule (KV partition seen by each device) ===")
print("        " + "  ".join(f"dev{d}" for d in range(DEVICES)))
for step in range(DEVICES):
    row = [s["kv_origin"] for s in trace.steps if s["step"] == step]
    print(f"  step {step}: " + "  ".join(f"{o:>3d}" for o in row))
print(f"  peer-to-peer transfers: {trace.transfers} (= P * (P - 1) = {DEVICES * (DEVICES - 1)})")

print()
print("=== Equivalence against the full-softmax oracle ===")
reference = exact_attention(problem)
max_abs = np.max(np.abs(out - reference))
print(f"  max |ring - oracle| = {max_abs:.3e}")

weights = attention_weights(problem)
cross = problem.segment_ids[:, None] != problem.segment_ids[None, :]
print(f"  cross-document attention weight total: {weights[cross].sum():.1f} (exactly zero)")
print(f"  weight rows sum to one: {np.allclose(weights.sum(axis=1), 1.0)}")

print()
print("=== Why rings: degree of sequence parallelism ===")
print("  With 8 KV heads, an all-to-all transpose scheme stalls at 8 devices;")
print("  ring rotation keeps scaling with the cluster.")
for devices in (8, 16, 64, 256):
    print(f"  {devices:>4d} devices -> ring {devices:>4d}   all-to-all {min(devices, 8):>2d}")
