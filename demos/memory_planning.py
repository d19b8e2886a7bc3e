"""Chunk sizes vs the compiler's statically allocated mapping table.

Chunked attention over packed documents needs a chunk-to-segment lookup
table; when it is materialized at compile time its size is
devices * q_chunks * kv_chunks * seq_len * 4 bytes. Small chunks mean many
chunks, and the table explodes quadratically. Growing the chunks is the
counter-intuitive fix: per-block working sets rise, but the table shrinks
by the square of the growth factor.
"""

from longctx.memplan import (
    ChunkPlan,
    SearchConstraints,
    format_gib,
    lookup_table_bytes,
    search_chunk_plan,
)

GIB = 2**30

print("=== The 512K-token, 8-device configuration ===")
small = ChunkPlan(devices=8, seq_len=524_288, q_chunk=1024, kv_chunk=2048)
large = ChunkPlan(devices=8, seq_len=524_288, q_chunk=2048, kv_chunk=4096)
for plan, label in ((small, "1024/2048 chunks"), (large, "2048/4096 chunks")):
    nbytes = lookup_table_bytes(plan)
    print(
        f"  {label}: {plan.num_q_chunks} x {plan.num_kv_chunks} chunks per device "
        f"-> table {nbytes:,d} bytes ({format_gib(nbytes)})"
    )

before, after = lookup_table_bytes(small), lookup_table_bytes(large)
print(f"  doubling both chunk sizes saves {format_gib(before - after)} "
      f"({before / after:.0f}x smaller table)")
print("  note: lookup-table term only; a full-graph peak memory delta includes "
      "activation and buffer terms outside this model")

print()
print("=== Table size across chunk choices (8 devices, 512K tokens) ===")
print("  q_chunk  kv_chunk      table")
for cq in (512, 1024, 2048, 4096):
    for ckv in (1024, 2048, 4096):
        plan = ChunkPlan(devices=8, seq_len=524_288, q_chunk=cq, kv_chunk=ckv)
        print(f"  {cq:>7d}  {ckv:>8d}  {format_gib(lookup_table_bytes(plan)):>12s}")

print()
print("=== Searching under a budget ===")
constraints = SearchConstraints(min_q_chunk=1024, min_kv_chunk=2048, power_of_two=True)
for budget_gib in (64, 32, 16, 8, 4):
    plan = search_chunk_plan(8, 524_288, budget_gib * GIB, constraints)
    if plan is None:
        print(f"  budget {budget_gib:>3d} GiB: no feasible plan")
    else:
        print(
            f"  budget {budget_gib:>3d} GiB: smallest fit is q={plan.q_chunk}, "
            f"kv={plan.kv_chunk} ({format_gib(lookup_table_bytes(plan))})"
        )
print()
print("  An 80 GB device that cannot hold the 32 GiB table at 1024/2048")
print("  takes the 2048/4096 plan and trains 512K-token sequences anyway.")
