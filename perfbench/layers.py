"""Per-layer metrics of a traced run, named <module>.<what>.

Times come from the spans: ``calls`` is the span count, ``self_s`` the
summed span time minus child spans, ``p50_ms`` the median span duration,
``peak_alloc_mb`` the largest tracemalloc peak of one call. The ringsim
counts are computed from each ring input of one cycle, not measured, so
they repeat exactly for a seed. A layer a workload never calls reads 0.
"""

from __future__ import annotations

import statistics

import ringcounts

SUBCOMMANDS = (
    "census", "rope-plan", "rope-report", "ringsim", "memplan",
    "memplan-search", "niah-gen", "niah-score", "niah-grid", "recipe",
)  # fmt: skip

# (name, unit, better); BENCHMARK.json's per_layer list is this table.
LAYER_METRICS = [
    ("ringsim.ring_attention.calls", "count", "higher"),
    ("ringsim.ring_attention.self_s", "s", "lower"),
    ("ringsim.ring_attention.p50_ms", "ms", "lower"),
    ("ringsim.exact_attention.self_s", "s", "lower"),
    ("ringsim.exact_attention.p50_ms", "ms", "lower"),
    ("ringsim.exact_attention.peak_alloc_mb", "MiB", "lower"),
    ("ringsim.attention_weights.self_s", "s", "lower"),
    ("ringsim.random_problem.self_s", "s", "lower"),
    ("ringsim.blocks_visited", "count", "lower"),
    ("ringsim.blocks_live", "count", "lower"),
    ("ringsim.blocks_full", "count", "higher"),
    ("ringsim.live_block_ratio", "ratio", "higher"),
    ("ringsim.legal_pairs", "count", "lower"),
    ("ringsim.device_pairs_max_over_mean", "ratio", "lower"),
    ("ringsim.transfer_bytes", "B", "lower"),
    ("ringsim.max_rel_err", "ratio", "lower"),
    ("softnum.distinct_integer_census.calls", "count", "higher"),
    ("softnum.distinct_integer_census.self_s", "s", "lower"),
    ("softnum.distinct_integer_census.p50_ms", "ms", "lower"),
    ("softnum.distinct_integer_census.peak_alloc_mb", "MiB", "lower"),
    ("softnum.round_trip.calls", "count", "lower"),
    ("softnum.round_trip.self_s", "s", "lower"),
    ("rope.rotate.calls", "count", "lower"),
    ("rope.rotate.self_s", "s", "lower"),
    ("rope.relative_score.self_s", "s", "lower"),
    ("rope.plan_theta.self_s", "s", "lower"),
    ("rope.rotation_report.self_s", "s", "lower"),
    ("memplan.search_chunk_plan.calls", "count", "higher"),
    ("memplan.search_chunk_plan.self_s", "s", "lower"),
    ("memplan.search_chunk_plan.p50_ms", "ms", "lower"),
    ("niah.generate_case.calls", "count", "higher"),
    ("niah.generate_case.self_s", "s", "lower"),
    ("niah.generate_case.p50_ms", "ms", "lower"),
    ("niah.haystack_tokens_per_s", "tokens/s", "higher"),
    ("niah.filler_sentences.calls", "count", "lower"),
    ("niah.filler_sentences.self_s", "s", "lower"),
    ("niah.score.self_s", "s", "lower"),
    ("niah.run_grid.self_s", "s", "lower"),
    ("recipe.validate.self_s", "s", "lower"),
    ("recipe.emit_manifest.self_s", "s", "lower"),
    ("recipe.load_manifest.self_s", "s", "lower"),
    ("recipe.megabeam_recipe.self_s", "s", "lower"),
    ("cli.dispatch.calls", "count", "higher"),
    ("cli.dispatch.self_s", "s", "lower"),
    ("cli.dispatch.p50_ms", "ms", "lower"),
    ("cli.build_parser.self_s", "s", "lower"),
    ("cli.stdout_bytes", "B", "higher"),
    ("cli.exit_1", "count", "higher"),
    ("cli.exit_2", "count", "higher"),
    ("cli.uncaught", "count", "lower"),
    *((f"cli.{sub}.p50_ms", "ms", "lower") for sub in SUBCOMMANDS),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def layer_metrics(ops, tracer, traced: list[dict], report: dict) -> dict:
    own = tracer.self_seconds()
    spans: dict[str, list[int]] = {}
    for i, span in enumerate(tracer.spans):
        spans.setdefault(span.name, []).append(i)

    values = {}
    for name, unit, _ in LAYER_METRICS:
        fn, _, what = name.rpartition(".")
        ids = spans.get(fn, [])
        if what == "calls":
            values[name] = len(ids)
        elif what == "self_s":
            values[name] = sum(own[i] for i in ids)
        elif what == "p50_ms":
            values[name] = _median_ms([tracer.spans[i].seconds for i in ids])
        elif what == "peak_alloc_mb":
            values[name] = max((tracer.spans[i].alloc_peak for i in ids), default=0) / 2**20

    generated = [tracer.spans[i] for i in spans.get("niah.generate_case", [])]
    busy = sum(s.seconds for s in generated)
    values["niah.haystack_tokens_per_s"] = sum(s.tokens for s in generated) / busy if busy else 0.0

    counts = ringcounts.summarize([ringcounts.problem_counts(*op.ring) for op in ops if op.ring])
    values.update({f"ringsim.{key}": value for key, value in counts.items()})
    values["ringsim.max_rel_err"] = max((r.get("rel_err", 0.0) for r in traced), default=0.0)

    cli_ops = [r for r in traced if r["kind"].startswith("cli:")]
    values["cli.stdout_bytes"] = sum(r.get("stdout_bytes", 0) for r in cli_ops)
    values["cli.exit_1"] = sum(r.get("exit") == 1 for r in cli_ops)
    values["cli.exit_2"] = sum(r.get("exit") == 2 for r in cli_ops)
    values["cli.uncaught"] = sum(r["outcome"] == "uncaught" for r in cli_ops)
    dispatches = [tracer.spans[i] for i in spans.get("cli.dispatch", [])]
    for sub in SUBCOMMANDS:
        values[f"cli.{sub}.p50_ms"] = _median_ms(
            [s.seconds for s in dispatches if traced[s.op]["kind"] == f"cli:{sub}"]
        )
    values["trace.overhead_frac"] = 1.0 - report["traced"]["ops_per_s"] / report["untraced_twin"]["ops_per_s"]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
