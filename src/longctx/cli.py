"""Command-line entry point with machine-readable JSON/CSV output.

Exit codes: 0 success, 1 domain error (JSON error object on stderr),
2 usage error (argparse). Success output on stdout is exactly one JSON
document or one CSV table. Identical argv produce byte-identical output
when --no-timestamp is given; otherwise a timestamp field is included.

The argparse tree, built once at import, is the only routing table: each
subparser binds its handler with set_defaults(func=...). A handler returns
what it prints and never touches stdout: a dict for a JSON document, a str
for CSV or manifest text, or None when it wrote to a file. dispatch makes
the one write, through _render. A callable value in a returned dict
stands for a JSON string written verbatim: _render calls it with the JSON
text before and after that string and writes the one string it returns.
niah-gen's inline document (megabytes) is GeneratedCase.text, so its
stdout is one join of the haystack's sentences with that head and tail,
with no json.dumps over it (every niah document is JSON-plain) and no
document joined first. Handlers raise on bad input, and the one except
clause in dispatch turns every domain error, including one raised while
writing, into the JSON error object and exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import memplan, niah, recipe, ringsim, rope, softnum

SCHEMA_VERSION = recipe.SCHEMA_VERSION
# ringsim --dump-weights' CSV bound: np.savetxt's %.18e writes a weight in
# [0, 1] in at most 25 characters, plus one separator, so S <= 3,213.
MAX_DUMP_BYTES = 1 << 28
# ringsim prints P^2 schedule entries, about 1 KiB of peak memory each on the way out.
MAX_SCHEDULE_DEVICES = 512


def _render(out: dict | str | None, no_timestamp: bool) -> str:
    """The text of a handler's return value, for one write."""
    if out is None:
        return ""
    if isinstance(out, str):
        return out
    if not no_timestamp:
        out["timestamp"] = datetime.now(timezone.utc).isoformat()
    key = next((k for k, v in out.items() if callable(v)), None)
    if key is None:
        return json.dumps(out, indent=2) + "\n"
    text, out[key] = out[key], ""
    # Raw newlines and quotes are structure, so this matches only the top-level key.
    head, marker, tail = (json.dumps(out, indent=2) + "\n").partition(f'\n  {json.dumps(key)}: "')
    return text(head + marker, tail)


def _parse_number_list(text: str, caster):
    try:  # "" is the empty list; an empty item ("4,,4", ",1", "1,") is refused by the caster
        return [caster(part) for part in text.split(",")] if text else []
    except ValueError as exc:
        raise ValueError(f"cannot parse list {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_census(args) -> dict:
    distinct = softnum.distinct_integer_census(args.limit)
    return {
        "command": "census",
        "limit": args.limit,
        "distinct": distinct,
        "collision_rate": 1.0 - distinct / args.limit,
    }


def _cmd_rope_plan(args) -> dict:
    candidates = _parse_number_list(args.candidates, float)
    plan = rope.plan_theta(args.context_len, candidates, head_dim=args.head_dim)
    return {
        "command": "rope-plan",
        "context_len": plan.context_len,
        "head_dim": plan.head_dim,
        "lower_bound": plan.lower_bound,
        "recommended": plan.recommended,
        "candidates": [
            {
                "theta": c.theta,
                "bound_ratio": c.bound_ratio,
                "fraction_complete": c.fraction_complete,
                "classification": c.classification.value,
            }
            for c in plan.candidates
        ],
    }


def _cmd_rope_report(args) -> str:
    cfg = rope.RopeConfig(
        theta_base=args.theta_base, head_dim=args.head_dim, max_position=args.max_position
    )
    report = rope.rotation_report(cfg)
    columns = report.inv_freq.tolist(), report.wavelength.tolist(), report.complete.tolist()
    rows = (f"{i},{inv!r},{wl!r},{str(c).lower()}\n" for i, (inv, wl, c) in enumerate(zip(*columns)))
    return "pair_index,inv_freq,wavelength,complete\n" + "".join(rows)


def _parse_segments(spec: str, seq_len: int) -> list[int]:
    lengths = _parse_number_list(spec, int)
    if sum(lengths) != seq_len or any(n < 1 for n in lengths):
        raise ValueError(f"segment lengths {lengths} must be positive and sum to {seq_len}")
    return lengths


def _cmd_ringsim(args) -> dict:
    mesh = ringsim.RingMesh(
        device_count=args.devices, query_chunk=args.q_chunk, kv_chunk=args.kv_chunk
    )
    # Every size bound, and the --segments list, is checked before anything sized by S is allocated.
    mesh.validate_for(args.seq_len)
    if args.devices > MAX_SCHEDULE_DEVICES:
        raise ValueError(f"devices={args.devices} is more than MAX_SCHEDULE_DEVICES={MAX_SCHEDULE_DEVICES}")
    if args.dump_weights and 26 * args.seq_len**2 > MAX_DUMP_BYTES:
        raise ValueError(
            f"--dump-weights at seq_len={args.seq_len} writes up to {26 * args.seq_len**2} bytes, "
            f"more than MAX_DUMP_BYTES={MAX_DUMP_BYTES}"
        )
    lengths = _parse_segments(args.segments, args.seq_len) if args.segments is not None else None
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    # One segment draws no cut points, so Q/K/V come from the same stream
    # with or without --segments; replace() re-runs the problem's checks.
    problem = ringsim.random_problem(args.seq_len, args.head_dim, rng, num_segments=1)
    if lengths:
        problem = dataclasses.replace(problem, segment_ids=np.repeat(np.arange(len(lengths)), lengths))
    out, trace = ringsim.ring_attention(problem, mesh)
    reference = ringsim.exact_attention(problem)
    if args.dump_weights:
        with open(args.dump_weights, "w", encoding="utf-8") as fh:
            np.savetxt(fh, ringsim.attention_weights(problem), delimiter=",")
    return {
        "command": "ringsim",
        "seq_len": args.seq_len,
        "head_dim": args.head_dim,
        "devices": args.devices,
        "q_chunk": args.q_chunk,
        "kv_chunk": args.kv_chunk,
        "seed": args.seed,
        "max_abs_error_vs_oracle": float(np.max(np.abs(out - reference))),
        "transfers": trace.transfers,
        "schedule": trace.steps,
    }


def _plan_json(plan: memplan.ChunkPlan) -> dict:
    nbytes = memplan.lookup_table_bytes(plan)
    return {
        "devices": plan.devices,
        "seq_len": plan.seq_len,
        "q_chunk": plan.q_chunk,
        "kv_chunk": plan.kv_chunk,
        "per_device": plan.per_device,
        "num_q_chunks": plan.num_q_chunks,
        "num_kv_chunks": plan.num_kv_chunks,
        "lookup_table_bytes": nbytes,
        "lookup_table_gib": memplan.format_gib(nbytes),
    }


def _cmd_memplan(args) -> dict:
    plan = memplan.ChunkPlan(
        devices=args.devices, seq_len=args.seq_len, q_chunk=args.q_chunk, kv_chunk=args.kv_chunk
    )
    extra = {}
    for term in args.extra_term or []:
        name, _, value = term.partition("=")
        if not value:
            raise ValueError(f"--extra-term must look like name=bytes, got {term!r}")
        if name in extra:
            raise ValueError(f"--extra-term {name!r} is given more than once")
        try:
            extra[name] = int(value)
        except ValueError:
            raise ValueError(f"--extra-term bytes must be an integer, got {term!r}") from None
    report = memplan.memory_report(plan, budget_bytes=args.budget, extra_terms=extra)
    return {
        "command": "memplan",
        **_plan_json(plan),
        "breakdown": report.breakdown,
        "total_bytes": report.total_bytes,
        "budget_bytes": report.budget_bytes,
        "fits": report.fits,
    }


def _cmd_memplan_search(args) -> dict:
    constraints = memplan.SearchConstraints(
        min_q_chunk=args.min_q_chunk,
        min_kv_chunk=args.min_kv_chunk,
        max_q_chunk=args.max_q_chunk,
        max_kv_chunk=args.max_kv_chunk,
        power_of_two=args.power_of_two,
    )
    plan = memplan.search_chunk_plan(args.devices, args.seq_len, args.budget, constraints)
    return {
        "command": "memplan-search",
        "devices": args.devices,
        "seq_len": args.seq_len,
        "budget_bytes": args.budget,
        "plan": None if plan is None else _plan_json(plan),
    }


def _cmd_niah_gen(args) -> dict:
    case = niah.NiahCase(
        haystack_tokens=args.haystack_tokens,
        depth_percent=args.depth,
        needle_payload=args.payload,
        seed=args.seed,
    )
    gen = niah.generate_case(case)
    doc = {
        "command": "niah-gen",
        "haystack_tokens": args.haystack_tokens,
        "depth_percent": args.depth,
        "payload": args.payload,
        "seed": args.seed,
        "needle_sentence_index": gen.needle_sentence_index,
        "needle_char_offset": gen.needle_char_offset,
        "estimated_tokens": gen.estimated_tokens,
        "question": niah.DEFAULT_QUESTION,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(gen.document)
        doc["document_file"] = args.out
    else:
        doc["document"] = gen.text
    return doc


def _cmd_niah_score(args) -> dict:
    if args.answer_file:
        with open(args.answer_file, encoding="utf-8") as fh:
            answer = fh.read()
    else:
        answer = args.answer
    result = niah.score(args.expected, answer)
    return {
        "command": "niah-score",
        "expected": args.expected,
        "verdict": result.verdict.value,
        "matched_prefix_len": result.matched_prefix_len,
    }


_STUBS = {
    "echo": niah.EchoStub,
    "drop-last": niah.DropLastDigitStub,
    "silent": niah.SilentStub,
}


def _cmd_niah_grid(args) -> dict | str:
    if args.stub:
        if args.endpoint is not None or args.api_shape is not None:
            _PARSER.error("niah-grid --stub takes no --endpoint or --api-shape")
        client = _STUBS[args.stub]()
    else:
        endpoint = args.endpoint or os.environ.get("LONGCTX_ENDPOINT")
        if not endpoint:
            _PARSER.error("niah-grid needs --endpoint, --stub, or LONGCTX_ENDPOINT")
        shape = niah.ApiShape.from_file(args.api_shape) if args.api_shape else None
        client = niah.HttpCompletionClient(endpoint, shape=shape)
    result = niah.run_grid(
        _parse_number_list(args.lengths, int),
        _parse_number_list(args.depths, float),
        args.trials,
        client,
        base_seed=args.seed,
        max_tokens=args.max_tokens,
        max_concurrency=args.concurrency,
    )
    if args.detail_log:
        with open(args.detail_log, "w", encoding="utf-8") as fh:
            json.dump(list(result.details), fh, indent=2)
            fh.write("\n")
    if args.format == "csv":
        return niah.grid_csv(result, metric=args.metric)
    return {
        "command": "niah-grid",
        "lengths": list(result.lengths),
        "depths": list(result.depths),
        "trials": result.trials,
        "cells": [
            {
                "haystack_tokens": c.haystack_tokens,
                "depth_percent": c.depth_percent,
                **{f"{kind}_rate": c.rate(kind) for kind in niah.TALLY_KINDS},
                "counts": c.counts,
            }
            for c in result.cells
        ],
    }


def _read_manifest(args) -> recipe.RecipeManifest:
    if args.file is None:
        return recipe.megabeam_recipe()
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    # validate reports broken invariants; show and emit refuse them.
    return recipe.parse_manifest(text) if args.action == "validate" else recipe.load_manifest(text)


def _cmd_recipe(args) -> dict | str | None:
    if args.out is not None and args.action != "emit":
        _PARSER.error(f"recipe {args.action} takes no --out; only emit writes a file")
    manifest = _read_manifest(args)
    if args.action == "validate":
        violations = recipe.validate(manifest)
        return {
            "command": "recipe-validate",
            "ok": not violations,
            "violations": [dataclasses.asdict(v) for v in violations],
        }
    text = recipe.emit_manifest(manifest)
    if args.action == "emit" and args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return None
    return text


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longctx",
        description="Long-context training mechanics at desk scale",
    )
    parser.add_argument(
        "--version", action="version", version=f"longctx {__version__} (schema {SCHEMA_VERSION})"
    )
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp field so output is byte-stable",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("census", help="distinct 16-bit roundings of integer positions")
    p.set_defaults(func=_cmd_census)
    p.add_argument("--limit", type=int, required=True)

    p = sub.add_parser("rope-plan", help="classify theta-base candidates for a context length")
    p.set_defaults(func=_cmd_rope_plan)
    p.add_argument("--context-len", type=int, required=True)
    p.add_argument("--candidates", required=True, help="comma-separated theta bases")
    p.add_argument("--head-dim", type=int, default=128)

    p = sub.add_parser("rope-report", help="per-dimension wavelength CSV")
    p.set_defaults(func=_cmd_rope_report)
    p.add_argument("--theta-base", type=float, required=True)
    p.add_argument("--head-dim", type=int, default=128)
    p.add_argument("--max-position", type=int, required=True)

    p = sub.add_parser("ringsim", help="ring attention vs oracle on a random problem")
    p.set_defaults(func=_cmd_ringsim)
    p.add_argument("--seq-len", type=int, required=True)
    p.add_argument("--devices", type=int, required=True, help=f"ring size, 1 to {MAX_SCHEDULE_DEVICES}")
    p.add_argument("--q-chunk", type=int, required=True)
    p.add_argument("--kv-chunk", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--head-dim", type=int, default=16)
    p.add_argument("--segments", help="comma-separated segment lengths summing to seq-len")
    p.add_argument("--dump-weights", help="write the oracle weight matrix to this CSV file (S <= 3213)")

    p = sub.add_parser("memplan", help="lookup-table memory report for a chunk plan")
    p.set_defaults(func=_cmd_memplan)
    p.add_argument("--devices", type=int, required=True)
    p.add_argument("--seq-len", type=int, required=True)
    p.add_argument("--q-chunk", type=int, required=True)
    p.add_argument("--kv-chunk", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--extra-term", action="append", help="name=bytes, additive report term")

    p = sub.add_parser("memplan-search", help="smallest chunk sizes fitting a byte budget")
    p.set_defaults(func=_cmd_memplan_search)
    p.add_argument("--devices", type=int, required=True)
    p.add_argument("--seq-len", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--min-q-chunk", type=int, default=1)
    p.add_argument("--min-kv-chunk", type=int, default=1)
    p.add_argument("--max-q-chunk", type=int)
    p.add_argument("--max-kv-chunk", type=int)
    p.add_argument("--power-of-two", action="store_true")

    p = sub.add_parser("niah-gen", help="generate one needle-in-a-haystack document")
    p.set_defaults(func=_cmd_niah_gen)
    p.add_argument("--haystack-tokens", type=int, required=True)
    p.add_argument("--depth", type=float, required=True)
    p.add_argument("--payload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the document here instead of inlining it")

    p = sub.add_parser("niah-score", help="score an answer against the expected payload")
    p.set_defaults(func=_cmd_niah_score)
    p.add_argument("--expected", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--answer")
    group.add_argument("--answer-file")

    p = sub.add_parser("niah-grid", help="run a length x depth recall grid")
    p.set_defaults(func=_cmd_niah_grid)
    p.add_argument("--lengths", required=True)
    p.add_argument("--depths", required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--endpoint", help="completion endpoint URL (or LONGCTX_ENDPOINT)")
    p.add_argument("--stub", choices=sorted(_STUBS), help="offline stub client")
    p.add_argument("--api-shape", help="JSON file describing a non-default API shape")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-tokens", type=int, default=64)
    p.add_argument("--concurrency", type=int, default=1, help=f"worker threads, 1 to {niah.MAX_CONCURRENCY}")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    # Every usage error prints the usage line; a metavar keeps the choices out of it.
    p.add_argument(
        "--metric", choices=niah.TALLY_KINDS, default="exact", metavar="METRIC",
        help=f"rate shown in CSV output: {', '.join(niah.TALLY_KINDS)}",
    )
    p.add_argument("--detail-log", help="write per-trial JSON records to this file")

    p = sub.add_parser("recipe", help="show, validate, or emit the training-plan manifest")
    p.set_defaults(func=_cmd_recipe)
    p.add_argument("action", choices=["show", "validate", "emit"])
    p.add_argument("--file", help="manifest file (defaults to the built-in plan)")
    p.add_argument("--out", help="with emit: write the manifest here")

    return parser


_PARSER = build_parser()


def dispatch(argv: list[str]) -> int:
    """Run argv's subcommand handler; returns the process exit code."""
    args = _PARSER.parse_args(argv)
    try:
        sys.stdout.write(_render(args.func(args), args.no_timestamp))
    except (ValueError, OverflowError, OSError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(error, indent=2) + "\n")
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
