"""One workload in one fresh process: set up, say "ready", run, report JSON.

Started by run.py, which pins BLAS to one thread in this process's
environment and times process start to the "ready" line as set-up.
The timed loop is closed (one client; the next op starts when the previous
one returns) and runs whole cycles of the workload until at least
``--seconds`` have passed and MIN_SAMPLES ops have finished. With
``--trace 1`` the same cycles are then replayed with spans on (see
replay_traced).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE.parent / "src"))

MIN_SAMPLES = 100  # so that at least 10 latencies lie beyond the 90th percentile
MAX_LOOP_FACTOR = 2  # stop at a cycle boundary after this many times --seconds regardless


def run_op(op, tracer=None, op_id: int | None = None) -> dict:
    """Run one op, time it, check its output; spans are recorded when op_id is set."""
    from workloads import CheckFailed, CliResult

    record = {"kind": op.kind, "outcome": "ok"}
    if tracer is not None:
        tracer.op_id = op_id
    t0 = time.perf_counter()
    try:
        result = op.run() if tracer is None else tracer.span(f"op.{op.kind}", op.run)
    except Exception:  # noqa: BLE001 - an escaping error is a failed op, never a crash
        record["latency"] = time.perf_counter() - t0
        record["outcome"] = "uncaught"
        record["error"] = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        return record
    finally:
        if tracer is not None:
            tracer.op_id = None
    record["latency"] = time.perf_counter() - t0
    if isinstance(result, CliResult):
        record["exit"] = result.code
        record["stdout_bytes"] = len(result.stdout.encode())
    try:
        record.update(op.check(result) or {})
    except CheckFailed as exc:
        record["outcome"] = "wrong"
        record["error"] = str(exc)
    except Exception as exc:  # noqa: BLE001 - output too malformed to inspect
        record["outcome"] = "wrong"
        record["error"] = f"unreadable output: {exc!r}"
    return record


def run_cycles(ops, seconds: float) -> tuple[list[dict], int]:
    """The timed loop: whole cycles of ops, one record per op."""
    records = []
    start = time.perf_counter()
    cycles = 0
    while True:
        for op in ops:
            records.append(run_op(op))
        cycles += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(records) >= MIN_SAMPLES) or elapsed >= MAX_LOOP_FACTOR * seconds:
            return records, cycles


def replay_traced(ops, cycles: int, tracer) -> tuple[list[dict], list[dict]]:
    """Replay the timed loop's cycles with spans on.

    Each op also runs once with spans off, just before or just after its
    traced run, so the tracing overhead is measured against the same op at
    the same moment rather than against an earlier loop on a host whose
    speed drifts. The order flips from op to op and from cycle to cycle.
    """
    traced, untraced = [], []
    for n in range(cycles * len(ops)):
        op = ops[n % len(ops)]
        plain_first = (n + n // len(ops)) % 2 == 1
        if plain_first:
            untraced.append(run_op(op))
        traced.append(run_op(op, tracer, len(traced)))
        if not plain_first:
            untraced.append(run_op(op))
    return traced, untraced


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(records: list[dict], cycles: int) -> dict:
    latencies = [r["latency"] for r in records]
    per_cycle = len(records) // cycles
    passed = sum(r["outcome"] == "ok" for r in records)
    busy = sum(latencies)
    p90 = percentile(latencies, 90)
    share: dict[str, float] = {}
    for r in records:
        share[r["kind"]] = share.get(r["kind"], 0.0) + r["latency"] / busy
    return {
        "attempted": len(records),
        "passed": passed,
        "failed": len(records) - passed,
        "wrong": sum(r["outcome"] == "wrong" for r in records),
        "busy_s": busy,
        "ops_per_s": passed / busy,
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "beyond_p90": sum(x > p90 for x in latencies),
        "time_share": dict(sorted(share.items(), key=lambda kv: -kv[1])),
        "cycle_ops_per_s": [
            sum(r["outcome"] == "ok" for r in cycle) / sum(r["latency"] for r in cycle)
            for cycle in (records[i : i + per_cycle] for i in range(0, len(records), per_cycle))
        ],
    }


def failures(records: list[dict]) -> dict[str, int]:
    seen: dict[str, int] = {}
    for r in records:
        if r["outcome"] != "ok":
            key = f"{r['outcome']} {r['kind']}: {r['error']}"
            seen[key] = seen.get(key, 0) + 1
    return seen


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import workloads

        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        records, cycles = run_cycles(ops, args.seconds)
        report = {
            "cycle_ops": len(ops),
            "cycles": cycles,
            "plain": summarize(records, cycles),
            "failures": failures(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "env": environment(),
        }
        if args.trace:
            import layers
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            traced, untraced = replay_traced(ops, cycles, tracer)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            report["traced"] = summarize(traced, cycles)
            report["untraced_twin"] = summarize(untraced, cycles)
            report["layers"] = layers.layer_metrics(ops, tracer, traced, report)
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
