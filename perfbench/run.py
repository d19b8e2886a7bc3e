"""Benchmark entry point for longctx.

    python3 perfbench/run.py --workload ring_sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``. Each run starts the workload in fresh processes (see worker.py)
with BLAS pinned to one thread: one that sets up and runs the timed loop,
and SETUP_RUNS that only set up, half before it and half after.
``setup_s`` is the median time from process start to "ready" over all of
them.

Prints a readable report, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. Exits non-zero without that line if anything is missing or
a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 4
DEADLINE_S = 175  # the whole run, every process included
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def run_child(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start worker.py; return (seconds to its "ready" line, its JSON report)."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )  # fmt: skip
    lines: list[tuple[float, str]] = []

    def read():
        for line in proc.stdout:
            lines.append((time.perf_counter(), line.strip()))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not finish within {DEADLINE_S} s") from None
    finally:
        reader.join()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    ready = [t for t, line in lines if line == "ready"]
    if not ready:
        raise BenchError("worker never became ready")
    report = json.loads(lines[-1][1]) if lines[-1][1] != "ready" else None
    return ready[0] - start, report


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "longctx" / "__init__.py").is_file():
        raise BenchError(f"no longctx sources under {ROOT / 'src'}")
    return json.loads(path.read_text(encoding="utf-8"))


def end_to_end(spec: dict, setup: list[float], report: dict) -> dict:
    plain = report["plain"]
    measured = {
        "setup_s": statistics.median(setup),
        "ops_per_s": plain["ops_per_s"],
        "op_p50_ms": plain["op_p50_ms"],
        "op_p90_ms": plain["op_p90_ms"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def print_report(args, setup: list[float], report: dict, metrics: dict) -> None:
    env, plain = report["env"], report["plain"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']} "
        f"(threads {env['blas_threads']}), nproc {env['nproc']}"
    )
    print(
        f"closed loop, 1 client: {report['cycles']} cycles x {report['cycle_ops']} ops, "
        f"{plain['attempted']} attempted, {plain['passed']} passed, {plain['failed']} failed, "
        f"{plain['busy_s']:.2f} s inside ops"
    )
    print("time share: " + ", ".join(f"{k} {v:.1%}" for k, v in plain["time_share"].items()))
    print("ops/s per cycle: " + ", ".join(f"{r:.4g}" for r in plain["cycle_ops_per_s"]))
    print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup))
    for failure, count in report["failures"].items():
        print(f"failed x{count}: {failure}")
    notes = {
        "setup_s": f"median of {len(setup)} process starts",
        "op_p50_ms": f"n={plain['attempted']}",
        "op_p90_ms": f"n={plain['attempted']}, {plain['beyond_p90']} beyond",
    }
    if "traced" in report:
        print(
            f"traced replay: {report['traced']['ops_per_s']:.4f} ops/s with spans, "
            f"{report['untraced_twin']['ops_per_s']:.4f} for the same ops run back to back without"
        )
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']:9s} {notes.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="longctx benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        child = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        # Half the set-up-only processes run before the timed one and half
        # after, so the set-up samples span the run rather than one moment.
        setup = [run_child(child + ["--setup-only"], deadline)[0] for _ in range(SETUP_RUNS // 2)]
        ready, report = run_child(child + ["--trace", str(args.trace)], deadline)
        setup.append(ready)
        setup += [run_child(child + ["--setup-only"], deadline)[0] for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        records, metrics, listed = report["traced"], report["layers"], spec["per_layer"]
    else:
        records, metrics, listed = report["plain"], end_to_end(spec, setup, report), spec["end_to_end"]
    if [(name, m["unit"]) for name, m in metrics.items()] != [(m["name"], m["unit"]) for m in listed]:
        print("perfbench: measured metrics differ from those BENCHMARK.json lists", file=sys.stderr)
        return 1
    print_report(args, setup, report, metrics)
    correct = all(report[key]["wrong"] == 0 for key in ("plain", "traced", "untraced_twin") if key in report)
    result = {"correct": correct, "attempted": records["attempted"], "failed": records["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
