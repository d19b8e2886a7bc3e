"""Record perfbench metrics for one or more checkouts in a BENCH file.

    python3 tools/bench_record.py --side parent=../parent --side change=. \
        --out BENCH_6.json
    python3 tools/bench_record.py --side parent=../parent --side change=. \
        --workload ring_sweep --trace --seeds 1 2 3 --out BENCH_trace.json

Each ``--side LABEL=PATH`` names a source checkout under its own label (a
repeated label is a usage error); its ``perfbench/run.py`` runs there with
``--trace 0``, once per workload listed in its ``BENCHMARK.json`` (or only
those named by ``--workload``) and per seed, for the ``run_seconds`` that
file sets; all sides must set the same. ``--trace`` adds a ``--trace 1``
run after each of those and records its per-layer metrics too. For each
(workload, seed) the sides take turns going first, so a slow stretch of the
host does not land on one side only. Given a single seed, each workload
runs it once with each side first, and every run is recorded. Any side
whose run fails or reports wrong outputs stops the recording with exit 1
and writes nothing.

The output holds one entry per (side, workload, metric): workload, metric,
unit, median, IQR (third minus first quartile, inclusive method), run
count, the seed and the value of each run, the checkout's git SHA (and
whether its tracked files differ from it), ``nproc`` (``os.cpu_count()``,
every CPU of the host), ``usable_cpus`` (those its affinity mask lets the
runs use) and the run length. The output file is written fresh from the
sides of one call.

Stderr then gets the usable CPU count and, with two or more sides, one line
per workload, end-to-end metric and later side: the first side's median and IQR, the
later side's median, their ratio, and in how many seeds (runs, for a
single seed) the later side did better, in the direction ``BENCHMARK.json`` calls better (a tie is not a
win). The line ends in ``regressed`` when the later median is worse than
the first by more than the metric's ``bound`` (a fraction of the first
median), in ``unresolved`` when the first side's IQR is wider than that
bound, so its runs spread too far to tell, unless every later run beats
every first run, and in ``gain rule met`` when, over at least ten seeds,
the later side did better in at least 9 of 10 and its median is better by
more than the first side's IQR.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def _git(checkout: Path, *argv: str) -> str:
    return subprocess.run(
        ["git", *argv], cwd=checkout, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run; returns its final JSON line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout}: {workload} seed {seed}: {result['failed']} failed ops")
    return result


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else ``os.cpu_count()`` where the OS keeps none, else 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def record(sides: dict[str, Path], seeds: list[int], only: list[str] | None, trace: bool) -> list[dict]:
    benchmarks = {label: json.loads((path / "BENCHMARK.json").read_text()) for label, path in sides.items()}
    lengths = {b["run_seconds"] for b in benchmarks.values()}
    if len(lengths) != 1:
        raise RuntimeError(f"sides set different run_seconds: {sorted(lengths)}")
    (seconds,) = lengths
    workloads = {label: [w["name"] for w in b["workloads"]] for label, b in benchmarks.items()}
    unknown = set(only or ()) - {w for names in workloads.values() for w in names}
    if unknown:
        raise RuntimeError(f"no side lists workload {sorted(unknown)}")
    runs: dict[tuple[str, str], list[dict]] = {}
    labels = list(sides)
    # One seed alone would always put the same side first, so it gets one round per side.
    rounds = seeds * len(labels) if len(seeds) == 1 else seeds
    for workload in dict.fromkeys(w for names in workloads.values() for w in names):
        if only and workload not in only:
            continue
        for i, seed in enumerate(rounds):
            shift = i % len(labels)
            for label in labels[shift:] + labels[:shift]:
                if workload not in workloads[label]:
                    continue
                result = run_perfbench(sides[label], workload, seed, seconds, 0)
                if trace:
                    traced = run_perfbench(sides[label], workload, seed, seconds, 1)
                    result["metrics"].update(traced["metrics"])
                runs.setdefault((label, workload), []).append(result)
                print(f"{label} {workload} seed {seed}: "
                      f"{result['metrics']['ops_per_s']['value']:.4g} ops/s", file=sys.stderr)  # fmt: skip

    entries, cpus = [], usable_cpus()
    for (label, workload), results in runs.items():
        path = sides[label]
        sha = _git(path, "rev-parse", "HEAD")
        dirty = bool(_git(path, "status", "--porcelain", "--untracked-files=no"))
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, median, q3 = quartiles(values)
            entries.append({
                "side": label, "workload": workload, "metric": metric,
                "unit": first["unit"], "median": median, "iqr": q3 - q1,
                "runs": len(values), "seeds": rounds, "values": values,
                "git_sha": sha, "dirty": dirty, "nproc": os.cpu_count(), "usable_cpus": cpus, "seconds": seconds,
            })  # fmt: skip
    return entries


def pairwise_summary(entries: list[dict], end_to_end: list[dict]) -> list[str]:
    """Lines comparing each later side with the first, seed by seed, per end-to-end metric."""
    by_key = {(e["side"], e["workload"], e["metric"]): e for e in entries}
    first, *later_sides = dict.fromkeys(e["side"] for e in entries)
    lines = []
    for workload in dict.fromkeys(e["workload"] for e in entries):
        for metric in end_to_end:
            base = by_key.get((first, workload, metric["name"]))
            for later in later_sides:
                other = by_key.get((later, workload, metric["name"]))
                if base is None or other is None:
                    continue
                sign, n = (1 if metric["better"] == "higher" else -1), len(base["values"])
                seeds = base.get("seeds", [])
                unit = "runs" if len(set(seeds)) < len(seeds) else "seeds"  # one seed is run once per side order
                wins = sum(sign * (b - a) > 0 for a, b in zip(base["values"], other["values"]))
                ratio = other["median"] / base["median"] if base["median"] else float("nan")
                gain = sign * (other["median"] - base["median"])
                verdicts = []
                if -gain > metric["bound"] * abs(base["median"]):
                    verdicts.append("regressed")
                wide = base["iqr"] > metric["bound"] * abs(base["median"])
                if wide and not all(sign * (b - a) > 0 for a in base["values"] for b in other["values"]):
                    verdicts.append("unresolved")
                if n >= 10 and 10 * wins >= 9 * n and gain > base["iqr"]:
                    verdicts.append("gain rule met")
                lines.append(
                    f"{workload} {metric['name']}: {first} {base['median']:.4g} "
                    f"(IQR {base['iqr']:.4g}), {later} "
                    f"{other['median']:.4g} (x{ratio:.3f}); {later} better in {wins} of "
                    f"{n} {unit}" + "".join(f"; {v}" for v in verdicts)
                )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True, help="LABEL=CHECKOUT_PATH")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workload", action="append", help="record only this workload (repeatable)")
    parser.add_argument("--trace", action="store_true", help="also record per-layer metrics (--trace 1)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {}
    for spec in args.side:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path:
            parser.error(f"--side must look like LABEL=PATH, got {spec!r}")
        if label in sides:
            parser.error(f"--side label {label!r} is given more than once")
        sides[label] = Path(path).resolve()
    try:
        entries = record(sides, args.seeds, args.workload, args.trace)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    harness = "perfbench/run.py --trace 0" + (", then --trace 1" if args.trace else "")
    doc = {"harness": harness, "entries": entries}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    end_to_end = json.loads((next(iter(sides.values())) / "BENCHMARK.json").read_text())["end_to_end"]
    if entries:
        print(f"usable CPUs {entries[0]['usable_cpus']} (nproc {entries[0]['nproc']})", file=sys.stderr)
    for line in pairwise_summary(entries, end_to_end):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
