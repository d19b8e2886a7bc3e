"""Checks of tools/bench_record.py that need no perfbench run."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).parent.parent / "tools" / "bench_record.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repeated_side_label_is_a_usage_error(tmp_path, capsys):
    # Kept once, the label would silently drop the first checkout. Neither path
    # holds a BENCHMARK.json, so a tool that let the label through could not start a run.
    out = tmp_path / "BENCH.json"
    argv = ["--side", f"a={tmp_path / 'one'}", "--side", f"a={tmp_path / 'two'}", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        load_tool().main(argv)
    assert exc.value.code == 2
    assert "'a' is given more than once" in capsys.readouterr().err
    assert not out.exists()


def entry(side, values):
    q1, median, q3 = load_tool().quartiles(values)
    return {"side": side, "workload": "w", "metric": "m", "median": median, "iqr": q3 - q1, "values": values}


PARENT = list(range(20, 30))  # median 24.5, IQR 4.5: a spread inside the 25% bound


@pytest.mark.parametrize(
    "better, change, verdict",
    [
        ("lower", [v * 1.3 for v in PARENT], "; regressed"),  # 30% worse, past the 25% bound
        ("lower", [v * 1.2 for v in PARENT], ""),  # 20% worse: inside the bound
        ("higher", [v * 0.7 for v in PARENT], "; regressed"),
        ("higher", [v * 1.4 for v in PARENT], "; gain rule met"),  # 10 of 10, 9.8 > IQR 4.5
        ("higher", [v + 4 for v in PARENT], ""),  # 10 of 10, but 4 < IQR 4.5
        ("higher", [5] + [v + 6 for v in PARENT[1:]], "; gain rule met"),  # 9 of 10 is enough
        ("higher", [5, 5] + [v + 6 for v in PARENT[2:]], ""),  # 8 of 10 is not
    ],
)
def test_pairwise_summary_verdicts(better, change, verdict):
    entries = [entry("parent", PARENT), entry("change", change)]
    metric = {"name": "m", "better": better, "bound": 0.25}
    (line,) = load_tool().pairwise_summary(entries, [metric])
    assert line.startswith("w m: parent 24.5 (IQR 4.5), change ")
    assert line.endswith(" seeds" + verdict)


@pytest.mark.parametrize(
    "parent, better, change, verdict",
    [
        (range(10, 20), "higher", range(10, 20), "; unresolved"),  # IQR 4.5 > 0.25 x median 14.5
        (range(10, 20), "lower", [v * 1.3 for v in range(10, 20)], "; regressed; unresolved"),
        (range(10, 20), "higher", [v + 10 for v in range(10, 20)], "; gain rule met"),  # every run beats every run
        (range(10, 20), "lower", [v - 9.5 for v in range(10, 20)], "; gain rule met"),  # lower: 9.5 < every parent run
        (range(10, 20), "higher", [19] + [v + 10 for v in range(11, 20)], "; unresolved; gain rule met"),  # 19 ties
        ([10, 12, 14, 14, 17.5, 18.5, 18.5, 18.5, 22, 24], "higher", range(14, 24), ""),  # IQR 4.5 = 0.25 x 18
    ],
)
def test_pairwise_summary_unresolved(parent, better, change, verdict):
    # A parent spread wider than the bound cannot tell a change from noise, unless every change run wins.
    entries = [entry("parent", list(parent)), entry("change", list(change))]
    metric = {"name": "m", "better": better, "bound": 0.25}
    (line,) = load_tool().pairwise_summary(entries, [metric])
    assert line.endswith(" seeds" + verdict)


def test_one_seed_never_meets_the_gain_rule():
    # A held-out seed has IQR 0 and wins 1 of 1; that is no evidence of a gain.
    entries = [entry("parent", [10.0]), entry("change", [20.0])]
    metric = {"name": "m", "better": "higher", "bound": 0.25}
    (line,) = load_tool().pairwise_summary(entries, [metric])
    assert line.endswith("change better in 1 of 1 seeds")


def test_one_seed_recording_counts_runs():
    # A held-out seed runs once with each side first, so its two values are two runs of one seed.
    entries = [{**entry(side, values), "seeds": [1001, 1001]} for side, values in
               (("parent", [10.0, 12.0]), ("change", [11.0, 11.0]))]
    metric = {"name": "m", "better": "higher", "bound": 0.25}
    (line,) = load_tool().pairwise_summary(entries, [metric])
    assert line.endswith("change better in 1 of 2 runs")


@pytest.mark.parametrize("seeds, order", [
    ([7], [("parent", 7), ("change", 7), ("change", 7), ("parent", 7)]),  # one seed: each side first once
    ([1, 2], [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]),  # the per-seed alternation
])  # fmt: skip
def test_side_order_is_balanced(tmp_path, monkeypatch, seeds, order):
    tool = load_tool()
    calls = []

    def run_perfbench(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, seed))
        return {"metrics": {"ops_per_s": {"value": float(len(calls)), "unit": "1/s"}}}

    monkeypatch.setattr(tool, "run_perfbench", run_perfbench)
    monkeypatch.setattr(tool, "_git", lambda checkout, *argv: "")
    sides = {}
    for label in ("parent", "change"):
        (tmp_path / label).mkdir()
        (tmp_path / label / "BENCHMARK.json").write_text('{"run_seconds": 1, "workloads": [{"name": "w"}]}')
        sides[label] = tmp_path / label
    entries = tool.record(sides, seeds, None, False)
    assert calls == order
    by_side = {e["side"]: e for e in entries}
    assert by_side["parent"]["values"] == [float(i + 1) for i, call in enumerate(calls) if call[0] == "parent"]
    assert by_side["parent"]["seeds"] == by_side["change"]["seeds"] == [seed for label, seed in order if label == "parent"]


@pytest.mark.parametrize(
    "affinity, nproc, expected",
    [
        pytest.param({0, 2}, 6, 2, id="affinity0-2"),
        pytest.param(None, 6, 6, id="None-6"),  # None: the OS keeps no mask
        pytest.param(None, None, 1, id="None-None-1"),  # nor a CPU count: os.cpu_count() returns None
    ],
)
def test_entries_record_usable_cpus(tmp_path, monkeypatch, capsys, affinity, nproc, expected):
    # os.cpu_count() counts CPUs the affinity mask excludes; usable_cpus is the mask's size.
    tool = load_tool()
    monkeypatch.setattr(tool.os, "cpu_count", lambda: nproc)
    if affinity is None:
        monkeypatch.delattr(tool.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(tool.os, "sched_getaffinity", lambda pid: affinity)
    monkeypatch.setattr(tool, "run_perfbench", lambda *args: {"metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}}})
    monkeypatch.setattr(tool, "_git", lambda checkout, *argv: "")
    (tmp_path / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": []}'
    )
    out = tmp_path / "BENCH.json"
    assert tool.main(["--side", f"change={tmp_path}", "--seeds", "1", "--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["entries"]
    assert (entry["nproc"], entry["usable_cpus"]) == (nproc, expected)
    assert f"usable CPUs {expected} (nproc {nproc})" in capsys.readouterr().err
