"""The benchmark's workloads run once here: each op of seed 1 against its own check.

A change that breaks a workload's check then fails the test suite, not only
a benchmark run. ring_long runs one S = 1024 op, the rest of its ops being
the same kernel at larger sizes.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


@pytest.mark.parametrize("name", ["ring_sweep", "toolkit_mix"])
def test_every_op_passes_its_check(workloads, tmp_path, name):
    ops = workloads.WORKLOADS[name](1, tmp_path)
    assert ops
    for op in ops:
        op.check(op.run())


def test_a_long_ring_op_passes_its_check(workloads, tmp_path):
    op = next(op for op in workloads.ring_long(1, tmp_path) if op.kind == "ring:S=1024")
    op.check(op.run())
