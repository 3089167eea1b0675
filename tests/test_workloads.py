"""The benchmark's rounds still build, run and pass their own checks.

``perfbench/workloads.py`` calls the library by name and checks every
output against its own references; a library change that would make a
benchmark task fail, or be refused as wrong, would otherwise surface
only in a benchmark run.  The rounds are built from a fixed seed and
one task of each kind runs, with its check.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("part", ["topology", "spectrum", "series_sparse", "kernels_dense"])
def test_one_task_of_each_kind_passes_its_check(part, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays as checked out
    import workloads

    workload = getattr(workloads, part)(7, None)
    workload.warmup()
    first = {}
    for task in workload.tasks:
        first.setdefault(task.kind, task)
    assert len(first) >= 5
    for task in first.values():
        task.check(task.run())
