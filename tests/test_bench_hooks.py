"""The benchmark's layer wrappers find every detproc attribute they wrap."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_hook_resolves(monkeypatch):
    # a renamed hook turns the benchmark's per-layer metrics into null;
    # here it fails the test suite instead
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    import spans

    from detproc import kernels

    matrix = vars(kernels.AssembledKernel)["matrix"]
    restore, absent = child.instrument(spans.Recorder())
    for undo in restore:
        undo()
    assert absent == []
    assert vars(kernels.AssembledKernel)["matrix"] is matrix
