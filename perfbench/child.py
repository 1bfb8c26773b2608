"""One run of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/child.py --workload NAME --seed N --seconds S
                               [--trace] [--setup-only]

Prints "ready" once detproc is imported and the workload's fixed inputs are
built, then runs a closed loop with one client: the next task starts when
the previous one has finished.  The loop stops at the first whole cycle of
task classes after S seconds and at least MIN_TASKS tasks.  Before every
task, and after the last, the loop times a fixed slice of reference work
(`speed.probe`), so the parent can express latencies at a fixed host
speed.  The last line of standard output is one JSON object with every
task's latency and checks, and the probes.

With --trace the layer wrappers of `spans` are installed for the loop (and
removed before the end-of-run checks); the child then also reports self time
per layer and writes its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
import weakref
from pathlib import Path

import numpy as np

import spans
import speed
import workloads

MIN_TASKS = 100
OUT_DIR = Path(__file__).resolve().parent / "out"

# Bessel J branches as detproc.special picks them by the argument u:
# the double series up to u = 10, its 40-digit Decimal tail up to u = 20,
# the Hankel expansion or Miller recurrence beyond
BESSEL_SERIES_MAX_U = 10.0
BESSEL_DECIMAL_MAX_U = 20.0


def _bessel_branch(args, kwargs) -> str:
    u = float(args[1])
    if u <= BESSEL_SERIES_MAX_U:
        return "special.bessel_j.series"
    if u <= BESSEL_DECIMAL_MAX_U:
        return "special.bessel_j.decimal_tail"
    return "special.bessel_j.asymptotic"


def _nystrom_columns(recorder: spans.Recorder):
    """Span namer for NystromResolvent.k_at that counts calls with a new y."""
    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def name(args, kwargs) -> str:
        resolvent, y = args[0], float(args[2])
        ys = seen.setdefault(resolvent, set())
        if y not in ys:
            ys.add(y)
            recorder.counts["oracle.nystrom_k_at.new_columns"] += 1
        return "oracle.nystrom_k_at"

    return name


def instrument(recorder: spans.Recorder):
    """Install every wrapper; returns (restore functions, absent metric prefixes).

    Each entry is (attribute path, metric prefix, span name or namer).
    """
    plan = [
        ("detproc.kernels.bessel_j", "special.bessel_j", _bessel_branch),
        ("detproc.kernels.bessel_j_dorder", "special.bessel_j_dorder", None),
        ("detproc.kernels.whittaker_w", "special.whittaker_w", None),
        ("detproc.kernels.whittaker_w_complex", "special.whittaker_w_complex", None),
        ("detproc.drhp.bessel_j_complex_order", "special.bessel_j_complex_order", None),
        ("detproc.kernels.AssembledKernel.matrix", "kernels.matrix", None),
        ("detproc.kernels.IntegrableKernel.matrix", "kernels.matrix", None),
        ("detproc.kernels.AssembledKernel.off_diagonal", "kernels.entry", None),
        ("detproc.kernels.AssembledKernel.diagonal", "kernels.diagonal", None),
        ("detproc.oracle.materialize", "oracle.materialize", None),
        ("detproc.oracle.k_from_l", "oracle.resolvent", None),
        ("detproc.oracle.khat_from_l", "oracle.resolvent", None),
        ("detproc.oracle.fredholm_det", "oracle.fredholm_det", None),
        ("detproc.oracle.NystromResolvent.__init__", "oracle.nystrom_build", None),
        ("detproc.oracle.NystromResolvent.k_at", "oracle.nystrom_k_at",
         _nystrom_columns(recorder)),
        ("detproc.sampler.empirical_correlations", "sampler.empirical_correlations", None),
        ("detproc.sampler.SeededGenerator.poisson", "sampler.poisson", None),
        ("detproc.sampler.SeededGenerator.permutation", "sampler.permutation", None),
        ("detproc.sampler.rsk_shape", "sampler.rsk_shape", None),
        ("detproc.sampler.fr_config", "partitions.fr_config", None),
        ("detproc.drhp.suite_drhp", "drhp.suite_drhp", None),
        ("detproc.drhp.fit_m1", "drhp.fit_m1", None),
        ("detproc.drhp.suite_psi", "drhp.suite_psi", None),
        ("detproc.drhp.suite_two_point", "drhp.suite_two_point", None),
        ("detproc.drhp.suite_contour", "drhp.suite_contour", None),
    ]
    counted = [("detproc.partitions.YoungDiagram.__init__", "partitions.young_diagram")]
    restore, absent = [], []
    entries = [(spans.wrap_span, path, prefix, namer or prefix)
               for path, prefix, namer in plan]
    entries += [(spans.wrap_count, path, prefix, prefix) for path, prefix in counted]
    for wrap, path, prefix, name in entries:
        try:
            owner, attr = spans.resolve(path)
        except (AttributeError, ImportError):
            absent.append(prefix)
            continue
        restore.append(wrap(recorder, owner, attr, name))
    return restore, absent


def run_loop(workload, state, seconds: float, recorder) -> tuple[list, list, float]:
    """Closed loop: probe, task, probe, task, ...; returns (tasks, probes, seconds).

    probes[i] is taken just before task i, and one more after the last task.
    """
    tasks, probes = [], []
    n_classes = len(workload.classes)
    start = time.perf_counter()
    while True:
        index = len(tasks)
        probes.append(speed.probe())
        if (index % n_classes == 0 and index >= MIN_TASKS
                and time.perf_counter() - start >= seconds):
            break
        cls = workload.task_class(state, index)
        span = recorder.open("bench.task") if recorder else None
        t0 = time.perf_counter()
        try:
            checks, extra = workload.task(state, cls, index)
        except Exception:
            # a task that raises fails every check it would have made
            traceback.print_exc()
            checks, extra = [("task-raised", f"task={index}", math.inf, 0.0)] \
                * workload.checks_per_task(cls), {}
        latency = time.perf_counter() - t0
        if recorder:
            recorder.close(span)
        tasks.append({"cls": cls, "latency_s": latency,
                      "checks": [list(c) for c in checks], **extra})
    return tasks, probes, time.perf_counter() - start


def write_spans(recorder: spans.Recorder, path: Path) -> None:
    names = sorted(set(recorder.names))
    ids = {n: i for i, n in enumerate(names)}
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, names=np.array(names),
                        name_id=np.array([ids[n] for n in recorder.names], dtype=np.int32),
                        start=np.array(recorder.starts), end=np.array(recorder.ends),
                        parent=np.array(recorder.parents, dtype=np.int64))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    recorder, restore, absent = None, [], []
    if args.trace:
        recorder = spans.Recorder()
        restore, absent = instrument(recorder)
    tasks, probes, elapsed = run_loop(workload, state, args.seconds, recorder)
    for undo in restore:
        undo()
    result = {"tasks": tasks, "probes_s": probes, "elapsed_s": elapsed,
              "end_checks": [list(c) for c in workload.end_checks(state, tasks)]}
    if recorder:
        result["layers"] = {"spans": spans.self_times(recorder.names, recorder.starts,
                                                      recorder.ends, recorder.parents),
                            "counts": dict(recorder.counts)}
        result["absent"] = absent
        write_spans(recorder, OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
