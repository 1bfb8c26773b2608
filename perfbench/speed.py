"""Host-speed normalization of measured times.

On a shared host the speed of one core drifts by tens of percent within
seconds, so raw run-to-run wall times spread more than any useful bound.
The benchmark therefore times a fixed slice of reference work next to
every task and reports task times at the reference speed:

    normalized = measured * REFERENCE_S / (reference work time nearby)

The reference work is a fixed mix of interpreter, Decimal and small
numpy work that touches no detproc code, so a change to detproc cannot
move it.  REFERENCE_S is the
reference work's time on an idle 2-core Intel Xeon runner, which keeps
normalized values close to wall-clock values there.  Raw times are kept
in the run record.  Set-up time is not normalized: it is mostly process
start and imports, which do not slow down with the reference work.
"""

from __future__ import annotations

import decimal
import math
import time

import numpy as np

REFERENCE_S = 1.6e-3

_INTEGERS = np.random.Generator(np.random.Philox(key=0))
_ARGS = np.linspace(0.1, 2.0, 32) + 0.5j


def reference_work() -> None:
    """A fixed mix of the work the workloads do, in about 1.5 ms: float
    arithmetic, small allocations, small-array numpy calls, 40-digit
    Decimal arithmetic and scalar draws from a numpy generator."""
    acc = 0.0
    table = {}
    for i in range(3000):
        acc += math.sqrt(i + acc % 7.0)
        table[i & 255] = acc
    rows = [tuple(range(i % 7 + 1)) for i in range(400)]
    rows.sort(key=len)
    frozenset(range(200))
    {k: [k] for k in range(300)}
    for _ in range(40):
        np.sum(np.exp(_ARGS * np.log(_ARGS)) * _ARGS)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        term, x = decimal.Decimal(1.5), decimal.Decimal(3.3)
        for k in range(300):
            term = -term * x / ((k + 1) * (k + 2))
    for i in range(300):
        int(_INTEGERS.integers(0, i + 1))


def probe() -> float:
    """Seconds the reference work takes right now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def factors(probes: list, n_tasks: int) -> list:
    """Per-task factor REFERENCE_S / (mean of the probes just before and
    just after the task); probes[i] precedes task i.

    Probes further away do not help: the host's speed changes within a
    second, and wider windows spread more from run to run.
    """
    return [2.0 * REFERENCE_S / (probes[i] + probes[i + 1]) for i in range(n_tasks)]
