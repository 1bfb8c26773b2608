"""In-memory spans for the traced run, and the wrappers that record them.

A span is (name, start, end, parent).  The recorder keeps spans in flat
lists while the run goes on; the child writes them out once the run ends.
Self time is a span's duration minus the time its direct children cover
(spans nest strictly, because the benchmark is single-threaded).

Wrappers are installed at the attribute a caller looks the function up by:
`detproc.kernels.bessel_j` catches the kernels' calls to Bessel J,
`detproc.sampler.SeededGenerator.permutation` every permutation drawn.  A
wrapper passes arguments and result through untouched, so traced and
untraced runs compute bit-identical numbers.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()


def self_times(names, starts, ends, parents) -> dict:
    """{name: [calls, self seconds]} from a list of strictly nested spans."""
    covered = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    out: dict = {}
    for i, name in enumerate(names):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (ends[i] - starts[i]) - covered[i]
    return out


def resolve(path: str):
    """(owner, attribute) for a dotted path such as 'detproc.kernels.bessel_j'.

    Raises AttributeError or ImportError when any part no longer exists.
    """
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            if parts[-1] not in vars(owner):
                raise AttributeError(f"{path} is not defined on {owner.__name__}")
        else:
            getattr(owner, parts[-1])
        return owner, parts[-1]
    raise ImportError(f"no module in {path}")


def wrap_span(recorder: Recorder, owner, attr: str, name):
    """Replace owner.attr by a pass-through recording one span per call.

    `name` is the span name, or a function of the call's (args, kwargs)
    returning it.  Returns a function that restores the original.
    """
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    name_of = name if callable(name) else (lambda args, kwargs: name)
    open_, close = recorder.open, recorder.close

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = open_(name_of(args, kwargs))
        try:
            return original(*args, **kwargs)
        finally:
            close(index)

    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, original)


def wrap_count(recorder: Recorder, owner, attr: str, name: str):
    """Replace owner.attr by a pass-through that only counts calls."""
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    counts = recorder.counts

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, original)
