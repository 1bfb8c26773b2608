"""Monte Carlo ground truth: Plancherel-random diagrams via row insertion.

A uniform permutation of {1..n} comes from numpy's `Generator.permutation`,
its insertion shape is computed by Robinson-Schensted row bumping (so
lambda_1 is the longest increasing subsequence length), and the
poissonized measure arises by first drawing the size from Poisson(theta)
with numpy's Poisson sampler.

`empirical_correlations` draws all sizes of a substream in one call, takes
the doubled Frobenius points straight from the RSK row lengths (no diagram
objects are built), and marks them in one boolean occupancy matrix of
samples x requested points; every estimate is a reduction of that matrix.

Randomness comes from numpy's Philox counter-based generator, keyed by a
`SeedSequence` of the seed and the generator's substream path.
`gen.substream(i)` extends gen's path by i, so substreams are independent
of each other, of their parent, and of the substreams of any other
generator, and every stream is fully deterministic.  A run split over k
substreams counts exactly what k single-substream runs on
`gen.substream(0..k-1)` count together.  `STREAM_VERSION` names this
mapping from (seed, path) to samples.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .errors import DomainError
from .partitions import YoungDiagram, fr_config, frobenius

__all__ = [
    "STREAM_VERSION",
    "SeededGenerator",
    "EmpiricalCorrelation",
    "rsk_shape",
    "sample_plancherel_n",
    "sample_poissonized",
    "empirical_correlation",
    "empirical_correlations",
    "write_samples_csv",
]

# Bumped whenever a seed yields different samples.  1: Philox keyed
# (seed, stream) with flat substreams, a Python Fisher-Yates shuffle and
# Poisson by CDF inversion.  2: SeedSequence path keys with nested
# substreams, Generator.permutation, Generator.poisson, and the sizes of
# an empirical_correlations substream drawn in one call before its words.
STREAM_VERSION = 2


class SeededGenerator:
    """Philox-backed stream with nested, splittable substreams.

    The bit stream is a pure function of (seed, path): identical inputs
    give identical samples on every platform.  `SeededGenerator(seed)` is
    the root stream; `substream(i)` returns the independent stream at
    path + (i,), so `SeededGenerator(seed, i)` is the root's substream i.
    """

    def __init__(self, seed: int, *path: int):
        self.seed = int(seed)
        self.path = tuple(int(i) for i in path)
        if self.seed < 0 or any(i < 0 for i in self.path):
            raise DomainError(f"seed and stream indices must be >= 0, got "
                              f"{(self.seed,) + self.path}")
        self._gen = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(self.seed, spawn_key=self.path)))

    def substream(self, index: int) -> "SeededGenerator":
        return SeededGenerator(self.seed, *self.path, index)

    def random(self) -> float:
        return float(self._gen.random())

    def permutation(self, n: int) -> list:
        """Uniform random permutation of (1..n)."""
        return (self._gen.permutation(n) + 1).tolist()

    def poisson(self, theta: float) -> int:
        """One Poisson(theta) draw, for any finite theta > 0."""
        return int(self._gen.poisson(_checked_theta(theta)))


def _checked_theta(theta: float) -> float:
    theta = float(theta)
    if not (theta > 0.0 and isfinite(theta)):
        raise DomainError(f"poisson needs a finite theta > 0, got {theta}")
    return theta


def _rsk_rows(word) -> list:
    """Row lengths of the RSK insertion tableau of a word of distinct values.

    No validation: callers pass permutations.
    """
    rows: list[list] = []
    for value in word:
        for row in rows:
            pos = bisect_left(row, value)
            if pos == len(row):
                row.append(value)
                break
            row[pos], value = value, row[pos]
        else:
            rows.append([value])
    return [len(row) for row in rows]


def _frobenius_points(rows) -> list:
    """Fr(lambda) as doubled integers, from the row lengths of lambda.

    The arm points are 2 lambda_i - 2i - 1 and the leg points
    2i - 2 lambda'_i + 1 (i = 0..d-1, lambda' the conjugate), where
    lambda'_i counts the rows longer than i.
    """
    d = 0
    while d < len(rows) and rows[d] > d:
        d += 1
    points = [2 * (rows[i] - i) - 1 for i in range(d)]
    longer = len(rows)
    for i in range(d):
        while rows[longer - 1] <= i:
            longer -= 1
        points.append(2 * (i - longer) + 1)
    return points


def rsk_shape(word) -> YoungDiagram:
    """Shape of the Robinson-Schensted insertion tableau of a permutation."""
    word = list(word)
    if sorted(word) != list(range(1, len(word) + 1)):
        raise DomainError(f"not a permutation of 1..{len(word)}: {word}")
    return YoungDiagram(_rsk_rows(word))


def sample_plancherel_n(n: int, gen: SeededGenerator) -> YoungDiagram:
    """One diagram from Plancherel(n) = RSK push-forward of a uniform permutation."""
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    return YoungDiagram(_rsk_rows(gen.permutation(n)))


def sample_poissonized(theta: float, gen: SeededGenerator) -> YoungDiagram:
    """One diagram from the poissonized Plancherel measure."""
    return sample_plancherel_n(gen.poisson(theta), gen)


@dataclass(frozen=True)
class EmpiricalCorrelation:
    points: tuple          # doubled half-integers (2x)
    estimate: float
    stderr: float
    n_samples: int


def _mark_samples(occupied: np.ndarray, theta: float, column: dict,
                  gen: SeededGenerator) -> None:
    """Draw one poissonized sample per row of `occupied` from gen; set
    occupied[i, column[p]] for every point p of sample i that has a column."""
    for i, size in enumerate(gen._gen.poisson(theta, len(occupied)).tolist()):
        for p in _frobenius_points(_rsk_rows(gen.permutation(size))):
            j = column.get(p)
            if j is not None:
                occupied[i, j] = True


def empirical_correlations(theta: float, point_sets, n_samples: int,
                           gen: SeededGenerator, n_substreams: int = 1) -> list:
    """Containment frequencies for several point sets in one sample pass.

    With one substream the samples are drawn from `gen` itself; with k > 1
    they are split as evenly as possible over `gen.substream(0..k-1)`, so
    the counts equal the sum of the single-substream runs on those
    substreams at the same sizes.
    """
    point_sets = [tuple(int(p) for p in pts) for pts in point_sets]
    for pts in point_sets:
        if len(set(pts)) != len(pts):
            raise DomainError(f"duplicate points in {pts}")
        if any(p % 2 == 0 for p in pts):
            raise DomainError(f"points must be doubled half-integers, got {pts}")
    if n_substreams < 1:
        raise DomainError("need at least one substream")
    if n_samples < 1:
        raise DomainError(f"need at least one sample, got {n_samples}")
    theta = _checked_theta(theta)
    column: dict = {}
    for pts in point_sets:
        for p in pts:
            column.setdefault(p, len(column))
    occupied = np.zeros((n_samples, len(column)), dtype=bool)
    streams = ([gen] if n_substreams == 1
               else [gen.substream(i) for i in range(n_substreams)])
    lo = 0
    for i, stream in enumerate(streams):
        hi = lo + n_samples // n_substreams + (i < n_samples % n_substreams)
        _mark_samples(occupied[lo:hi], theta, column, stream)
        lo = hi
    out = []
    for pts in point_sets:
        hits = int(occupied[:, [column[p] for p in pts]].all(axis=1).sum())
        p_hat = hits / n_samples
        out.append(EmpiricalCorrelation(
            pts, p_hat, sqrt(p_hat * (1.0 - p_hat) / n_samples), n_samples))
    return out


def empirical_correlation(theta: float, points, n_samples: int,
                          gen: SeededGenerator,
                          n_substreams: int = 1) -> EmpiricalCorrelation:
    """Frequency of configurations containing all the given points."""
    return empirical_correlations(theta, [points], n_samples, gen, n_substreams)[0]


def write_samples_csv(path, theta: float, n_samples: int,
                      gen: SeededGenerator) -> None:
    """Dump samples: one row (sample_index, size, d, doubled Fr points)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "size", "d", "fr_points_doubled"])
        for i in range(n_samples):
            diagram = sample_poissonized(theta, gen)
            coords = frobenius(diagram)
            pts = sorted(fr_config(diagram))
            writer.writerow([i, diagram.size, coords.d,
                             " ".join(str(p) for p in pts)])
