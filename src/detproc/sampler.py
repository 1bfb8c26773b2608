"""Monte Carlo ground truth: Plancherel-random diagrams via row insertion.

A uniform permutation of {1..n} comes from numpy's `Generator.shuffle` on
a list (the draws of `Generator.permutation`), its insertion shape is computed by Robinson-Schensted row bumping (so
lambda_1 is the longest increasing subsequence length), and the
poissonized measure arises by first drawing the size from Poisson(theta)
with numpy's Poisson sampler.

`empirical_correlations` draws all sizes of a substream in one call and
marks the requested points of every sample in one boolean occupancy
matrix of samples x requested points, by array operations on the RSK row
lengths (no diagram objects are built); every estimate is a reduction of
that matrix.

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

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from math import sqrt

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
    "sample_rows",
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

    def permutation(self, n: int) -> list:
        """Uniform random permutation of (1..n), for n <= 10^6.

        `Generator.shuffle` on a list makes the draws of
        `Generator.permutation(n) + 1` and leaves the stream at the same
        place (pinned in tests/test_sampler.py), without the array.  A
        larger n raises DomainError before the list is built: the cap
        bounds memory (~36 MiB of ints at 10^6), not accuracy.
        """
        if n > _PERMUTATION_MAX:
            raise DomainError(f"permutation needs n <= {_PERMUTATION_MAX}, got {n}")
        word = list(range(1, n + 1))
        self._gen.shuffle(word)
        return word

    def poisson(self, theta: float) -> int:
        """One Poisson(theta) draw, for 0 < theta <= _POISSON_MAX."""
        return int(self._gen.poisson(_checked_theta(theta)))


# the largest permutation: a memory bound, ~36 MiB of ints
_PERMUTATION_MAX = 10 ** 6
# numpy's Generator.poisson raises ValueError above this mean
_POISSON_MAX = np.iinfo(np.int64).max - 10.0 * sqrt(np.iinfo(np.int64).max)


def _checked_theta(theta: float) -> float:
    theta = float(theta)
    if not 0.0 < theta <= _POISSON_MAX:
        raise DomainError(f"poisson needs 0 < theta <= {_POISSON_MAX:.6g}, got {theta}")
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


def _frobenius_occupancy(rows: list, points: np.ndarray) -> np.ndarray:
    """occupied[i, j]: is points[j] in Fr(lambda) of diagram i?

    `rows` holds one list of row lengths per diagram, `points` distinct
    doubled half-integers (odd).  With R rows, the doubled values
    2 (lambda_k - k) - 1, k = 0..R-1, decrease strictly; continued by
    -2k - 1 for k >= R, they are the particles of the Maya diagram, and Fr
    is the particles above zero (the arm points 2 lambda_k - 2k - 1) and
    the holes below it (the leg points 2k - 2 lambda'_k + 1).  So a point
    p > 0 is in Fr when it is one of the R values, and p < 0 when it is
    none of them and -p <= 2R - 1.  Every temporary is one entry per row
    or per (diagram, point).
    """
    counts = np.array([len(r) for r in rows], dtype=np.int64)
    lam = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(counts.sum()))
    starts = np.cumsum(counts) - counts
    k = np.arange(lam.size) - np.repeat(starts, counts)
    values = 2 * (lam - k) - 1
    order = np.argsort(points)
    # the even sentinel ends the sorted points and matches no value
    ordered = np.append(points[order], 0)
    pos = np.searchsorted(ordered[:-1], values)
    hit = ordered[pos] == values
    is_value = np.zeros((len(rows), len(points)), dtype=bool)
    is_value[np.repeat(np.arange(len(rows)), counts)[hit], order[pos[hit]]] = True
    inside = -points[None, :] <= 2 * counts[:, None] - 1
    return np.where(points > 0, is_value, inside & ~is_value)


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


def _sample_occupancy(theta: float, points: np.ndarray, n: int,
                      gen: SeededGenerator) -> np.ndarray:
    """n poissonized samples from gen, all sizes drawn first: their
    `_frobenius_occupancy` at points."""
    sizes = gen._gen.poisson(theta, n).tolist()
    return _frobenius_occupancy([_rsk_rows(gen.permutation(size)) for size in sizes],
                                points)


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
    points = np.array(list(column), dtype=np.int64)
    streams = ([gen] if n_substreams == 1
               else [gen.substream(i) for i in range(n_substreams)])
    occupied = np.concatenate([
        _sample_occupancy(theta, points,
                          n_samples // n_substreams + (i < n_samples % n_substreams), stream)
        for i, stream in enumerate(streams)])
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


def sample_rows(theta: float, n_samples: int, gen: SeededGenerator):
    """Rows (sample_index, size, d, doubled Fr points) of n_samples samples;
    theta and n_samples are checked at the call, before any row is drawn."""
    theta = _checked_theta(theta)
    if n_samples < 0:
        raise DomainError(f"need n_samples >= 0, got {n_samples}")
    diagrams = (sample_poissonized(theta, gen) for _ in range(n_samples))
    return ([i, d.size, frobenius(d).d, " ".join(str(p) for p in sorted(fr_config(d)))]
            for i, d in enumerate(diagrams))
