"""Young diagrams, Frobenius coordinates, and the poissonized Plancherel weight.

A diagram lambda = (lambda_1 >= lambda_2 >= ...) maps to the half-integer
point configuration

    Fr(lambda) = {p_i + 1/2} u {-q_i - 1/2}  in  Z' = Z + 1/2,

where (p|q) are its Frobenius coordinates (arm/leg lengths along the
diagonal, d = number of diagonal boxes).  Half-integers are carried as the
exact integer 2x throughout, so configurations hash and compare exactly.

The poissonized Plancherel measure puts mass

    e^{-theta} theta^{|lambda|} (dim lambda / |lambda|!)^2
      = e^{-theta} theta^{|lambda|} / prod_boxes hook^2

on lambda.  `dim_hook` counts dim lambda by the hook formula in exact
integer arithmetic; the weight takes the second form, one float log per
box, so it costs O(|lambda|) floats and never forms |lambda|!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

from .errors import DomainError

__all__ = [
    "YoungDiagram",
    "FrobeniusCoords",
    "frobenius",
    "fr_config",
    "dim_hook",
    "plancherel_weight",
    "enumerate_partitions",
    "half",
]


def half(doubled: int) -> float:
    """The half-integer encoded by the doubled integer 2x, an odd integer."""
    if not isinstance(doubled, Integral) or doubled % 2 == 0:
        raise DomainError(f"{doubled!r} does not encode a point of Z+1/2")
    return doubled / 2.0


@dataclass(frozen=True, slots=True)
class YoungDiagram:
    """A partition with nonincreasing positive rows, kept as a tuple of ints;
    () is the empty diagram."""

    rows: tuple = ()

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        if any(r <= 0 for r in rows):
            raise DomainError(f"rows must be positive, got {rows}")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise DomainError(f"rows must be nonincreasing, got {rows}")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return sum(self.rows)

    def conjugate(self) -> "YoungDiagram":
        return YoungDiagram(_conjugate_rows(self.rows))


@dataclass(frozen=True)
class FrobeniusCoords:
    """Arm lengths p, leg lengths q (both strictly decreasing), d = len."""

    p: tuple
    q: tuple

    def __post_init__(self):
        if len(self.p) != len(self.q):
            raise DomainError("p and q must have equal length")
        for seq in (self.p, self.q):
            if any(seq[i] <= seq[i + 1] for i in range(len(seq) - 1)):
                raise DomainError(f"{seq} is not strictly decreasing")
            if any(v < 0 for v in seq):
                raise DomainError(f"{seq} has negative entries")

    @property
    def d(self) -> int:
        return len(self.p)


def _conjugate_rows(rows: tuple) -> list:
    """Column lengths of a valid row tuple: cols[j] = #{i : rows[i] > j}."""
    cols = []
    i = len(rows)
    for j in range(rows[0] if rows else 0):
        while rows[i - 1] <= j:
            i -= 1
        cols.append(i)
    return cols


def frobenius(diagram: YoungDiagram) -> FrobeniusCoords:
    """Frobenius coordinates p_i = lambda_i - i, q_i = lambda'_i - i (i <= d)."""
    rows = diagram.rows
    cols = _conjugate_rows(rows)
    d = sum(1 for i, r in enumerate(rows) if r >= i + 1)
    p = tuple(rows[i] - (i + 1) for i in range(d))
    q = tuple(cols[i] - (i + 1) for i in range(d))
    return FrobeniusCoords(p, q)


def fr_config(diagram: YoungDiagram) -> frozenset:
    """Point configuration Fr(lambda) in Z', as doubled integers 2x."""
    coords = frobenius(diagram)
    pts = [2 * pi_ + 1 for pi_ in coords.p] + [-2 * qi - 1 for qi in coords.q]
    return frozenset(pts)


def _hooks(rows: tuple) -> list:
    """Hook length of every box (i, j): arm r - j - 1, leg cols[j] - i - 1, plus the box."""
    cols = _conjugate_rows(rows)
    return [r + cols[j] - i - j - 1 for i, r in enumerate(rows) for j in range(r)]


def dim_hook(diagram: YoungDiagram) -> int:
    """Number of standard Young tableaux of this shape (hook formula, exact)."""
    dim, rem = divmod(math.factorial(diagram.size), math.prod(_hooks(diagram.rows)))
    assert rem == 0
    return dim


def plancherel_weight(diagram: YoungDiagram, theta: float) -> float:
    """Probability of lambda under the poissonized Plancherel measure,
    e^-theta theta^n / prod hook^2.

    The log hook lengths are summed by `math.fsum`, which rounds their sum
    exactly, so lambda and its conjugate (the same multiset of hooks) get
    the same weight bit for bit, at O(n) float operations.
    """
    if not 0.0 < theta < math.inf:
        raise DomainError(f"plancherel_weight needs a finite theta > 0, got {theta}")
    log_hooks = math.fsum(map(math.log, _hooks(diagram.rows)))
    return math.exp(-theta + diagram.size * math.log(theta) - 2.0 * log_hooks)


def enumerate_partitions(n: int) -> list:
    """All partitions of n in reverse-lexicographic order, n <= 40."""
    if n < 0 or n != int(n):
        raise DomainError(f"enumerate_partitions needs a nonnegative integer, got {n}")
    if n > 40:
        raise DomainError(f"enumerate_partitions limited to n <= 40, got {n}")
    out = []

    def build(remaining, cap, prefix):
        if remaining == 0:
            out.append(YoungDiagram(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            build(remaining - part, part, prefix + [part])

    build(int(n), int(n), [])
    return out
