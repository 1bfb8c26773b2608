"""Diagram combinatorics: Frobenius coordinates, hook dimensions, weights."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detproc import partitions as pt
from detproc import sampler
from detproc.errors import DomainError


def test_frobenius_empty():
    coords = pt.frobenius(pt.YoungDiagram())
    assert coords.d == 0
    assert coords.p == () and coords.q == ()


def test_frobenius_331_by_hand():
    # lambda = (3,3,1): conjugate (3,2,2), d = 2, p = (2,1), q = (2,0)
    coords = pt.frobenius(pt.YoungDiagram([3, 3, 1]))
    assert coords.p == (2, 1)
    assert coords.q == (2, 0)


def test_fr_config_matches_the_maya_diagram_occupancy_exhaustive():
    # two routes to Fr(lambda) for every partition of n <= 10: fr_config by
    # the Frobenius coordinates, the sampler's occupancy by the particles
    # 2 (lambda_k - k) - 1 of the Maya diagram; |2x| <= 2n - 1 <= 19
    diagrams = [lam for n in range(11) for lam in pt.enumerate_partitions(n)]
    points = np.arange(-23, 24, 2)
    occupied = sampler._frobenius_occupancy([list(lam.rows) for lam in diagrams], points)
    for lam, marks in zip(diagrams, occupied):
        assert frozenset(points[marks].tolist()) == pt.fr_config(lam)


def test_size_identity():
    for n in range(9):
        for lam in pt.enumerate_partitions(n):
            coords = pt.frobenius(lam)
            assert lam.size == coords.d + sum(coords.p) + sum(coords.q)


def test_fr_config_examples():
    assert pt.fr_config(pt.YoungDiagram()) == frozenset()
    assert pt.fr_config(pt.YoungDiagram([3, 3, 1])) == frozenset({5, 3, -5, -1})
    assert pt.fr_config(pt.YoungDiagram([1])) == frozenset({1, -1})


def test_fr_config_balanced():
    for n in range(11):
        for lam in pt.enumerate_partitions(n):
            cfg = pt.fr_config(lam)
            assert sum(1 for p in cfg if p > 0) == sum(1 for p in cfg if p < 0)
            assert all(p % 2 != 0 for p in cfg)


def test_dim_hook_single_row_and_column():
    for n in range(1, 8):
        assert pt.dim_hook(pt.YoungDiagram([n])) == 1
        assert pt.dim_hook(pt.YoungDiagram([1] * n)) == 1
    # the hook (n-k, 1^k): a tableau is the choice of the k entries of its
    # column from 2..n, in exact integers past |lambda| = 170
    for n, k in ((200, 50), (1000, 300)):
        assert pt.dim_hook(pt.YoungDiagram([n - k] + [1] * k)) == math.comb(n - 1, k)


def test_dim_hook_21():
    assert pt.dim_hook(pt.YoungDiagram([2, 1])) == 2


def _count_syt(rows):
    """Brute-force count of standard Young tableaux by filling cells."""
    cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]
    n = len(cells)
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        grid = {}
        for cell, val in zip(cells, perm):
            grid[cell] = val
        ok = True
        for (i, j), val in grid.items():
            if (i, j + 1) in grid and grid[(i, j + 1)] < val:
                ok = False
                break
            if (i + 1, j) in grid and grid[(i + 1, j)] < val:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_dim_hook_vs_enumeration():
    for rows in ([2, 2], [3, 1], [2, 1, 1], [3, 2], [2, 2, 1]):
        lam = pt.YoungDiagram(rows)
        assert pt.dim_hook(lam) == _count_syt(rows)


def test_conjugate_is_the_column_lengths():
    for n in range(13):
        for lam in pt.enumerate_partitions(n):
            cols = tuple(sum(1 for r in lam.rows if r > j)
                         for j in range(lam.rows[0] if lam.rows else 0))
            assert lam.conjugate().rows == cols
            assert lam.conjugate().conjugate() == lam


def test_plancherel_normalization():
    for n in range(7):
        total = sum(pt.dim_hook(lam) ** 2 for lam in pt.enumerate_partitions(n))
        assert total == math.factorial(n)


def test_plancherel_weight_examples():
    for theta in (0.5, 1.0, 3.0):
        assert pt.plancherel_weight(pt.YoungDiagram(), theta) == pytest.approx(
            math.exp(-theta), rel=1e-14)
    assert pt.plancherel_weight(pt.YoungDiagram([1]), 2.0) == pytest.approx(
        2.0 * math.exp(-2.0), rel=1e-14)


def test_plancherel_weight_sums_to_one():
    theta = 1.0
    total = sum(pt.plancherel_weight(lam, theta)
                for n in range(41) for lam in pt.enumerate_partitions(n))
    assert abs(total - 1.0) < 1e-12


def test_plancherel_weight_domain():
    with pytest.raises(DomainError):
        pt.plancherel_weight(pt.YoungDiagram([1]), 0.0)


def test_enumerate_counts_and_order():
    assert [lam.rows for lam in pt.enumerate_partitions(0)] == [()]
    assert len(pt.enumerate_partitions(4)) == 5
    assert len(pt.enumerate_partitions(10)) == 42
    # reverse-lexicographic order, largest first
    assert [lam.rows for lam in pt.enumerate_partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumerate_limits():
    with pytest.raises(DomainError):
        pt.enumerate_partitions(41)
    with pytest.raises(DomainError):
        pt.enumerate_partitions(-1)


def test_young_diagram_validation():
    with pytest.raises(DomainError):
        pt.YoungDiagram([1, 2])
    with pytest.raises(DomainError):
        pt.YoungDiagram([2, 0])


def test_young_diagram_is_frozen_and_hashes_by_its_rows():
    lam = pt.YoungDiagram([3, 1])
    assert lam == pt.YoungDiagram((3, 1)) and lam.rows == (3, 1)
    assert hash(lam) == hash(pt.YoungDiagram(iter([3, 1])))
    assert len({lam, pt.YoungDiagram((3, 1)), pt.YoungDiagram([1, 1, 1, 1])}) == 2
    assert lam != (3, 1)
    # a diagram hashed into a set keeps its rows
    with pytest.raises(AttributeError):
        lam.rows = (2, 2)
    assert lam.rows == (3, 1)


def test_half_encoding():
    assert pt.half(1) == 0.5
    assert pt.half(-5) == -2.5
    with pytest.raises(DomainError):
        pt.half(2)


@pytest.mark.parametrize("value", [0, -4, 1.0, 0.5, "1"])
def test_half_rejects_what_is_not_an_odd_integer(value):
    # a float or an even value once decoded and failed later as "not in
    # the window"
    with pytest.raises(DomainError):
        pt.half(value)


@pytest.mark.parametrize("p, q", [((1,), ()), ((1, 2), (1, 0)), ((0,), (-1,))],
                         ids=["unequal-lengths", "not-decreasing", "negative"])
def test_frobenius_coords_validation(p, q):
    with pytest.raises(DomainError):
        pt.FrobeniusCoords(p, q)


@pytest.mark.parametrize("k", [50, 100, 149])
def test_plancherel_weight_of_a_hook_past_170_boxes(k):
    # e^-theta theta^n C(n-1, k)^2 / n!^2, in logs: dim_hook stays exact
    # and math.log takes its big integer
    n, theta = 200, 200.0
    log_dim = math.lgamma(n) - math.lgamma(k + 1) - math.lgamma(n - k)
    ref = math.exp(-theta + n * math.log(theta) + 2.0 * (log_dim - math.lgamma(n + 1)))
    weight = pt.plancherel_weight(pt.YoungDiagram([n - k] + [1] * k), theta)
    assert weight == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("theta", [math.inf, math.nan, -1.0])
def test_plancherel_weight_needs_a_finite_positive_theta(theta):
    # theta = inf returned nan
    with pytest.raises(DomainError):
        pt.plancherel_weight(pt.YoungDiagram([1]), theta)


diagrams = st.lists(st.integers(1, 40), max_size=40).map(
    lambda parts: pt.YoungDiagram(sorted(parts, reverse=True)))


@settings(max_examples=200, deadline=None)
@given(diagrams)
def test_conjugation_reflects_fr_and_keeps_dim_and_weight(lam):
    # lambda <-> lambda' reflects Fr(lambda) through 0 and keeps the hook
    # dimension and the Plancherel weight bit for bit; the sampler's
    # occupancy of lambda' at -p is that of lambda at p
    mu = lam.conjugate()
    assert pt.fr_config(mu) == frozenset(-p for p in pt.fr_config(lam))
    assert pt.dim_hook(mu) == pt.dim_hook(lam)
    for theta in (0.5, 7.0, 90.0):
        assert pt.plancherel_weight(mu, theta).hex() == pt.plancherel_weight(lam, theta).hex()
    reach = 2 * lam.size + 5
    points = np.arange(-reach, reach + 1, 2)
    occupied = sampler._frobenius_occupancy([list(lam.rows), list(mu.rows)], points)
    assert np.array_equal(occupied[1], occupied[0][::-1])
