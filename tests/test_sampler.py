"""RSK sampling: exactness, determinism, substream semantics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detproc import kernels, oracle, sampler
from detproc.errors import DomainError
from detproc.partitions import YoungDiagram, fr_config


def test_rsk_shapes():
    assert sampler.rsk_shape([1]) == YoungDiagram([1])
    assert sampler.rsk_shape(list(range(1, 8))) == YoungDiagram([7])
    assert sampler.rsk_shape([2, 1, 4, 3]) == YoungDiagram([2, 2])
    assert sampler.rsk_shape([3, 2, 1]) == YoungDiagram([1, 1, 1])


def lis(word):
    """Longest increasing subsequence length by quadratic dynamic programming."""
    best = [1] * len(word)
    for i in range(len(word)):
        for j in range(i):
            if word[j] < word[i]:
                best[i] = max(best[i], best[j] + 1)
    return max(best, default=0)


def test_rsk_first_row_is_lis():
    gen = sampler.SeededGenerator(2024)
    for _ in range(40):
        word = gen.permutation(30)
        assert sampler.rsk_shape(word).rows[0] == lis(word)


def test_rsk_rejects_malformed():
    with pytest.raises(DomainError):
        sampler.rsk_shape([1, 1, 2])
    with pytest.raises(DomainError):
        sampler.rsk_shape([0, 1])


def test_sample_plancherel_small_n():
    gen = sampler.SeededGenerator(5)
    assert sampler.sample_plancherel_n(0, gen) == YoungDiagram()
    assert sampler.sample_plancherel_n(1, gen) == YoungDiagram([1])


def test_plancherel3_frequencies():
    gen = sampler.SeededGenerator(17)
    n = 30000
    counts = {}
    for _ in range(n):
        rows = sampler.sample_plancherel_n(3, gen).rows
        counts[rows] = counts.get(rows, 0) + 1
    for rows, p in (((3,), 1 / 6), ((2, 1), 2 / 3), ((1, 1, 1), 1 / 6)):
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts[rows] / n - p) < 4 * sigma


def test_poissonized_empty_and_mean():
    theta = 1.0
    gen = sampler.SeededGenerator(3)
    n = 30000
    empties = 0
    total = 0
    for _ in range(n):
        d = sampler.sample_poissonized(theta, gen)
        empties += (d.size == 0)
        total += d.size
    p0 = math.exp(-theta)
    assert abs(empties / n - p0) < 4 * math.sqrt(p0 * (1 - p0) / n)
    assert abs(total / n - theta) < 4 * math.sqrt(theta / n)


def test_poissonized_single_box_probability():
    theta = 1.0
    gen = sampler.SeededGenerator(23)
    n = 30000
    hits = sum(sampler.sample_poissonized(theta, gen) == YoungDiagram([1])
               for _ in range(n))
    p = theta * math.exp(-theta)
    assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_poisson_inversion_large_theta():
    gen = sampler.SeededGenerator(61)
    n = 2000
    theta = 50.0
    mean = sum(gen.poisson(theta) for _ in range(n)) / n
    assert abs(mean - theta) < 4 * math.sqrt(theta / n)


def test_poisson_size_law_beyond_underflow():
    # exp(-theta) underflows beyond theta ~ 745, which a CDF started at
    # exp(-theta) turns into a constant draw; one substream per theta
    gen = sampler.SeededGenerator(61)
    n = 2000
    for i, theta in enumerate((760.0, 1000.0, 1e4)):
        stream = gen.substream(i)
        draws = [stream.poisson(theta) for _ in range(n)]
        mean = sum(draws) / n
        var = sum((k - mean) ** 2 for k in draws) / (n - 1)
        assert abs(mean - theta) < 4 * math.sqrt(theta / n)
        # Var(sample variance) ~ (mu_4 - sigma^4) / n = (theta + 2 theta^2) / n
        assert abs(var - theta) < 4 * math.sqrt((theta + 2 * theta ** 2) / n)


def test_poisson_rejects_bad_theta():
    gen = sampler.SeededGenerator(0)
    # numpy's Generator.poisson takes means up to _POISSON_MAX ~ 9.22e18
    assert gen.poisson(sampler._POISSON_MAX) > 0
    for theta in (0.0, -1.0, math.nan, math.inf, 1e19,
                  math.nextafter(sampler._POISSON_MAX, math.inf)):
        with pytest.raises(DomainError):
            gen.poisson(theta)
        with pytest.raises(DomainError):
            sampler.empirical_correlation(theta, (1,), 10, gen)


def test_determinism():
    a = sampler.SeededGenerator(99)
    b = sampler.SeededGenerator(99)
    seq_a = [sampler.sample_poissonized(2.0, a).rows for _ in range(200)]
    seq_b = [sampler.sample_poissonized(2.0, b).rows for _ in range(200)]
    assert seq_a == seq_b
    ea = sampler.empirical_correlation(2.0, (1, -1), 5000,
                                       sampler.SeededGenerator(4), 3)
    eb = sampler.empirical_correlation(2.0, (1, -1), 5000,
                                       sampler.SeededGenerator(4), 3)
    assert ea == eb


def test_substream_counts_sum_to_split_run():
    sets = [(1,), (1, -1)]
    n, k = 6001, 4
    split = sampler.empirical_correlations(2.0, sets, n, sampler.SeededGenerator(8),
                                           n_substreams=k)
    gen = sampler.SeededGenerator(8)
    sizes = [n // k + (i < n % k) for i in range(k)]
    parts = [sampler.empirical_correlations(2.0, sets, size, gen.substream(i))
             for i, size in enumerate(sizes)]
    for j, est in enumerate(split):
        assert round(est.estimate * n) == sum(
            round(part[j].estimate * size) for part, size in zip(parts, sizes))


def test_substreams_are_nested():
    sets = [(1,), (-1,), (1, -1)]
    gen = sampler.SeededGenerator(5)
    first = sampler.empirical_correlations(4.0, sets, 2000, gen.substream(1))
    second = sampler.empirical_correlations(4.0, sets, 2000, gen.substream(2))
    assert [r.estimate for r in first] != [r.estimate for r in second]
    # the same child index under different parents is a different stream
    words = {tuple(parent.substream(0).permutation(20))
             for parent in (gen, gen.substream(1), gen.substream(2),
                            sampler.SeededGenerator(6))}
    assert len(words) == 4
    assert (sampler.SeededGenerator(5, 1, 0).permutation(20)
            == gen.substream(1).substream(0).permutation(20))


def test_stream_version_pins_the_draws():
    # a change to these draws (numpy's Generator algorithms included) must
    # come with a new STREAM_VERSION
    assert sampler.STREAM_VERSION == 2
    gen = sampler.SeededGenerator(2001)
    assert gen.permutation(6) == [1, 4, 5, 2, 3, 6]
    assert gen.poisson(30.0) == 25
    assert sampler.sample_poissonized(10.0, gen).rows == (3, 2)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 30, 100, 255, 256, 1000, 65536, 300_000])
def test_permutation_is_numpys_permutation_stream(n):
    # the list shuffle makes Generator.permutation(n)'s draws and leaves the
    # stream where it leaves it, so STREAM_VERSION 2 stands
    gen = sampler.SeededGenerator(2001, n)
    ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(2001, spawn_key=(n,))))
    assert gen.permutation(n) == (ref.permutation(n) + 1).tolist()
    assert gen.permutation(50) == (ref.permutation(50) + 1).tolist()


def test_occupancy_counts_match_diagram_route():
    # empirical_correlations draws a substream's sizes in one call, then one
    # word per sample; replaying that order through YoungDiagram and
    # fr_config must give the same counts
    theta, n = 9.0, 3000
    sets = [(1,), (-1,), (1, -1), (3, -3), (), (11,)]
    results = sampler.empirical_correlations(theta, sets, n, sampler.SeededGenerator(40))
    gen = sampler.SeededGenerator(40)
    configs = [fr_config(sampler.sample_plancherel_n(size, gen))
               for size in gen._gen.poisson(theta, n).tolist()]
    for pts, res in zip(sets, results):
        hits = sum(set(pts) <= config for config in configs)
        assert res.points == pts
        assert res.estimate == hits / n
        assert res.stderr == math.sqrt(res.estimate * (1 - res.estimate) / n)


def test_empirical_correlation_validation():
    gen = sampler.SeededGenerator(0)
    with pytest.raises(DomainError):
        sampler.empirical_correlation(1.0, (1, 1), 10, gen)
    with pytest.raises(DomainError):
        sampler.empirical_correlation(1.0, (2,), 10, gen)
    with pytest.raises(DomainError):
        sampler.empirical_correlation(1.0, (1,), 0, gen)
    with pytest.raises(DomainError):
        sampler.empirical_correlation(1.0, (1,), 10, gen, n_substreams=0)
    with pytest.raises(DomainError):
        sampler.SeededGenerator(-1)


def test_conjugation_symmetry():
    theta = 2.0
    n = 40000
    res = sampler.empirical_correlations(theta, [(1,), (-1,)], n,
                                         sampler.SeededGenerator(31), 2)
    diff = abs(res[0].estimate - res[1].estimate)
    band = 4 * math.sqrt(res[0].stderr ** 2 + res[1].stderr ** 2)
    assert diff < band


def test_far_tail_is_empty():
    est = sampler.empirical_correlation(1.0, (41,), 20000,
                                        sampler.SeededGenerator(12))
    assert est.estimate == 0.0


def test_empirical_matches_kernel_smoke():
    theta = 1.0
    n = 40000
    est = sampler.empirical_correlation(theta, (1,), n, sampler.SeededGenerator(77))
    kop = oracle.materialize(kernels.discrete_bessel_k(theta),
                             oracle.lattice_window(20))
    pred = oracle.correlation_from_k(kop, [1])
    assert abs(est.estimate - pred) < 4 * est.stderr


def test_expected_point_count_matches_kernel_trace():
    theta = 4.0
    n = 40000
    gen = sampler.SeededGenerator(55)
    total = 0
    for _ in range(n):
        total += len(fr_config(sampler.sample_poissonized(theta, gen)))
    mean = total / n
    kop = oracle.materialize(kernels.discrete_bessel_k(theta),
                             oracle.lattice_window(30))
    trace = sum(kop.value_at(x, x) for x in kop.window.points)
    # var of |Fr| is bounded by its mean here; 4 sigma with a safe bound
    assert abs(mean - trace) < 4 * math.sqrt(2 * trace / n)


def test_sample_plancherel_n_rejects_a_negative_size():
    with pytest.raises(DomainError):
        sampler.sample_plancherel_n(-1, sampler.SeededGenerator(1))


def test_sample_rows_rejects_a_negative_count_at_the_call():
    # raised by the call itself, not by the first row, so the CLI's writer
    # never opens its file (tests/test_cli.py checks that no file appears)
    with pytest.raises(DomainError):
        sampler.sample_rows(1.5, -5, sampler.SeededGenerator(1))


permutations = st.integers(0, 60).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))))


@settings(max_examples=200, deadline=None)
@given(permutations)
def test_rsk_rows_properties(word):
    rows = sampler._rsk_rows(word)
    assert sum(rows) == len(word)
    assert all(r > 0 for r in rows)
    assert all(a >= b for a, b in zip(rows, rows[1:]))
    assert (rows[0] if rows else 0) == lis(word)
    # Schensted: reversing the word transposes the shape
    assert sampler._rsk_rows(word[::-1]) == list(YoungDiagram(rows).conjugate().rows)
    assert sampler.rsk_shape(word) == YoungDiagram(rows)


@settings(max_examples=200, deadline=None)
@given(st.lists(permutations, max_size=5))
def test_frobenius_occupancy_from_rows(words):
    # every odd point out to beyond the largest diagram, in no sorted order
    rows = [sampler._rsk_rows(word) for word in words]
    reach = 2 * max((len(w) for w in words), default=0) + 5
    points = np.random.default_rng(len(words)).permutation(np.arange(-reach, reach + 1, 2))
    occupied = sampler._frobenius_occupancy(rows, points)
    assert occupied.shape == (len(words), len(points))
    for row, marks in zip(rows, occupied):
        assert set(points[marks].tolist()) == fr_config(YoungDiagram(row))
    assert sampler._frobenius_occupancy(rows, points[:0]).shape == (len(words), 0)


def test_permutation_past_its_cap_raises_before_the_list_is_built():
    # a memory bound (~36 MiB of ints at the cap); sample --theta 1e9 would
    # have built a list of ~10^9 ints.  Only the cap + 1 is exercised.
    gen = sampler.SeededGenerator(3)
    with pytest.raises(DomainError, match="permutation needs"):
        gen.permutation(sampler._PERMUTATION_MAX + 1)
    # the guard draws nothing: the stream is where it was
    assert gen.permutation(5) == sampler.SeededGenerator(3).permutation(5)
