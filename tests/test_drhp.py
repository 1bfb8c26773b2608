"""Riemann-Hilbert certification: residues, jumps, ODEs, toy models."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detproc import drhp, kernels, special
from detproc.errors import ConvergenceError, DomainError, ParameterError, PoleError


def _assert_all_pass(rows):
    failed = [(r.check_id, r.point, r.residual, r.tolerance)
              for r in rows if not r.passed]
    assert not failed, f"failed checks: {failed}"


def _suite_rows(theta, prefix):
    """The rows of `suite_drhp(theta)` whose id starts with prefix."""
    return [r for r in drhp.suite_drhp(theta) if r.check_id.startswith(prefix)]


# ---------------------------------------------------------------- 0F1 series

def _hyp0f1_reference(c: complex, w: float) -> complex:
    """The plain scalar term recurrence: accurate only where it does not cancel."""
    s = t = 1.0 + 0j
    for k in range(400):
        t = t * w / ((k + 1) * (c + k))
        s += t
        if abs(t) < 1e-18 * max(abs(s), 1e-300):
            return s
    return s


def _hyp0f1_mpmath(c: complex, w: float) -> complex:
    with mpmath.workdps(40):
        return complex(mpmath.hyp0f1(mpmath.mpc(c.real, c.imag), w))


_PHASE = st.floats(0.0, 2.0 * math.pi)
# the series arguments of m on the |zeta| = 40 circle of fit_m1
_ON_CIRCLE = st.tuples(_PHASE, st.sampled_from([0.5, 1.5])).flatmap(
    lambda pa: st.sampled_from([40.0 * cmath.exp(1j * pa[0]) + pa[1],
                                pa[1] - 40.0 * cmath.exp(1j * pa[0])]))
# the arguments of m on the residue circles around the poles -k
_NEAR_POLE = st.builds(lambda k, phi: -k + 1e-3 * cmath.exp(1j * phi),
                       st.integers(0, 12), _PHASE)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.one_of(_ON_CIRCLE, _NEAR_POLE), min_size=1, max_size=6),
       st.sampled_from([-1.0, -30.0, -100.0, -400.0]))
def test_hyp0f1_matches_mpmath(cs, w):
    # largest relative error seen on these strategies: 3.2e-13, next to
    # the poles at w = -400 (1040 samples against 40-digit mpmath)
    lo, hi = special._hyp0f1(np.array(cs), w)
    for c, f0, f1 in zip(cs, lo, hi):
        for got, arg in ((f0, c), (f1, c + 1.0)):
            want = _hyp0f1_mpmath(arg, w)
            assert abs(got - want) <= 1e-12 * abs(want), (arg, w)


def test_hyp0f1_shapes_and_poles():
    cs = np.array([[0.5 + 1j, 2.0], [-1.5, 3.0 - 2j]])
    lo, hi = special._hyp0f1(cs, -1.0)
    assert lo.shape == hi.shape == (2, 2)
    for c, f0, f1 in zip(cs.ravel().tolist(), lo.ravel(), hi.ravel()):
        want = _hyp0f1_reference(c, -1.0)
        # at w = -1 the plain series does not cancel (4.3e-16 measured)
        assert abs(want - _hyp0f1_mpmath(c, -1.0)) <= 2e-15 * abs(want)
        assert f0 == pytest.approx(want, rel=1e-13)
        assert f1 == pytest.approx(_hyp0f1_reference(c + 1.0, -1.0), rel=1e-13)
    assert [f.shape for f in special._hyp0f1(np.array([]), -1.0)] == [(0,), (0,)]
    with pytest.raises(PoleError):
        special._hyp0f1(np.array([1.5, -2.0]), -1.0)


def _pole_circle_and_box_cs(rng, size):
    """c on residue circles of radius 1e-3 around the poles 0..-12, and c
    off the poles in a box, as two arrays of `size` elements."""
    near = -rng.integers(0, 13, size) + 1e-3 * np.exp(1j * rng.uniform(0, 2 * np.pi, size))
    off = rng.uniform(-5, 5, size) + 1j * rng.uniform(-5, 5, size) + 0.37
    return near, off


def test_hyp0f1_array_w_of_one_value_is_the_scalar_call():
    cs = np.concatenate(_pole_circle_and_box_cs(np.random.default_rng(3), 8))
    for w in (-1.0, -30.0, -400.0):
        want = special._hyp0f1(cs, w)
        got = special._hyp0f1(cs, np.full(cs.shape, w))
        assert all(g.tobytes() == v.tobytes() for g, v in zip(got, want))


def test_hyp0f1_array_w_matches_one_call_per_element():
    # one ladder, sized by the largest |w| and the leftmost c, against a
    # ladder per element: the values move within _hyp0f1's own error.
    # Measured on these 2 x 300 draws: 3.5e-13 relative next to the
    # poles, 1.2e-14 off them
    rng = np.random.default_rng(24)
    worst = {}
    for _ in range(300):
        size = int(rng.integers(1, 12))
        w = -rng.uniform(0.5, 400.0, size)
        for kind, cs in zip(("near", "off"), _pole_circle_and_box_cs(rng, size)):
            lo, hi = special._hyp0f1(cs, w)
            for c, wi, f0, f1 in zip(cs, w, lo, hi):
                one = special._hyp0f1(c, wi)
                err = max(abs(got - want) / abs(want) for got, want in zip((f0, f1), one))
                worst[kind] = max(worst.get(kind, 0.0), err)
    assert worst["near"] <= 4e-12 and worst["off"] <= 1e-13, worst


def _ladder(c, w) -> tuple:
    """(steps, series terms) of the `_hyp0f1` ladder on these arguments."""
    a = -float(np.min(w))
    k, bound = 0, 1.0
    while bound > 1e-17:
        k += 1
        bound *= a / (k * (a + 19.0 + k))
    return max(0, math.ceil(a + 20.0 - float(np.min(np.real(c))))), k


# c in a box reaching left of -9, at least 1e-2 from the poles 0, -1, -2, ...
_OFF_POLES = st.builds(complex, st.floats(-12.0, 12.0), st.floats(-3.0, 3.0)).filter(
    lambda c: c.real > 0.5 or abs(c - round(c.real)) >= 1e-2)
# a group's w: one value for the group, or one per c
_GROUP = st.tuples(st.lists(st.tuples(_OFF_POLES, st.floats(-400.0, 0.0)), min_size=1,
                            max_size=6), st.booleans()).map(
    lambda g: (np.array([c for c, _ in g[0]]),
               g[0][0][1] if g[1] else np.array([w for _, w in g[0]])))


@settings(max_examples=60, deadline=None)
@given(st.lists(_GROUP, min_size=1, max_size=4))
def test_hyp0f1_on_joined_groups_is_one_call_per_group(groups):
    # what suite_drhp relies on: a group's values from the joined ladder are
    # its own call's values, bit for bit where the joined ladder has the
    # group's length and term count, and otherwise within 1e-13 of the
    # larger of |0F1(c)| and |0F1(c + 1)| (one value's relative error is
    # unbounded next to a zero of 0F1 in c).  Measured: 1.1e-14 over 3000
    # examples of these strategies, 2.8e-14 on 48 000 seeded draws with
    # c down to 1e-2 from the poles
    joined = special._hyp0f1_ladders((groups, 1))[0]
    whole = _ladder(np.concatenate([c for c, _ in groups]), min(np.min(w) for _, w in groups))
    for (c, w), (f0, f1) in zip(groups, joined):
        g0, g1 = special._hyp0f1(c, w)
        if _ladder(c, w) == whole:
            assert f0.tobytes() == g0.tobytes() and f1.tobytes() == g1.tobytes()
        else:
            scale = np.maximum(np.abs(g0), np.abs(g1))
            assert np.all(np.maximum(np.abs(f0 - g0), np.abs(f1 - g1)) <= 1e-13 * scale)


# one group: c off the poles and one w, or a w per c
_LADDER_GROUP = st.tuples(st.lists(st.tuples(_OFF_POLES, st.floats(-400.0, 0.0)), min_size=0,
                                   max_size=6), st.booleans()).map(
    lambda g: (np.array([c for c, _ in g[0]], dtype=complex),
               (g[0][0][1] if g[0] else -1.0) if g[1] else np.array([w for _, w in g[0]])))
# one ladder: its groups and a top
_LADDER = st.tuples(st.lists(_LADDER_GROUP, min_size=1, max_size=3), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(st.lists(_LADDER, min_size=1, max_size=4))
def test_hyp0f1_ladders_in_one_descent_are_their_own_calls(ladders):
    # each ladder keeps its own start and term count and enters the shared
    # loop at its start, so its values are its own call's bit for bit
    got = special._hyp0f1_ladders(*ladders)
    assert len(got) == len(ladders)
    for (groups, top), values in zip(ladders, got):
        want = special._hyp0f1_ladders((groups, top))[0]
        assert len(values) == len(want) == len(groups)
        for (c, _), value, alone in zip(groups, values, want):
            assert value.shape == alone.shape == (top + 1,) + c.shape
            assert value.tobytes() == alone.tobytes()


# c off the real axis, where conj c is another element, as on fit_m1's
# circle (|Im c| >= 0.98 there); at |Im c| ~ 1e-323 an imaginary part rounds
# to a zero, whose sign conj flips
_OFF_AXIS = st.builds(lambda x, y, s: complex(x, s * y), st.floats(-12.0, 12.0),
                      st.floats(1e-3, 40.0), st.sampled_from([-1.0, 1.0]))


@settings(max_examples=60, deadline=None)
@given(st.lists(_OFF_AXIS, min_size=1, max_size=8), st.floats(-400.0, -1e-3),
       st.integers(1, 3))
def test_hyp0f1_at_conjugate_c_is_the_conjugate_bit_for_bit(cs, w, top):
    # for real w every step of the ladder is conjugation-symmetric, which
    # lets fit_m1's circle take 0F1 at its upper half's c only.  (At w = 0
    # every value is 1 + 0j, and conj flips the sign of that zero)
    c = np.array(cs)
    assert special._hyp0f1(c.conj(), w, top).tobytes() == \
        special._hyp0f1(c, w, top).conj().tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_OFF_POLES, st.floats(-400.0, 0.0)), min_size=2, max_size=10),
       st.data())
def test_hyp0f1_subset_with_the_same_ladder_keeps_its_values(elements, data):
    # an element's values depend on the others only through the leftmost
    # Re c and the largest |w|, which fix the start and the term count: a
    # subset that keeps both gets its values bit for bit
    c = np.array([e[0] for e in elements])
    w = np.array([e[1] for e in elements])
    keep = {int(np.argmin(c.real)), int(np.argmax(np.abs(w)))}
    keep |= set(data.draw(st.sets(st.integers(0, len(elements) - 1))))
    keep = sorted(keep)
    whole = special._hyp0f1(c, w, 2)
    part = special._hyp0f1(c[keep], w[keep], 2)
    assert part.tobytes() == whole[:, keep].tobytes()


def test_hyp0f1_broadcasts_w_against_c():
    lo, hi = special._hyp0f1(np.array([0.5 + 1j, 2.0, 3.0 - 2j]), np.array([[-1.0], [-30.0]]))
    assert lo.shape == hi.shape == (2, 3)
    assert lo[1, 2] == pytest.approx(_hyp0f1_mpmath(3.0 - 2j, -30.0), rel=1e-13)


def _real_w_ladder(c, w) -> tuple:
    """`_hyp0f1` as it was for real w <= 0 only: the ladder sized from -min w."""
    c = np.asarray(c, dtype=complex)
    if np.ndim(w):
        c, w = np.broadcast_arrays(c, np.asarray(w, dtype=float))
    a = -float(np.min(w))
    n = max(0, math.ceil(a + 20.0 - c.real.min()))
    shift = np.array([n, n + 1]).reshape((2,) + (1,) * c.ndim)
    term = np.ones((2,) + c.shape, dtype=complex)
    total = term.copy()
    k, bound = 0, 1.0
    while bound > 1e-17:
        term *= w / (k + 1)
        term /= c + (shift + k)
        total += term
        k += 1
        bound *= a / (k * (a + 19.0 + k))
    f0, f1 = total
    b = c + n
    for k in range(n, 0, -1):
        b1 = c + (k - 1)
        f0, f1 = f0 + w * f1 / (b * b1), f0
        b = b1
    return f0, f1


def test_hyp0f1_real_w_keeps_its_values_bit_for_bit():
    # sizing the ladder from max |w| instead of -min w changes nothing at
    # real w <= 0, nor does keeping the values at every shift (top)
    rng = np.random.default_rng(17)
    cs = np.concatenate(_pole_circle_and_box_cs(rng, 16))
    for w in (-1.0, -30.0, -400.0, -rng.uniform(0.5, 400.0, cs.size), 0.0):
        want = _real_w_ladder(cs, w)
        for top in (1, 3, 20):
            got = special._hyp0f1(cs, w, top)
            assert got.shape == (top + 1,) + cs.shape
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("radius", [5.0, 20.0, 40.0])
def test_hyp0f1_at_complex_w_matches_mpmath(radius):
    # six phases of w, positive real w included; 3.8e-15 relative measured
    cs = np.arange(21) + 0.5
    for phase in range(6):
        w = radius * cmath.exp(2j * math.pi * phase / 6)
        lo, hi = special._hyp0f1(cs, w)
        with mpmath.workdps(40):
            for c, f0, f1 in zip(cs.tolist(), lo, hi):
                for got, arg in ((f0, c), (f1, c + 1.0)):
                    want = complex(mpmath.hyp0f1(arg, mpmath.mpc(w.real, w.imag)))
                    assert abs(got - want) <= 1e-14 * abs(want), (arg, w)


def test_hyp0f1_top_reads_every_integer_shift():
    # 0F1(c + k) at k = 0..top from one ladder, against a call at c + k:
    # within 5.0e-15 of the larger of |0F1(c + k)| and |0F1(c + k + 1)| on
    # residue circles around -9 and off the poles, measured
    rng = np.random.default_rng(26)
    delta = 1e-3 * np.exp(2j * np.pi * np.arange(32) / 32)
    box = rng.uniform(-5, 5, 8) + 1j * rng.uniform(-5, 5, 8) + 0.37
    for w in (-1.0, -30.0, -400.0):
        for cs in (np.concatenate([-9.0 + delta, -9.0 - delta]), box):
            f = special._hyp0f1(cs, w, 20)
            for k in range(20):
                g0, g1 = special._hyp0f1(cs + k, w)
                scale = np.maximum(np.abs(g0), np.abs(g1))
                assert np.all(np.maximum(np.abs(f[k] - g0), np.abs(f[k + 1] - g1))
                              <= 5e-14 * scale), (w, k)
    # a top beyond the ladder's own length starts the ladder higher
    f = special._hyp0f1(np.array([50.5]), -1.0, 5)
    for k in range(6):
        assert f[k, 0] == pytest.approx(_hyp0f1_mpmath(50.5 + k, -1.0), rel=1e-15)


def test_complex_order_j_at_array_u_matches_one_call_per_u():
    # orders of p at lattice points and of p11 at complex zeta;
    # 7.3e-16 max(1, |J|) measured
    nu = np.array([3.0, -3.0, 4.0, -8.0, -0.2 + 0.4j, 0.7 - 0.7j, -0.5 + 2.5j])
    u = 2.0 * np.sqrt(np.array([[1.0], [30.0], [100.0]]))
    got = special.bessel_j_complex_order(nu, u)
    assert got.shape == (3, 7)
    for row, ui in zip(got, u[:, 0]):
        want = special.bessel_j_complex_order(nu, float(ui))
        assert np.max(np.abs(row - want) / np.maximum(1.0, np.abs(want))) <= 1e-14


def test_m_and_n_at_array_theta_match_one_call_per_theta():
    # 9.0e-16 max|n| measured
    thetas = np.array([[1.0], [30.0], [100.0]])
    zetas = np.array([0.3 + 0.4j, -2.2 + 1.0j, 10j, 3.0 + 1e-3j])
    for fn in (drhp.bessel_m, drhp.bessel_n):
        got = fn(thetas)(zetas)
        assert got.shape == (3, 4, 2, 2)
        for row, theta in zip(got, thetas[:, 0]):
            want = fn(float(theta))(zetas)
            assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(want))


def test_m_array_matches_points():
    # a batch and a single point run ladders of different lengths, so they
    # agree to rounding (1.0e-15 max|m| measured here), not bit for bit
    m = drhp.bessel_m(30.0)
    n = drhp.bessel_n(30.0)
    zetas = np.array([0.3 + 0.4j, -2.2 + 1.0j, 10j, 3.0 + 1e-3j])
    batch = m(zetas)
    assert batch.shape == (4, 2, 2)
    for zeta, mz, nz in zip(zetas, batch, n(zetas)):
        for fn, want in ((m, mz), (n, nz)):
            single = fn(complex(zeta))
            assert single.shape == (2, 2)
            assert np.max(np.abs(single - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("nodes", [32, 48, 4096])
def test_circle_nodes_are_bitwise_the_scalar_phases(nodes):
    # the residue, derivative and fit contours were built from cmath.exp
    # phases; the first quadrant still is, to the last bit, and the rest
    # are its mirror images.  cmath's phases past the first quadrant carry
    # the rounding of 2 pi j / nodes, so the mirrored ones sit up to 3.75
    # ulp of 1 from them in a real or imaginary part (at 48 nodes) and
    # within 0.78 ulp of 1 of the exact phases (40-digit mpmath)
    radius = 0.25
    phases = np.array([cmath.exp(1j * (2.0 * math.pi * j / nodes)) for j in range(nodes)])
    got_phases, got_points = drhp._circle(radius, nodes)
    quarter = slice(0, nodes // 4)
    assert got_phases[quarter].tobytes() == phases[quarter].tobytes()
    ulp = np.finfo(float).eps
    assert np.max(np.abs(got_phases.real - phases.real)) <= 4.0 * ulp
    assert np.max(np.abs(got_phases.imag - phases.imag)) <= 4.0 * ulp
    with mpmath.workdps(40):
        exact = [mpmath.expjpi(mpmath.mpf(2 * j) / nodes) for j in range(nodes)]
        assert max(abs(mpmath.mpc(g) - e) for g, e in zip(got_phases.tolist(), exact)) <= ulp
    assert got_points.tobytes() == (radius * got_phases).tobytes()


@pytest.mark.parametrize("nodes", [4, 32, 48, 256, 4096])
def test_circle_is_exactly_conjugate_and_antipode_symmetric(nodes):
    # what lets m on fit_m1's circle take 0F1 at 129 of its 2 x 256 c
    phases, points = drhp._circle(40.0, nodes)
    assert phases.size == nodes
    assert np.array_equal(phases[:0:-1], phases[1:].conj())
    assert np.array_equal(np.roll(phases, nodes // 2), -phases)
    assert np.array_equal(points[:0:-1], points[1:].conj())
    assert np.array_equal(np.roll(points, nodes // 2), -points)
    assert phases[nodes // 4] == 1j and not phases.flags.writeable


# ---------------------------------------------------------------- bessel side

@pytest.mark.parametrize("theta", [30.0, 100.0])
def test_p_condition_and_p11_ode_hold_at_large_theta(theta):
    # both failed with the cancelling complex-order series (p's values by
    # up to 1.6e-7, the p11 ODE by 0.45 at theta = 100)
    rows = drhp.suite_drhp(theta)
    values = [r for r in rows if r.check_id == "p-values"]
    assert [r.point for r in values] == ["x=3.5", "x=7.5", "x=-4.5"]
    _assert_all_pass(values)
    p11 = [r for r in rows if r.check_id == "ode-p11-second-order"]
    assert len(p11) == 1
    _assert_all_pass(p11)


@pytest.mark.parametrize("theta", [1.0, 30.0, 100.0, 400.0])
def test_p_matches_mpmath(theta):
    # p and m share the 0F1 ladder, so this is p's independent reference;
    # 9.5e-15 max(1, max|p|) is the largest error measured here
    zetas = [3.5, 7.5, -4.5, -0.5, 10.5, 1.3, 0.3 + 0.4j, -2.5, 1.2 - 0.7j,
             2.5j, -3.7 + 1.1j]
    got = drhp.bessel_p(theta)(np.array(zetas))
    assert got.shape == (len(zetas), 2, 2)
    with mpmath.workdps(40):
        u = 2 * mpmath.sqrt(theta)
        s = mpmath.sqrt(mpmath.sqrt(theta))
        for zeta, pz in zip(zetas, got):
            z = mpmath.mpc(complex(zeta).real, complex(zeta).imag)
            want = np.array([[s * mpmath.besselj(z - 0.5, u), s * mpmath.besselj(0.5 - z, u)],
                             [-s * mpmath.besselj(z + 0.5, u), s * mpmath.besselj(-z - 0.5, u)]],
                            dtype=complex)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(pz - want)) <= 1e-13 * scale, zeta


@pytest.mark.parametrize("theta", [1.0, 30.0, 100.0])
def test_suite_drhp_certifies_p_values_at_every_lattice_x(theta):
    # one p-values row per lattice x, against the real-order J
    values = [r for r in drhp.suite_drhp(theta) if r.check_id == "p-values"]
    assert [r.point for r in values] == ["x=3.5", "x=7.5", "x=-4.5"]
    _assert_all_pass(values)


def test_p_values_rows_call_real_order_j_once_and_catch_a_wrong_j(monkeypatch):
    # the reference is the F of discrete_bessel_k, whose one real-order J
    # call takes the orders |x| -+ 1/2 of every x; an error in J_4 there
    # must fail the rows that read it
    calls = []
    original = kernels.bessel_j

    def perturbed(nu, u):
        calls.append(list(nu))
        return original(nu, u) * (1.0 + 1e-10 * (np.abs(nu) == 4))

    monkeypatch.setattr(kernels, "bessel_j", perturbed)
    rows = drhp.suite_drhp(30.0)
    assert calls == [[3, 4, 5, 7, 8]]
    failed = {r.point for r in rows if r.check_id == "p-values" and not r.passed}
    assert failed == {"x=3.5", "x=-4.5"}


def test_suite_drhp_takes_j_from_the_joined_ladder(monkeypatch):
    # J at the p-values orders and on the five-eta p11 stencil is formed
    # from the ladder it shares with m and n, never by a J call of its own
    # (81 scalar calls, then 6 array calls, then 1 before)
    calls, formed = [], []
    original, values = drhp.bessel_j_complex_order, drhp._j_from_0f1

    def counted(nu, u):
        calls.append(u)
        return original(nu, u)

    def shapes(nu, u, f0):
        formed.append(np.shape(f0))
        return values(nu, u, f0)

    monkeypatch.setattr(drhp, "bessel_j_complex_order", counted)
    monkeypatch.setattr(drhp, "_j_from_0f1", shapes)
    drhp.suite_drhp(30.0)
    assert calls == [] and formed == [(4, 3), (5, 3)]


@pytest.mark.parametrize("theta", [1.0, 100.0, 1000.0])
def test_suite_drhp_runs_two_0f1_ladders(theta, monkeypatch):
    # two ladders in one descent (two descents before, five before that,
    # and 15 before that).  One joins J (12 p-values orders, 3 zeta x 5 eta
    # of p11), m (2 x 32 residue-circle elements read at every integer
    # shift, and 2 x 3 normalization points) and n (2 x 3 zeta x 5 eta);
    # the other is fit_m1's 256-node circle, whose 2 x 256 c are the 129
    # c = zeta + 1/2 of its upper half and their conjugates (512 before)
    calls = []
    original = special._hyp0f1_ladders

    def counted(*ladders):
        calls.append([sum(np.broadcast(c, w).size for c, w in groups) for groups, _ in ladders])
        return original(*ladders)

    monkeypatch.setattr(special, "_hyp0f1_ladders", counted)
    monkeypatch.setattr(drhp, "_hyp0f1_ladders", counted)
    drhp.suite_drhp(theta)
    assert calls == [[12 + 15 + 64 + 6 + 30, 129]]


@pytest.mark.parametrize("theta", [1.0, 30.0, 100.0, 400.0, 1000.0])
def test_suite_drhp_m1_rows_are_fit_m1s_bit_for_bit(theta):
    # one definition of the fit: the suite runs fit_m1's ladder inside its
    # own descent and gets the standalone fit's rows to the last bit
    rows = _suite_rows(theta, "m1-")
    assert rows == drhp._m1_rows(theta, drhp.fit_m1(theta))


@pytest.mark.parametrize("theta", [1.0, 30.0, 100.0, 400.0, 1000.0])
def test_m_on_the_m1_circle_from_129_c_is_bessel_m(theta):
    # the conjugate and antipode of each upper-half node take their 0F1
    # from its c, and that gives bessel_m's values there bit for bit
    [(c, w)], top = drhp._m1_0f1_args(theta)
    assert c.shape == (129,) and w == -theta and top == 1
    got = drhp._m1_circle_m(theta, special._hyp0f1_ladders(drhp._m1_0f1_args(theta))[0][0])
    want = drhp.bessel_m(theta)(drhp._circle(drhp._m1_radius(theta), 256)[1])
    assert got.shape == (256, 2, 2)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("theta, error", [
    (-1.0, ParameterError), (0.0, ParameterError), (math.inf, ParameterError),
    (math.nan, ParameterError), (1e-10, DomainError), (4e-6, DomainError)])
def test_suite_drhp_rejects_theta_outside_its_range(theta, error):
    # below theta = 0.05 the eta stencils' fixed steps fail the p11 ODE row
    with pytest.raises(error):
        drhp.suite_drhp(theta)


@pytest.mark.parametrize("build", [drhp.bessel_p, drhp.bessel_m, drhp.bessel_n,
                                   drhp.fit_m1, drhp.bessel_kernel_from_m],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("theta", [-1.0, 0.0, math.inf, math.nan])
def test_bessel_side_functions_reject_theta_outside_their_range(build, theta):
    # bessel_m(-1) gave nan entries and bessel_m(inf) an OverflowError; the
    # others ended in a bare math domain error at theta = -1
    with pytest.raises(ParameterError, match="finite theta > 0"):
        build(theta)


@pytest.mark.parametrize("theta", np.geomspace(1e-5, 1.0, 16).tolist() + [0.0499, 0.05],
                         ids=lambda theta: f"{theta:.3g}")
def test_suite_drhp_passes_every_row_or_raises_domain_error(theta):
    # no theta inside the guard gives a failed row: at theta = 0.01 the p11
    # row read 50x its tolerance; at 0.05 it reads 0.40 of it
    try:
        rows = drhp.suite_drhp(theta)
    except DomainError:
        assert theta < 0.05
        return
    assert [r.check_id for r in rows if not r.passed] == []


def test_m_has_unit_determinant():
    m = drhp.bessel_m(1.0)
    for mz in m(np.array([0.3 + 0.4j, -2.2 + 1.0j, 10j])):
        assert abs(np.linalg.det(mz) - 1.0) < 1e-13


def test_m_equals_p_times_gamma_diagonal():
    # consistency of the hypergeometric-ratio form with the Bessel matrix
    from detproc.special import log_gamma
    theta = 1.3
    eta = np.sqrt(theta)
    p = drhp.bessel_p(theta)
    zetas = (0.3 + 0.4j, 1.2 - 0.7j)
    for zeta, mz in zip(zetas, drhp.bessel_m(theta)(np.array(zetas))):
        diag = np.array([
            [cmath.exp(-zeta * np.log(eta) + log_gamma(zeta + 0.5)), 0.0],
            [0.0, cmath.exp(zeta * np.log(eta) + log_gamma(0.5 - zeta))],
        ])
        assert np.max(np.abs(p(zeta) @ diag - mz)) < 1e-12


def _printed_w_weight(theta, x):
    """The printed residue weight of the lattice problem at x: strictly
    triangular, its entry -theta^|x| / Gamma(|x| + 1/2)^2."""
    ax = abs(x)
    val = -math.exp(ax * math.log(theta) - 2.0 * math.lgamma(ax + 0.5))
    if x > 0:
        return np.array([[0.0, val], [0.0, 0.0]])
    return np.array([[0.0, 0.0], [val, 0.0]])


def _minus_f_g_t(kernel, xs):
    """-f(x) g(x)^t of an L-kernel's data, one 2 x 2 matrix per point."""
    f1, f2, g1, g2 = kernel.fg(np.asarray(xs, dtype=float))
    return -np.stack([f1, f2], -1)[:, :, None] * np.stack([g1, g2], -1)[:, None, :]


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 400.0), st.integers(-40, 39))
def test_residue_weight_is_minus_f_g_t_of_the_plancherel_l_kernel(theta, k):
    # the exponents of f g and of the printed form round alike, so only the
    # final exp differs: <= 3.7e-16 relative on 302 theta in [0.5, 400]
    x = k + 0.5
    got = _minus_f_g_t(kernels.plancherel_l(theta), [x])[0]
    want = _printed_w_weight(theta, x)
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_m_residue_conditions_at_theta_100():
    # the directly summed 0F1 series cancels here: it failed 19 of these
    # 20 rows (up to 4.3e-6) and passed x = 0.5 at 9.8e-10
    rows = _suite_rows(100.0, "m-residue")
    assert [r.point for r in rows] == [f"x={k + 0.5}" for k in range(-10, 10)]
    _assert_all_pass(rows)
    assert all(r.residual <= 1e-11 for r in rows if r.point in ("x=-0.5", "x=0.5"))


@pytest.mark.parametrize("theta", [1.0, 4.0, 30.0, 100.0, 400.0])
def test_m_on_the_residue_circles_from_their_family_is_bessel_m(theta):
    # 64 elements read at every integer shift against a ladder element per
    # node: 3.6e-12 max(1, |m|) at most over 155 theta in (0, 400]
    xs = drhp._RESIDUE_XS
    c, w, top = drhp._residue_0f1_args(theta, xs)
    assert c.shape == (2, 32) and top == 20
    got = drhp._residue_m(theta, xs, special._hyp0f1(c, w, top))
    zetas = np.array(xs)[:, None] + drhp._circle(1e-3, 32)[1]
    want = drhp.bessel_m(theta)(zetas)
    assert got.shape == want.shape == (20, 32, 2, 2)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-11


@pytest.mark.parametrize("theta", [1.0, 30.0, 100.0, 400.0])
def test_m_residue_tolerance_is_relative_to_the_residue(theta):
    # the residual is rounding of the 1e-3 circle's trapezoid, <= 6.0e-14
    # of max(1, |Res m|) at these theta, while |Res m| reaches 5.1e3 at
    # theta = 100 and 3.4e6 at theta = 400.  The tolerance 1.9e-13
    # max(1, |Res m|) passes every row (under the absolute 1e-9 before, the
    # ten rows with |x| >= 5.5 failed at theta = 400), with >= 3.18 to
    # spare, and at theta <= 100 it stays below 1e-9: it accepts nothing
    # there that 1e-9 rejected
    rows = drhp.suite_drhp(theta)
    _assert_all_pass(rows)
    res = [r for r in rows if r.check_id == "m-residue"]
    assert all(2.0 * r.residual <= r.tolerance for r in res)
    if theta <= 100.0:
        assert max(r.tolerance for r in res) < 1e-9


def test_m_reflection_symmetry():
    # m11(z) = m22(-z) and m12(z) = -m21(-z): the symmetry that forces
    # gamma = beta, delta = -alpha in the 1/zeta coefficient
    m = drhp.bessel_m(2.0)
    zetas = np.array([0.3 + 0.4j, 1.2 - 0.7j, 2.5j])
    for a, b in zip(m(zetas), m(-zetas)):
        assert abs(a[0, 0] - b[1, 1]) < 1e-14
        assert abs(a[0, 1] + b[1, 0]) < 1e-14


def test_m_normalization_decreasing_and_remainder():
    _assert_all_pass(_suite_rows(1.0, "m-normalization"))


@pytest.mark.parametrize("theta", [30.0, 100.0, 400.0])
def test_m_normalization_holds_at_large_theta(theta):
    # t grows with theta; at t = 10/20/40 theta = 100 read 2.55 against 1e-2
    rows = _suite_rows(theta, "m-normalization")
    _assert_all_pass(rows)
    t = max(10.0, 2.5 * theta)
    rate = [r.point for r in rows if r.check_id == "m-normalization-rate"]
    assert rate == [f"t={t}", f"t={2 * t}", f"t={4 * t}"]


# measured max |fit_m1 - exact| / max(1, theta) at 256 nodes: <= 1.6e-15 for
# theta <= 400 and 7.5e-14 at theta = 1000; the bounds leave a factor 5
@pytest.mark.parametrize("theta", [1.0, 4.0, 30.0, 100.0, 400.0, 1000.0])
def test_m1_fit_matches_exact(theta):
    # radius 4 sqrt(theta) = 80 at theta = 400; at radius 40 the fit was 5.4e4 off
    _assert_all_pass(_suite_rows(theta, "m1-"))
    m1 = drhp.fit_m1(theta)
    bound = 8e-15 if theta <= 400.0 else 4e-13
    assert np.max(np.abs(m1 - drhp.bessel_m1_exact(theta))) <= bound * max(1.0, theta)


def _count_m_points(monkeypatch):
    """Wrap `drhp._m_from_0f1`, which forms every m, so that every point m
    is evaluated at is counted."""
    seen = []
    original = drhp._m_from_0f1

    def counted(theta, zeta, lo, hi):
        seen.append(np.size(zeta))
        return original(theta, zeta, lo, hi)

    monkeypatch.setattr(drhp, "_m_from_0f1", counted)
    return seen


@pytest.mark.parametrize("theta", [1.0, 100.0, 1000.0])
def test_m1_fit_evaluates_m_at_256_points(theta, monkeypatch):
    # the 256 circle in one call, checked against its even nodes
    seen = _count_m_points(monkeypatch)
    drhp.fit_m1(theta)
    assert seen == [256]


@settings(max_examples=20, deadline=None)
@given(st.floats(1.0, 1000.0))
def test_m1_fit_symmetry_holds_over_theta(theta):
    m1 = drhp.fit_m1(theta)
    tol = 1e-12 * max(1.0, theta)
    assert abs(m1[1, 0] - m1[0, 1]) <= tol
    assert abs(m1[1, 1] + m1[0, 0]) <= tol
    assert abs(m1[0, 1] + math.sqrt(theta)) <= tol


def test_m1_fit_raises_when_the_trapezoid_does_not_converge(monkeypatch):
    # a pole of m at 0.999 of the radius: the N-node average is off by
    # ~0.999^N, still ~0.13 at N = 2048, so no doubling passes
    original = drhp._m_from_0f1
    pole = 0.999 * drhp._m1_radius(1.0)

    def with_pole(theta, zeta, lo, hi):
        m = original(theta, zeta, lo, hi)
        return m + (1.0 / (np.asarray(zeta) - pole))[..., None, None]

    monkeypatch.setattr(drhp, "_m_from_0f1", with_pole)
    seen = _count_m_points(monkeypatch)
    with pytest.raises(ConvergenceError):
        drhp.fit_m1(1.0)
    # every node of the 4096 circle once, none twice
    assert seen == [256, 256, 512, 1024, 2048]


def test_ode_in_eta_and_beta_sign_selection():
    rows = _suite_rows(1.0, "ode-")
    _assert_all_pass(rows)
    ids = {r.check_id for r in rows}
    assert "ode-eta-beta-minus" in ids
    assert "ode-eta-beta-plus-must-fail" in ids
    assert "ode-p11-second-order" in ids


@pytest.mark.parametrize("theta", [0.25, 4.0, 30.0])
def test_ode_in_eta_holds_away_from_theta_one(theta):
    # the checked identity is eta dn/deta = [[zeta, -2 beta], [2 beta, -zeta]] n;
    # without the factor eta it failed by 3.7 / 2.6 / 11 at these theta,
    # where the two forms differ.  Richardson leaves <= 9.1e-11 here.
    rows = {r.check_id: r for r in _suite_rows(theta, "ode-")}
    _assert_all_pass(rows.values())
    assert rows["ode-eta-beta-minus"].residual < 1e-9


def test_verifier_kernel_agrees_with_bessel_kernel():
    # 3.1e-16 at theta = 1 and 1.9e-12 at theta = 30 measured
    pts = [k + 0.5 for k in range(-11, 11)]
    for theta in (1.0, 30.0):
        km = drhp.bessel_kernel_from_m(theta).matrix(pts)
        kb = kernels.discrete_bessel_k(theta).matrix(pts)
        assert np.max(np.abs(km - kb)) < 1e-9, theta


# ---------------------------------------------------------------- whittaker side

def test_psi_suite():
    _assert_all_pass(drhp.suite_psi(0.25 + 0.6j))


def test_psi_suite_evaluates_each_psi_once(monkeypatch):
    # 4 det points plus 2 jump points x 3 eps x 4 boundary values
    calls = []

    def counted(z, zeta):
        calls.append(zeta)
        return kernels.psi_matrix(z, zeta)

    monkeypatch.setattr(drhp, "psi_matrix", counted)
    drhp.suite_psi(0.25 + 0.6j)
    assert len(calls) == 28 and len(set(calls)) == 28


def test_psi_suite_other_parameter():
    _assert_all_pass(drhp.suite_psi(-0.3 + 1.1j))


def test_psi_jump_residuals_decrease():
    rows = drhp.suite_psi(0.25 + 0.6j)
    seq = [r.residual for r in rows
           if r.check_id == "psi-jump" and "x=1.0" in r.point]
    assert len(seq) == 3
    assert seq[0] > seq[1] > seq[2]


# ---------------------------------------------------------------- toy models

def test_two_point_suite():
    _assert_all_pass(drhp.suite_two_point(0.3, 0.5))


def test_two_point_other_points():
    _assert_all_pass(drhp.suite_two_point(-0.4, 0.7, a=1.0 + 1.0j, b=-2.0))


def test_two_point_diagonal_value():
    model = kernels.TwoPointModel(0.3, 0.5)
    g = model.resolvent_g()[0]
    lim = model.m_prime_f_limit()[0]
    mn = 0.3 * 0.5
    assert (g @ lim).real == pytest.approx(-mn / (1 - mn), rel=1e-14)


def test_contour_suite():
    _assert_all_pass(drhp.suite_contour())


def test_two_point_m_on_an_array_is_the_scalar_m():
    model = kernels.TwoPointModel(-0.4, 0.7, a=1.0 + 1.0j, b=-2.0)
    zs = np.array([[0.3 + 0.4j, -2.2 + 1.0j], [10j, 1.0 + 1.001j]])
    for fn in (model.m, model.m_inv_t):
        assert fn(zs[0, 0]).shape == (2, 2)
        stacked = fn(zs)
        assert stacked.shape == (2, 2, 2, 2)
        scalar = np.array([[fn(complex(z)) for z in row] for row in zs])
        assert np.array_equal(stacked, scalar)


# ---------------------------------------------------------------- suite shapes
#
# the certify benchmark charges a task that raises by fixed row counts, and
# the CSV reports are read by row position: pin every suite's layout

_DRHP_IDS = (
    ["p-values"] * 3
    + ["m-residue"] * 20
    + ["m-normalization-rate"] * 3
    + ["m-normalization-remainder", "m1-gamma-equals-beta", "m1-delta-equals-minus-alpha",
       "m1-beta-equals-minus-eta", "ode-eta-beta-minus",
       "ode-eta-beta-plus-must-fail", "ode-p11-second-order"])

_PSI_IDS = (["psi-det"] * 4
            + (["psi-jump"] * 3 + ["psi-jump-refinement"] * 2) * 2)

_TOY_ROWS = [
    ("two-point-det-m", "20 pseudo-random zeta", 1e-12),
    ("two-point-m-inv-t", "20 pseudo-random zeta", 1e-12),
    ("two-point-residue", "point=0.0", 1e-10),
    ("two-point-residue", "point=1.0", 1e-10),
    ("two-point-resolvent-f", "point=0.0", 1e-13),
    ("two-point-resolvent-g", "point=0.0", 1e-13),
    ("two-point-m-prime-limit", "point=0.0", 1e-10),
    ("two-point-resolvent-f", "point=1.0", 1e-13),
    ("two-point-resolvent-g", "point=1.0", 1e-13),
    ("two-point-m-prime-limit", "point=1.0", 1e-10),
    ("two-point-assembly-vs-printed", "mu=0.3, nu=0.5", 1e-14),
    ("two-point-printed-vs-oracle", "mu=0.3, nu=0.5", 1e-14),
    ("contour-l-squared", "(x,z)=((1+0j),1j)", 1e-10),
]

_CD_ROWS = [
    ("cd-two-forms-agree", "30-point grid, N=5", 1e-10),
    ("cd-projection", "K.K = K", 1e-10),
    ("cd-trace", "trace = N", 1e-10),
]

_SPECIAL_IDS = ["bessel-miller-vs-0f1", "bessel-dorder-vs-finite-difference",
                "whittaker-even-in-mu", "log-gamma-recurrence"]


@pytest.mark.parametrize("theta", [1.0, 30.0, 100.0])
def test_suite_drhp_layout(theta):
    assert len(_DRHP_IDS) == 33
    assert [r.check_id for r in drhp.suite_drhp(theta)] == _DRHP_IDS


@pytest.mark.parametrize("z", [0.25 + 0.6j, -0.3 + 1.2j, 0.1 + 0.3j])
def test_suite_psi_layout(z):
    assert len(_PSI_IDS) == 14
    rows = drhp.suite_psi(z)
    assert [r.check_id for r in rows] == _PSI_IDS
    jump = [1e-1, 100 * 1e-3 ** 3, 100 * 1e-4 ** 3, 1e-2, 1e-2]
    assert [r.tolerance for r in rows] == pytest.approx([1e-12] * 4 + jump * 2)


def test_toy_and_cd_suite_layout():
    toys = drhp.suite_two_point() + drhp.suite_contour()
    assert [(r.check_id, r.point, r.tolerance) for r in toys] == _TOY_ROWS
    assert [(r.check_id, r.point, r.tolerance) for r in drhp.suite_cd()] == _CD_ROWS


def test_special_functions_suite_layout():
    assert [r.check_id for r in drhp.suite_special_functions()] == _SPECIAL_IDS


# ---------------------------------------------------------------- every row can fail
#
# each row id the six suites emit has a mutant: a small perturbation of the
# row's subject under which at least one row of that id has to fail


def _scale(factor):
    return lambda value, *args: value * factor


def _m_plus(term):
    """m(zeta) + term(zeta), as a change of m's values from 0F1, which every
    m of the suite goes through (`fit_m1` by way of `bessel_m`)."""
    return lambda m, theta, zeta, *values: m + term(np.asarray(zeta, dtype=complex))


def _m1_off(entries):
    """m + 1e-4 E / zeta: the 1/zeta coefficient of m off by 1e-4 E."""
    e = np.array(entries, dtype=complex)
    return _m_plus(lambda z: 1e-4 / z[..., None, None] * e)


def _d_scaled(factor):
    """The L-kernel with d scaled by factor: w = -f g^t by its square."""
    def change(kernel, *args):
        return kernels.IntegrableKernel(kernel.domain, lambda x: factor * kernel.d(x),
                                        kernel.name)
    return change


_M_GROWS = _m_plus(lambda z: 1e-2 * z[..., None, None] * np.eye(2))
_JUMP_OFF = _scale(np.array([[1.0, 1.0 + 1e-6], [1.0 + 1e-6, 1.0]]))
_TP = kernels.TwoPointModel
_CD = kernels.ChristoffelDarbouxKernel

# row id: (suite, owner, attribute, change of the attribute's result)
_MUTANTS = {
    # the suite forms J, m and n from one joined ladder, so their mutants
    # change the values-from-0F1 halves `_j_from_0f1`, `_m_from_0f1` and
    # `_n_from_0f1`
    "p-values": ("drhp", drhp, "_j_from_0f1", _scale(1.0 + 1e-10)),
    "m-residue": ("drhp", drhp, "plancherel_l", _d_scaled(1.0 + 1e-6)),
    # m - I growing like 1e-2 zeta instead of decaying
    "m-normalization-rate": ("drhp", drhp, "_m_from_0f1", _M_GROWS),
    "m-normalization-remainder": ("drhp", drhp, "_m_from_0f1", _M_GROWS),
    "m1-gamma-equals-beta": ("drhp", drhp, "_m_from_0f1", _m1_off([[0, 0], [1, 0]])),
    "m1-delta-equals-minus-alpha": ("drhp", drhp, "_m_from_0f1", _m1_off([[0, 0], [0, 1]])),
    "m1-beta-equals-minus-eta": ("drhp", drhp, "_m_from_0f1", _m1_off([[0, 1], [1, 0]])),
    # n theta^1e-5: n unchanged at theta = 1, eta dn/deta off by 2e-5 n;
    # theta is an array of the stencil's thetas, one per n
    "ode-eta-beta-minus": ("drhp", drhp, "_n_from_0f1",
                           lambda n, theta, *args: n * (theta ** 1e-5)[..., None, None]),
    # diag(1, -1) n diag(1, -1) solves the beta = +eta equation
    "ode-eta-beta-plus-must-fail": ("drhp", drhp, "_n_from_0f1",
                                    lambda n, *args: n * np.array([[1, -1], [-1, 1]])),
    # J (1 + 1e-4 u^2): p11 off by a smooth factor in eta
    "ode-p11-second-order": ("drhp", drhp, "_j_from_0f1",
                             lambda j, nu, u, f0: j * (1.0 + 1e-4 * u * u)),
    "psi-det": ("psi", drhp, "psi_matrix", _scale(1.0 + 1e-10)),
    "psi-jump": ("psi", drhp, "psi_jump_matrix", _JUMP_OFF),
    "psi-jump-refinement": ("psi", drhp, "psi_jump_matrix", _JUMP_OFF),
    "two-point-det-m": ("toys", _TP, "m", _scale(1.0 + 1e-10)),
    "two-point-m-inv-t": ("toys", _TP, "m_inv_t", _scale(1.0 + 1e-10)),
    "two-point-residue": ("toys", _TP, "w", _scale(1.0 + 1e-6)),
    "two-point-resolvent-f": ("toys", _TP, "resolvent_f", _scale(1.0 + 1e-10)),
    "two-point-resolvent-g": ("toys", _TP, "resolvent_g", _scale(1.0 + 1e-10)),
    "two-point-m-prime-limit": ("toys", _TP, "m_prime_f_limit", _scale(1.0 + 1e-6)),
    "two-point-assembly-vs-printed": ("toys", _TP, "k_matrix", _scale(1.0 + 1e-10)),
    "two-point-printed-vs-oracle": ("toys", _TP, "l_matrix", _scale(1.0 + 1e-10)),
    # g = (e^zeta, 1): g^t f != 0, so L has a pole on the diagonal
    "contour-l-squared": ("toys", drhp, "_contour_g", _scale(np.array([-1.0, 1.0]))),
    "bessel-miller-vs-0f1": ("special-functions", special, "bessel_j", _scale(1.0 + 1e-6)),
    "bessel-dorder-vs-finite-difference": ("special-functions", special, "bessel_j_dorder",
                                           _scale(1.0 + 1e-4)),
    # an odd part in mu, as a sign slip on one side of W's integrand leaves
    "whittaker-even-in-mu": ("special-functions", special, "whittaker_w",
                             lambda w, kappa, mu, x: w * (1.0 + 1e-6 * mu)),
    "log-gamma-recurrence": ("special-functions", special, "log_gamma", _scale(1.0 + 1e-11)),
    "cd-two-forms-agree": ("cd", _CD, "cd_matrix", _scale(1.0 + 1e-6)),
    "cd-projection": ("cd", _CD, "matrix", _scale(1.0 + 1e-6)),
    "cd-trace": ("cd", _CD, "trace", _scale(1.0 + 1e-6)),
}

# each suite's argument: theta for drhp, z for psi, unused by the others
_MUTATED_SUITES = {
    "drhp": drhp.suite_drhp,
    "psi": drhp.suite_psi,
    "toys": lambda arg: drhp.suite_two_point() + drhp.suite_contour(),
    "special-functions": lambda arg: drhp.suite_special_functions(),
    "cd": lambda arg: drhp.suite_cd(),
}


def _mutant_args(cid):
    """(name, values) of the suite arguments a row's mutant runs at.  A row
    that fails its mutant at one argument can be slack at another, so the
    drhp mutants run at theta = 1, 100 and 400 and the psi mutants at the
    benchmark's three z."""
    if cid in _DRHP_IDS:
        return "theta", (1.0, 100.0, 400.0)
    if cid in _PSI_IDS:
        return "z", (0.25 + 0.6j, -0.3 + 1.2j, 0.1 + 0.3j)
    return "theta", (1.0,)


_MUTANT_CASES = [
    pytest.param(cid, arg, id=cid if i == 0 else f"{cid}-{name}={arg:g}")
    for cid in sorted(set(_DRHP_IDS + _PSI_IDS + _SPECIAL_IDS)
                      | {cid for cid, _, _ in _TOY_ROWS + _CD_ROWS})
    for name, args in [_mutant_args(cid)]
    for i, arg in enumerate(args)]


@pytest.mark.parametrize("check_id, arg", _MUTANT_CASES)
def test_every_row_fails_under_its_mutant(check_id, arg, monkeypatch):
    # the id lists are the layouts pinned above, so every emitted id is here
    assert check_id in _MUTANTS, f"row {check_id} has no mutant"
    suite, owner, name, change = _MUTANTS[check_id]
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: change(original(*args), *args))
    rows = [r for r in _MUTATED_SUITES[suite](arg) if r.check_id == check_id]
    assert rows and not all(r.passed for r in rows), check_id


# ---------------------------------------------------------------- one path per value

def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.floats(-30.0, 30.0), st.floats(-12.0, 12.0), st.floats(0.5, 40.0),
       st.floats(0.05, 400.0), st.floats(-6.0, 6.0), st.floats(0.01, 6.0))
def test_a_scalar_argument_is_a_one_element_array_bit_for_bit(nu, nu_im, u, theta,
                                                              zeta_re, zeta_im):
    # bessel_j in nu, bessel_j_complex_order in u and bessel_n in theta
    # take a scalar through the array path: no math.log beside np.log
    one = special.bessel_j(nu, u)
    assert np.ndim(one) == 0 and _bits(one) == _bits(special.bessel_j([nu], u)[0])
    order = complex(nu, nu_im)
    one = special.bessel_j_complex_order(order, u)
    assert np.ndim(one) == 0
    assert _bits(one) == _bits(special.bessel_j_complex_order(order, np.array([u]))[0])
    zeta = complex(zeta_re, zeta_im)
    one = drhp.bessel_n(theta)(zeta)
    assert one.shape == (2, 2)
    assert _bits(one) == _bits(drhp.bessel_n(np.array([theta]))(zeta)[0])


# ---------------------------------------------------------------- resource bounds

def test_a_0f1_ladder_past_its_cap_raises_before_it_is_built():
    # at c = 1 the start is |w| + 19 steps up: one past the cap raises;
    # verify --suite drhp at theta = 1e300 ended in a numpy casting error
    cap = special._LADDER_MAX
    with pytest.raises(DomainError, match="0F1 ladder"):
        special._hyp0f1(1.0, -(cap - 18.0))
    with pytest.raises(DomainError, match="0F1 ladder"):
        special.bessel_j_complex_order(0.5, 1e10)
    with pytest.raises(DomainError, match="0F1 ladder"):
        drhp.suite_drhp(1e300)
    # the start at the cap is admitted (its series is cheap; no ladder runs)
    assert special._ladder_start([(1.0, -(cap - 19.0))], 1)[3] == cap
