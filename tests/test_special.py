"""Scalar special functions against classical values and library oracles.

mpmath/scipy serve as independent references; the derived checks (finite
differences, recurrences, asymptotics) mirror how each routine is consumed
by the kernel formulas.
"""

import cmath
import functools
import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import jv as scipy_jv

from detproc import special
from detproc.errors import (BesselOverflowError, ConvergenceError, DomainError, ParameterError,
                            PoleError)

mpmath.mp.dps = 30

EULER = 0.5772156649015328606


# ---------------------------------------------------------------- log_gamma

def test_log_gamma_classical_values():
    assert special.log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert special.log_gamma(0.5).real == pytest.approx(math.log(math.pi) / 2,
                                                        rel=1e-14)
    assert abs(special.log_gamma(0.5).imag) < 1e-15


def test_log_gamma_against_mpmath_grid():
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = complex(rng.uniform(-40, 50), rng.uniform(-50, 50))
        if abs(z.imag) < 1e-3 and z.real <= 0.5:
            continue
        mine = special.log_gamma(z)
        ref = complex(mpmath.loggamma(z))
        assert abs(mine - ref) <= 1e-13 * max(1.0, abs(ref))


def test_log_gamma_recurrence_oracle():
    # log Gamma(z+1) = log z + log Gamma(z), applied 10 times from a seed
    z = 2.5 + 1.5j
    seed = special.log_gamma(z + 10)
    acc = seed
    for k in range(9, -1, -1):
        acc = acc - cmath.log(z + k)
    assert abs(acc - special.log_gamma(z)) < 1e-13


def test_log_gamma_pole():
    with pytest.raises(PoleError):
        special.log_gamma(0.0)
    with pytest.raises(PoleError):
        special.log_gamma(-3.0)


def test_log_gamma_recurrence_property_right_half_plane():
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = complex(rng.uniform(0.1, 20), rng.uniform(-20, 20))
        resid = special.log_gamma(z + 1) - special.log_gamma(z) - cmath.log(z)
        assert abs(resid) < 1e-12


# ---------------------------------------------------------------- pochhammer

def test_pochhammer_trivial():
    assert special.pochhammer(3.7 + 1j, 0) == 1.0
    assert special.pochhammer(1.0, 5) == pytest.approx(120.0, rel=1e-15)


def test_pochhammer_vs_gamma_ratio():
    z = 0.5 + 0.5j
    direct = special.pochhammer(z + 1, 3)
    via_gamma = cmath.exp(special.log_gamma(z + 4) - special.log_gamma(z + 1))
    assert abs(direct - via_gamma) < 1e-13 * abs(direct)


def test_pochhammer_rejects_negative_k():
    with pytest.raises(DomainError):
        special.pochhammer(1.0, -1)


# ---------------------------------------------------------------- digamma

def test_digamma_classical():
    assert special.digamma(1.0) == pytest.approx(-EULER, rel=1e-12)
    assert special.digamma(2.0) == pytest.approx(1.0 - EULER, rel=1e-12)


def test_digamma_vs_log_gamma_difference():
    h = 1e-5
    fd = (special.log_gamma(10.5 + h).real - special.log_gamma(10.5 - h).real) / (2 * h)
    assert abs(special.digamma(10.5) - fd) < 1e-8


def test_digamma_against_mpmath_grid():
    rng = np.random.default_rng(13)
    for _ in range(60):
        x = float(rng.uniform(1e-3, 60.0))
        ref = float(mpmath.digamma(x))
        assert abs(special.digamma(x) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_digamma_domain():
    with pytest.raises(DomainError):
        special.digamma(0.0)
    with pytest.raises(DomainError):
        special.digamma(-1.5)


# ---------------------------------------------------------------- bessel J

def test_bessel_trivial_at_zero():
    assert special.bessel_j(0.0, 0.0) == 1.0
    assert special.bessel_j(3.0, 0.0) == 0.0
    assert special.bessel_j(-4.0, 0.0) == 0.0
    # J_nu(0) = 0 for every nu > 0
    assert special.bessel_j(0.5, 0.0) == 0.0
    assert special.bessel_j(3.7, 0.0) == 0.0
    assert special.bessel_j([0.5, 2.0, 0.0], 0.0).tolist() == [0.0, 0.0, 1.0]


def _complex_order_real(nu, u):
    return special.bessel_j_complex_order(nu, u).real


# the real-order and the complex-order J: both form (u/2)^nu / Gamma(nu+1)
# in `_j_from_0f1`, so each guard there holds on both
_J_ROUTES = (special.bessel_j, _complex_order_real)


@pytest.mark.parametrize("u", [5e-324, 1.5e-323, 1e-320, 1e-310])
def test_bessel_at_subnormal_u(u):
    # u/2 rounds at subnormal u and underflows to 0 at the least one;
    # (u/2)^nu carries the relative error of log(u/2) times |nu log(u/2)|
    # ~ 745 |nu| (4.4e-14 measured at nu = 0.5)
    for j in _J_ROUTES:
        assert j(0.0, u) == 1.0, j
        for nu in (0.001, 0.5, 1.0, -0.5, 2.5, -3.0):
            ref = float(mpmath.besselj(nu, mpmath.mpf(u)))
            assert j(nu, u) == pytest.approx(ref, rel=1e-12, abs=5e-324), (j, nu)


def test_bessel_integer_orders_take_miller_from_1e_40(monkeypatch):
    # integer orders at u >= 1e-40, the lattice and Monte Carlo kernels'
    # orders, run Miller's recurrence and never the 0F1 route
    def no_ladder(*args):
        raise AssertionError("integer order took the 0F1 route")

    monkeypatch.setattr(special, "_hyp0f1", no_ladder)
    for u in (1e-40, 1e-3, 2.0, 20.0, 2.0 * math.sqrt(1000.0)):
        special.bessel_j(np.arange(-40.0, 41.0), u)


def test_bessel_negative_integer_symmetry():
    # J_{-n} = (-1)^n J_n, exact through the symmetry reduction
    for n in range(1, 21):
        assert special.bessel_j(-n, 2.0) == pytest.approx(
            (-1.0) ** n * special.bessel_j(n, 2.0), abs=1e-14)


def test_bessel_half_order_closed_form():
    x = 1.7
    expected = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
    assert special.bessel_j(0.5, x) == pytest.approx(expected, abs=1e-14)


def test_bessel_against_scipy_grid():
    rng = np.random.default_rng(7)
    for _ in range(300):
        nu = float(rng.uniform(-60, 60))
        u = float(rng.uniform(0.01, 40.0))
        try:
            mine = special.bessel_j(nu, u)
        except BesselOverflowError:
            continue
        ref = scipy_jv(nu, u)
        if not np.isfinite(ref):
            continue
        assert abs(mine - ref) <= 5e-12 * max(1.0, abs(ref))


_MILLER_ORDERS = (-5.0, 0.0, 1.0, 3.0, 5.0)


def test_bessel_miller_vs_0f1_overlap():
    # the suite's `bessel-miller-vs-0f1` row: integer orders take Miller's
    # recurrence, which shares nothing with the 0F1 ladder
    worst = 0.0
    for u in np.linspace(15.0, 25.0, 9):
        ladder = special.bessel_j_complex_order(np.array(_MILLER_ORDERS), float(u))
        for nu, j in zip(_MILLER_ORDERS, ladder):
            mine = special.bessel_j(nu, float(u))
            worst = max(worst, abs(mine - j))
            ref = float(mpmath.besselj(nu, float(u)))
            # measured up to 1.9e-16 (Miller) and 3.6e-16 (0F1)
            assert abs(mine - ref) <= 2e-15, (nu, u)
            assert abs(j - ref) <= 2e-15, (nu, u)
    assert worst < 1e-9


@functools.lru_cache(maxsize=None)
def _integer_order_refs(theta: float) -> tuple:
    """J_n(2 sqrt(theta)), n = 0..120, from 30-digit mpmath."""
    u = 2 * mpmath.sqrt(mpmath.mpf(theta))
    return tuple(float(mpmath.besselj(n, u)) for n in range(121))


@pytest.mark.parametrize("theta", [1.0, 4.0, 9.0, 16.0, 25.0, 30.0, 100.0, 400.0, 1000.0])
def test_bessel_integer_orders_at_lattice_argument(theta):
    # the lattice kernel's values; the largest error measured is 2.2e-16
    u = 2.0 * math.sqrt(theta)
    for n, ref in enumerate(_integer_order_refs(theta)):
        assert abs(special.bessel_j(n, u) - ref) <= 5e-16, n
        assert abs(special.bessel_j(-n, u) - (-1) ** n * ref) <= 5e-16, -n


@pytest.mark.parametrize("u", [2.0, 4.0, 10.5, 2.0 * math.sqrt(30.0), 20.0,
                               2.0 * math.sqrt(1000.0)])
def test_bessel_integer_orders_share_one_miller_run(monkeypatch, u):
    reach = special._jn_reach(u)
    orders = list(range(-reach - 3, reach + 4))
    runs = []
    miller = special._miller

    def counted(*args):
        runs.append(args)
        return miller(*args)

    monkeypatch.setattr(special, "_miller", counted)
    ladder = special.bessel_j(orders, u)
    # one run serves |n| <= reach; the six orders beyond it run their own
    assert len(runs) == 1 + 6
    monkeypatch.undo()
    # the array holds the scalar values bit for bit
    assert ladder.tolist() == [special.bessel_j(n, u) for n in orders]
    # every order n <= u starts its own run where the shared run starts
    for n in range(int(u) + 1):
        assert special.bessel_j(n, u) == special._miller(special._miller_top(n, u), u)[n]
    # above u the shared run is within 2.1e-15 relative of mpmath
    worst = max(abs(special.bessel_j(n, u) / float(mpmath.besselj(n, u)) - 1.0)
                for n in range(int(u) + 1, reach + 1))
    assert worst <= 3e-15


@functools.lru_cache(maxsize=None)
def _near_pole_refs(u: float) -> tuple:
    """(nu, J_nu(u)) from 30-digit mpmath next to the negative integers -n, n > u."""
    orders = [-n + d for n in range(int(u) + 1, int(u) + 41, 8)
              for d in (1e-9, -1e-9, 1e-6, -1e-6)]
    return tuple((nu, float(mpmath.besselj(mpmath.mpf(nu), u))) for nu in orders)


@pytest.mark.parametrize("u", [0.5, 2.0, 5.0, 9.5, 12.0, 15.0, 19.0, 25.0, 35.0])
def test_bessel_near_negative_integer_orders_meets_documented_bound(u):
    # the documented corner of the 0F1 route: error <= 1e-15/delta max(1, |J|)
    # at distance delta from the pole (measured up to 3.1e-16/delta)
    for nu, ref in _near_pole_refs(u):
        delta = abs(nu - round(nu))
        err = abs(special.bessel_j(nu, u) - ref)
        assert err <= 1e-15 / delta * max(1.0, abs(ref)), nu


def test_bessel_real_orders_meet_documented_bound():
    # |nu| <= 60, u <= 40: 4e-13 max(1, |J|) (measured 1.0e-13), and the
    # near-pole corner's 1e-15/delta max(1, |J|) within delta < 1e-3 of a
    # negative integer -n with n > u
    rng = np.random.default_rng(17)
    for _ in range(300):
        nu = float(rng.uniform(-60, 60))
        u = float(rng.uniform(0.01, 40.0))
        try:
            mine = special.bessel_j(nu, u)
        except BesselOverflowError:
            continue
        ref = float(mpmath.besselj(nu, u))
        delta = abs(nu - round(nu))
        corner = nu < 0.0 and delta < 1e-3 and -round(nu) > u
        tol = 1e-15 / delta if corner else 4e-13
        assert abs(mine - ref) <= tol * max(1.0, abs(ref)), (nu, u)


@pytest.mark.parametrize("u", [1e-60, 1e-200, 1e-300])
def test_bessel_integer_orders_below_miller_range(u):
    # below u = 1e-40 a step of Miller's run could overflow: J_n = (u/2)^n/n!
    for n in (0, 1, 2, 5, 40):
        ref = float(mpmath.besselj(n, mpmath.mpf(u)))
        assert special.bessel_j(n, u) == pytest.approx(ref, rel=1e-13, abs=0.0), n
        assert special.bessel_j(-n, u) == (-1) ** n * special.bessel_j(n, u)


def test_bessel_domain_and_overflow():
    for j in _J_ROUTES:
        with pytest.raises(DomainError):
            j(0.5, -1.0)
        with pytest.raises(DomainError):
            j(-0.5, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # reflection growth beyond doubles, at small u and above the
            # series range
            for nu, u in ((-59.5, 1e-4), (-5.5, 1e-300), (-400.5, 11.0)):
                with pytest.raises(BesselOverflowError):
                    j(nu, u)


def test_bessel_complex_order_matches_real():
    # integer orders: a non-integer real order takes the same 0F1 ladder
    for nu in (-3.0, 5.0, 2.0):
        mine = special.bessel_j_complex_order(complex(nu), 2.0)
        assert abs(mine.imag) < 1e-15
        assert mine.real == pytest.approx(special.bessel_j(nu, 2.0), abs=1e-14)


def test_bessel_complex_order_vs_mpmath():
    for nu in (0.3 + 0.4j, -1.2 + 2.5j, 10.0 - 40.0j):
        mine = special.bessel_j_complex_order(nu, 2.0)
        ref = complex(mpmath.besselj(mpmath.mpc(nu), 2.0))
        assert abs(mine - ref) < 1e-12 * max(1.0, abs(ref))


_COMPLEX_ORDERS = [-0.2 + 0.4j, 0.8 + 0.4j, -0.5 + 2.5j, 0.7 - 0.7j, -3.7 + 1.1j,
                   -9.3 - 2.5j, -11.3 + 11.1j, 6.2 + 8.4j, 11.5 - 0.3j]
_HALF_ORDERS = [k + 0.5 for k in range(-12, 12)]
_NEGATIVE_INTEGER_ORDERS = list(range(-12, 0))


@pytest.mark.parametrize("u", [2.0, 11.0, 20.0, 40.0])
@pytest.mark.parametrize("orders", [_COMPLEX_ORDERS, _HALF_ORDERS,
                                    _NEGATIVE_INTEGER_ORDERS],
                         ids=["complex", "half-integer", "negative-integer"])
def test_bessel_complex_order_array_matches_mpmath(orders, u):
    # largest error measured on these orders: 1.6e-14 max(1, |J|)
    got = special.bessel_j_complex_order(np.array(orders, dtype=complex), u)
    assert got.shape == (len(orders),)
    with mpmath.workdps(40):
        for nu, mine in zip(orders, got):
            ref = complex(mpmath.besselj(mpmath.mpc(complex(nu).real, complex(nu).imag), u))
            assert abs(mine - ref) <= 1e-13 * max(1.0, abs(ref)), nu


def test_bessel_complex_order_reflects_negative_integers_exactly():
    # J_(-n) = (-1)^n J_n from the same J_n, in one call on both orders
    n = np.arange(1, 13)
    got = special.bessel_j_complex_order(np.concatenate([n, -n]), 20.0)
    assert np.array_equal(got[12:], (-1.0) ** n * got[:12])


# ---------------------------------------------------------------- dJ/dnu

def test_bessel_dorder_finite_difference_spot():
    h = 1e-5
    for nu, u, tol in ((1.5, 2.0, 1e-7), (0.5, 2.0, 1e-7)):
        fd = (special.bessel_j(nu + h, u) - special.bessel_j(nu - h, u)) / (2 * h)
        assert abs(special.bessel_j_dorder(nu, u) - fd) < tol


def test_bessel_dorder_finite_difference_grid():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(20):
        nu = float(rng.uniform(-5, 5))
        u = float(rng.uniform(0.5, 10))
        fd = (special.bessel_j(nu + h, u) - special.bessel_j(nu - h, u)) / (2 * h)
        assert abs(special.bessel_j_dorder(nu, u) - fd) < 1e-6


def test_bessel_dorder_vs_mpmath_at_integer_orders():
    # the pole-limit handling of psi/Gamma is exercised at integer orders
    for nu in (-11.0, -3.0, 0.0, 2.0, 10.0):
        mine = special.bessel_j_dorder(nu, 4.0)
        ref = float(mpmath.diff(lambda n: mpmath.besselj(n, 4.0), nu))
        assert abs(mine - ref) < 1e-9


def test_bessel_dorder_domain():
    with pytest.raises(DomainError):
        special.bessel_j_dorder(1.0, 0.0)
    # the differentiated series cancels beyond u = 20 (error 3e-6 at u = 25)
    ref = float(mpmath.diff(lambda n: mpmath.besselj(n, 20.0), 3.0))
    assert abs(special.bessel_j_dorder(3.0, 20.0) - ref) < 1e-8
    with pytest.raises(DomainError):
        special.bessel_j_dorder(3.0, 20.5)


def bessel_j_dorder_reference(nu: float, u: float) -> float:
    """`special.bessel_j_dorder` as one scalar order per call, frozen as it
    was before the orders of a call shared their gamma-family tables: the
    reference that the array call must match bit for bit."""
    from math import exp, fsum, lgamma, log

    from detproc.special import _DORDER_MAX_U, _drgamma, _rgamma

    nu = float(nu)
    u = float(u)
    if not 0.0 < u <= _DORDER_MAX_U:
        raise DomainError(f"bessel_j_dorder needs 0 < u <= {_DORDER_MAX_U:g}, got u={u}")
    lhalf = log(0.5 * u)
    terms = []
    biggest = 0.0
    for k in range(250):
        lt = (nu + 2 * k) * lhalf - lgamma(k + 1)
        if lt > 690.0:
            raise BesselOverflowError(f"dJ/dnu term overflow at nu={nu}, u={u}")
        t = (-1.0) ** (k % 2) * exp(lt) * (
            lhalf * _rgamma(nu + k + 1) + _drgamma(nu + k + 1)
        )
        terms.append(t)
        biggest = max(biggest, abs(t))
        if k > max(0.0, -nu) + 6 and abs(t) < 1e-18 * max(biggest, 1e-300):
            break
    return fsum(terms)


def _dorder_reference_or_error(nu: float, u: float):
    # the reference's value, or the type of the exception it raises
    try:
        return bessel_j_dorder_reference(nu, u)
    except Exception as err:
        return type(err)


# orders in [-40, 60]: any float, integers and half-integers, and points
# within 1e-6 of a negative integer, where Gamma's poles are
_DORDER_ORDERS = st.one_of(
    st.floats(-40.0, 60.0),
    st.integers(-80, 120).map(lambda n: n / 2.0),
    st.builds(lambda n, d: n + d, st.integers(-40, -1), st.floats(-1e-6, 1e-6)),
)
# a call's orders: drawn one by one, or a run n0, n0 + 1, ... as a lattice
# window asks for, whose series share most of their s = nu + k + 1
_DORDER_CALLS = st.one_of(
    st.lists(_DORDER_ORDERS, min_size=1, max_size=8),
    st.builds(lambda n0, m: [n0 + k for k in range(m)], _DORDER_ORDERS, st.integers(1, 45)),
)


@settings(max_examples=300, deadline=None)
@given(orders=_DORDER_CALLS, u=st.floats(0.0, 20.0, exclude_min=True))
# a negative order whose series would stop early, at a different sum,
# without the rule k > max(0, -nu) + 6 (1 draw in ~20 000 finds one)
@example(orders=[-32.30618212197165], u=15.206858108227749)
def test_bessel_dorder_array_is_bitwise_the_per_order_reference(orders, u):
    refs = [_dorder_reference_or_error(nu, u) for nu in orders]
    for nu, ref in zip(orders, refs):
        if isinstance(ref, type):
            with pytest.raises(ref):
                special.bessel_j_dorder(nu, u)
        else:
            assert float(special.bessel_j_dorder(nu, u)).hex() == ref.hex(), nu
    errors = [ref for ref in refs if isinstance(ref, type)]
    if errors:
        with pytest.raises(tuple(errors)):
            special.bessel_j_dorder(np.array(orders), u)
    else:
        got = special.bessel_j_dorder(np.array(orders), u)
        assert got.shape == (len(orders),)
        assert got.tobytes() == np.array(refs).tobytes()


def _dorder_tables_reference(nu, u: float):
    """`special.bessel_j_dorder` as it was when each call filled its own
    table of (lgamma(k + 1), (-1)^k) and took max() on every term, copied
    verbatim."""
    from math import exp, fsum, lgamma, log

    from detproc.special import _DORDER_MAX_U, _drgamma, _rgamma

    u = float(u)
    if not 0.0 < u <= _DORDER_MAX_U:
        raise DomainError(f"bessel_j_dorder needs 0 < u <= {_DORDER_MAX_U:g}, got u={u}")
    lhalf = log(0.5 * u)
    steps: list[tuple[float, float]] = []
    factor: dict[float, float] = {}
    orders = np.asarray(nu, dtype=float)
    if not np.isfinite(orders).all():
        raise DomainError(f"bessel_j_dorder needs finite orders, got nu={nu}")
    sums = []
    for nu in orders.ravel().tolist():
        terms = []
        biggest = 0.0
        k_min = max(0.0, -nu) + 6
        for k in range(250):
            if k == len(steps):
                steps.append((lgamma(k + 1), (-1.0) ** (k % 2)))
            lg, sign = steps[k]
            lt = (nu + 2 * k) * lhalf - lg
            if lt > 690.0:
                raise BesselOverflowError(f"dJ/dnu term overflow at nu={nu}, u={u}")
            s = nu + k + 1
            g = factor.get(s)
            if g is None:
                g = factor[s] = lhalf * _rgamma(s) + _drgamma(s)
            t = sign * exp(lt) * g
            terms.append(t)
            a = abs(t)
            if a > biggest:
                biggest = a
            if k > k_min and a < 1e-18 * max(biggest, 1e-300):
                break
        sums.append(fsum(terms))
    return np.reshape(sums, orders.shape)[()]


@settings(max_examples=300, deadline=None)
@given(orders=_DORDER_CALLS, u=st.floats(0.0, 20.0, exclude_min=True))
@example(orders=[-32.30618212197165], u=15.206858108227749)
def test_bessel_dorder_is_bitwise_the_per_call_table_loop(orders, u):
    # the module table of log k! and (-1)^k and the floored running maximum
    # keep every term, every stop and every sum of the per-call loop
    try:
        ref = _dorder_tables_reference(np.array(orders), u)
    except Exception as err:
        with pytest.raises(type(err)):
            special.bessel_j_dorder(np.array(orders), u)
    else:
        assert special.bessel_j_dorder(np.array(orders), u).tobytes() == ref.tobytes()


def test_bessel_dorder_array_with_one_overflowing_order_raises():
    # at u = 1e-20 the first term of order -40.5 is e^1891; the others are fine
    u = 1e-20
    with pytest.raises(BesselOverflowError):
        bessel_j_dorder_reference(-40.5, u)
    with pytest.raises(BesselOverflowError):
        special.bessel_j_dorder(-40.5, u)
    with pytest.raises(BesselOverflowError):
        special.bessel_j_dorder([0.0, 1.0, -40.5, 2.5], u)
    assert special.bessel_j_dorder([0.0, 1.0, 2.5], u).tolist() == [
        bessel_j_dorder_reference(nu, u) for nu in (0.0, 1.0, 2.5)]


def test_bessel_dorder_keeps_the_shape_of_its_orders():
    orders = np.array([[0.0, 1.0], [2.5, -3.0]])
    got = special.bessel_j_dorder(orders, 4.0)
    assert got.shape == (2, 2)
    assert got.ravel().tolist() == [bessel_j_dorder_reference(nu, 4.0)
                                    for nu in orders.ravel().tolist()]
    assert np.ndim(special.bessel_j_dorder(1.5, 4.0)) == 0
    assert special.bessel_j_dorder([], 4.0).shape == (0,)


# ---------------------------------------------------------------- whittaker W

def test_whittaker_asymptotic_ratio():
    kappa, mu, x = 0.75, 0.5, 40.0
    ratio = special.whittaker_w(kappa, mu, x) / (math.exp(-x / 2) * x ** kappa)
    assert abs(ratio - 1.0) < 1e-2


def test_whittaker_even_in_mu():
    a = special.whittaker_w(-0.25, 0.5, 3.0)
    b = special.whittaker_w(-0.25, -0.5, 3.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_whittaker_self_convergence_at_origin_indices():
    # kappa = mu = 0: doubling the node count must not move the value
    coarse = special.whittaker_w_complex(0.0, 0.0, 2.0 + 0j)
    fine = _w_integral_panel_loop(0.0, 0.0, 2.0 + 0j, 64)
    assert abs(coarse - fine) < 1e-12 * abs(fine)
    # classical identity W_{0,0}(2x) = sqrt(2x/pi) K_0(x)
    ref = math.sqrt(2.0 / math.pi) * float(mpmath.besselk(0, 1.0))
    assert coarse.real == pytest.approx(ref, rel=1e-12)


def test_whittaker_against_mpmath_grid():
    rng = np.random.default_rng(9)
    for _ in range(40):
        kappa = float(rng.uniform(-2, 2))
        mu = float(rng.uniform(-3, 3))
        x = float(rng.uniform(0.05, 60.0))
        mine = special.whittaker_w(kappa, mu, x)
        ref = float(mpmath.whitw(kappa, 1j * mu, x).real)
        # the documented bounds; 7.7e-14 is the worst of these draws
        tol = 2e-13 if abs(mu) <= 1.2 else 1e-10
        assert abs(mine - ref) <= tol * max(abs(ref), 1e-250)


@functools.lru_cache(maxsize=None)
def _continuum_w_refs(z: complex) -> tuple:
    """((kappa, x), W) from 30-digit mpmath at the Whittaker kernel's orders."""
    refs = []
    for k in (z.real + 0.5, -z.real + 0.5):
        for kappa in (k, k - 1.0):
            for x in (0.05, 0.5, 1.0, 2.0, 7.0, 40.0):
                refs.append(((k, kappa, x),
                             float(mpmath.whitw(kappa, 1j * z.imag, x).real)))
    return tuple(refs)


@pytest.mark.parametrize("z", [0.25 + 0.6j, -0.3 + 1.2j, 0.1 + 0.3j])
def test_whittaker_at_the_continuum_orders(z):
    # the pair (W_k, W_(k-1)) that whittaker_kernel_k takes from one call;
    # 8.4e-15 relative is the worst measured
    for (k, kappa, x), ref in _continuum_w_refs(z):
        pair = special.whittaker_w((k, k - 1.0), z.imag, x)
        mine = pair[0] if kappa == k else pair[1]
        assert abs(mine - ref) <= 2e-14 * abs(ref)


def test_whittaker_complex_argument_near_cut():
    kappa, mu = -0.75, 0.6
    for zeta in (complex(-1, 1e-3), complex(-1, -1e-4), complex(-2, 0.5)):
        mine = special.whittaker_w_complex(kappa, mu, zeta)
        ref = complex(mpmath.whitw(kappa, 1j * mu, zeta))
        assert abs(mine - ref) < 1e-10 * abs(ref)


def test_whittaker_kappa_reduction_branch():
    # kappa >= 1/2 goes through the contiguous recurrence
    for kappa in (0.75, 1.5, 2.0):
        mine = special.whittaker_w(kappa, 0.8, 5.0)
        ref = float(mpmath.whitw(kappa, 0.8j, 5.0).real)
        assert mine == pytest.approx(ref, rel=1e-10)


def test_whittaker_domain():
    with pytest.raises(DomainError):
        special.whittaker_w(0.3, 0.5, 0.0)
    with pytest.raises(DomainError):
        special.whittaker_w_complex(0.3, 0.5, -2.0 + 0j)


@pytest.mark.parametrize("x", [80.0 * 2.0 ** 20, 1e9, 1e300])
def test_whittaker_beyond_the_panel_cap_raises(x):
    # the leading panel [0, 2^-20 x] reaches the integral's cap 80 there:
    # 1e300 overflowed in complex exponentiation, 1e9 had no panel at all
    with pytest.raises(DomainError, match="W needs"):
        special.whittaker_w((0.75, -0.25), 0.6, x)


@pytest.mark.parametrize("x", [1e-100 * (1 - 2.0 ** -52), 1e-103, 1e-150, 1e-300])
def test_whittaker_below_the_taylor_floor_raises(x):
    # the leading panel's zeta^-3 Taylor term overflowed: NaN at 1e-103,
    # a ZeroDivisionError traceback from 1e-150 down
    with pytest.raises(DomainError, match="W needs 1e-100 <= "):
        special.whittaker_w((0.75, -0.25), 0.6, x)


def test_whittaker_at_the_taylor_floor_meets_mpmath():
    # 6.6e-14 relative at kappa = 3/4, the worst of the two orders
    for kappa, mine in zip((0.75, -0.25), special.whittaker_w((0.75, -0.25), 0.6, 1e-100)):
        ref = complex(mpmath.whitw(kappa, 0.6j, 1e-100)).real
        assert mine == pytest.approx(ref, rel=1e-13)


def test_whittaker_near_the_cut_needs_a_nonzero_imaginary_index():
    # |arg zeta| > 3 pi/4 takes the Kummer connection, whose Gamma(+-2 mu)
    # has its pole at mu = 0
    with pytest.raises(ParameterError, match="nonzero imaginary index"):
        special.whittaker_w_complex(0.3, 0.0, -1.0 + 0.1j)


def test_whittaker_near_the_cut_across_the_route_split():
    # Kummer's 1F1 sums cancel as |zeta| grows: at the parent, which took
    # it for every |arg zeta| > 3pi/4, this grid read 2.7e-5 at |zeta| = 100
    # and 2e30 at 400; the worst now is 7.6e-12 (Kummer, |zeta| = 45) and
    # 2.7e-14 from |zeta| = 100 on (the integral)
    for r in (30.0, 43.0, 45.0, 50.0, 70.0, 100.0, 400.0):
        for i, frac in enumerate((0.76, 0.9, 0.999, 0.99999999)):
            zeta = cmath.rect(r, (-1) ** i * frac * math.pi)
            for mu in (0.3, 1.2):
                mine = special.whittaker_w_complex([-0.7, 1.45], mu, zeta)
                for kappa, value in zip((-0.7, 1.45), mine):
                    ref = complex(mpmath.whitw(kappa, 1j * mu, zeta))
                    tol = 1e-11 if r < special._KUMMER_MAX else 1e-13
                    assert abs(value - ref) <= tol * abs(ref), (kappa, mu, zeta)


def test_whittaker_at_strongly_negative_kappa_near_the_cut():
    # Kummer's two connection terms cancel as |Gamma(1/2 +- mu - kappa)|
    # grows: at the parent, kappa = -12 read 6.2e-7 off and kappa = -8
    # 2.2e-10, with no error; a base whose terms cancel by more than
    # _KUMMER_CANCEL now takes the integral, and within 0.99pi of the cut,
    # where the integral fails, the terms do not cancel and Kummer stays
    typed = (ConvergenceError, DomainError)
    for kappa in (-12.0, -8.0, -5.0):
        for r in (20.0, 25.0, 30.0):
            for i, frac in enumerate((0.76, 0.78, 0.8, 0.999)):
                zeta = cmath.rect(r, (-1) ** i * frac * math.pi)
                ref = complex(mpmath.whitw(kappa, 0.5j, zeta))
                try:
                    value = special.whittaker_w_complex(kappa, 0.5, zeta)
                except typed:
                    continue
                assert abs(value - ref) <= 1e-11 * abs(ref), (kappa, zeta)


@pytest.mark.parametrize("kappa", [-2.0, -3.0, -5.0, -8.0, -9.0, -12.0])
def test_whittaker_at_kappa_le_minus_2_near_the_cut(kappa):
    # where Kummer's connection terms do not cancel, its 1F1 sums still can
    # at kappa <= -2: kept on Kummer, kappa = -12, mu_im = 2.5, |zeta| = 30,
    # arg 0.751pi read 5.1e-9 off with no error
    typed = (ConvergenceError, DomainError)
    for mu in (0.1, 0.3, 1.2, 2.5):
        for r in (5.0, 10.0, 20.0, 30.0, 43.9, 60.0, 75.0, 90.0):
            for i, frac in enumerate((0.751, 0.8, 0.9, 0.999)):
                zeta = cmath.rect(r, (-1) ** i * frac * math.pi)
                ref = complex(mpmath.whitw(kappa, 1j * mu, zeta))
                try:
                    value = special.whittaker_w_complex(kappa, mu, zeta)
                except typed:
                    continue
                assert abs(value - ref) <= 1e-10 * abs(ref), (mu, zeta)


def test_whittaker_kummer_bound_at_small_imaginary_index():
    # the docstring's bound where Kummer serves, 1e-10 for mu_im in [0.1,
    # 2.5], at the points that set it, mu_im = 0.1 near |zeta| + Re zeta =
    # 12.9: 2.8e-11 at |zeta| = 43.9, arg 0.751pi, and 8.6e-11 at |zeta| +
    # Re zeta = 12.899, arg 0.76pi
    edge = 12.899 / (1.0 + math.cos(0.76 * math.pi))
    for kappa, r, frac in ((0.0, 43.9, 0.751), (-0.95, edge, 0.76)):
        zeta = cmath.rect(r, frac * math.pi)
        assert abs(zeta) + zeta.real < special._KUMMER_LOSS
        ref = complex(mpmath.whitw(kappa, 0.1j, zeta))
        value = special.whittaker_w_complex(kappa, 0.1, zeta)
        assert abs(value - ref) <= 1e-10 * abs(ref), (kappa, zeta)


@pytest.mark.parametrize("mu", [0.1, 0.3, 1.2, 2.5])
def test_psi_base_orders_keep_the_kummer_route(mu):
    # Psi's W bases lie in (-3/2, 1/2); their connection terms cancel by
    # less than 30 from mu = 0.1 on, so none of them changes route or bits
    for kappa in (-1.49, -1.25, -0.7, 0.0, 0.49):
        for r in (1.0, 3.6, 10.0, 30.0, 43.9):
            for frac in (0.7501, 0.76, 0.9, 0.999):
                zeta = cmath.rect(r, frac * math.pi)
                if abs(zeta) + zeta.real < special._KUMMER_LOSS:
                    assert special._w_kummer(kappa, mu, zeta) is not None, (kappa, mu, zeta)


def test_whittaker_past_the_double_range_near_the_cut_raises_a_domain_error():
    # the integral's prefactor e^(-zeta/2) zeta^kappa / Gamma overflowed in
    # cmath.exp: a bare OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for zeta in (cmath.rect(3000.0, 0.74 * math.pi), cmath.rect(1500.0, 0.9 * math.pi)):
            with pytest.raises(DomainError, match="past the double range"):
                special.whittaker_w_complex(0.3, 0.5, zeta)
        # still inside it: |W| = 6.3e304
        inside = special.whittaker_w_complex(0.3, 0.5, cmath.rect(1400.0, 0.99 * math.pi))
        assert cmath.isfinite(inside) and abs(inside) > 1e304


def test_whittaker_imaginary_residue_is_tiny():
    val = special.whittaker_w_complex(0.25, 0.6, 7.0 + 0j)
    assert abs(val.imag) <= 1e-10 * abs(val.real)


@pytest.mark.parametrize("kappa", (0.25, 15.25, 20.25, 160.5))
def test_whittaker_refuses_bases_with_a_phase_error(monkeypatch, kappa):
    # a 1e-6 phase error in every base value, through the prefactor's
    # Gamma; a residue test at the top order against a yardstick carried up
    # the ladder went blind from kappa ~ 15 on
    log_gamma = special.log_gamma
    monkeypatch.setattr(special, "log_gamma", lambda z: log_gamma(z) + 1e-6j)
    with pytest.raises(ConvergenceError, match="imaginary residue"):
        special.whittaker_w(kappa, 0.5, 1.0)


def test_whittaker_convergence_failure_is_reported():
    from detproc.errors import ConvergenceError
    # an index far outside the supported band oscillates too fast for the
    # panel scheme; the adaptive check must refuse rather than return junk
    with pytest.raises(ConvergenceError):
        special.whittaker_w(0.0, 50.0, 2.0)


# The seed's forms of two Whittaker internals, kept as references for the
# array evaluation: the panel loop of the t-integral and the two-call
# recursion in kappa.

def _w_integral_panel_loop(kappa, mu_im, zeta, nodes):
    mu = 1j * mu_im
    a = mu - kappa - 0.5
    b = mu + kappa - 0.5
    h = abs(zeta) * 2.0 ** -20
    g = (
        1.0 + 0j,
        -1.0 + b / zeta,
        0.5 - b / zeta + b * (b - 1.0) / (2.0 * zeta ** 2),
        -1.0 / 6.0 + b / (2.0 * zeta) - b * (b - 1.0) / (2.0 * zeta ** 2)
        + b * (b - 1.0) * (b - 2.0) / (6.0 * zeta ** 3),
    )
    total = 0j
    lh = math.log(h)
    for j, gj in enumerate(g):
        total += gj * cmath.exp((a + j + 1) * lh) / (a + j + 1)
    edges = [h]
    while edges[-1] < 80.0:
        edges.append(min(2.0 * edges[-1], 80.0))
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    for lo, hi in zip(edges[:-1], edges[1:]):
        t = 0.5 * (hi - lo) * xg + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * wg
        total += np.sum(w * np.exp(a * np.log(t) - t + b * np.log(1.0 + t / zeta)))
    pref = cmath.exp(-0.5 * zeta + kappa * cmath.log(zeta)
                     - special.log_gamma(mu - kappa + 0.5))
    return pref * total


def _whittaker_w_recursive(kappa, mu_im, zeta):
    if kappa >= 0.5 - 1e-13:
        wa = _whittaker_w_recursive(kappa - 1.0, mu_im, zeta)
        wb = _whittaker_w_recursive(kappa - 2.0, mu_im, zeta)
        return (zeta - 2.0 * kappa + 2.0) * wa - ((1.5 - kappa) ** 2 + mu_im ** 2) * wb
    return special.whittaker_w_complex(kappa, mu_im, zeta)


def test_w_integral_array_form_matches_the_panel_loop():
    # the psi suites' arguments (det points, their reflections, and the
    # jump points 1 +- i eps), plus real and complex points off the axis
    psi_zetas = [2.0 + 0.5j, 2.0 + 0.1j, 2.0 - 0.1j, -1.5 + 0.8j]
    psi_zetas += [-zeta for zeta in psi_zetas]
    psi_zetas += [complex(1.0, s * eps) for s in (1, -1)
                  for eps in (1e-2, 5e-3, 1e-3, 5e-4, 1e-4, 5e-5)]
    zetas = psi_zetas + [0.05, 0.5, 2.0, 7.0, 40.0, 1 + 1j, 3 - 0.5j, 0.3j, -1 + 2j]
    zetas = [complex(zeta) for zeta in zetas
             if abs(cmath.phase(complex(zeta))) <= special._ARG_SPLIT]
    worst = 0.0
    kappas = [-1.25, -0.75, -0.2, 0.25, 0.45]
    for mu in (0.0, 0.3, 0.6, 1.2, 3.0):
        for zeta in zetas:
            # every base in one pass; the 24-point self-check passes at
            # every point of this grid
            mine = special._w_integral(kappas, mu, zeta)
            for kappa, value in zip(kappas, mine):
                ref = _w_integral_panel_loop(kappa, mu, zeta, 32)
                worst = max(worst, abs(value - ref) / abs(ref))
    assert worst <= 1e-14


def test_whittaker_kappa_ladder_is_bitwise_the_recursion():
    for kappa in (0.75, 1.5, 2.0, 3.25):
        for zeta in (5.0 + 0j, 0.7 + 0.2j, -1.0 + 1e-3j, 2.0 - 0.1j):
            mine = special.whittaker_w_complex(kappa, 0.8, zeta)
            ref = _whittaker_w_recursive(kappa, 0.8, zeta)
            assert mine == ref


def _count_passes(monkeypatch) -> list:
    """Record the base orders of every `_w_integral` pass."""
    passes = []
    integral = special._w_integral

    def counted(kappas, *args):
        passes.append(list(kappas))
        return integral(kappas, *args)

    monkeypatch.setattr(special, "_w_integral", counted)
    return passes


def test_whittaker_orders_in_one_call(monkeypatch):
    orders = (0.75, -0.25, 1.75, -0.6)
    values = special.whittaker_w(orders, 0.6, 2.0)
    assert values.shape == (4,)
    assert values.tolist() == [special.whittaker_w(k, 0.6, 2.0) for k in orders]
    passes = _count_passes(monkeypatch)
    # W_{3/4} and W_{-1/4} share the ladder's base values -1/4 and -5/4
    special.whittaker_w((0.75, -0.25), 0.6, 2.0)
    assert len(passes) == 1 and sorted(passes[0]) == [-1.25, -0.25]


def test_whittaker_makes_one_integrand_pass_per_call(monkeypatch):
    passes = _count_passes(monkeypatch)
    kummer = []
    original = special._w_kummer

    def counted_kummer(kappa, *args):
        kummer.append(kappa)
        return original(kappa, *args)

    monkeypatch.setattr(special, "_w_kummer", counted_kummer)
    for orders, bases in (((0.75, -0.25), 2), ((0.25, -0.75), 2),
                          ((2.75, -1.6, 0.3, 0.8), 6), (0.45, 1)):
        for zeta in (2.0 + 0.5j, 0.3 - 1.0j, 7.0 + 0j):
            passes.clear()
            special.whittaker_w_complex(orders, 0.6, zeta)
            assert len(passes) == 1 and len(passes[0]) == bases
        # near the cut every base takes one Kummer connection instead
        passes.clear()
        kummer.clear()
        special.whittaker_w_complex(orders, 0.6, -1.0 + 1e-3j)
        assert not passes and len(kummer) == bases


# The parent form of the Whittaker base values, kept as the bitwise
# reference of the one-pass evaluation: one integrand pass per base order
# and quadrature rule, then the same ladders.

def _w_integral_per_base(kappa, mu_im, zeta, nodes):
    mu = 1j * mu_im
    a = mu - kappa - 0.5
    b = mu + kappa - 0.5
    h = abs(zeta) * 2.0 ** -20
    g = (
        1.0 + 0j,
        -1.0 + b / zeta,
        0.5 - b / zeta + b * (b - 1.0) / (2.0 * zeta ** 2),
        -1.0 / 6.0 + b / (2.0 * zeta) - b * (b - 1.0) / (2.0 * zeta ** 2)
        + b * (b - 1.0) * (b - 2.0) / (6.0 * zeta ** 3),
    )
    total = 0j
    lh = math.log(h)
    for j, gj in enumerate(g):
        total += gj * cmath.exp((a + j + 1) * lh) / (a + j + 1)
    edges = [h]
    while edges[-1] < 80.0:
        edges.append(min(2.0 * edges[-1], 80.0))
    edges = np.array(edges)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    t = half * xg + mid
    panels = np.sum(half * wg * np.exp(a * np.log(t) - t + b * np.log(1.0 + t / zeta)),
                    axis=1)
    total = sum(panels, total)
    pref = cmath.exp(-0.5 * zeta + kappa * cmath.log(zeta)
                     - special.log_gamma(mu - kappa + 0.5))
    return pref * total


def _whittaker_w_per_base(orders, mu_im, zeta):
    bases = {}

    def base(k):
        if k not in bases:
            if abs(cmath.phase(zeta)) > special._ARG_SPLIT:
                bases[k] = special._w_kummer(k, mu_im, zeta)
            else:
                val = _w_integral_per_base(k, mu_im, zeta, 32)
                ref = _w_integral_per_base(k, mu_im, zeta, 24)
                assert abs(val - ref) <= 1e-8 * max(abs(val), 1e-280)
                bases[k] = val
        return bases[k]

    def one(k):
        levels = []
        while k >= 0.5 - 1e-13:
            levels.append(k)
            k -= 1.0
        if not levels:
            return base(k)
        lo, hi = base(levels[-1] - 2.0), base(levels[-1] - 1.0)
        for level in reversed(levels):
            lo, hi = hi, ((zeta - 2.0 * level + 2.0) * hi
                          - ((1.5 - level) ** 2 + mu_im ** 2) * lo)
        return hi

    return np.array([one(float(k)) for k in orders])


_BENCH_Z = (0.25 + 0.6j, -0.3 + 1.2j, 0.1 + 0.3j)


def _recorded_w_calls(monkeypatch, name, run) -> list:
    """(args, value) of every call `run` makes to kernels.<name>."""
    from detproc import kernels
    calls = []
    original = getattr(kernels, name)

    def recorded(*args):
        value = original(*args)
        calls.append((args, value))
        return value

    monkeypatch.setattr(kernels, name, recorded)
    run()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("z", _BENCH_Z)
def test_whittaker_one_pass_is_bitwise_the_per_base_passes(monkeypatch, z):
    # the psi suite's W calls and the continuum kernel's W pairs at the
    # benchmark's z: every value matches one pass per base and rule bit for
    # bit, so every check residual built on them does too
    from detproc import drhp, kernels
    psi = _recorded_w_calls(monkeypatch, "whittaker_w_complex", lambda: drhp.suite_psi(z))
    assert len(psi) == 56
    for (orders, mu, zeta), value in psi:
        assert value.tobytes() == _whittaker_w_per_base(orders, mu, zeta).tobytes()
    points = np.array((0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1.5, -1.5, 0.05, 40.0))
    pairs = _recorded_w_calls(monkeypatch, "whittaker_w",
                              lambda: kernels.whittaker_kernel_k(z).matrix(points))
    assert len(pairs) == len(points)
    for (orders, mu, x), value in pairs:
        ref = _whittaker_w_per_base(orders, mu, complex(x))
        assert value.tobytes() == ref.real.tobytes()


def test_whittaker_near_its_zero_is_not_refused():
    # W_{-0.0957, 2.961i} vanishes next to x = 0.0769: the imaginary residue
    # is measured against the scale of the sum, not against |W|, so these
    # values are returned; the error is ~5e-16 absolute
    for x in (0.0767, 0.0768, 0.07685, 0.0769):
        mine = special.whittaker_w(-0.0957, 2.961, x)
        ref = float(mpmath.whitw(-0.0957, 2.961j, x).real)
        assert abs(mine) < 1e-5 and abs(mine - ref) <= 1e-15


def test_bessel_j_past_its_u_cap_raises_before_the_run():
    # a resource bound: the Miller run keeps ~u + 12 sqrt(u) floats;
    # u = 2e150 ended in an OverflowError traceback from _miller
    cap = special._MAX_U
    assert special.bessel_j(0, cap) == pytest.approx(float(mpmath.besselj(0, cap)), abs=1e-15)
    for u in (math.nextafter(cap, math.inf), 2e150, math.inf, math.nan):
        with pytest.raises(DomainError, match="bessel_j needs"):
            special.bessel_j([0, 1, 2.5], u)
    # theta = 1e6, the largest that the discrete Bessel side must admit
    assert special.bessel_j(3, 2000.0) == pytest.approx(
        float(mpmath.besselj(3, 2000)), abs=1e-15)


def test_bessel_j_integer_order_past_the_run_cap_raises_at_once():
    # Miller's rescale was quadratic in the run: bessel_j(3e5, 1.0) took 29 s
    # to build a 2.4 MB list; a run longer than the one at u = 1e4 raises
    t0 = time.perf_counter()
    for nu in (3e5, 10001.0, -10001.0):
        with pytest.raises(DomainError, match="Miller run"):
            special.bessel_j(nu, 1.0)
    assert time.perf_counter() - t0 < 0.1
    # the highest order with a run of its own inside the cap, and at
    # u = 1e4 the orders up to its reach, read from the shared run
    assert special._miller_top(10000.0, 1.0) == special._miller_top(0.0, special._MAX_U)
    assert special.bessel_j(10000.0, 1.0) == 0.0
    assert special.bessel_j(11200.0, special._MAX_U) == pytest.approx(
        scipy_jv(11200, special._MAX_U), rel=1e-8)


def test_bessel_complex_order_past_the_ladder_cap_raises_without_a_warning():
    # u^2/4 overflowed first, with a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in (1e200, 1e10, 2.0 * math.sqrt(special._LADDER_MAX + 1.5) * (1.0 + 1e-12)):
            with pytest.raises(DomainError, match="0F1 ladder"):
                special.bessel_j_complex_order(0.5, u)
        # a high order's ladder fits under the cap at the same u: c outgrows u^2/4
        assert special.bessel_j_complex_order(2.0e6 + 0.5, 2000.0) == 0.0


def _miller_reference(top: int, u: float) -> np.ndarray:
    """`special._miller` as it was when every pass of 1e250 rescaled the
    whole list, copied verbatim."""
    above = 0.0
    here = 1e-280
    vals = [0.0] * (top + 1)
    s = float(top)
    for k in range(top, -1, -1):
        vals[k] = here
        above, here = here, (2.0 * s / u) * here - above
        if abs(here) > 1e250:
            above *= 1e-250
            here *= 1e-250
            vals = [v * 1e-250 for v in vals]
        s -= 1.0
    norm = 0.0
    for k in range(top // 2):
        norm += (1.0 if k == 0 else 2.0) * vals[2 * k]
    return np.array(vals) / norm


@pytest.mark.parametrize("n, u", [(9932, 1.0), (10000, 1.0), (3000, 1e-3), (400, 1e-40),
                                  (60, 1e-12), (5000, 40.0), (0, 0.5), (0, special._MAX_U)])
def test_miller_rescaling_the_live_entries_is_bitwise_the_whole_list(n, u):
    # an entry that has underflowed to +-0.0 stays +-0.0 under x 1e-250, so
    # leaving the top zeros out of the rescale keeps every value; the order
    # 9932 run at u = 1 passes 1e250 about 160 times
    top = special._miller_top(n, u)
    assert special._miller(top, u).tobytes() == _miller_reference(top, u).tobytes()


def test_whittaker_order_past_its_cap_raises_before_the_ladder():
    # a resource bound: the ladder keeps one level per unit of kappa - 1/2,
    # and kappa = 1e9 never returned; only the cap + 1 is tried, so that no
    # long ladder is built
    for kappa in (special._KAPPA_MAX + 1.0, [0.75, special._KAPPA_MAX + 1.0]):
        with pytest.raises(DomainError, match="W needs finite orders"):
            special.whittaker_w(kappa, 0.5, 1.0)


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
def test_whittaker_order_that_is_not_finite_raises(kappa):
    # NaN returned nan, and inf never returned (its ladder stepped inf - 1)
    with pytest.raises(DomainError, match="W needs finite orders"):
        special.whittaker_w(kappa, 0.5, 1.0)


def test_whittaker_past_the_double_range_raises_without_a_warning():
    # kappa = 3000 returned nan with a RuntimeWarning.  W(x = 1) leaves the
    # double range between kappa = 170, where it is 1.8e-13 relative off
    # 40-digit mpmath, and 180
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kappa in (3000.0, 180.0, [0.5, 180.0]):
            with pytest.raises(DomainError, match="past the double range"):
                special.whittaker_w(kappa, 0.5, 1.0)
        assert special.whittaker_w(170.0, 0.5, 1.0) == pytest.approx(
            -1.1115726931762964e304, rel=1e-12)
