"""Scalar special functions against classical values and library oracles.

mpmath/scipy serve as independent references; the derived checks (finite
differences, recurrences, asymptotics) mirror how each routine is consumed
by the kernel formulas.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.special import jv as scipy_jv

from detproc import special
from detproc.errors import BesselOverflowError, DomainError, PoleError

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


def test_bessel_series_asymptotic_overlap():
    worst = 0.0
    for u in np.linspace(15.0, 25.0, 9):
        for nu in (-5.0, -2.5, -0.5, 0.0, 1.0, 3.5, 5.0):
            s = special._jv_series(nu, float(u))
            h, _ = special._jv_hankel(nu, float(u))
            worst = max(worst, abs(s - h))
    assert worst < 1e-9


def test_bessel_domain_and_overflow():
    with pytest.raises(DomainError):
        special.bessel_j(0.5, -1.0)
    with pytest.raises(DomainError):
        special.bessel_j(-0.5, 0.0)
    with pytest.raises(BesselOverflowError):
        special.bessel_j(-59.5, 1e-4)   # reflection growth beyond doubles


def test_bessel_complex_order_matches_real():
    for nu in (-3.0, 0.5, 2.0):
        mine = special.bessel_j_complex_order(complex(nu), 2.0)
        assert abs(mine.imag) < 1e-15
        assert mine.real == pytest.approx(special.bessel_j(nu, 2.0), abs=1e-14)


def test_bessel_complex_order_vs_mpmath():
    for nu in (0.3 + 0.4j, -1.2 + 2.5j, 10.0 - 40.0j):
        mine = special.bessel_j_complex_order(nu, 2.0)
        ref = complex(mpmath.besselj(mpmath.mpc(nu), 2.0))
        assert abs(mine - ref) < 1e-12 * max(1.0, abs(ref))


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
    coarse = special.whittaker_w_complex(0.0, 0.0, 2.0 + 0j, nodes=32, _check=False)
    fine = special.whittaker_w_complex(0.0, 0.0, 2.0 + 0j, nodes=64, _check=False)
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
        assert abs(mine - ref) <= 1e-8 * max(abs(ref), 1e-250)


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


def test_whittaker_imaginary_residue_is_tiny():
    val = special.whittaker_w_complex(0.25, 0.6, 7.0 + 0j)
    assert abs(val.imag) <= 1e-10 * abs(val.real)


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
    for kappa in (-1.25, -0.75, -0.2, 0.25, 0.45):
        for mu in (0.0, 0.3, 0.6, 1.2, 3.0):
            for zeta in zetas:
                for nodes in (24, 32):
                    ref = _w_integral_panel_loop(kappa, mu, zeta, nodes)
                    mine = special._w_integral(kappa, mu, zeta, nodes)
                    worst = max(worst, abs(mine - ref) / abs(ref))
    assert worst <= 1e-14


def test_whittaker_kappa_ladder_is_bitwise_the_recursion():
    for kappa in (0.75, 1.5, 2.0, 3.25):
        for zeta in (5.0 + 0j, 0.7 + 0.2j, -1.0 + 1e-3j, 2.0 - 0.1j):
            mine = special.whittaker_w_complex(kappa, 0.8, zeta)
            ref = _whittaker_w_recursive(kappa, 0.8, zeta)
            assert mine == ref


def test_whittaker_orders_in_one_call(monkeypatch):
    orders = (0.75, -0.25, 1.75, -0.6)
    values = special.whittaker_w(orders, 0.6, 2.0)
    assert values.shape == (4,)
    assert values.tolist() == [special.whittaker_w(k, 0.6, 2.0) for k in orders]
    bases = []
    base = special._w_base

    def counted(kappa, *args):
        bases.append(kappa)
        return base(kappa, *args)

    monkeypatch.setattr(special, "_w_base", counted)
    # W_{3/4} and W_{-1/4} share the ladder's base values -1/4 and -5/4
    special.whittaker_w((0.75, -0.25), 0.6, 2.0)
    assert sorted(bases) == [-1.25, -0.25]
