"""Kernel catalog: closed forms, symmetries, and degeneration limits."""

import collections
import itertools
import math

import numpy as np
import pytest

from detproc import kernels, special
from detproc.errors import (
    DegenerateGridError,
    ParameterError,
    SingularOperatorError,
)


# ---------------------------------------------------------------- plancherel L

def test_plancherel_l_same_sign_vanishes():
    lk = kernels.plancherel_l(1.0)
    assert lk(1.5, 2.5) == 0.0
    assert lk(-0.5, -3.5) == 0.0
    assert lk(2.5, 2.5) == 0.0


def test_plancherel_l_value():
    lk = kernels.plancherel_l(1.0)
    assert lk(0.5, -0.5) == pytest.approx(1.0, rel=1e-15)
    # theta^{(|x|+|y|)/2} / ((|x|-1/2)! (|y|-1/2)! (x-y))
    lk3 = kernels.plancherel_l(3.0)
    expected = 3.0 ** ((1.5 + 0.5) / 2) / (1.0 * 1.0 * 2.0)
    assert lk3(1.5, -0.5) == pytest.approx(expected, rel=1e-14)


def test_plancherel_l_skew_symmetric():
    lk = kernels.plancherel_l(2.0)
    pts = [k + 0.5 for k in range(-5, 5)]
    for x, y in itertools.product(pts, pts):
        assert lk(x, y) == pytest.approx(-lk(y, x), abs=1e-12)


def test_integrable_numerator_vanishes_on_diagonal():
    for kern in (kernels.plancherel_l(1.0),
                 kernels.zw_l(0.3 + 0.8j, 0.5),
                 kernels.scaled_whittaker_l(0.25 + 0.6j)):
        pts = ([k + 0.5 for k in range(-20, 20)]
               if kern.domain == kernels.LATTICE
               else list(np.linspace(-5, 5, 41)))
        for x in pts:
            if x == 0.0:
                continue
            assert abs(kern.numerator(x, x)) < 1e-12


# ---------------------------------------------------------------- zw L

def test_zw_l_parameter_validation():
    with pytest.raises(ParameterError):
        kernels.zw_l(2.0 + 0j, 0.5)         # integer z
    with pytest.raises(ParameterError):
        kernels.zw_l(0.3 + 0.8j, 1.0)       # xi not in (0,1)


def test_zw_l_same_sign_vanishes():
    lk = kernels.zw_l(0.3 + 0.8j, 0.5)
    assert lk(1.5, 2.5) == 0.0
    assert lk(-0.5, -1.5) == 0.0


def test_zw_l_matches_exact_pochhammer_products():
    # independent route: |z (z+1)_(x-1/2) (-z+1)_(-y-1/2)| xi^((x-y)/2)
    # over (x-1/2)! (-y-1/2)! (x-y), with exact rising-factorial products
    z, xi = 0.3 + 0.8j, 0.37
    lk = kernels.zw_l(z, xi)
    for x, y in ((0.5, -0.5), (2.5, -1.5), (5.5, -3.5)):
        direct = (abs(z * special.pochhammer(z + 1, int(x - 0.5))
                      * special.pochhammer(-z + 1, int(-y - 0.5)))
                  * xi ** ((x - y) / 2)
                  / (math.gamma(x + 0.5) * math.gamma(-y + 0.5) * (x - y)))
        assert lk(x, y) == pytest.approx(direct, rel=1e-13)
        # mirrored case goes through the other branch of the formula
        assert lk(y, x) == pytest.approx(-direct, rel=1e-13)


def test_zw_l_skew_symmetric():
    lk = kernels.zw_l(0.3 + 0.8j, 0.4)
    pts = [k + 0.5 for k in range(-4, 4)]
    for x, y in itertools.product(pts, pts):
        assert lk(x, y) == pytest.approx(-lk(y, x), abs=1e-12)


def test_zw_l_degenerates_to_plancherel():
    theta = 1.0
    pl = kernels.plancherel_l(theta)
    pts = [k + 0.5 for k in range(-4, 4)]
    errs = []
    for absz in (20.0, 50.0, 100.0):
        zk = kernels.zw_l(complex(0.0, absz), theta / absz ** 2)
        worst = 0.0
        for x, y in itertools.product(pts, pts):
            ref = pl(x, y)
            if ref != 0.0:
                worst = max(worst, abs(zk(x, y) - ref) / abs(ref))
        errs.append(worst)
    assert errs[1] < 0.05
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------- scaled whittaker L

def test_scaled_whittaker_parameter_validation():
    with pytest.raises(ParameterError):
        kernels.scaled_whittaker_l(0.3 + 0j)      # real z
    with pytest.raises(ParameterError):
        kernels.scaled_whittaker_l(0.6 + 0.5j)    # |Re z| >= 1/2


def test_scaled_whittaker_skew_and_vanishing():
    lk = kernels.scaled_whittaker_l(0.3 + 0.8j)
    assert lk(1.0, -0.5) == pytest.approx(-lk(-0.5, 1.0), rel=1e-13)
    assert lk(1.0, 2.0) == 0.0


def test_scaled_whittaker_matches_sine_coefficient():
    # f/g quotient must reproduce |sin pi z|/pi (x/|y|)^Re z e^{(y-x)/2}/(x-y)
    import cmath
    z = 0.3 + 0.8j
    lk = kernels.scaled_whittaker_l(z)
    x, y = 1.3, -0.4
    coeff = abs(cmath.sin(math.pi * z)) / math.pi
    expected = coeff * (x / abs(y)) ** z.real * math.exp((-x + y) / 2) / (x - y)
    assert lk(x, y) == pytest.approx(expected, rel=1e-13)


def test_zw_scaling_limit_to_whittaker():
    z = 0.25 + 0.6j
    target = kernels.scaled_whittaker_l(z)
    sample = [0.5, 1.0, 2.0, -0.5, -1.0, -2.0]
    errs = []
    for xi in (0.9, 0.99):
        zk = kernels.zw_l(z, xi)
        scale = 1.0 - xi
        worst = 0.0
        for x, y in itertools.product(sample, sample):
            if x * y > 0:
                continue
            lx = math.floor(x / scale) + 0.5
            ly = math.floor(y / scale) + 0.5
            worst = max(worst, abs(zk(lx, ly) / scale - target(x, y)))
        errs.append(worst)
    assert errs[1] < errs[0]


# ---------------------------------------------------------------- discrete bessel

def test_discrete_bessel_positive_block_value():
    kb = kernels.discrete_bessel_k(1.0)
    j = special.bessel_j
    expected = (j(0.0, 2.0) * j(2.0, 2.0) - j(1.0, 2.0) ** 2) / (0.5 - 1.5)
    assert kb(0.5, 1.5) == pytest.approx(expected, abs=1e-14)
    assert kb(0.5, 1.5) == pytest.approx(0.2536, abs=5e-5)


def test_discrete_bessel_fg_identity_on_diagonal():
    kb = kernels.discrete_bessel_k(2.0)
    x = 2.5
    assert abs(kb.F1(x) * kb.G1(x) + kb.F2(x) * kb.G2(x)) < 1e-15


def test_discrete_bessel_diagonal_in_unit_interval():
    for theta in (0.5, 1.0, 4.0):
        kb = kernels.discrete_bessel_k(theta)
        for k in range(-11, 11):
            x = k + 0.5
            val = kb(x, x)
            assert -1e-12 <= val <= 1.0 + 1e-12


def test_discrete_bessel_block_symmetry():
    # symmetric within the same-sign blocks, antisymmetric across them
    kb = kernels.discrete_bessel_k(1.5)
    pts = [k + 0.5 for k in range(-6, 6)]
    for x, y in itertools.product(pts, pts):
        if x != y:
            sign = 1.0 if x * y > 0 else -1.0
            assert kb(x, y) == pytest.approx(sign * kb(y, x), abs=1e-13)


def test_khat_diagonal_matches_k_diagonal():
    kb = kernels.discrete_bessel_k(1.0)
    kh = kernels.discrete_bessel_khat(1.0)
    for x in (0.5, 2.5, -1.5):
        assert kh(x, x) == pytest.approx(kb(x, x), abs=1e-13)


# ---------------------------------------------------------------- whittaker kernel

def test_whittaker_kernel_parameter_validation():
    with pytest.raises(ParameterError):
        kernels.whittaker_kernel_k(0.25 + 0j)
    with pytest.raises(ParameterError):
        kernels.whittaker_kernel_k(0.75 + 0.6j)


def test_whittaker_kernel_fg_identity():
    kk = kernels.whittaker_kernel_k(0.25 + 0.6j)
    x = 1.3
    assert abs(kk.F1(x) * kk.G1(x) + kk.F2(x) * kk.G2(x)) < 1e-8


def test_whittaker_kernel_diagonal_by_richardson():
    kk = kernels.whittaker_kernel_k(0.25 + 0.6j)
    # continuity limit: compare against a much smaller step
    for x in (0.7, -1.2):
        direct = 0.5 * (kk.off_diagonal(x, x + 1e-5) + kk.off_diagonal(x, x - 1e-5))
        assert kk(x, x) == pytest.approx(direct, abs=1e-7)


def test_whittaker_kernel_density_nonnegative():
    kk = kernels.whittaker_kernel_k(0.25 + 0.6j)
    for x in (0.3, 0.7, 1.5, -0.4, -1.1, -2.5):
        assert kk(x, x) >= -1e-9


def test_whittaker_kernel_block_symmetry():
    kk = kernels.whittaker_kernel_k(0.25 + 0.6j)
    for x, y in ((0.5, 1.5), (-0.7, -2.0), (0.5, -1.0), (-0.3, 2.0)):
        sign = 1.0 if x * y > 0 else -1.0
        assert kk(x, y) == pytest.approx(sign * kk(y, x), rel=1e-10)


def test_whittaker_kernel_computes_each_w_once(monkeypatch):
    calls = collections.Counter()
    w = kernels.whittaker_w

    def counted(kappa, mu_im, x):
        calls.update((float(k), x) for k in kappa)
        return w(kappa, mu_im, x)

    monkeypatch.setattr(kernels, "whittaker_w", counted)
    for z in (0.25 + 0.6j, -0.3 + 1.2j):
        calls.clear()
        kk = kernels.whittaker_kernel_k(z)
        off, diag = kk(0.5, -1.5), kk(-1.5, -1.5)
        # 0.5, -1.5 and the six Richardson points, two orders each
        assert len(calls) == 16 and set(calls.values()) == {1}
        fresh = kernels.whittaker_kernel_k(z)
        assert (fresh(-1.5, -1.5), fresh(0.5, -1.5)) == (diag, off)


def test_psi_det_one():
    for zeta in (2.0 + 0.1j, 2.0 - 0.1j):
        psi = kernels.psi_matrix(0.25 + 0.6j, zeta)
        assert abs(np.linalg.det(psi) - 1.0) < 1e-8


# ---------------------------------------------------------------- christoffel-darboux

def test_cd_two_point_grid_constant():
    kern = kernels.christoffel_darboux_k([0.0, 1.0], [1.0, 1.0], 1)
    for x in (0.0, 1.0):
        for y in (0.0, 1.0):
            assert kern(x, y) == pytest.approx(0.5, rel=1e-14)


def test_cd_two_forms_agree():
    grid = np.linspace(-2.5, 2.5, 30)
    kern = kernels.christoffel_darboux_k(grid, np.exp(-grid ** 2), 5)
    for x in grid[::4]:
        for y in grid[::4]:
            if x != y:
                assert kern.sum_form(float(x), float(y)) == pytest.approx(
                    kern.cd_form(float(x), float(y)), abs=1e-10)


def test_cd_projection_and_trace():
    grid = np.linspace(-2.5, 2.5, 30)
    kern = kernels.christoffel_darboux_k(grid, np.exp(-grid ** 2), 5)
    mat = kern.matrix()
    assert np.max(np.abs(mat @ mat - mat)) < 1e-10
    assert kern.trace() == pytest.approx(5.0, abs=1e-10)
    assert np.max(np.abs(mat - mat.T)) < 1e-12


def test_cd_degeneracy_error():
    with pytest.raises(DegenerateGridError):
        kernels.christoffel_darboux_k([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], 3)
    with pytest.raises(DegenerateGridError):
        kernels.christoffel_darboux_k([0.0, 1.0], [1.0, -1.0], 1)


# ---------------------------------------------------------------- two point

def test_two_point_zero_case():
    assert np.max(np.abs(kernels.two_point_k(0.0, 0.0))) == 0.0


def test_two_point_closed_form():
    mu, nu = 0.3, 0.5
    k = kernels.two_point_k(mu, nu)
    expected = np.array([[-mu * nu, mu], [nu, -mu * nu]]) / (1 - mu * nu)
    assert np.max(np.abs(k - expected)) < 1e-15


def test_two_point_matches_matrix_oracle():
    mu, nu = 0.3, 0.5
    l = np.array([[0.0, mu], [nu, 0.0]])
    direct = np.linalg.solve(np.eye(2) + l, l)
    assert np.max(np.abs(kernels.two_point_k(mu, nu) - direct)) < 1e-15


def test_two_point_singularity():
    with pytest.raises(SingularOperatorError):
        kernels.two_point_k(2.0, 0.5)
    with pytest.raises(ParameterError):
        kernels.TwoPointModel(0.1, 0.2, 1.0, 1.0)


def test_kernel_params_validation():
    kernels.KernelParams(theta=1.0, z=0.3 + 0.8j, xi=0.5)
    assert kernels.KernelParams(theta=4.0).eta == 2.0
    with pytest.raises(ParameterError):
        kernels.KernelParams(theta=-1.0)
    with pytest.raises(ParameterError):
        kernels.KernelParams(z=3.0 + 0j)
    with pytest.raises(ParameterError):
        kernels.KernelParams(xi=1.5)
