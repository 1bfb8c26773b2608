"""Each public route meets the bound its docstring states, on a grid that
reaches the edges of its stated range.

Continuum route: `NystromResolvent.k_at` on the default quadrature window
against the closed-form `whittaker_kernel_k`, and `NystromResolvent.fredholm_det`
against the dense determinant of the same window.  Lattice route: the
diagonal of `discrete_bessel_k` against the tail sum of J_n^2.
"""

import itertools
import math

import numpy as np
import pytest

from detproc import kernels, oracle, special
from detproc.errors import DegenerateGridError, DomainError, WindowError

_WINDOW = oracle.quadrature_window()
_X = (0.05, -0.05, 0.5, -0.5, 2.0, -2.0, 7.0, -7.0)


@pytest.mark.parametrize("im", [0.05, 0.6, 2.5])
@pytest.mark.parametrize("re", [-0.45, 0.0, 0.45])
def test_continuum_k_at_meets_its_documented_bound(re, im):
    # k_at's docstring: 1e-12 max(1, |K|) for |Im z| <= 1, 1e-8 for
    # |Im z| <= 2.5; the worst measured are 9.7e-14 and 5.1e-10
    z = complex(re, im)
    tol = 1e-12 if im <= 1.0 else 1e-8
    kk = kernels.whittaker_kernel_k(z)
    ny = oracle.NystromResolvent(kernels.scaled_whittaker_l(z), _WINDOW)
    for x, y in itertools.product(_X, _X):
        ref = kk(x, y)
        assert abs(ny.k_at(x, y) - ref) <= tol * max(1.0, abs(ref))


@pytest.mark.parametrize("z", [0.25 + 0.6j, -0.3 + 1.2j, 0.1 + 0.3j])
def test_nystrom_fredholm_det_is_the_dense_det(z):
    # det S of the Schur complement against dense LU of 1 + L~ on the same
    # nodes; the worst measured is 6.1e-13 relative, at z = -0.3 + 1.2i
    lk = kernels.scaled_whittaker_l(z)
    dense = oracle.fredholm_det(oracle.materialize(lk, _WINDOW))
    schur = oracle.NystromResolvent(lk, _WINDOW).fredholm_det()
    assert abs(schur - dense) <= 5e-12 * abs(dense)


@pytest.mark.parametrize("theta, m, bound", [(1.0, 15, 1e-15), (30.0, 30, 4e-12),
                                             (100.0, 40, 4e-8)])
def test_lattice_diagonal_meets_its_documented_bound(theta, m, bound):
    # discrete_bessel_k's docstring: 3.9e-16 / 1.9e-12 / 1.8e-8 against
    # K(x, x) = sum_{n >= |x| + 1/2} J_n(2 sqrt(theta))^2 on |x| <= M - 1/2
    pts = oracle.lattice_window(m).points
    orders = np.arange(m + 2.0 * np.sqrt(theta) + 80.0)
    squares = special.bessel_j(orders, 2.0 * np.sqrt(theta)) ** 2
    # smallest terms first
    tail = np.cumsum(squares[::-1])[::-1]
    ref = tail[(np.abs(pts) + 0.5).astype(int)]
    assert np.max(np.abs(kernels.discrete_bessel_k(theta).diagonal(pts) - ref)) <= bound


@pytest.mark.parametrize("theta", [100.5, 400.0])
def test_lattice_diagonal_raises_beyond_theta_100(theta):
    kern = kernels.discrete_bessel_k(theta)
    with pytest.raises(DomainError):
        kern.diagonal([0.5])
    with pytest.raises(DomainError):
        kern.matrix([0.5, 1.5])


@pytest.mark.parametrize("call, error", [
    # a bare ValueError from round(nan)
    (lambda: special.bessel_j(math.nan, 2.0), DomainError),
    # a bare OverflowError from round(inf)
    (lambda: special.bessel_j(math.inf, 2.0), DomainError),
    # a bare ValueError from floor(nan) in 1/Gamma
    (lambda: special.bessel_j_dorder(math.nan, 2.0), DomainError),
    # returned nan+nanj
    (lambda: special.log_gamma(math.nan), DomainError),
    # a TypeError from range()
    (lambda: oracle.lattice_window(2.5), WindowError),
    # returned an all-NaN matrix
    (lambda: kernels.ChristoffelDarbouxKernel([0.0, math.nan, 1.0], [1.0, 1.0, 1.0], 2),
     DegenerateGridError),
], ids=["bessel_j-nan", "bessel_j-inf", "bessel_j_dorder-nan", "log_gamma-nan",
        "lattice_window-2.5", "christoffel_darboux-nan-node"])
def test_bad_public_input_raises_its_typed_error(call, error):
    with pytest.raises(error):
        call()
