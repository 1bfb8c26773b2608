"""Kernel catalog: closed forms, symmetries, and degeneration limits."""

import collections
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detproc import drhp, kernels, oracle, special
from detproc.errors import (
    DegenerateGridError,
    DomainError,
    ParameterError,
    SingularOperatorError,
)
from test_special import bessel_j_dorder_reference


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


_LATTICE_SET = st.lists(st.integers(-40, 39), min_size=1, max_size=30, unique=True).map(
    lambda ks: np.array(ks) + 0.5)
# |x| >= 1e-20 reaches past the default quadrature window's 3e-20; nearer 0
# the quotient d(x) d(y) / (x - y) can leave the double range, and 0 itself
# is outside R \ {0} (test_real_line_kernels_reject_the_origin)
_REAL_SET = st.lists(
    st.one_of(st.floats(-60.0, 60.0), st.floats(-1e-6, 1e-6)).filter(lambda v: abs(v) >= 1e-20),
    min_size=1, max_size=30, unique=True).map(np.array)
_L_KERNELS = st.one_of(
    st.tuples(st.builds(kernels.plancherel_l, st.floats(0.01, 400.0)), _LATTICE_SET),
    st.tuples(st.builds(kernels.zw_l, st.builds(complex, st.floats(-3.0, 3.0),
                                                st.floats(0.05, 3.0)),
                        st.floats(0.01, 0.99)), _LATTICE_SET),
    st.tuples(st.builds(kernels.scaled_whittaker_l, st.builds(complex, st.floats(-0.49, 0.49),
                                                              st.floats(0.05, 2.5))),
              _REAL_SET))


@settings(max_examples=300, deadline=None)
@given(_L_KERNELS)
def test_l_kernels_are_two_sided_and_exactly_antisymmetric(kernel_points):
    # the type guarantees the paper's shape: d placed by sign, L = 0 on
    # same-sign pairs and L(y, x) = -L(x, y), bit for bit
    lk, x = kernel_points
    m = lk.matrix(x)
    assert np.array_equal(m, -m.T)
    assert not m[np.multiply.outer(np.sign(x), np.sign(x)) >= 0.0].any()
    d = [lk.d(np.array([p]))[0] for p in x.tolist()]
    plus = np.where(x > 0, d, 0.0)
    minus = np.where(x < 0, d, 0.0)
    f1, f2, g1, g2 = lk.fg(x)
    assert f1.tobytes() == g2.tobytes() == plus.tobytes()
    assert f2.tobytes() == g1.tobytes() == minus.tobytes()


_LATTICE_KERNELS = (kernels.plancherel_l(1.0), kernels.zw_l(0.3 + 0.8j, 0.5),
                    kernels.discrete_bessel_k(1.0), kernels.discrete_bessel_khat(1.0),
                    drhp.bessel_kernel_from_m(1.0))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_LATTICE_KERNELS),
       st.floats(-50.0, 50.0).filter(lambda v: v - math.floor(v) != 0.5),
       st.integers(-20, 19))
def test_lattice_kernels_reject_points_off_the_lattice(kern, off, k):
    # they gave plausible numbers there: discrete_bessel_k(1)(0.3, 0.3) read
    # 0.5268 and plancherel_l(1)(0.3, -1.5) 0.4772
    on = k + 0.5
    for call in (lambda: kern.matrix([on, off]), lambda: kern(on, off),
                 lambda: kern(off, on), lambda: kern(off, off)):
        with pytest.raises(DomainError, match="Z \\+ 1/2"):
            call()


@pytest.mark.parametrize("theta", [1.0, 4.0, 30.0, 100.0, 400.0, 1000.0])
def test_plancherel_l_fg_is_the_printed_libm_formula(theta):
    # bit for bit: theta^(|x|/2) / (|x|-1/2)! by math.exp and math.lgamma
    # at each point, each side with its own printed formula, zero elsewhere
    pts = (np.arange(-80, 80) + 0.5).tolist()
    lt = math.log(theta)
    plus = [math.exp(0.5 * x * lt - math.lgamma(x + 0.5)) if x > 0 else 0.0 for x in pts]
    minus = [math.exp(-0.5 * x * lt - math.lgamma(-x + 0.5)) if x < 0 else 0.0 for x in pts]
    f1, f2, g1, g2 = kernels.plancherel_l(theta).fg(pts)
    assert f1.tobytes() == g2.tobytes() == np.array(plus).tobytes()
    assert f2.tobytes() == g1.tobytes() == np.array(minus).tobytes()


def test_integrable_numerator_vanishes_on_diagonal():
    for kern in (kernels.plancherel_l(1.0),
                 kernels.zw_l(0.3 + 0.8j, 0.5),
                 kernels.scaled_whittaker_l(0.25 + 0.6j)):
        pts = (np.arange(-20, 20) + 0.5
               if kern.domain == kernels.LATTICE
               else np.linspace(-5, 5, 41))
        pts = pts[pts != 0.0]
        f1, f2, g1, g2 = kern.fg(pts)
        assert np.max(np.abs(f1 * g1 + f2 * g2)) < 1e-12


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


@pytest.mark.parametrize("z, xi", [(0.3 + 0.8j, 0.5), (0.5, 0.3), (1.5 + 2j, 0.9),
                                   (-2.7 + 0.1j, 0.1)])
def test_zw_l_fg_is_the_printed_formula(z, xi):
    # bit for bit against the per-point formula of each side
    pts = (np.arange(-40, 40) + 0.5).tolist()
    lg = special.log_gamma
    c = math.sqrt(abs(z))
    lxi = math.log(xi)
    plus = [c * math.exp(lg(z + 0.5 + x).real - lg(z + 1.0).real + 0.5 * x * lxi
                         - math.lgamma(x + 0.5)) if x > 0 else 0.0 for x in pts]
    minus = [c * math.exp(lg(-z + 0.5 - x).real - lg(-z + 1.0).real - 0.5 * x * lxi
                          - math.lgamma(-x + 0.5)) if x < 0 else 0.0 for x in pts]
    f1, f2, g1, g2 = kernels.zw_l(z, xi).fg(pts)
    assert f1.tobytes() == g2.tobytes() == np.array(plus).tobytes()
    assert f2.tobytes() == g1.tobytes() == np.array(minus).tobytes()


@pytest.mark.parametrize("z", [0.5, 0.3 + 0.8j])
def test_zw_l_rejects_the_origin(z):
    # 0 is not in Z'; the x < 0 formula has a pole there when z = 1/2
    # (Gamma(-z + 1/2 - x)), and fg gave it the data 0
    with pytest.raises(DomainError, match="Z \\+ 1/2"):
        kernels.zw_l(z, 0.4).fg([0.0, 0.5, -0.5])


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


def test_scaled_whittaker_fg_is_its_scalar_formula():
    z = 0.3 + 0.8j
    a = z.real
    c_plus = math.sqrt(abs(z)) * math.exp(-special.log_gamma(z + 1.0).real)
    c_minus = math.sqrt(abs(z)) * math.exp(-special.log_gamma(-z + 1.0).real)
    pts = np.concatenate((-np.geomspace(1e-6, 80.0, 50), np.geomspace(1e-6, 80.0, 50)))
    plus = [c_plus * x ** a * math.exp(-0.5 * x) if x > 0 else 0.0 for x in pts.tolist()]
    minus = [c_minus * (-x) ** (-a) * math.exp(0.5 * x) if x < 0 else 0.0
             for x in pts.tolist()]
    f1, f2, g1, g2 = kernels.scaled_whittaker_l(z).fg(pts)
    # numpy's exp may round differently from libm's by an ulp or two
    np.testing.assert_allclose(f1, plus, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(f2, minus, rtol=1e-15, atol=0.0)
    assert f1.tobytes() == g2.tobytes() and f2.tobytes() == g1.tobytes()


@pytest.mark.parametrize("kernel", [kernels.scaled_whittaker_l(0.25 + 0.6j),
                                    kernels.whittaker_kernel_k(0.25 + 0.6j)],
                         ids=lambda k: k.name)
def test_real_line_kernels_reject_the_origin(kernel):
    # 0 is not in R \ {0}: d ~ |x|^(-+Re z) is singular there on one side,
    # and the L-kernel's fg gave it the data 0, a zero row and column
    for call in (lambda: kernel.fg([0.0, 1.0, -1.0]), lambda: kernel.matrix([1.0, 0.0]),
                 lambda: kernel(0.0, 0.0), lambda: kernel(1.0, -0.0)):
        with pytest.raises(DomainError, match="R \\\\ \\{0\\}"):
            call()


def test_plancherel_l_data_past_the_double_range_raises():
    # matrix and the scalar call alike; both ended in "math range error"
    kernel = kernels.plancherel_l(1e10)
    for call in (lambda: kernel.matrix(oracle.lattice_window(100).points),
                 lambda: kernel(99.5, -0.5), lambda: kernel.fg([0.5, 99.5])):
        with pytest.raises(DomainError, match="overflows a double"):
            call()
    # every entry that is finite keeps its bits
    small = kernels.plancherel_l(1e10).matrix([0.5, -0.5, 1.5, -1.5])
    lt = math.log(1e10)
    d = [math.exp(0.5 * t * lt - math.lgamma(t + 0.5)) for t in (0.5, 1.5)]
    assert small[0, 1] == d[0] * d[0] / 1.0 and small[2, 1] == d[1] * d[0] / 2.0


@pytest.mark.parametrize("z_im", [452.0, 1e300])
def test_whittaker_constants_past_the_double_range_raise(z_im):
    # sqrt|z| / |Gamma(1 +- z)| grows like e^(pi |Im z| / 2); 1e300 ended
    # in an OverflowError traceback
    for family in (kernels.whittaker_kernel_k, kernels.scaled_whittaker_l):
        with pytest.raises(ParameterError, match="overflows a double"):
            family(complex(0.2, z_im))


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
    F1, F2, G1, G2 = kb.fg([2.5])
    assert abs(F1 * G1 + F2 * G2)[0] < 1e-15


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


def _uncached_bessel_kernels(theta):
    """K and K^ as scalar closures, written before the Bessel values were
    memoised, as (F1, F2, G1, G2, dF1, dF2).

    Every F, G, dF and diagonal lookup calls bessel_j, or the frozen
    one-order-per-call dJ/dnu of tests/test_special.py, afresh; kept as the
    reference the memoised kernels must match bit for bit.
    """
    eta = math.sqrt(theta)
    u = 2.0 * eta
    s = math.sqrt(eta)

    def j(nu):
        return s * special.bessel_j(nu, u)

    def dj(nu):
        return s * bessel_j_dorder_reference(nu, u)

    k = (
        lambda x: j(x - 0.5) if x > 0 else j(-x + 0.5),
        lambda x: -j(x + 0.5) if x > 0 else j(-x - 0.5),
        lambda x: j(x + 0.5) if x > 0 else j(-x - 0.5),
        lambda x: j(x - 0.5) if x > 0 else -j(-x + 0.5),
        lambda x: dj(x - 0.5) if x > 0 else -dj(-x + 0.5),
        lambda x: -dj(x + 0.5) if x > 0 else -dj(-x - 0.5),
    )
    khat = (
        lambda x: -j(x - 0.5) if x > 0 else j(-x + 0.5),
        lambda x: -j(x + 0.5) if x > 0 else -j(-x - 0.5),
        lambda x: -j(x + 0.5) if x > 0 else j(-x - 0.5),
        lambda x: j(x - 0.5) if x > 0 else j(-x + 0.5),
        lambda x: -dj(x - 0.5) if x > 0 else -dj(-x + 0.5),
        lambda x: -dj(x + 0.5) if x > 0 else dj(-x - 0.5),
    )
    return k, khat


def _entry_by_entry(closures, pts):
    # each closure once per point, then entry by entry in Python floats:
    # (F1 G1 + F2 G2)/(x - y) off the diagonal, F1' G1 + F2' G2 on it
    xs = pts.tolist()
    F1, F2, G1, G2, dF1, dF2 = ([f(x) for x in xs] for f in closures)
    return np.array([[dF1[i] * G1[i] + dF2[i] * G2[i] if i == j
                      else (F1[i] * G1[j] + F2[i] * G2[j]) / (xs[i] - xs[j])
                      for j in range(len(xs))] for i in range(len(xs))])


# the benchmark's (theta, window radius) pairs
_BESSEL_WINDOWS = ((1.0, 15), (4.0, 20), (30.0, 30), (100.0, 40))


@pytest.mark.parametrize("theta, m", _BESSEL_WINDOWS)
def test_discrete_bessel_memo_is_bitwise_the_uncached_kernel(theta, m):
    pts = oracle.lattice_window(m).points
    ref_k, ref_khat = _uncached_bessel_kernels(theta)
    k = kernels.discrete_bessel_k(theta).matrix(pts)
    khat = kernels.discrete_bessel_khat(theta).matrix(pts)
    assert k.tobytes() == _entry_by_entry(ref_k, pts).tobytes()
    assert khat.tobytes() == _entry_by_entry(ref_khat, pts).tobytes()


@pytest.mark.parametrize("theta, m", _BESSEL_WINDOWS)
def test_khat_is_k_conjugated_by_the_sign_matrix(theta, m):
    # L vanishes on same-sign pairs, so D L D = -L for D = diag(sgn x) and
    # K^ = L (L-1)^(-1) = D K D: bit for bit in closed form and in the oracle
    window = oracle.lattice_window(m)
    d = np.sign(window.points)
    sign = np.outer(d, d)
    k = kernels.discrete_bessel_k(theta).matrix(window.points)
    khat = kernels.discrete_bessel_khat(theta).matrix(window.points)
    assert khat.tobytes() == (sign * k).tobytes()
    l_op = oracle.materialize(kernels.plancherel_l(theta), window)
    assert (oracle.khat_from_l(l_op).entries.tobytes()
            == (sign * oracle.k_from_l(l_op).entries).tobytes())
    # khat_from_l takes D K D without a solve: the solve at -L is that, too
    assert (oracle._resolvent(window, -l_op.entries).entries.tobytes()
            == (sign * oracle.k_from_l(l_op).entries).tobytes())


@pytest.mark.parametrize("build", [kernels.discrete_bessel_k, kernels.discrete_bessel_khat,
                                   lambda theta: kernels.whittaker_kernel_k(0.25 + 0.6j)])
def test_matrix_evaluates_f_and_g_once(build):
    # the diagonal took a second fg call of its own; now the quotient's G
    # and one df call serve it, and the matrix is the same bit for bit
    kern = build(30.0)
    pts = oracle.lattice_window(12).points
    calls = []

    def counted(name, data):
        return lambda points: calls.append(name) or data(points)

    counted_kern = kernels.AssembledKernel(kern.domain, counted("f", kern.f),
                                           counted("df", kern.df), kern.name)
    assert counted_kern.matrix(pts).tobytes() == kern.matrix(pts).tobytes()
    assert sorted(calls) == ["df", "f"]


@pytest.mark.parametrize("build", [kernels.discrete_bessel_k,
                                   kernels.discrete_bessel_khat])
def test_discrete_bessel_computes_each_bessel_value_once(monkeypatch, build):
    # one bessel_j call (one ladder) and one dJ/dnu call on the window's
    # M + 1 orders per kernel; a fresh kernel pays again
    calls = []
    ladders = []
    j, dj = kernels.bessel_j, kernels.bessel_j_dorder

    def counted_j(orders, u):
        ladders.append(list(orders))
        return j(orders, u)

    def counted_dj(orders, u):
        calls.append(list(orders))
        return dj(orders, u)

    monkeypatch.setattr(kernels, "bessel_j", counted_j)
    monkeypatch.setattr(kernels, "bessel_j_dorder", counted_dj)
    for theta, m in ((4.0, 20), (30.0, 30), (100.0, 40)):
        pts = oracle.lattice_window(m).points
        calls.clear()
        ladders.clear()
        kern = build(theta)
        first = kern.matrix(pts)
        orders = [float(n) for n in range(m + 1)]
        assert ladders == [orders] and calls == [orders]
        calls.clear()
        ladders.clear()
        assert kern.matrix(pts).tobytes() == first.tobytes()
        assert not calls and not ladders
        # the memo belongs to the kernel: a fresh one pays again
        assert build(theta).matrix(pts).tobytes() == first.tobytes()
        assert ladders == [orders] and calls == [orders]


def test_discrete_bessel_diagonal_beyond_dorder_range_raises():
    # theta = 100 puts dJ/dnu at u = 20, the edge of its series range
    assert 0.0 <= kernels.discrete_bessel_k(100.0)(0.5, 0.5) <= 1.0
    kb = kernels.discrete_bessel_k(400.0)
    with pytest.raises(DomainError):
        kb(0.5, 0.5)
    with pytest.raises(DomainError):
        kernels.discrete_bessel_khat(400.0)(-2.5, -2.5)
    # off-diagonal entries need J only
    j = special.bessel_j
    expected = 20.0 * (j(0.0, 40.0) * j(2.0, 40.0) - j(1.0, 40.0) ** 2) / (0.5 - 1.5)
    assert kb(0.5, 1.5) == pytest.approx(expected, abs=1e-14)
    assert math.isfinite(kb(-0.5, 3.5))


# ---------------------------------------------------------------- whittaker kernel

def test_whittaker_kernel_parameter_validation():
    with pytest.raises(ParameterError):
        kernels.whittaker_kernel_k(0.25 + 0j)
    with pytest.raises(ParameterError):
        kernels.whittaker_kernel_k(0.75 + 0.6j)


def test_whittaker_kernel_fg_identity():
    kk = kernels.whittaker_kernel_k(0.25 + 0.6j)
    F1, F2, G1, G2 = kk.fg([1.3])
    assert abs(F1 * G1 + F2 * G2)[0] < 1e-8


def test_whittaker_kernel_diagonal_is_the_continuity_limit():
    kk = kernels.whittaker_kernel_k(0.25 + 0.6j)
    # continuity limit: compare against a much smaller step
    x = np.array([0.7, -1.2])
    direct = 0.5 * (kk.off_diagonal(x, x + 1e-5) + kk.off_diagonal(x, x - 1e-5))
    assert kk.diagonal(x) == pytest.approx(direct, abs=1e-7)


def _whittaker_diagonal_reference(z: complex, x: float) -> float:
    """F1'G1 + F2'G2 from mpmath's W, derivatives by mpmath.diff (30 digits)."""
    a, m, r = z.real, z.imag, abs(z)
    zc = mpmath.mpc(z.real, z.imag)
    c = mpmath.sqrt(r) / abs(mpmath.gamma(1 + zc if x > 0 else 1 - zc))

    def w(kappa, t):
        return mpmath.re(mpmath.whitw(kappa, 1j * m, t)) / mpmath.sqrt(t)

    def f(s):
        # (F1, F2) near x, on x's side of 0
        if x > 0:
            return c * w(a + 0.5, s), -c * r * w(a - 0.5, s)
        return c * r * w(-a - 0.5, -s), c * w(-a + 0.5, -s)

    f1, f2 = f(mpmath.mpf(x))
    g1, g2 = (-f2, f1) if x > 0 else (f2, -f1)
    df1 = mpmath.diff(lambda s: f(s)[0], x)
    df2 = mpmath.diff(lambda s: f(s)[1], x)
    return float(df1 * g1 + df2 * g2)


def test_whittaker_kernel_diagonal_matches_mpmath():
    # the benchmark's points and z; 5.7e-15 max(1, |K|) is the largest
    # error measured here
    points = np.array((0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1.5, -1.5))
    with mpmath.workdps(30):
        for z in (0.25 + 0.6j, -0.3 + 1.2j, 0.1 + 0.3j):
            got = kernels.whittaker_kernel_k(z).diagonal(points)
            for x, k in zip(points.tolist(), got.tolist()):
                want = _whittaker_diagonal_reference(z, x)
                assert abs(k - want) <= 1e-12 * max(1.0, abs(want)), (z, x)


@settings(max_examples=40, deadline=None)
@given(re=st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True),
       im=st.floats(0.1, 1.5), im_sign=st.sampled_from((1.0, -1.0)),
       x=st.floats(0.2, 5.0), x_sign=st.sampled_from((1.0, -1.0)))
def test_whittaker_kernel_diagonal_is_the_symmetric_quotient_limit(re, im, im_sign,
                                                                   x, x_sign):
    # the closed-form diagonal against the h = 1e-5 symmetric quotient of
    # off-diagonal entries (5.9e-10 max(1, |K|) at most in a scan)
    kk = kernels.whittaker_kernel_k(complex(re, im_sign * im))
    pts = np.array([x_sign * x])
    diag = kk.diagonal(pts)[0]
    quotient = 0.5 * (kk.off_diagonal(pts, pts + 1e-5) + kk.off_diagonal(pts, pts - 1e-5))[0]
    assert abs(diag - quotient) <= 1e-8 * max(1.0, abs(diag))


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
        # 0.5 and -1.5, two orders each; the diagonal needs no new W
        assert len(calls) == 4 and set(calls.values()) == {1}
        fresh = kernels.whittaker_kernel_k(z)
        assert (fresh(-1.5, -1.5), fresh(0.5, -1.5)) == (diag, off)


def test_psi_det_one():
    for zeta in (2.0 + 0.1j, 2.0 - 0.1j):
        psi = kernels.psi_matrix(0.25 + 0.6j, zeta)
        assert abs(np.linalg.det(psi) - 1.0) < 1e-12


# ---------------------------------------------------------------- matrix vs scalar

_LATTICE_POINTS = st.lists(st.integers(-12, 11), min_size=1, max_size=5,
                           unique=True).map(lambda ks: np.array(ks) + 0.5)
_REAL_POINTS = st.lists(
    st.tuples(st.sampled_from((1.0, -1.0)), st.floats(0.2, 5.0)).map(
        lambda sx: sx[0] * sx[1]),
    min_size=1, max_size=4, unique=True).map(np.array)
_FAMILIES = {
    "plancherel-l": (lambda: kernels.plancherel_l(2.0), _LATTICE_POINTS),
    "zw-l": (lambda: kernels.zw_l(0.3 + 0.8j, 0.5), _LATTICE_POINTS),
    "scaled-whittaker-l": (lambda: kernels.scaled_whittaker_l(0.25 + 0.6j),
                           _REAL_POINTS),
    "discrete-bessel-k": (lambda: kernels.discrete_bessel_k(4.0), _LATTICE_POINTS),
    "discrete-bessel-khat": (lambda: kernels.discrete_bessel_khat(30.0),
                             _LATTICE_POINTS),
    "whittaker-k": (lambda: kernels.whittaker_kernel_k(-0.3 + 1.2j), _REAL_POINTS),
    "bessel-k-from-m": (lambda: drhp.bessel_kernel_from_m(1.0), _LATTICE_POINTS),
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_matrix_entries_are_bitwise_the_scalar_kernel(family, data):
    # one array evaluation for the window and one fg call per scalar entry
    # must agree to the last bit, the diagonal rule included
    build, points = _FAMILIES[family]
    pts = data.draw(points)
    mat = build().matrix(pts)
    kern = build()
    scalar = np.array([[kern(x, y) for y in pts.tolist()] for x in pts.tolist()])
    assert mat.tobytes() == scalar.tobytes()


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_matrix_rejects_a_repeated_point(family):
    # x - y vanishes off the diagonal, where the entry read NaN; the points
    # lie on the lattice and on the real line alike
    build, _ = _FAMILIES[family]
    with pytest.raises(DomainError, match="repeats"):
        build().matrix([0.5, -1.5, 0.5])


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=str)
def test_matrix_rejects_a_non_finite_point(family, bad):
    # W at inf ended in a math domain error and nan gave NaN entries; the
    # check comes before the kernel's data is evaluated
    build, _ = _FAMILIES[family]
    with pytest.raises(DomainError, match="finite points"):
        build().matrix([0.5, bad, -1.5])


def test_matrix_rejects_an_entry_that_is_not_a_finite_double():
    # d(x) d(y) / (x - y) overflows at two subnormal-scale points: the
    # entries read +-inf after a numpy RuntimeWarning
    with pytest.raises(DomainError, match=r"\(1e-313, -5e-324\) is inf, not a finite double"):
        kernels.scaled_whittaker_l(0.25 + 0.6j).matrix([1e-313, -5e-324])


def test_scalar_call_rejects_an_entry_that_is_not_a_finite_double():
    # each d is finite at these points, only d(x) d(y) overflows: the scalar
    # call read -inf after a numpy RuntimeWarning where matrix raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kern, x, y in ((kernels.plancherel_l(2e5), -908.5, 434.5),
                           (kernels.scaled_whittaker_l(0.25 + 0.6j), 1e-313, -5e-324)):
            with pytest.raises(DomainError, match="not a finite double"):
                kern.matrix([x, y])
            with pytest.raises(DomainError, match=f"\\({x}, {y}\\) is -?inf, not a finite double"):
                kern(x, y)
        # an AssembledKernel whose F overflows in the product, off and on
        # the diagonal
        big = kernels.AssembledKernel(kernels.REAL_LINE, lambda x: (1e200 * x, 1e200 * x),
                                      lambda x: (1e200 * x, 1e200 * x))
        for x, y in ((1.0, -2.0), (3.0, 3.0)):
            with pytest.raises(DomainError, match="not a finite double"):
                big(x, y)
            with pytest.raises(DomainError, match="not a finite double"):
                big.matrix([x, y] if x != y else [x])


# ---------------------------------------------------------------- christoffel-darboux

def test_cd_two_point_grid_constant():
    kern = kernels.ChristoffelDarbouxKernel([0.0, 1.0], [1.0, 1.0], 1)
    assert kern.matrix() == pytest.approx(np.full((2, 2), 0.5), rel=1e-14)


def test_cd_two_forms_agree():
    grid = np.linspace(-2.5, 2.5, 30)
    kern = kernels.ChristoffelDarbouxKernel(grid, np.exp(-grid ** 2), 5)
    every_fourth = np.ix_(range(0, 30, 4), range(0, 30, 4))
    sum_form, cd_form = kern.matrix()[every_fourth], kern.cd_matrix()[every_fourth]
    off = ~np.eye(sum_form.shape[0], dtype=bool)
    assert sum_form[off] == pytest.approx(cd_form[off], abs=1e-10)


def test_cd_projection_and_trace():
    grid = np.linspace(-2.5, 2.5, 30)
    kern = kernels.ChristoffelDarbouxKernel(grid, np.exp(-grid ** 2), 5)
    mat = kern.matrix()
    assert np.max(np.abs(mat @ mat - mat)) < 1e-10
    assert kern.trace() == pytest.approx(5.0, abs=1e-10)
    assert np.max(np.abs(mat - mat.T)) < 1e-12


def test_cd_degeneracy_error():
    with pytest.raises(DegenerateGridError):
        kernels.ChristoffelDarbouxKernel([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], 3)
    with pytest.raises(DegenerateGridError):
        kernels.ChristoffelDarbouxKernel([0.0, 1.0], [1.0, -1.0], 1)


@pytest.mark.parametrize("grid, weights, n", [
    ([0.0, 1.0, 2.0], [1.0, 1.0], 1),                  # unequal lengths
    ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], 4),             # N above the grid size
    ([0.0, 1e-100, 2e-100], [1e-300] * 3, 2),          # h_1 underflows to 0
])
def test_cd_rejects_a_degenerate_grid(grid, weights, n):
    with pytest.raises(DegenerateGridError):
        kernels.ChristoffelDarbouxKernel(grid, weights, n)


def _cd_by_recurrence(grid, weights, n):
    """The per-entry reference: Stieltjes coefficients, then p_0..p_N at
    each point of an entry by the three-term recurrence."""
    alpha, beta, h = np.zeros(n), np.zeros(n), np.zeros(n + 1)
    p_prev, p_cur = np.zeros_like(grid), np.ones_like(grid)
    for k in range(n):
        h[k] = np.sum(weights * p_cur * p_cur)
        alpha[k] = np.sum(weights * grid * p_cur * p_cur) / h[k]
        beta[k] = h[k] / h[k - 1] if k else 0.0
        p_prev, p_cur = p_cur, (grid - alpha[k]) * p_cur - beta[k] * p_prev
    h[n] = np.sum(weights * p_cur * p_cur)

    def polys(x):
        vals = [1.0, x - alpha[0]]
        for k in range(1, n):
            vals.append((x - alpha[k]) * vals[k] - beta[k] * vals[k - 1])
        return np.array(vals)

    size = grid.size
    sum_form = np.zeros((size, size))
    cd_form = np.full((size, size), np.nan)
    for i, x in enumerate(grid):
        for j, y in enumerate(grid):
            px, py = polys(x), polys(y)
            scale = math.sqrt(weights[i] * weights[j])
            sum_form[i, j] = np.sum(px[:n] * py[:n] / h[:n]) * scale
            if x != y:
                cd_form[i, j] = ((px[n] * py[n - 1] - px[n - 1] * py[n])
                                 / (h[n - 1] * (x - y)) * scale)
    return sum_form, cd_form


@pytest.mark.parametrize("case", ["gaussian", "uneven"])
def test_cd_grid_matrices_are_the_per_entry_recurrence(case):
    if case == "gaussian":
        grid = np.linspace(-2.5, 2.5, 30)
        weights, n = np.exp(-grid ** 2), 5
    else:
        rng = np.random.default_rng(7)
        grid = np.sort(rng.uniform(-1.0, 3.0, 17))
        weights, n = rng.uniform(0.2, 2.0, 17), 8
    kern = kernels.ChristoffelDarbouxKernel(grid, weights, n)
    sum_ref, cd_ref = _cd_by_recurrence(grid, weights, n)
    off = ~np.isnan(cd_ref)
    assert np.max(np.abs(kern.matrix() - sum_ref)) < 1e-14
    assert np.max(np.abs(kern.cd_matrix()[off] - cd_ref[off])) < 1e-14
    assert kern.trace() == pytest.approx(n, abs=1e-12)


def test_cd_matrix_with_a_repeated_node_is_a_projection():
    # each node keeps its own weight, so K is a projection on the nodes
    kern = kernels.ChristoffelDarbouxKernel([0.0, 0.0, 1.0, 2.0], [1.0, 3.0, 1.0, 2.0], 2)
    mat = kern.matrix()
    assert np.max(np.abs(mat @ mat - mat)) < 1e-14
    assert kern.trace() == pytest.approx(2.0, abs=1e-14)


# ---------------------------------------------------------------- two point

def test_two_point_zero_case():
    assert np.max(np.abs(kernels.TwoPointModel(0.0, 0.0).k_matrix())) == 0.0


def test_two_point_closed_form():
    mu, nu = 0.3, 0.5
    k = kernels.TwoPointModel(mu, nu).k_matrix()
    expected = np.array([[-mu * nu, mu], [nu, -mu * nu]]) / (1 - mu * nu)
    assert np.max(np.abs(k - expected)) < 1e-15


def test_two_point_matches_matrix_oracle():
    mu, nu = 0.3, 0.5
    l = np.array([[0.0, mu], [nu, 0.0]])
    direct = np.linalg.solve(np.eye(2) + l, l)
    assert np.max(np.abs(kernels.TwoPointModel(mu, nu).k_matrix() - direct)) < 1e-15


def test_two_point_singularity():
    with pytest.raises(SingularOperatorError):
        kernels.TwoPointModel(2.0, 0.5).k_matrix()
    with pytest.raises(ParameterError):
        kernels.TwoPointModel(0.1, 0.2, 1.0, 1.0)


def _printed_two_point_w(mu, nu, a, b):
    """The residue weights of the two-point problem as printed, at a then b."""
    return np.array([[[0.0, 0.0], [mu * (b - a), 0.0]],
                     [[0.0, nu * (a - b)], [0.0, 0.0]]], dtype=complex)


def test_two_point_data_are_tables_over_the_two_points():
    # the parameters of both two-point suites in the tests
    for mu, nu, a, b in ((0.3, 0.5, 0.0, 1.0), (-0.4, 0.7, 1.0 + 1.0j, -2.0)):
        model = kernels.TwoPointModel(mu, nu, a=a, b=b)
        for table in (model.f(), model.g(), model.resolvent_f(), model.resolvent_g(),
                      model.m_prime_f_limit()):
            assert table.shape == (2, 2)
        # row 0 at a, row 1 at b, and w = -f g^t is the printed table bit for bit
        assert np.array_equal(model.f()[0], [0.0, mu * (a - b)])
        assert np.array_equal(model.g(), np.eye(2))
        assert np.array_equal(model.w(), _printed_two_point_w(mu, nu, a, b))
