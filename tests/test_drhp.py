"""Riemann-Hilbert certification: residues, jumps, ODEs, toy models."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detproc import drhp, kernels
from detproc.drhp import ResidualCheck
from detproc.errors import PoleError


def _assert_all_pass(rows):
    failed = [(r.check_id, r.point, r.residual, r.tolerance)
              for r in rows if not r.passed]
    assert not failed, f"failed checks: {failed}"


# ---------------------------------------------------------------- 0F1 series

def _hyp0f1_reference(c: complex, w: float) -> complex:
    """The scalar term recurrence that drhp._hyp0f1 runs for every element."""
    s = t = 1.0 + 0j
    for k in range(400):
        t = t * w / ((k + 1) * (c + k))
        s += t
        if abs(t) < 1e-18 * max(abs(s), 1e-300):
            return s
    return s


_PHASE = st.floats(0.0, 2.0 * math.pi)
# the four series arguments of m on the |zeta| = 40 circle of fit_m1
_ON_CIRCLE = st.tuples(_PHASE, st.sampled_from([0.5, 1.5])).flatmap(
    lambda pa: st.sampled_from([40.0 * cmath.exp(1j * pa[0]) + pa[1],
                                pa[1] - 40.0 * cmath.exp(1j * pa[0])]))
# the arguments of m on the residue circles around the poles -k
_NEAR_POLE = st.builds(lambda k, phi: -k + 1e-3 * cmath.exp(1j * phi),
                       st.integers(0, 12), _PHASE)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_ON_CIRCLE, _NEAR_POLE), min_size=1, max_size=40),
       st.sampled_from([-1.0, -30.0, -100.0]))
def test_hyp0f1_array_is_bitwise_the_scalar_recurrence(cs, w):
    got = drhp._hyp0f1(np.array(cs), w)
    want = np.array([_hyp0f1_reference(c, w) for c in cs])
    assert got.tobytes() == want.tobytes()


def test_hyp0f1_shapes_and_poles(monkeypatch):
    cs = np.array([[0.5 + 1j, 2.0], [-1.5, 3.0 - 2j]])
    got = drhp._hyp0f1(cs, -2.0)
    assert got.shape == (2, 2)
    assert got.tobytes() == np.array(
        [[_hyp0f1_reference(complex(c), -2.0) for c in row] for row in cs]).tobytes()
    assert drhp._hyp0f1(np.array([]), -1.0).shape == (0,)
    # the result does not depend on how the elements are split into passes
    monkeypatch.setattr(drhp, "_SERIES_BLOCK", 3)
    assert drhp._hyp0f1(cs, -2.0).tobytes() == got.tobytes()
    with pytest.raises(PoleError):
        drhp._hyp0f1(np.array([1.5, -2.0]), -1.0)


def test_m_array_matches_points():
    m = drhp.bessel_m(30.0)
    zetas = np.array([0.3 + 0.4j, -2.2 + 1.0j, 10j, 3.0 + 1e-3j])
    batch = m(zetas)
    assert batch.shape == (4, 2, 2)
    for zeta, mz in zip(zetas, batch):
        single = m(complex(zeta))
        assert single.shape == (2, 2)
        assert single.tobytes() == mz.tobytes()
    n = drhp.bessel_n(30.0)
    assert n(zetas).tobytes() == np.array([n(complex(z)) for z in zetas]).tobytes()


# ---------------------------------------------------------------- bessel side

def test_p_condition_and_phat_variant():
    _assert_all_pass(drhp.check_p_condition(1.0, [3.5, 7.5, -4.5]))


def test_p_recurrence():
    _assert_all_pass(drhp.check_p_recurrence(1.0, [1.3, 0.3 + 0.4j, -2.5]))


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


def test_m_residue_conditions():
    xs = [k + 0.5 for k in range(-11, 11)]
    _assert_all_pass(drhp.check_m_residues(1.0, xs))


def test_m_reflection_symmetry():
    # m11(z) = m22(-z) and m12(z) = -m21(-z): the symmetry that forces
    # gamma = beta, delta = -alpha in the 1/zeta coefficient
    m = drhp.bessel_m(2.0)
    zetas = np.array([0.3 + 0.4j, 1.2 - 0.7j, 2.5j])
    for a, b in zip(m(zetas), m(-zetas)):
        assert abs(a[0, 0] - b[1, 1]) < 1e-14
        assert abs(a[0, 1] + b[1, 0]) < 1e-14


def test_m_normalization_decreasing_and_remainder():
    _assert_all_pass(drhp.check_m_normalization(1.0))


def test_m1_fit_symmetry():
    _assert_all_pass(drhp.check_m1_symmetry(1.0))
    m1 = drhp.fit_m1(1.0)
    assert np.max(np.abs(m1 - drhp.bessel_m1_exact(1.0))) < 1e-8


def test_ode_in_eta_and_beta_sign_selection():
    rows = drhp.ode_check_eta(1.0)
    _assert_all_pass(rows)
    ids = {r.check_id for r in rows}
    assert "ode-eta-beta-minus" in ids
    assert "ode-eta-beta-plus-must-fail" in ids
    assert "ode-p11-second-order" in ids


def test_verifier_kernel_agrees_with_bessel_kernel():
    theta = 1.0
    km = drhp.bessel_kernel_from_m(theta)
    kb = kernels.discrete_bessel_k(theta)
    pts = [k + 0.5 for k in range(-11, 11)]
    worst = max(abs(km(x, y) - kb(x, y)) for x in pts for y in pts)
    assert worst < 1e-9


# ---------------------------------------------------------------- whittaker side

def test_psi_suite():
    _assert_all_pass(drhp.suite_psi(0.25 + 0.6j))


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
    _assert_all_pass(drhp.verify_two_point(0.3, 0.5))


def test_two_point_other_points():
    _assert_all_pass(drhp.verify_two_point(-0.4, 0.7, a=1.0 + 1.0j, b=-2.0))


def test_two_point_diagonal_value():
    model = kernels.TwoPointModel(0.3, 0.5)
    g = model.resolvent_g(model.a)
    lim = model.m_prime_f_limit(model.a)
    mn = 0.3 * 0.5
    assert (g @ lim).real == pytest.approx(-mn / (1 - mn), rel=1e-14)


def test_contour_suite():
    _assert_all_pass(drhp.suite_contour())


# ---------------------------------------------------------------- reports

def test_report_csv_roundtrip(tmp_path):
    rows = [ResidualCheck("alpha", "x=1", 1e-12, 1e-9),
            ResidualCheck("beta", "x=2", 1.0, 1e-9)]
    path = tmp_path / "report.csv"
    drhp.report_to_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "check_id,point,residual,tolerance,pass"
    assert lines[1].startswith("alpha,x=1,") and lines[1].endswith("true")
    assert lines[2].startswith("beta,x=2,") and lines[2].endswith("false")
    assert not drhp.all_pass(rows)
