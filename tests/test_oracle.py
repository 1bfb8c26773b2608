"""Dense-window oracle: materialization, resolvents, determinants, minors."""

import math

import numpy as np
import pytest

from detproc import kernels, oracle, partitions
from detproc.errors import SingularOperatorError, WindowError


def test_lattice_window_points():
    win = oracle.lattice_window(3)
    assert list(win.points) == [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]


def test_materialize_plancherel_m1():
    # L on {-1/2, +1/2}: L(-1/2,1/2) = -1, L(1/2,-1/2) = +1 at theta = 1
    op = oracle.materialize(kernels.plancherel_l(1.0), oracle.lattice_window(1))
    assert np.max(np.abs(op.entries - np.array([[0.0, -1.0], [1.0, 0.0]]))) < 1e-15


def test_materialize_domain_mismatch():
    with pytest.raises(WindowError):
        oracle.materialize(kernels.scaled_whittaker_l(0.25 + 0.6j),
                           oracle.lattice_window(3))
    with pytest.raises(WindowError):
        oracle.materialize(kernels.plancherel_l(1.0),
                           oracle.quadrature_window(5.0, 1e-3, 4))


def test_k_from_l_zero_kernel():
    op = oracle.WindowedOperator.from_matrix([0.0, 1.0], np.zeros((2, 2)))
    assert np.max(np.abs(oracle.k_from_l(op).entries)) == 0.0
    assert np.max(np.abs(oracle.khat_from_l(op).entries)) == 0.0


def test_k_from_l_two_point_closed_form():
    mu, nu = 0.3, 0.5
    op = oracle.WindowedOperator.from_matrix(
        [0.0, 1.0], np.array([[0.0, mu], [nu, 0.0]]))
    k = oracle.k_from_l(op)
    assert np.max(np.abs(k.entries - kernels.two_point_k(mu, nu))) < 1e-15
    khat = oracle.khat_from_l(op)
    expected = np.array([[mu * nu, mu], [nu, mu * nu]]) / (mu * nu - 1.0)
    assert np.max(np.abs(khat.entries - expected)) < 1e-15
    model = kernels.TwoPointModel(mu, nu)
    assert np.max(np.abs(khat.entries - model.khat_matrix())) < 1e-15


def test_k_from_l_singularity():
    op = oracle.WindowedOperator.from_matrix(
        [0.0, 1.0], np.array([[0.0, 2.0], [0.5, 0.0]]))
    with pytest.raises(SingularOperatorError):
        oracle.khat_from_l(op)   # L - 1 singular when mu*nu = 1


def test_resolvent_identity():
    # (1+L)(1-K) = 1
    lop = oracle.materialize(kernels.plancherel_l(1.0), oracle.lattice_window(20))
    k = oracle.k_from_l(lop)
    eye = np.eye(lop.size)
    resid = (eye + lop.entries) @ (eye - k.entries) - eye
    assert np.max(np.abs(resid)) < 1e-11


def test_fredholm_det_identities():
    assert oracle.fredholm_det(
        oracle.WindowedOperator.from_matrix([0.0], np.zeros((1, 1)))) == 1.0
    mu, nu = 0.3, 0.5
    two = oracle.WindowedOperator.from_matrix(
        [0.0, 1.0], np.array([[0.0, mu], [nu, 0.0]]))
    assert oracle.fredholm_det(two) == pytest.approx(1 - mu * nu, rel=1e-14)
    for theta in (0.5, 1.0, 4.0):
        lop = oracle.materialize(kernels.plancherel_l(theta),
                                 oracle.lattice_window(30))
        assert oracle.fredholm_det(lop) == pytest.approx(
            math.exp(theta), rel=1e-12)


def test_fredholm_det_window_stable():
    vals = [oracle.fredholm_det(oracle.materialize(
        kernels.plancherel_l(1.0), oracle.lattice_window(m))) for m in (25, 30)]
    assert abs(vals[0] - vals[1]) < 1e-12


def test_fredholm_det_skew_at_least_one():
    for theta in (0.5, 2.0, 4.0):
        lop = oracle.materialize(kernels.plancherel_l(theta),
                                 oracle.lattice_window(25))
        assert oracle.fredholm_det(lop) >= 1.0


def test_prob_of_configuration():
    theta = 1.0
    lop = oracle.materialize(kernels.plancherel_l(theta), oracle.lattice_window(30))
    # empty configuration: 1/det(1+L) = e^-theta
    assert oracle.prob_of_configuration(lop, []) == pytest.approx(
        math.exp(-theta), rel=1e-12)
    # single point has a zero diagonal minor
    assert oracle.prob_of_configuration(lop, [1]) == 0.0
    # matches the weight formula on small diagrams
    for n in range(7):
        for lam in partitions.enumerate_partitions(n):
            prob = oracle.prob_of_configuration(lop, sorted(partitions.fr_config(lam)))
            assert prob == pytest.approx(
                partitions.plancherel_weight(lam, theta), rel=1e-12)


def test_prob_total_mass_with_tail():
    theta = 1.0
    lop = oracle.materialize(kernels.plancherel_l(theta), oracle.lattice_window(30))
    total = sum(oracle.prob_of_configuration(lop, sorted(partitions.fr_config(lam)))
                for n in range(13) for lam in partitions.enumerate_partitions(n))
    # exact Poisson tail beyond size 12
    tail = 1.0 - math.exp(-theta) * sum(theta ** n / math.factorial(n)
                                        for n in range(13))
    assert abs(total + tail - 1.0) < 1e-8


def test_correlation_from_k():
    theta = 1.0
    lop = oracle.materialize(kernels.plancherel_l(theta), oracle.lattice_window(25))
    k = oracle.k_from_l(lop)
    assert oracle.correlation_from_k(k, [1]) == pytest.approx(
        k.value_at(0.5, 0.5), rel=1e-14)
    assert oracle.correlation_from_k(k, [1, 1]) == 0.0
    # determinant minors of a correlation kernel are probabilities
    for pts in ([1], [1, -1], [1, 3, -1]):
        rho = oracle.correlation_from_k(k, pts)
        assert -1e-12 <= rho <= 1.0 + 1e-12


def test_max_abs_diff_contract():
    lop = oracle.materialize(kernels.plancherel_l(1.0), oracle.lattice_window(25))
    k = oracle.k_from_l(lop)
    assert oracle.max_abs_diff(lambda x, y: k.value_at(x, y), k,
                               [1, -1, 3]) == 0.0
    with pytest.raises(WindowError):
        oracle.max_abs_diff(lambda x, y: 0.0, k, [41])  # margin violated


def test_index_of_finds_every_point_and_rejects_others():
    lattice = oracle.lattice_window(6)
    quad = oracle.quadrature_window(r=10.0, eps=1e-2, nodes_per_panel=4)
    uneven = oracle.Window(kernels.LATTICE, np.array([0.5, 2.5, -1.5]))
    for window in (lattice, quad, uneven):
        for i, x in enumerate(window.points):
            assert window.index_of(x) == i
    assert lattice.index_of(np.float64(-5.5)) == 0
    repeated = oracle.Window("finite", np.array([1.0, 2.0, 1.0]))
    assert repeated.index_of(1.0) == 0
    for window, outside in ((lattice, (6.5, -6.5, 0.0, 0.25, math.nan, math.inf)),
                            (quad, (0.0, 10.5, quad.points[3] + 1e-12)),
                            (uneven, (1.5, -0.5))):
        for x in outside:
            with pytest.raises(WindowError):
                window.index_of(x)


def test_quadrature_window_shape():
    win = oracle.quadrature_window(40.0, 1e-4, 16)
    assert win.weights is not None
    assert np.all(win.weights > 0)
    assert np.min(win.points) > -40.0 and np.max(win.points) < 40.0
    assert np.min(np.abs(win.points)) > 1e-4
    # symmetric about 0
    assert np.max(np.abs(win.points + win.points[::-1])) < 1e-15


def test_nystrom_self_convergence():
    z = 0.25 + 0.6j
    lk = kernels.scaled_whittaker_l(z)
    coarse = oracle.NystromResolvent(lk, oracle.quadrature_window(40.0, 1e-4, 16))
    fine = oracle.NystromResolvent(lk, oracle.quadrature_window(40.0, 1e-4, 32))
    pts = (0.5, -1.0, 2.0)
    for x in pts:
        for y in pts:
            if x != y:
                assert abs(coarse.k_at(x, y) - fine.k_at(x, y)) < 1e-4


def _small_nystrom():
    return oracle.NystromResolvent(kernels.scaled_whittaker_l(0.25 + 0.6j),
                                   oracle.quadrature_window(10.0, 1e-2, 4))


def test_nystrom_rows_and_columns_are_the_scalar_kernel():
    ny = _small_nystrom()
    lk, pts = ny.kernel, ny.window.points
    for p in (0.5, -1.0, 2.0, pts[3], pts[-7]):
        assert ny.row(p).tolist() == [lk(p, float(t)) for t in pts]
        assert ny.column(p).tolist() == [lk(float(t), p) for t in pts]
    assert ny.row(pts[3])[3] == 0.0 and ny.column(pts[-7])[-7] == 0.0


def test_nystrom_k_at_nodes_is_the_full_resolvent():
    ny = oracle.NystromResolvent(kernels.scaled_whittaker_l(0.25 + 0.6j),
                                 oracle.quadrature_window())
    full = oracle.k_from_l(ny.l_op)
    pts = ny.window.points
    # entries next to 0 reach ~3e3, so the bound is relative where |K| > 1
    for i in (0, 5, 200, 303, 304, 450, 607):
        for j in (5, 303, 304, 450):
            ref = full.value_at(pts[i], pts[j])
            assert abs(ny.k_at(pts[i], pts[j]) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_nystrom_column_solve_failures_raise(monkeypatch):
    ny = _small_nystrom()
    ny._a = np.zeros_like(ny._a)
    with pytest.raises(SingularOperatorError):
        ny.k_at(0.5, 1.0)
    lk = kernels.scaled_whittaker_l(0.25 + 0.6j)
    broken = kernels.IntegrableKernel(
        lk.domain, lk.f1, lk.f2, lambda y: math.nan if y == 1.0 else lk.g1(y), lk.g2)
    ny = oracle.NystromResolvent(broken, oracle.quadrature_window(10.0, 1e-2, 4))
    with pytest.raises(SingularOperatorError, match="non-finite"):
        ny.k_at(0.5, 1.0)
    ny = _small_nystrom()
    monkeypatch.setattr(oracle, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(SingularOperatorError, match="condition estimate"):
        ny.k_at(0.5, 1.0)
