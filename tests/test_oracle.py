"""Dense-window oracle: materialization, resolvents, determinants, minors."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detproc import kernels, oracle, partitions
from detproc.errors import DomainError, ParameterError, SingularOperatorError, WindowError


def _from_matrix(points, entries) -> oracle.WindowedOperator:
    """An operator with the given entries on a finite point set."""
    return oracle.WindowedOperator(
        oracle.Window("finite", np.asarray(points, dtype=float)),
        np.asarray(entries, dtype=float))


def _small_window() -> oracle.Window:
    # 40 nodes a side: eps e^(kh) for k = 0..39
    return oracle.quadrature_window(10.0, 1e-2, 0.175)


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
                           oracle.quadrature_window(5.0, 1e-3, 1.0))


def test_k_from_l_zero_kernel():
    op = _from_matrix([0.0, 1.0], np.zeros((2, 2)))
    assert np.max(np.abs(oracle.k_from_l(op).entries)) == 0.0
    assert np.max(np.abs(oracle.khat_from_l(op).entries)) == 0.0


def test_k_from_l_two_point_closed_form():
    mu, nu = 0.3, 0.5
    op = _from_matrix([0.0, 1.0], np.array([[0.0, mu], [nu, 0.0]]))
    k = oracle.k_from_l(op)
    assert np.max(np.abs(k.entries - kernels.TwoPointModel(mu, nu).k_matrix())) < 1e-15
    khat = oracle.khat_from_l(op)
    expected = np.array([[mu * nu, mu], [nu, mu * nu]]) / (mu * nu - 1.0)
    assert np.max(np.abs(khat.entries - expected)) < 1e-15
    # K^ is K at -L
    assert np.max(np.abs(khat.entries - kernels.TwoPointModel(-mu, -nu).k_matrix())) < 1e-15


@pytest.mark.parametrize("points", [[0.0, 1.0], [1.0, 2.0], [-1.0, 1.0]])
def test_khat_of_the_two_point_model_is_the_solve_at_minus_l(points):
    # on a window with 0, or where L does not vanish on same-sign pairs,
    # K^ is solved at -L; on {-1, 1} the model is two-sided and K^ = D K D
    # is that solve bit for bit
    op = _from_matrix(points, kernels.TwoPointModel(0.3, 0.5).l_matrix())
    solve = oracle._resolvent(op.window, -op.entries)
    assert oracle.khat_from_l(op).entries.tobytes() == solve.entries.tobytes()


def test_one_lattice_operator_solves_and_factors_once(monkeypatch):
    # k_from_l solved (1+L)K = L, khat_from_l solved again at -L, and
    # fredholm_det and each prob_of_configuration factored 1 + L anew
    solves, dets = [], []
    resolvent, det = oracle._resolvent, oracle._det
    monkeypatch.setattr(oracle, "_resolvent",
                        lambda window, ln: solves.append(1) or resolvent(window, ln))
    monkeypatch.setattr(oracle, "_det", lambda a: dets.append(1) or det(a))
    window = oracle.lattice_window(20)
    l_op = oracle.materialize(kernels.plancherel_l(4.0), window)
    k = oracle.k_from_l(l_op)
    khat = oracle.khat_from_l(l_op)
    assert oracle.fredholm_det(l_op) == pytest.approx(math.exp(4.0), rel=1e-12)
    for lam in ([1], [2, 1], [3, 1, 1]):
        diagram = partitions.YoungDiagram(lam)
        prob = oracle.prob_of_configuration(l_op, sorted(partitions.fr_config(diagram)))
        assert prob == pytest.approx(partitions.plancherel_weight(diagram, 4.0), rel=1e-12)
    assert oracle.k_from_l(l_op) is k
    assert len(solves) == 1 and len(dets) == 1
    d = np.sign(window.points)
    assert khat.entries.tobytes() == (np.outer(d, d) * k.entries).tobytes()
    # the shared K and the operator's entries are read-only
    for entries in (k.entries, l_op.entries):
        with pytest.raises(ValueError):
            entries[0, 0] = 1.0


def test_k_from_l_singularity():
    op = _from_matrix([0.0, 1.0], np.array([[0.0, 2.0], [0.5, 0.0]]))
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
        _from_matrix([0.0], np.zeros((1, 1)))) == 1.0
    mu, nu = 0.3, 0.5
    two = _from_matrix([0.0, 1.0], np.array([[0.0, mu], [nu, 0.0]]))
    assert oracle.fredholm_det(two) == pytest.approx(1 - mu * nu, rel=1e-14)
    for theta in (0.5, 1.0, 4.0):
        lop = oracle.materialize(kernels.plancherel_l(theta),
                                 oracle.lattice_window(30))
        assert oracle.fredholm_det(lop) == pytest.approx(
            math.exp(theta), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 30.0))
def test_fredholm_det_of_plancherel_l_is_e_to_the_theta(theta):
    # det(1 + L) = e^theta on a window 20 sites past the edge 2 sqrt(theta)
    # of the bulk: at most 2.0e-13 relative over 302 theta in [0.05, 30]
    window = oracle.lattice_window(math.ceil(2.0 * math.sqrt(theta)) + 20)
    det = oracle.fredholm_det(oracle.materialize(kernels.plancherel_l(theta), window))
    assert abs(det - math.exp(theta)) <= 1e-12 * math.exp(theta)


def test_fredholm_det_beyond_the_double_range_raises():
    # det(1 + 2I) = 3^700 = e^769: it was returned as inf with a numpy warning
    big = _from_matrix(np.arange(700.0), 2.0 * np.eye(700))
    with pytest.raises(SingularOperatorError, match="overflows a double"):
        oracle.fredholm_det(big)
    # just inside the range the value is exp(logdet)
    edge = _from_matrix([0.0], [[math.exp(709.0) - 1.0]])
    assert oracle.fredholm_det(edge) == pytest.approx(math.exp(709.0), rel=1e-13)


def test_window_kinds_are_kernel_domains():
    # a window takes the kernels of its own domain; a finite window any
    assert oracle.quadrature_window().kind == kernels.REAL_LINE
    assert oracle.lattice_window(2).kind == kernels.LATTICE
    real = kernels.scaled_whittaker_l(0.25 + 0.6j)
    with pytest.raises(WindowError, match="real-line window"):
        oracle.materialize(kernels.plancherel_l(1.0), _small_window())
    with pytest.raises(WindowError, match="lattice window"):
        oracle.materialize(real, oracle.lattice_window(2))
    finite = oracle.Window("finite", np.array([0.5, -1.5]))
    for kern in (real, kernels.plancherel_l(1.0)):
        assert oracle.materialize(kern, finite).entries.shape == (2, 2)


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


def test_correlation_from_k_on_no_points_is_one():
    k = oracle.k_from_l(oracle.materialize(kernels.plancherel_l(1.0),
                                           oracle.lattice_window(10)))
    assert oracle.correlation_from_k(k, []) == 1.0


@pytest.mark.parametrize("points", [[2], [1.0], [0.5]])
def test_minors_take_odd_doubled_integers(points):
    # a float or an even point decoded to a half-integer or failed as "not
    # in the window"; both raise DomainError at the decoder now
    lop = oracle.materialize(kernels.plancherel_l(1.0), oracle.lattice_window(10))
    with pytest.raises(DomainError):
        oracle.prob_of_configuration(lop, points)
    with pytest.raises(DomainError):
        oracle.correlation_from_k(oracle.k_from_l(lop), points)


def test_nystrom_needs_a_quadrature_window():
    with pytest.raises(WindowError, match="quadrature window"):
        oracle.NystromResolvent(kernels.plancherel_l(1.0), oracle.lattice_window(5))


def test_index_of_finds_every_point_and_rejects_others():
    lattice = oracle.lattice_window(6)
    quad = _small_window()
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
    win = oracle.quadrature_window()
    assert win.size == 284
    pos = win.points[142:]
    # x = e^s on s = -45, -45 + 0.35, ..., 4.35 <= 4.5, weights h e^s
    assert np.max(np.abs(np.log(pos) - (-45.0 + 0.35 * np.arange(142)))) < 1e-13
    assert np.array_equal(win.weights, 0.35 * np.abs(win.points))
    assert np.array_equal(win.points, -win.points[::-1])
    assert np.all(np.diff(win.points) > 0)
    small = _small_window()
    assert small.size == 80
    assert np.min(np.abs(small.points)) == pytest.approx(1e-2, rel=1e-14)
    assert np.max(small.points) <= 10.0
    for r, eps, h in ((1.0, 1.0, 0.35), (1.0, 0.0, 0.35), (10.0, 1e-2, 0.0),
                      (10.0, 1e-2, -0.1), (10.0, 1e-2, math.nan),
                      (math.inf, 1e-2, 0.35)):
        with pytest.raises(WindowError):
            oracle.quadrature_window(r, eps, h)


def test_window_size_is_bounded_before_the_window_is_built():
    # 8192 points keep one dense n x n matrix <= 512 MiB.  M = 10^5 once
    # ran 99 982 Miller recurrences before asking for a 200 000^2 matrix,
    # and h = 1e-4 asked numpy for a 495 001^2 block
    assert oracle.lattice_window(4096).size == 8192
    assert oracle.quadrature_window(h=49.5 / 4095.5).size == 8192
    tracemalloc.start()
    try:
        with pytest.raises(WindowError, match="4096"):
            oracle.lattice_window(10 ** 5)
        for h in (1e-4, 5e-324, math.inf):
            with pytest.raises(WindowError):
                oracle.quadrature_window(h=h)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()
    with pytest.raises(WindowError, match="8192"):
        oracle.quadrature_window(h=49.5 / 4096.5)


def test_nystrom_self_convergence():
    # halving h from the default 0.35 moves no entry by more than rounding
    z = 0.25 + 0.6j
    lk = kernels.scaled_whittaker_l(z)
    coarse = oracle.NystromResolvent(lk, oracle.quadrature_window())
    fine = oracle.NystromResolvent(lk, oracle.quadrature_window(h=0.175))
    pts = (0.5, -1.0, 2.0)
    for x in pts:
        for y in pts:
            assert abs(coarse.k_at(x, y) - fine.k_at(x, y)) < 1e-12


def _small_nystrom():
    return oracle.NystromResolvent(kernels.scaled_whittaker_l(0.25 + 0.6j),
                                   _small_window())


def test_nystrom_rows_and_columns_are_the_scalar_kernel():
    # the row L(x, t_i) that k_at reads is minus the column at x
    ny = _small_nystrom()
    lk, pts = ny.kernel, ny.window.points
    for p in (0.5, -1.0, 2.0, pts[3], pts[-7]):
        assert (-ny.column(p)).tolist() == [lk(p, float(t)) for t in pts]
        assert ny.column(p).tolist() == [lk(float(t), p) for t in pts]
    assert ny.column(pts[3])[3] == 0.0 and ny.column(pts[-7])[-7] == 0.0


def test_nystrom_column_is_the_l_matrix_column():
    # one quotient helper serves the column and the scalar kernel; at a
    # node the column is the matrix's, bit for bit, and 0 on its diagonal
    ny = _small_nystrom()
    lk, pts = ny.kernel, ny.window.points
    mat = lk.matrix(pts)
    for j in (0, 3, pts.size // 2, pts.size - 7):
        col = ny.column(pts[j])
        assert col.tobytes() == mat[:, j].tobytes()
        assert col[j] == 0.0
    y = 1.25
    assert ny.column(y).tobytes() == lk.matrix(np.append(pts, y))[:-1, -1].tobytes()


def test_nystrom_k_at_nodes_is_the_full_resolvent():
    ny = oracle.NystromResolvent(kernels.scaled_whittaker_l(0.25 + 0.6j),
                                 oracle.quadrature_window())
    full = oracle.k_from_l(oracle.materialize(ny.kernel, ny.window))
    pts = ny.window.points
    # the bound is relative where |K| > 1
    for i in (0, 5, 100, 141, 142, 200, 283):
        for j in (5, 141, 142, 200):
            ref = full.value_at(pts[i], pts[j])
            assert abs(ny.k_at(pts[i], pts[j]) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_nystrom_column_solve_failures_raise(monkeypatch):
    ny = _small_nystrom()
    ny._s = np.zeros_like(ny._s)
    with pytest.raises(SingularOperatorError, match="singular"):
        ny.k_at(0.5, 1.0)
    lk = kernels.scaled_whittaker_l(0.25 + 0.6j)

    def broken_d(x):
        return np.where(x == 1.0, math.nan, lk.d(x))

    broken = kernels.IntegrableKernel(lk.domain, broken_d)
    ny = oracle.NystromResolvent(broken, _small_window())
    with pytest.raises(SingularOperatorError, match="non-finite"):
        ny.k_at(0.5, 1.0)
    ny = _small_nystrom()
    monkeypatch.setattr(oracle, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(SingularOperatorError, match="condition estimate"):
        ny.k_at(0.5, 1.0)


@pytest.mark.parametrize("z", [0.25 + 0.6j, -0.3 + 1.2j, 0.1 + 0.3j])
def test_nystrom_schur_solve_matches_the_dense_solve(z):
    # the continuum benchmark's points and z on the default 284-node window
    ny = oracle.NystromResolvent(kernels.scaled_whittaker_l(z),
                                 oracle.quadrature_window())
    a = np.eye(ny.window.size) + oracle.materialize(ny.kernel, ny.window).entries
    sqrtw = np.sqrt(ny.window.weights)
    pts = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1.5, -1.5)
    for y in pts:
        # the Nystrom identity with node values from one dense solve of 1 + L~
        v = np.linalg.solve(a, sqrtw * ny.column(y))
        for x in pts:
            # the row L(x, t_i) is minus the column at x
            ref = ny.kernel(x, y) + np.sum(sqrtw * ny.column(x) * v)
            assert abs(ny.k_at(x, y) - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("z", [0.25 + 0.6j, -0.3 + 1.2j, 0.1 + 0.3j])
def test_nystrom_meets_the_whittaker_kernel_on_the_default_window(z):
    # the continuum benchmark's z and 64 point pairs, diagonal included;
    # 7.2e-14 is the worst measured (it was 9.2e-5 on the 608-node
    # Gauss-Legendre panels that cut off (-1e-4, 1e-4) and |x| > 40)
    kk = kernels.whittaker_kernel_k(z)
    ny = oracle.NystromResolvent(kernels.scaled_whittaker_l(z),
                                 oracle.quadrature_window())
    pts = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1.5, -1.5)
    for x in pts:
        for y in pts:
            assert abs(kk(x, y) - ny.k_at(x, y)) <= 1e-12


def test_nystrom_rejects_a_kernel_that_is_not_an_l_kernel():
    # the correlation kernel has the quotient form but not the two-sided type
    window = _small_window()
    with pytest.raises(WindowError):
        oracle.NystromResolvent(kernels.plancherel_l(1.0), window)
    with pytest.raises(ParameterError, match="two-sided L-kernel"):
        oracle.NystromResolvent(kernels.whittaker_kernel_k(0.25 + 0.6j), window)


# Margins, measured on 3 020 z (the 20 corners of the range, then uniform
# draws): node values within 9.1e-14 of max(1, |K|), 11x below the bound;
# det within 1.7e-13 relative, 6x below.  As in the 284-node test above,
# the indices are the ends and the nodes next to 0.  Over all 80 x 80
# node pairs the routes differ by up to 7.0e-12 at |Re z| -> 1/2,
# |Im z| = 1.5, where a 40-digit solve puts the dense route 3.9e-12 and
# the Schur route 6.5e-12 off, so a 1e-12 bound there would test the
# rounding of both.
@settings(max_examples=50, deadline=None)
@given(re=st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True),
       im=st.floats(0.1, 1.5), sign=st.sampled_from((-1.0, 1.0)))
def test_nystrom_matches_the_dense_route_across_z(re, im, sign):
    lk = kernels.scaled_whittaker_l(complex(re, sign * im))
    ny = oracle.NystromResolvent(lk, _small_window())
    l_op = oracle.materialize(lk, ny.window)
    full = oracle.k_from_l(l_op)
    pts = ny.window.points
    n = pts.size
    for i in (0, 5, n // 2 - 1, n // 2, n - 6, n - 1):
        for j in (0, 5, n // 2 - 1, n // 2, n - 6, n - 1):
            ref = full.value_at(pts[i], pts[j])
            assert abs(ny.k_at(pts[i], pts[j]) - ref) <= 1e-12 * max(1.0, abs(ref))
    det = oracle.fredholm_det(l_op)
    assert abs(ny.fredholm_det() - det) <= 1e-12 * abs(det)
