"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
verdicts.  Every tolerance is pinned here; runtime budgets are asserted
with perf counters.
"""

import itertools
import math
import time

import numpy as np

from detproc import drhp, kernels, oracle, sampler
from detproc.errors import SingularOperatorError
from detproc.partitions import enumerate_partitions, fr_config, plancherel_weight


def _verdict(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_fredholm_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for theta in (0.5, 1.0, 4.0):
        lop = oracle.materialize(kernels.plancherel_l(theta),
                                 oracle.lattice_window(30))
        det = oracle.fredholm_det(lop)
        worst = max(worst, abs(det - math.exp(theta)) / math.exp(theta))
    elapsed = time.perf_counter() - t0
    _verdict(1, worst < 1e-10 and elapsed < 1.0,
             f"det(1+L) vs e^theta rel err {worst:.2e} (tol 1e-10), "
             f"{elapsed:.2f}s < 1s")


def test_criterion_02_discrete_bessel_oracle():
    t0 = time.perf_counter()
    theta = 1.0
    kb = kernels.discrete_bessel_k(theta)
    lop = oracle.materialize(kernels.plancherel_l(theta), oracle.lattice_window(25))
    ref = oracle.k_from_l(lop)
    pts = [x for x in ref.window.points if abs(x) <= 10.5]
    worst = max(abs(kb(float(x), float(y)) - ref.value_at(float(x), float(y)))
                for x in pts for y in pts)
    elapsed = time.perf_counter() - t0
    _verdict(2, worst < 1e-8 and elapsed < 5.0,
             f"max |K_analytic - K_oracle| = {worst:.2e} (tol 1e-8, "
             f"diagonal included), {elapsed:.2f}s < 5s")


def test_criterion_03_complement_kernel():
    theta = 1.0
    kh = kernels.discrete_bessel_khat(theta)
    lop = oracle.materialize(kernels.plancherel_l(theta), oracle.lattice_window(25))
    ref = oracle.khat_from_l(lop)
    pts = [x for x in ref.window.points if abs(x) <= 10.5]
    worst = max(abs(kh(float(x), float(y)) - ref.value_at(float(x), float(y)))
                for x in pts for y in pts)
    _verdict(3, worst < 1e-8,
             f"max |Khat_analytic - L(L-1)^-1| = {worst:.2e} (tol 1e-8)")


def test_criterion_04_hook_determinant_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for theta in (0.5, 1.0, 3.0):
        lk = kernels.plancherel_l(theta)
        for n in range(7):
            for lam in enumerate_partitions(n):
                pts = sorted(p / 2.0 for p in fr_config(lam))
                minor = np.array([[lk(x, y) for y in pts] for x in pts])
                det = float(np.linalg.det(minor)) if pts else 1.0
                lhs = math.exp(-theta) * det
                rhs = plancherel_weight(lam, theta)
                worst = max(worst, abs(lhs - rhs) / rhs)
    elapsed = time.perf_counter() - t0
    _verdict(4, worst < 1e-12 and elapsed < 1.0,
             f"e^-theta det[L|Fr] vs weight, rel err {worst:.2e} "
             f"(tol 1e-12), {elapsed:.2f}s < 1s")


def test_criterion_05_two_point_closed_form():
    mu, nu = 0.3, 0.5
    rows = drhp.suite_two_point(mu, nu)
    keyed = {r.check_id: r for r in rows}
    assembly = keyed["two-point-assembly-vs-printed"].residual
    oracle_diff = keyed["two-point-printed-vs-oracle"].residual
    try:
        kernels.TwoPointModel(2.0, 0.5).k_matrix()
        singular_raised = False
    except SingularOperatorError:
        singular_raised = True
    ok = assembly < 1e-14 and oracle_diff < 1e-14 and singular_raised
    _verdict(5, ok,
             f"assembly vs printed {assembly:.2e}, printed vs 2x2 oracle "
             f"{oracle_diff:.2e} (tol 1e-14), singularity raised at mu*nu=1: "
             f"{singular_raised}")


def test_criterion_06_drhp_certification():
    theta = 1.0
    rows = drhp.suite_drhp(theta)
    res_rows = [r for r in rows if r.check_id == "m-residue"]
    worst_res = max(r.residual for r in res_rows)
    norm_rows = [r for r in rows if r.check_id.startswith("m-normalization")]
    keyed = {r.check_id + r.point: r for r in norm_rows}
    remainder = keyed["m-normalization-remaindert=40.0"].residual
    rates = [r.residual for r in norm_rows if r.check_id == "m-normalization-rate"]
    sym_rows = [r for r in rows if r.check_id.startswith("m1-")]
    worst_sym = max(r.residual for r in sym_rows[:2])
    ok = (len(res_rows) == 20 and worst_res < 1e-9 and remainder < 1e-2
          and len(rates) == 3 and max(rates) < 1.1 and worst_sym < 1e-12)
    _verdict(6, ok,
             f"residue residuals <= {worst_res:.2e} (tol 1e-9, |x|<=19/2); "
             f"normalization defect beyond the exact 1/zeta term at "
             f"|zeta|=40 is {remainder:.2e} (tol 1e-2), times t^2/|m2| "
             f"<= {max(rates):.3f} at t = 10, 20, 40 (tol 1.1); "
             f"fitted m1 symmetry off by {worst_sym:.2e} (tol 1e-12)")


def test_criterion_07_ode_and_condition():
    theta = 1.0
    rows = drhp.suite_drhp(theta)
    ode_rows = {r.check_id: r for r in rows if r.check_id.startswith("ode-")}
    ode_resid = ode_rows["ode-eta-beta-minus"].residual
    plus_fails = ode_rows["ode-eta-beta-plus-must-fail"].passed
    xs = [3.5, 7.5, -4.5]
    ps = drhp.bessel_p(theta)(np.array(xs))
    p_rows = [r for r in rows if r.check_id == "p-values"]
    worst_p = max(r.residual / max(1.0, float(np.max(np.abs(p))))
                  for r, p in zip(p_rows, ps))
    ok = ([r.point for r in p_rows] == [f"x={x}" for x in xs]
          and ode_resid < 1e-6 and worst_p < 1e-12 and plus_fails)
    _verdict(7, ok,
             f"eta dn/deta ODE residual {ode_resid:.2e} (tol 1e-6); "
             f"p at lattice points off the real-order Bessel route by "
             f"{worst_p:.2e} max(1, |p|) (tol 1e-12); beta=+eta variant "
             f"fails as required: {plus_fails}")


def test_criterion_08_whittaker_oracle():
    t0 = time.perf_counter()
    z = 0.25 + 0.6j
    kk = kernels.whittaker_kernel_k(z)
    lk = kernels.scaled_whittaker_l(z)
    pts = [0.5, -0.5, 1.0, -1.0, 2.0, -2.0]

    def max_diff(h):
        ny = oracle.NystromResolvent(lk, oracle.quadrature_window(h=h))
        return max(abs(kk(x, y) - ny.k_at(x, y))
                   for x, y in itertools.product(pts, pts))

    # the trapezoid rule in s converges exponentially in 1/h: each halving
    # of h at least half again the digits (an algebraic rate adds a fixed
    # number), until rounding at the default h = 0.35
    err_coarse, err_mid, err = max_diff(1.4), max_diff(0.7), max_diff(0.35)
    exponential = err_mid <= err_coarse ** 1.5 and err <= err_mid ** 1.5
    elapsed = time.perf_counter() - t0
    ok = err < 1e-10 and exponential and elapsed < 30.0
    _verdict(8, ok,
             f"max |K_analytic - K_quadrature| = {err:.2e} at h = 0.35, "
             f"diagonal included (tol 1e-10); halving h 1.4 -> 0.7 -> 0.35 "
             f"gives {err_coarse:.2e} -> {err_mid:.2e} -> {err:.2e} "
             f"(each <= the previous^1.5); {elapsed:.1f}s < 30s")


def test_criterion_09_psi_certification():
    rows = drhp.suite_psi(0.25 + 0.6j)
    det_worst = max(r.residual for r in rows if r.check_id == "psi-det")
    refinement = max(r.residual for r in rows if r.check_id == "psi-jump-refinement")
    ok = det_worst < 1e-12 and refinement < 1e-2
    _verdict(9, ok,
             f"det Psi off by {det_worst:.2e} (tol 1e-12); jump residuals "
             f"shrink along eps in (1e-2, 1e-3, 1e-4) by factors <= "
             f"{refinement:.2e} (tol 1e-2)")


def test_criterion_10_monte_carlo_vs_kernel():
    t0 = time.perf_counter()
    theta = 4.0
    n = 200_000
    subsets = [(1,), (-1,), (3,), (-3,), (5,), (-5,), (1, -1)]
    gen = sampler.SeededGenerator(20010731)
    results = sampler.empirical_correlations(theta, subsets, n, gen,
                                             n_substreams=8)
    kop = oracle.materialize(kernels.discrete_bessel_k(theta),
                             oracle.lattice_window(30))
    worst_sigmas = 0.0
    for res in results:
        pred = oracle.correlation_from_k(kop, res.points)
        worst_sigmas = max(worst_sigmas, abs(res.estimate - pred) / res.stderr)
    elapsed = time.perf_counter() - t0
    ok = worst_sigmas < 4.0 and elapsed < 60.0
    _verdict(10, ok,
             f"rho_1 at +-1/2, +-3/2, +-5/2 and rho_2(1/2,-1/2) within "
             f"{worst_sigmas:.2f} sigma of det[K] (band 4 sigma, "
             f"n={n}); {elapsed:.1f}s < 60s")


def test_criterion_11_plancherel3_frequencies():
    n = 100_000
    gen = sampler.SeededGenerator(42)
    counts = {}
    for _ in range(n):
        rows = sampler.sample_plancherel_n(3, gen).rows
        counts[rows] = counts.get(rows, 0) + 1
    worst = 0.0
    for rows, p in (((3,), 1 / 6), ((2, 1), 2 / 3), ((1, 1, 1), 1 / 6)):
        sigma = math.sqrt(p * (1 - p) / n)
        worst = max(worst, abs(counts.get(rows, 0) / n - p) / sigma)
    _verdict(11, worst < 4.0,
             f"shape frequencies vs (1/6, 2/3, 1/6) within {worst:.2f} sigma "
             f"(band 4 sigma, n={n})")


def test_criterion_12_degeneration_studies():
    theta = 1.0
    pl = kernels.plancherel_l(theta)
    lattice = [k + 0.5 for k in range(-4, 4)]
    errs = []
    for absz in (20.0, 50.0, 100.0):
        zk = kernels.zw_l(complex(0.0, absz), theta / absz ** 2)
        worst = max(abs(zk(x, y) - pl(x, y)) / abs(pl(x, y))
                    for x, y in itertools.product(lattice, lattice)
                    if pl(x, y) != 0.0)
        errs.append(worst)
    z = 0.25 + 0.6j
    target = kernels.scaled_whittaker_l(z)
    sample = [0.5, 1.0, 2.0, -0.5, -1.0, -2.0]
    scaled_errs = []
    for xi in (0.9, 0.99):
        zk = kernels.zw_l(z, xi)
        scale = 1.0 - xi
        worst = max(abs(zk(math.floor(x / scale) + 0.5,
                           math.floor(y / scale) + 0.5) / scale - target(x, y))
                    for x, y in itertools.product(sample, sample) if x * y < 0)
        scaled_errs.append(worst)
    ok = (errs[1] < 0.05 and errs[0] > errs[1] > errs[2]
          and scaled_errs[1] < scaled_errs[0])
    _verdict(12, ok,
             f"zw -> plancherel rel err {errs[0]:.3f} > {errs[1]:.4f} > "
             f"{errs[2]:.4f} over |z| in (20, 50, 100), < 5% at |z|=50; "
             f"xi-scaling err {scaled_errs[0]:.3f} -> {scaled_errs[1]:.4f} "
             f"from xi=0.9 to 0.99")


def test_criterion_13_christoffel_darboux():
    rows = drhp.suite_cd()
    keyed = {r.check_id: r for r in rows}
    forms = keyed["cd-two-forms-agree"].residual
    proj = keyed["cd-projection"].residual
    trace = keyed["cd-trace"].residual
    ok = forms < 1e-10 and proj < 1e-10 and trace < 1e-10
    _verdict(13, ok,
             f"two printed forms agree to {forms:.2e}; projection defect "
             f"{proj:.2e}; trace-N defect {trace:.2e} (tol 1e-10, "
             f"30-point grid, N=5)")


def test_criterion_14_special_function_suite():
    t0 = time.perf_counter()
    rows = drhp.suite_special_functions()
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in rows) and elapsed < 5.0
    detail = "; ".join(f"{r.check_id}={r.residual:.2e}(tol {r.tolerance:.0e})"
                       for r in rows)
    _verdict(14, ok, f"{detail}; {elapsed:.1f}s < 5s")
