"""The four workloads: task classes, fixed inputs and the checks of a task.

A task computes one answer by two independent routes and checks them
against each other.  Each workload cycles through its classes in equal
counts, so the median lands inside the middle class by duration and the
90th percentile inside the slowest class.

A check is (check_id, point, residual, tolerance); it passes when
residual < tolerance, as `detproc.drhp.ResidualCheck` does.  Residuals of
the benchmark's own checks are relative to the scale of the compared value
(kernel entries are O(1), so theirs are absolute).
"""

from __future__ import annotations

import math
import time

import numpy as np

from detproc import drhp, kernels, oracle, partitions, sampler

# one lattice window radius M per theta: the oracle's truncation error at
# the compared block |x| <= M - 5 - 1/2 stays below the 1e-8 tolerance, and
# at theta = 100 M = 40 is the best radius (M = 30 truncates, larger M
# loses digits to rounding in det(1 + L))
LATTICE_M = {1.0: 15, 30.0: 30, 100.0: 40}
LATTICE_DIAGRAMS = 3
MC_M = {4.0: 20, 30.0: 30, 100.0: 40}
MC_THETAS = tuple(MC_M)
MC_SAMPLES = 1000
MC_SIGMA_BAND = 4.0
POISSON_THETA = 1000.0
POISSON_DRAWS = 2000
CONTINUUM_POINTS = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1.5, -1.5)
WHITTAKER_Z = (0.25 + 0.6j, -0.3 + 1.2j, 0.1 + 0.3j)
CERTIFY_THETAS = (1.0, 30.0, 100.0)

ROUTES = {
    "k-vs-oracle": "discrete_bessel_k.matrix | k_from_l(plancherel_l)",
    "khat-vs-oracle": "discrete_bessel_khat.matrix | khat_from_l(plancherel_l)",
    "fredholm-det-vs-exp-theta": "fredholm_det(plancherel_l) | e^theta",
    "prob-vs-plancherel-weight": "prob_of_configuration | plancherel_weight",
    "rho-kernel-vs-oracle": "det minor of discrete_bessel_k | correlation_from_k(k_from_l)",
    "rho-monte-carlo-vs-kernel": "pooled empirical_correlations | det minor of discrete_bessel_k",
    "substreams-distinct": "gen.substream(1) | gen.substream(2)",
    "poisson-size-law-mean": "SeededGenerator.poisson | Poisson(theta) mean",
    "poisson-size-law-variance": "SeededGenerator.poisson | Poisson(theta) variance",
    "k-offdiag-vs-nystrom": "whittaker_kernel_k | NystromResolvent.k_at",
    "k-diag-vs-nystrom": "whittaker_kernel_k Richardson diagonal | NystromResolvent.k_at",
}
CERTIFY_ROUTE = "closed form | Riemann-Hilbert certificate"


def _label(theta: float) -> str:
    return f"theta={theta:g}"


class _Workload:
    """Cycles through `classes` from a seed-chosen start; no end-of-run checks."""

    classes: tuple = ()

    def task_class(self, state: dict, index: int) -> int:
        return (index + state["offset"]) % len(self.classes)

    def end_checks(self, state: dict, tasks: list) -> list:
        return []


class Lattice(_Workload):
    """Discrete Bessel K and K^ against the dense resolvent of plancherel_l."""

    name = "lattice"
    classes = tuple(_label(t) for t in LATTICE_M)

    def setup(self, seed: int) -> dict:
        # the seed picks the diagrams of the probability checks and rotates
        # the class cycle; kernels and windows are fixed
        rng = np.random.Generator(np.random.Philox(key=seed))
        sizes = rng.choice(np.arange(1, 9), size=LATTICE_DIAGRAMS, replace=False)
        diagrams = []
        for n in sizes:
            shapes = partitions.enumerate_partitions(int(n))
            diagrams.append(shapes[int(rng.integers(len(shapes)))])
        windows = {}
        for theta, m in LATTICE_M.items():
            window = oracle.lattice_window(m)
            inner = np.abs(window.points) <= m - oracle.LATTICE_MARGIN - 0.5
            windows[theta] = (window, np.ix_(inner, inner))
        return {"offset": seed % len(self.classes),
                "windows": windows,
                "diagrams": [(d, sorted(partitions.fr_config(d))) for d in diagrams]}

    def checks_per_task(self, cls: int) -> int:
        return 3 + LATTICE_DIAGRAMS

    def task(self, state: dict, cls: int, index: int):
        theta = list(LATTICE_M)[cls]
        window, inner = state["windows"][theta]
        k = kernels.discrete_bessel_k(theta).matrix(window.points)
        khat = kernels.discrete_bessel_khat(theta).matrix(window.points)
        l_op = oracle.materialize(kernels.plancherel_l(theta), window)
        k_ref = oracle.k_from_l(l_op).entries
        khat_ref = oracle.khat_from_l(l_op).entries
        det = oracle.fredholm_det(l_op)
        block = f"|x|<={LATTICE_M[theta] - oracle.LATTICE_MARGIN - 0.5:g}"
        checks = [
            ("k-vs-oracle", block, float(np.max(np.abs(k - k_ref)[inner])), 1e-8),
            ("khat-vs-oracle", block,
             float(np.max(np.abs(khat - khat_ref)[inner])), 1e-8),
            ("fredholm-det-vs-exp-theta", f"M={LATTICE_M[theta]}",
             abs(det / math.exp(theta) - 1.0), 1e-10),
        ]
        for diagram, points in state["diagrams"]:
            weight = partitions.plancherel_weight(diagram, theta)
            prob = oracle.prob_of_configuration(l_op, points)
            checks.append(("prob-vs-plancherel-weight",
                           "rows=" + ",".join(map(str, diagram.rows)),
                           abs(prob - weight) / weight, 1e-12))
        return checks, {}


def _mc_point_sets(theta: float) -> list:
    edge = 2 * math.floor(2.0 * math.sqrt(theta)) + 1   # 2x for x near 2 sqrt(theta)
    return [(1,), (-1,), (1, -1), (edge,)]


def _kernel_rho(kernel, points) -> float:
    xs = [p / 2.0 for p in points]
    return float(np.linalg.det(np.array([[kernel(x, y) for y in xs] for x in xs])))


class MonteCarlo(_Workload):
    """Empirical correlations of Plancherel samples against det[K]."""

    name = "montecarlo"
    classes = tuple(_label(t) for t in MC_THETAS)

    def setup(self, seed: int) -> dict:
        windows = {theta: oracle.lattice_window(m) for theta, m in MC_M.items()}
        return {"seed": seed, "offset": seed % len(self.classes),
                "windows": windows,
                "sets": {theta: _mc_point_sets(theta) for theta in MC_THETAS}}

    def checks_per_task(self, cls: int) -> int:
        return len(_mc_point_sets(MC_THETAS[cls]))

    @staticmethod
    def task_generator(seed: int, index: int):
        # empirical_correlations always draws from streams 0..k-1 of its
        # generator's seed (substreams are flat), so gen.substream(i) would
        # hand every task the same draws; each task gets its own Philox key
        return sampler.SeededGenerator(((seed << 20) + index) % 2 ** 64)

    def task(self, state: dict, cls: int, index: int):
        theta = MC_THETAS[cls]
        sets = state["sets"][theta]
        gen = self.task_generator(state["seed"], index)
        t0 = time.perf_counter()
        results = sampler.empirical_correlations(theta, sets, MC_SAMPLES, gen)
        mc_s = time.perf_counter() - t0
        kernel = kernels.discrete_bessel_k(theta)
        k_ref = oracle.k_from_l(oracle.materialize(kernels.plancherel_l(theta),
                                                   state["windows"][theta]))
        checks = []
        for points in sets:
            rho = _kernel_rho(kernel, points)
            checks.append(("rho-kernel-vs-oracle", _points_label(points),
                           abs(rho - oracle.correlation_from_k(k_ref, points)), 1e-8))
        counts = [round(r.estimate * r.n_samples) for r in results]
        return checks, {"counts": counts, "mc_s": mc_s, "samples": MC_SAMPLES}

    def end_checks(self, state: dict, tasks: list) -> list:
        """Pooled 4-sigma checks per (theta, point set), then the stream and
        size-law checks; all run once, outside the timed loop."""
        rows = []
        for cls, theta in enumerate(MC_THETAS):
            mine = [t for t in tasks if t["cls"] == cls and "counts" in t]
            if not mine:
                continue
            n = sum(t["samples"] for t in mine)
            kernel = kernels.discrete_bessel_k(theta)
            for j, points in enumerate(state["sets"][theta]):
                p = _kernel_rho(kernel, points)
                p_hat = sum(t["counts"][j] for t in mine) / n
                sigma = math.sqrt(p * (1.0 - p) / n)
                rows.append((self.classes[cls], "rho-monte-carlo-vs-kernel",
                             _points_label(points), abs(p_hat - p) / sigma, MC_SIGMA_BAND))
        gen = sampler.SeededGenerator(state["seed"])
        sets = state["sets"][MC_THETAS[0]]
        first = sampler.empirical_correlations(MC_THETAS[0], sets, 2000, gen.substream(1))
        second = sampler.empirical_correlations(MC_THETAS[0], sets, 2000, gen.substream(2))
        same = all(a.estimate == b.estimate for a, b in zip(first, second))
        rows.append((self.classes[0], "substreams-distinct", "n=2000",
                     1.0 if same else 0.0, 0.5))
        size_gen = gen.substream(3)
        draws = np.array([size_gen.poisson(POISSON_THETA) for _ in range(POISSON_DRAWS)],
                         dtype=float)
        mean_sigma = math.sqrt(POISSON_THETA / POISSON_DRAWS)
        var_sigma = POISSON_THETA * math.sqrt(2.0 / POISSON_DRAWS)
        label = _label(POISSON_THETA)
        rows.append((label, "poisson-size-law-mean", f"draws={POISSON_DRAWS}",
                     abs(draws.mean() - POISSON_THETA) / mean_sigma, MC_SIGMA_BAND))
        rows.append((label, "poisson-size-law-variance", f"draws={POISSON_DRAWS}",
                     abs(draws.var(ddof=1) - POISSON_THETA) / var_sigma, MC_SIGMA_BAND))
        return rows


def _points_label(points) -> str:
    return "2x=" + ",".join(str(p) for p in points)


class Continuum(_Workload):
    """Whittaker kernel entries against the Nystrom resolvent of scaled_whittaker_l."""

    name = "continuum"
    classes = tuple(f"z={z.real:g}{z.imag:+g}i" for z in WHITTAKER_Z)

    def setup(self, seed: int) -> dict:
        # the seed rotates the class cycle and the point sets
        return {"offset": seed % len(self.classes),
                "points": seed % len(CONTINUUM_POINTS),
                "window": oracle.quadrature_window()}

    def checks_per_task(self, cls: int) -> int:
        return 3

    def task(self, state: dict, cls: int, index: int):
        z = WHITTAKER_Z[cls]
        pts = CONTINUUM_POINTS
        turn = state["points"] + index // len(self.classes)
        x, y, w = (pts[(turn + k) % len(pts)] for k in (0, 3, 5))
        k = kernels.whittaker_kernel_k(z)
        resolvent = oracle.NystromResolvent(kernels.scaled_whittaker_l(z), state["window"])
        # the three entries share the column y, solved once by the resolvent
        checks = [
            ("k-offdiag-vs-nystrom", f"x={x:g},y={y:g}",
             abs(k(x, y) - resolvent.k_at(x, y)), 1e-3),
            ("k-offdiag-vs-nystrom", f"x={w:g},y={y:g}",
             abs(k(w, y) - resolvent.k_at(w, y)), 1e-3),
            ("k-diag-vs-nystrom", f"x={y:g}",
             abs(k(y, y) - resolvent.k_at(y, y)), 1e-3),
        ]
        return checks, {}


class Certify(_Workload):
    """The Riemann-Hilbert certification suites, one suite per task."""

    name = "certify"
    classes = (tuple(f"drhp-{_label(t)}" for t in CERTIFY_THETAS)
               + tuple(f"psi-z={z.real:g}{z.imag:+g}i" for z in WHITTAKER_Z)
               + ("toys",))
    # row counts of the suites at the seed, used only when a task raises
    _ROWS = (47,) * len(CERTIFY_THETAS) + (18,) * len(WHITTAKER_Z) + (15,)

    def setup(self, seed: int) -> dict:
        # every suite input is fixed; the seed only rotates the class cycle
        return {"offset": seed % len(self.classes)}

    def checks_per_task(self, cls: int) -> int:
        return self._ROWS[cls]

    def task(self, state: dict, cls: int, index: int):
        if cls < len(CERTIFY_THETAS):
            rows = drhp.suite_drhp(CERTIFY_THETAS[cls])
        elif cls < len(CERTIFY_THETAS) + len(WHITTAKER_Z):
            rows = drhp.suite_psi(WHITTAKER_Z[cls - len(CERTIFY_THETAS)])
        else:
            # the two toy-model suites take ~15 ms together; as one class
            # they keep the class count odd, so the median sits inside a
            # class instead of between the two psi classes around it
            rows = drhp.suite_two_point() + drhp.suite_contour()
        return [(r.check_id, r.point, float(r.residual), float(r.tolerance))
                for r in rows], {}


WORKLOADS = {w.name: w for w in (Lattice(), MonteCarlo(), Continuum(), Certify())}


def routes(check_id: str) -> str:
    return ROUTES.get(check_id, CERTIFY_ROUTE)
