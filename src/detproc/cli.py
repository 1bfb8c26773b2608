"""CSV-emitting command line front end.

Each subcommand is a function from its parsed arguments to one table and a
verdict, `(header, rows, failure)`: `failure` is None when every invoked
numerical check meets its tolerance (a NaN meets none) and otherwise a
one-line message.  `main` alone turns that into the one CSV artifact
(header row mandatory, every float cell at 17 significant digits, lattice
points on the wire as doubled integers so that x = 1 means the
half-integer 1/2) and the exit status: 0 when the checks pass, 1 on a
failed check (after the table is written) or a numerical failure, 2 on
usage errors and invalid input, 3 on I/O errors; each typed error of
`detproc.errors` exits with one line on stderr.

Subcommands: kernel, oracle-compare, fredholm, prob, sample, correlation,
verify (suites drhp | psi | two-point | contour | special-functions | cd),
limits (studies zw-degeneration | whittaker-scaling).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import drhp, errors, kernels, oracle, sampler
from .partitions import YoungDiagram, fr_config, half, plancherel_weight

FMT = "%.17g"

# each verdict's tolerance, pinned: no option moves it
LATTICE_TOL = 1e-8        # oracle-compare, lattice families: max |analytic - oracle|
QUADRATURE_TOL = 1e-10    # oracle-compare --family whittaker: max |analytic - oracle|
FREDHOLM_TOL = 1e-10      # fredholm: relative error of det(1+L) against e^theta
PROB_TOL = 1e-12          # prob: relative error against the Plancherel weight
SIGMA_BAND = 4.0          # correlation: |estimate - prediction| in standard errors


def _write_csv(path: str, header, rows) -> None:
    """The table as CSV, each float cell formatted by FMT; every row is
    formed before the file is opened, so a table that fails leaves none."""
    cells = [[FMT % c if isinstance(c, float) else c for c in row] for row in rows]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(cells)


def _parse_z(args) -> complex:
    return complex(args.z_re, args.z_im)


def _parse_list(text: str, convert, option: str) -> list:
    """The comma-separated finite values of an option, each through convert."""
    try:
        values = [convert(t) for t in text.split(",")]
    except ValueError as err:
        raise errors.DomainError(
            f"{option} needs comma-separated {convert.__name__}s, got {text!r}") from err
    if convert is float and not all(map(math.isfinite, values)):
        raise errors.DomainError(f"{option} needs finite values, got {text!r}")
    return values


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

_KERNELS = {
    "plancherel-l": lambda args: kernels.plancherel_l(args.theta),
    "zw-l": lambda args: kernels.zw_l(_parse_z(args), args.xi),
    "bessel": lambda args: kernels.discrete_bessel_k(args.theta),
    "bessel-hat": lambda args: kernels.discrete_bessel_khat(args.theta),
    "whittaker-l": lambda args: kernels.scaled_whittaker_l(_parse_z(args)),
    "whittaker": lambda args: kernels.whittaker_kernel_k(_parse_z(args)),
}


def _plancherel_window(args) -> oracle.WindowedOperator:
    """plancherel_l(--theta) on the lattice window of radius --window."""
    return oracle.materialize(kernels.plancherel_l(args.theta),
                              oracle.lattice_window(args.window))


def _pair_table(domain: str, pts, columns: dict) -> tuple:
    """Header and rows of a table over the ordered pairs of points: the two
    points (doubled integers on the lattice), then each column's matrix entry."""
    if domain == kernels.LATTICE:
        header, labels = ["x_doubled", "y_doubled"], (2 * pts).round().astype(int).tolist()
    else:
        header, labels = ["x", "y"], pts
    entries = [m.tolist() for m in columns.values()]
    return [*header, *columns], [[x, y, *(m[i][j] for m in entries)]
                                 for i, x in enumerate(labels) for j, y in enumerate(labels)]


def cmd_kernel(args) -> tuple:
    kern = _KERNELS[args.family](args)
    pts = (oracle.lattice_window(args.window).points if kern.domain == kernels.LATTICE
           else _parse_list(args.points, float, "--points"))
    return (*_pair_table(kern.domain, pts, {"value": kern.matrix(pts)}), None)


def cmd_oracle_compare(args) -> tuple:
    # ahead of the kernel, so that a bad --window is reported before a bad --theta
    if args.family != "whittaker" and args.window <= oracle.LATTICE_MARGIN:
        raise errors.WindowError(
            f"--window must exceed the margin {oracle.LATTICE_MARGIN} that "
            f"the compared block keeps from the edge, got {args.window}")
    kern = _KERNELS[args.family](args)
    lattice = kern.domain == kernels.LATTICE
    if lattice:
        lop = _plancherel_window(args)
        ref = (oracle.k_from_l(lop) if args.family == "bessel"
               else oracle.khat_from_l(lop))
        inner = np.abs(ref.window.points) <= args.window - oracle.LATTICE_MARGIN - 0.5
        pts, exact = ref.window.points[inner], ref.entries[np.ix_(inner, inner)]
    else:
        ny = oracle.NystromResolvent(kernels.scaled_whittaker_l(_parse_z(args)),
                                     oracle.quadrature_window())
        pts = _parse_list(args.points, float, "--points")
        exact = np.array([[ny.k_at(x, y) for y in pts] for x in pts])
    analytic = kern.matrix(pts)
    diff = np.abs(analytic - exact)
    tol = LATTICE_TOL if lattice else QUADRATURE_TOL
    worst = np.max(diff)
    return (*_pair_table(kern.domain, pts,
                         {"analytic": analytic, "oracle": exact, "abs_diff": diff}),
            None if worst < tol else f"max |analytic - oracle| = {worst:.3e} >= {tol:.1e}")


def cmd_fredholm(args) -> tuple:
    try:
        target = math.exp(args.theta)
    except OverflowError as err:
        raise errors.ParameterError(f"e^theta overflows a double at theta = {args.theta}") from err
    det = oracle.fredholm_det(_plancherel_window(args))
    rel = abs(det - target) / target
    return (["det_one_plus_l", "e_theta", "rel_err"], [[det, target, rel]],
            None if rel < FREDHOLM_TOL else f"relative error {rel:.3e} >= {FREDHOLM_TOL:.1e}")


def cmd_prob(args) -> tuple:
    diagram = YoungDiagram([] if not args.rows else _parse_list(args.rows, int, "--rows"))
    weight = plancherel_weight(diagram, args.theta)
    if weight == 0.0:
        raise errors.ParameterError(
            f"the Plancherel weight of {diagram} underflows to 0 at theta = {args.theta}")
    prob = oracle.prob_of_configuration(_plancherel_window(args), sorted(fr_config(diagram)))
    rel = abs(prob - weight) / weight
    return (["partition", "weight_formula", "prob_oracle", "rel_err"],
            [["|".join(str(r) for r in diagram.rows), weight, prob, rel]],
            None if rel < PROB_TOL else f"relative error {rel:.3e} >= {PROB_TOL:.1e}")


def cmd_sample(args) -> tuple:
    return (["sample_index", "size", "d", "fr_points_doubled"],
            sampler.sample_rows(args.theta, args.n, sampler.SeededGenerator(args.seed)),
            None)


def _sigmas(estimate: float, stderr: float, prediction: float, n: int) -> float:
    """|estimate - prediction| in sigmas: the stderr, or where that is 0 (an
    estimate of 0 or 1) the binomial sqrt(p(1 - p)/n) of the prediction p;
    where both are 0, 0 sigmas at equality and inf otherwise."""
    diff = abs(estimate - prediction)
    sigma = stderr or math.sqrt(max(prediction * (1.0 - prediction), 0.0) / n)
    return diff / sigma if sigma else (0.0 if diff == 0 else math.inf)


def cmd_correlation(args) -> tuple:
    points = tuple(_parse_list(args.points, int, "--points"))
    gen = sampler.SeededGenerator(args.seed)
    est = sampler.empirical_correlation(args.theta, points, args.n, gen,
                                        n_substreams=args.substreams)
    kern = kernels.discrete_bessel_k(args.theta)
    pred = float(np.linalg.det(kern.matrix([half(p) for p in points])))
    sigmas = _sigmas(est.estimate, est.stderr, pred, est.n_samples)
    return (["points_doubled", "estimate", "stderr", "prediction", "sigmas"],
            [[" ".join(str(p) for p in points), est.estimate, est.stderr, pred, sigmas]],
            None if sigmas < SIGMA_BAND else f"estimate {sigmas:.2f} sigma from prediction")


_SUITES = {
    "drhp": lambda args: drhp.suite_drhp(args.theta),
    "psi": lambda args: drhp.suite_psi(_parse_z(args)),
    "two-point": lambda args: drhp.suite_two_point(),
    "contour": lambda args: drhp.suite_contour(),
    "special-functions": lambda args: drhp.suite_special_functions(),
    "cd": lambda args: drhp.suite_cd(),
}


def cmd_verify(args) -> tuple:
    rows = _SUITES[args.suite](args)
    failed = [r.check_id for r in rows if not r.passed]
    return (["check_id", "point", "residual", "tolerance", "pass"],
            [[r.check_id, r.point, r.residual, r.tolerance, str(r.passed).lower()]
             for r in rows],
            f"failed checks: {', '.join(failed)}" if failed else None)


def _zw_degeneration(args) -> tuple:
    """zw_l with |z|^2 xi = theta against plancherel_l as |z| grows."""
    pts = [k + 0.5 for k in range(-4, 4)]
    ref = kernels.plancherel_l(args.theta).matrix(pts)
    nonzero = ref != 0.0
    rows, errs = [], []
    for absz in (20.0, 50.0, 100.0):
        kern = kernels.zw_l(complex(0.0, absz), args.theta / absz ** 2).matrix(pts)
        worst = np.max(np.abs(kern[nonzero] - ref[nonzero]) / np.abs(ref[nonzero]),
                       initial=0.0)
        errs.append(worst)
        rows.append([absz, worst])
    ok = errs[1] < 0.05 and errs[0] > errs[1] > errs[2]
    return ["abs_z", "max_rel_err"], rows, ok


def _whittaker_scaling(args) -> tuple:
    """zw_l / (1 - xi) at lattice points floor(x / (1 - xi)) + 1/2 against
    scaled_whittaker_l at x, on the pairs with xy <= 0."""
    z = _parse_z(args)
    sample = np.array([0.5, 1.0, 2.0, -0.5, -1.0, -2.0])
    target = kernels.scaled_whittaker_l(z).matrix(sample)
    opposite = np.multiply.outer(sample, sample) <= 0
    rows, errs = [], []
    for xi in (0.9, 0.99):
        scale = 1.0 - xi
        lattice = np.floor(sample / scale) + 0.5
        kern = kernels.zw_l(z, xi).matrix(lattice)
        worst = np.max(np.abs(kern / scale - target)[opposite])
        errs.append(worst)
        rows.append([xi, worst])
    return ["xi", "max_abs_err"], rows, errs[1] < errs[0]


_STUDIES = {
    "zw-degeneration": _zw_degeneration,
    "whittaker-scaling": _whittaker_scaling,
}


def cmd_limits(args) -> tuple:
    header, rows, ok = _STUDIES[args.study](args)
    return header, rows, None if ok else f"limit study {args.study} not converging"


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detproc",
        description="Determinantal kernel evaluation, oracles, and checks "
                    "(CSV output; lattice points on the wire are doubled "
                    "integers).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, theta=False, z=False, xi=False):
        p.add_argument("--output", "-o", required=True, help="CSV output path")
        if theta:
            p.add_argument("--theta", type=float, default=1.0)
        if z:
            p.add_argument("--z-re", type=float, default=0.25)
            p.add_argument("--z-im", type=float, default=0.6)
        if xi:
            p.add_argument("--xi", type=float, default=0.5)

    p = sub.add_parser("kernel", help="tabulate a kernel")
    p.add_argument("--family", required=True, choices=list(_KERNELS))
    p.add_argument("--window", type=int, default=10,
                   help="lattice radius M (lattice families)")
    p.add_argument("--points", default="0.5,-0.5,1,-1,2,-2",
                   help="comma list of real points (continuous families)")
    add_common(p, theta=True, z=True, xi=True)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("oracle-compare",
                       help="analytic kernel vs dense-window oracle")
    p.add_argument("--family", required=True,
                   choices=["bessel", "bessel-hat", "whittaker"])
    p.add_argument("--window", type=int, default=25)
    p.add_argument("--points", default="0.5,-0.5,1,-1,2,-2")
    add_common(p, theta=True, z=True)
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("fredholm", help="det(1+L) against e^theta")
    p.add_argument("--window", type=int, default=30)
    add_common(p, theta=True)
    p.set_defaults(func=cmd_fredholm)

    p = sub.add_parser("prob", help="configuration probability vs weight formula")
    p.add_argument("--rows", default="3,3,1",
                   help="partition rows, comma separated ('' = empty)")
    p.add_argument("--window", type=int, default=30)
    add_common(p, theta=True)
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("sample", help="dump Monte Carlo samples")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, theta=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("correlation",
                       help="empirical correlation vs determinant prediction")
    p.add_argument("--points", default="1,-1",
                   help="doubled half-integers, comma separated")
    p.add_argument("--n", type=int, default=200000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--substreams", type=int, default=1)
    add_common(p, theta=True)
    p.set_defaults(func=cmd_correlation)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=list(_SUITES))
    add_common(p, theta=True, z=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("limits", help="degeneration / scaling-limit studies")
    p.add_argument("--study", required=True, choices=list(_STUDIES))
    add_common(p, theta=True, z=True)
    p.set_defaults(func=cmd_limits)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        header, rows, failure = args.func(args)
        _write_csv(args.output, header, rows)
    except (errors.ConvergenceError, errors.SingularOperatorError,
            errors.BesselOverflowError) as err:
        print(f"detproc: numerical failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except (errors.DomainError, errors.ParameterError, errors.WindowError,
            errors.DegenerateGridError) as err:
        print(f"detproc: invalid arguments: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"detproc: i/o error: {err}", file=sys.stderr)
        return 3
    if failure is not None:
        print(f"detproc: check failed: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
