"""CSV-emitting command line front end.

Each subcommand writes exactly one CSV artifact (header row mandatory,
numbers at 17 significant digits, lattice points on the wire as doubled
integers so that x = 1 means the half-integer 1/2).  Exit status: 0 when
every invoked numerical check meets its tolerance, 1 on a failed check or
a numerical failure, 2 on usage errors and invalid input, 3 on I/O errors;
each typed error of `detproc.errors` exits with one line on stderr.

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


def _fmt(x) -> str:
    return FMT % float(x)


def _write_csv(path: str, header, rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(row)
    except OSError as err:
        raise _IOFailure(str(err)) from err


class _IOFailure(Exception):
    pass


class _CheckFailure(Exception):
    pass


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

_LATTICE_KERNELS = {
    "plancherel-l": lambda args: kernels.plancherel_l(args.theta),
    "zw-l": lambda args: kernels.zw_l(_parse_z(args), args.xi),
    "bessel": lambda args: kernels.discrete_bessel_k(args.theta),
    "bessel-hat": lambda args: kernels.discrete_bessel_khat(args.theta),
}


def _pair_rows(labels: list, *matrices) -> list:
    """One row per ordered pair of points: their labels, then each matrix's entry."""
    entries = [m.tolist() for m in matrices]
    return [[x, y, *(_fmt(m[i][j]) for m in entries)]
            for i, x in enumerate(labels) for j, y in enumerate(labels)]


def cmd_kernel(args) -> int:
    if args.family in _LATTICE_KERNELS:
        kern = _LATTICE_KERNELS[args.family](args)
        pts = oracle.lattice_window(args.window).points
        header, labels = ["x_doubled", "y_doubled"], (2 * pts).round().astype(int).tolist()
    else:
        kern = (kernels.scaled_whittaker_l(_parse_z(args))
                if args.family == "whittaker-l"
                else kernels.whittaker_kernel_k(_parse_z(args)))
        pts = _parse_list(args.points, float, "--points")
        header, labels = ["x", "y"], [_fmt(x) for x in pts]
    _write_csv(args.output, [*header, "value"], _pair_rows(labels, kern.matrix(pts)))
    return 0


def cmd_oracle_compare(args) -> int:
    lattice = args.family in _LATTICE_KERNELS
    tol = args.tol if args.tol is not None else (1e-8 if lattice else 1e-10)
    if lattice:
        if args.window <= oracle.LATTICE_MARGIN:
            raise errors.WindowError(
                f"--window must exceed the margin {oracle.LATTICE_MARGIN} that "
                f"the compared block keeps from the edge, got {args.window}")
        kern = _LATTICE_KERNELS[args.family](args)
        lop = oracle.materialize(kernels.plancherel_l(args.theta),
                                 oracle.lattice_window(args.window))
        ref = (oracle.k_from_l(lop) if args.family == "bessel"
               else oracle.khat_from_l(lop))
        inner = np.abs(ref.window.points) <= args.window - oracle.LATTICE_MARGIN - 0.5
        pts = ref.window.points[inner]
        exact = ref.entries[np.ix_(inner, inner)]
        header, labels = ["x_doubled", "y_doubled"], (2 * pts).round().astype(int).tolist()
    else:
        z = _parse_z(args)
        kern = kernels.whittaker_kernel_k(z)
        ny = oracle.NystromResolvent(
            kernels.scaled_whittaker_l(z),
            oracle.quadrature_window(h=args.step))
        pts = _parse_list(args.points, float, "--points")
        exact = np.array([[ny.k_at(x, y) for y in pts] for x in pts])
        header, labels = ["x", "y"], [_fmt(x) for x in pts]
    analytic = kern.matrix(pts)
    diff = np.abs(analytic - exact)
    _write_csv(args.output, [*header, "analytic", "oracle", "abs_diff"],
               _pair_rows(labels, analytic, exact, diff))
    worst = np.max(diff)
    if worst >= tol:
        raise _CheckFailure(f"max |analytic - oracle| = {worst:.3e} >= {tol:.1e}")
    return 0


def cmd_fredholm(args) -> int:
    try:
        target = math.exp(args.theta)
    except OverflowError as err:
        raise errors.ParameterError(f"e^theta overflows a double at theta = {args.theta}") from err
    lop = oracle.materialize(kernels.plancherel_l(args.theta),
                             oracle.lattice_window(args.window))
    det = oracle.fredholm_det(lop)
    rel = abs(det - target) / target
    _write_csv(args.output, ["det_one_plus_l", "e_theta", "rel_err"],
               [[_fmt(det), _fmt(target), _fmt(rel)]])
    if rel >= args.tol:
        raise _CheckFailure(f"relative error {rel:.3e} >= {args.tol:.1e}")
    return 0


def cmd_prob(args) -> int:
    diagram = YoungDiagram([] if not args.rows else _parse_list(args.rows, int, "--rows"))
    weight = plancherel_weight(diagram, args.theta)
    if weight == 0.0:
        raise errors.ParameterError(
            f"the Plancherel weight of {diagram} underflows to 0 at theta = {args.theta}")
    lop = oracle.materialize(kernels.plancherel_l(args.theta),
                             oracle.lattice_window(args.window))
    prob = oracle.prob_of_configuration(lop, sorted(fr_config(diagram)))
    rel = abs(prob - weight) / weight
    _write_csv(args.output,
               ["partition", "weight_formula", "prob_oracle", "rel_err"],
               [["|".join(str(r) for r in diagram.rows), _fmt(weight),
                 _fmt(prob), _fmt(rel)]])
    if rel >= args.tol:
        raise _CheckFailure(f"relative error {rel:.3e} >= {args.tol:.1e}")
    return 0


def cmd_sample(args) -> int:
    _write_csv(args.output, ["sample_index", "size", "d", "fr_points_doubled"],
               sampler.sample_rows(args.theta, args.n, sampler.SeededGenerator(args.seed)))
    return 0


def _sigmas(estimate: float, stderr: float, prediction: float, n: int) -> float:
    """|estimate - prediction| in sigmas: the stderr, or where that is 0 (an
    estimate of 0 or 1) the binomial sqrt(p(1 - p)/n) of the prediction p;
    where both are 0, 0 sigmas at equality and inf otherwise."""
    diff = abs(estimate - prediction)
    sigma = stderr or math.sqrt(max(prediction * (1.0 - prediction), 0.0) / n)
    return diff / sigma if sigma else (0.0 if diff == 0 else math.inf)


def cmd_correlation(args) -> int:
    points = tuple(_parse_list(args.points, int, "--points"))
    gen = sampler.SeededGenerator(args.seed)
    est = sampler.empirical_correlation(args.theta, points, args.n, gen,
                                        n_substreams=args.substreams)
    kern = kernels.discrete_bessel_k(args.theta)
    pred = float(np.linalg.det(kern.matrix([half(p) for p in points])))
    sigmas = _sigmas(est.estimate, est.stderr, pred, est.n_samples)
    _write_csv(args.output,
               ["points_doubled", "estimate", "stderr", "prediction", "sigmas"],
               [[" ".join(str(p) for p in points), _fmt(est.estimate),
                 _fmt(est.stderr), _fmt(pred), _fmt(sigmas)]])
    if sigmas >= args.sigma_band:
        raise _CheckFailure(f"estimate {sigmas:.2f} sigma from prediction")
    return 0


_SUITES = {
    "drhp": lambda args: drhp.suite_drhp(args.theta),
    "psi": lambda args: drhp.suite_psi(_parse_z(args)),
    "two-point": lambda args: drhp.suite_two_point(),
    "contour": lambda args: drhp.suite_contour(),
    "special-functions": lambda args: drhp.suite_special_functions(),
    "cd": lambda args: drhp.suite_cd(),
}


def cmd_verify(args) -> int:
    rows = _SUITES[args.suite](args)
    _write_csv(args.output, ["check_id", "point", "residual", "tolerance", "pass"],
               [[r.check_id, r.point, _fmt(r.residual), _fmt(r.tolerance),
                 str(r.passed).lower()] for r in rows])
    if not drhp.all_pass(rows):
        failed = [r.check_id for r in rows if not r.passed]
        raise _CheckFailure(f"failed checks: {', '.join(failed)}")
    return 0


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
        rows.append([_fmt(absz), _fmt(worst)])
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
        rows.append([_fmt(xi), _fmt(worst)])
    return ["xi", "max_abs_err"], rows, errs[1] < errs[0]


_STUDIES = {
    "zw-degeneration": _zw_degeneration,
    "whittaker-scaling": _whittaker_scaling,
}


def cmd_limits(args) -> int:
    header, rows, ok = _STUDIES[args.study](args)
    _write_csv(args.output, header, rows)
    if not ok:
        raise _CheckFailure(f"limit study {args.study} not converging")
    return 0


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
    p.add_argument("--family", required=True,
                   choices=[*_LATTICE_KERNELS, "whittaker-l", "whittaker"])
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
    p.add_argument("--step", type=float, default=0.35,
                   help="trapezoid step h in s, nodes +-e^s on [e^-45, e^4.5] (whittaker)")
    p.add_argument("--points", default="0.5,-0.5,1,-1,2,-2")
    p.add_argument("--tol", type=float, default=None)
    add_common(p, theta=True, z=True)
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("fredholm", help="det(1+L) against e^theta")
    p.add_argument("--window", type=int, default=30)
    p.add_argument("--tol", type=float, default=1e-10)
    add_common(p, theta=True)
    p.set_defaults(func=cmd_fredholm)

    p = sub.add_parser("prob", help="configuration probability vs weight formula")
    p.add_argument("--rows", default="3,3,1",
                   help="partition rows, comma separated ('' = empty)")
    p.add_argument("--window", type=int, default=30)
    p.add_argument("--tol", type=float, default=1e-12)
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
    p.add_argument("--sigma-band", type=float, default=4.0)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CheckFailure as err:
        print(f"detproc: check failed: {err}", file=sys.stderr)
        return 1
    except (errors.ConvergenceError, errors.SingularOperatorError,
            errors.BesselOverflowError) as err:
        print(f"detproc: numerical failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except (errors.DomainError, errors.ParameterError, errors.WindowError,
            errors.DegenerateGridError) as err:
        print(f"detproc: invalid arguments: {err}", file=sys.stderr)
        return 2
    except _IOFailure as err:
        print(f"detproc: i/o error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
