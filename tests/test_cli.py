"""Command-line front end: artifacts, determinism, exit codes."""

import csv
import math
import subprocess
import sys

import numpy as np
import pytest

from detproc import cli, drhp, errors, kernels, oracle


def run(args):
    return cli.main(args)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_kernel_lattice(tmp_path):
    out = tmp_path / "k.csv"
    assert run(["kernel", "--family", "bessel", "--theta", "1",
                "--window", "10", "-o", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["x_doubled", "y_doubled", "value"]
    assert len(rows) == 1 + 20 * 20
    xs = {int(r[0]) for r in rows[1:]}
    assert max(xs) == 19 and min(xs) == -19    # |x| <= 19/2


def test_kernel_zw_lattice(tmp_path):
    out = tmp_path / "zw.csv"
    assert run(["kernel", "--family", "zw-l", "--z-re", "0.3", "--z-im", "0.8",
                "--xi", "0.5", "--window", "4", "-o", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 1 + 8 * 8
    # same-sign pairs vanish
    for r in rows[1:]:
        if int(r[0]) * int(r[1]) > 0:
            assert float(r[2]) == 0.0


def test_kernel_whittaker_points(tmp_path):
    out = tmp_path / "w.csv"
    assert run(["kernel", "--family", "whittaker", "--z-re", "0.25",
                "--z-im", "0.6", "--points", "0.5,-0.5", "-o", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["x", "y", "value"]
    assert len(rows) == 5


def test_fredholm_pass_and_content(tmp_path):
    out = tmp_path / "f.csv"
    assert run(["fredholm", "--theta", "1", "--window", "30",
                "-o", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["det_one_plus_l", "e_theta", "rel_err"]
    assert float(rows[1][2]) < 1e-10


def test_fredholm_check_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "f.csv"
    # a window of radius 10 truncates det(1+L) at theta = 100: relative
    # error 1.0 against the pinned 1e-10
    assert run(["fredholm", "--theta", "100", "--window", "10", "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        "detproc: check failed: relative error 1.000e+00 >= 1.0e-10\n")


def test_oracle_compare_bessel(tmp_path):
    out = tmp_path / "oc.csv"
    assert run(["oracle-compare", "--family", "bessel", "--theta", "1",
                "--window", "25", "-o", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["x_doubled", "y_doubled", "analytic", "oracle", "abs_diff"]
    assert max(float(r[4]) for r in rows[1:]) < 1e-8


def test_oracle_compare_bessel_hat(tmp_path):
    # the command line's one route to khat_from_l
    out = tmp_path / "oc.csv"
    assert run(["oracle-compare", "--family", "bessel-hat", "--theta", "1",
                "--window", "15", "-o", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 1 + 20 * 20    # |x| <= 19/2, 5 steps inside the edge
    assert max(float(r[4]) for r in rows[1:]) < 1e-8


def test_failed_oracle_compare_writes_its_whole_table(tmp_path, capsys):
    # a window of radius 6 truncates the oracle at theta = 30: 4.0e-2
    # against the pinned 1e-8, over the 2 x 2 pairs of the compared block
    out = tmp_path / "oc.csv"
    assert run(["oracle-compare", "--family", "bessel", "--theta", "30",
                "--window", "6", "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        "detproc: check failed: max |analytic - oracle| = 4.047e-02 >= 1.0e-08\n")
    assert len(read_csv(out)) == 1 + 2 * 2


def test_oracle_compare_whittaker_includes_the_diagonal(tmp_path, monkeypatch):
    out = tmp_path / "wc.csv"
    assert run(["oracle-compare", "--family", "whittaker", "--z-re", "0.25",
                "--z-im", "0.6", "-o", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["x", "y", "analytic", "oracle", "abs_diff"]
    assert len(rows) == 1 + 6 * 6
    diagonal = [r for r in rows[1:] if r[0] == r[1]]
    assert len(diagonal) == 6
    # 1e-14 on the default window, diagonal included (tolerance 1e-10)
    assert max(float(r[4]) for r in rows[1:]) < 1e-10
    # a quadrature window of twice the step misses the pinned tolerance
    coarse = oracle.quadrature_window(h=0.7)
    monkeypatch.setattr(oracle, "quadrature_window", lambda: coarse)
    assert run(["oracle-compare", "--family", "whittaker", "--z-re", "0.25",
                "--z-im", "0.6", "-o", str(out)]) == 1


def test_prob_command(tmp_path):
    out = tmp_path / "p.csv"
    assert run(["prob", "--rows", "3,3,1", "--theta", "1", "-o", str(out)]) == 0
    rows = read_csv(out)
    assert rows[1][0] == "3|3|1"
    assert float(rows[1][3]) < 1e-12


def test_sample_deterministic(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for out in (out1, out2):
        assert run(["sample", "--theta", "2", "--n", "100", "--seed", "7",
                    "-o", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_csv(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sample", "--theta", "1.5", "--n", "50", "--seed", "1",
                "-o", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["sample_index", "size", "d", "fr_points_doubled"]
    assert len(rows) == 51
    for idx, row in enumerate(rows[1:]):
        assert int(row[0]) == idx
        pts = [int(t) for t in row[3].split()] if row[3] else []
        assert len(pts) == 2 * int(row[2])
        assert all(p % 2 != 0 for p in pts)


def test_correlation_command(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["correlation", "--theta", "1", "--points", "1",
                "--n", "20000", "--seed", "5", "--substreams", "2",
                "-o", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["points_doubled", "estimate", "stderr",
                       "prediction", "sigmas"]
    assert float(rows[1][4]) < 4.0


@pytest.mark.parametrize("args", [
    # a window of radius 6 at theta = 100: relative error 5.5e19
    ["prob", "--theta", "100", "--rows", "1", "--window", "6"],
    ["correlation", "--theta", "1", "--n", "1000"],
    ["limits", "--study", "zw-degeneration"],
], ids=" ".join)
def test_failed_check_exits_1_with_one_line_after_the_table(args, tmp_path, capsys,
                                                             monkeypatch):
    # the sampler agrees with the kernel and the limit studies converge at
    # every valid input, so those two fail by stubs: det L at (1/2, -1/2)
    # is 1 at theta = 1, where the correlation is e^-1
    monkeypatch.setattr(kernels, "discrete_bessel_k", kernels.plancherel_l)
    monkeypatch.setitem(cli._STUDIES, "zw-degeneration",
                        lambda args: (["abs_z", "max_rel_err"], [["20", "1"]], False))
    out = tmp_path / "out.csv"
    assert run([*args, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("detproc: check failed:")
    assert len(read_csv(out)) == 2


def test_malformed_point_list_exits_2_with_one_line(tmp_path, capsys):
    # int("x") ended in a ValueError traceback
    assert run(["correlation", "--theta", "1", "--points", "1,x",
                "-o", str(tmp_path / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--points needs comma-separated ints" in err
    assert run(["prob", "--theta", "1", "--rows", "2,1.5",
                "-o", str(tmp_path / "p.csv")]) == 2
    assert run(["kernel", "--family", "whittaker", "--points", "0.5,",
                "-o", str(tmp_path / "k.csv")]) == 2
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("args", [["--n", "-5"], ["--theta", "1e19"], ["--theta", "0"]])
def test_bad_sample_arguments_exit_2_without_a_file(args, tmp_path, capsys):
    # --n -5 exited 0 with a header-only file, --theta 1e19 ended in
    # numpy's "lam value too large"
    out = tmp_path / "s.csv"
    assert run(["sample", "--theta", "2", "--n", "3", *args, "-o", str(out)]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "drhp", "--theta", "-1"],
    ["verify", "--suite", "drhp", "--theta", "inf"],
    ["verify", "--suite", "drhp", "--theta", "0"],
    ["verify", "--suite", "drhp", "--theta", "nan"],
    ["verify", "--suite", "drhp", "--theta", "1e-10"],
    ["verify", "--suite", "drhp", "--theta", "0.01"],
    ["fredholm", "--theta", "inf"],
    ["prob", "--theta", "inf"],
    ["kernel", "--family", "bessel", "--theta", "inf"],
    ["kernel", "--family", "whittaker", "--z-im", "nan"],
    ["kernel", "--family", "zw-l", "--z-re", "nan"],
    ["oracle-compare", "--family", "bessel", "--window", "3"],
    ["oracle-compare", "--family", "bessel-hat", "--window", "5"],
    ["fredholm", "--theta", "800"],
    ["prob", "--theta", "800", "--rows", "1"],
    ["kernel", "--family", "whittaker", "--points", "1,1"],
    ["oracle-compare", "--family", "whittaker", "--points", "1,1"],
    ["kernel", "--family", "whittaker", "--points", "1e300,1"],
    ["oracle-compare", "--family", "whittaker", "--points", "1e300,1"],
    ["kernel", "--family", "whittaker", "--points", "inf,1"],
    ["kernel", "--family", "whittaker-l", "--points", "nan,1"],
    ["kernel", "--family", "bessel", "--window", "100000"],
    ["kernel", "--family", "whittaker", "--points", "1e-300,-1e-300"],
    ["kernel", "--family", "whittaker", "--points", "1e-103,1"],
    ["kernel", "--family", "whittaker-l", "--points", "1e-313,-5e-324"],
    ["kernel", "--family", "whittaker-l", "--points", "0,1,-1"],
    ["kernel", "--family", "whittaker", "--points", "0,1,-1"],
    # resource bounds: J's Miller run, the 0F1 ladder, the permutation (a
    # Poisson(1.01e6) size just past its 10^6 cap: ~37 MiB without the guard)
    ["kernel", "--family", "bessel", "--theta", "1e300", "--window", "3"],
    ["verify", "--suite", "drhp", "--theta", "1e300"],
    ["sample", "--theta", "1.01e6", "--n", "1"],
    # data past the double range
    ["kernel", "--family", "plancherel-l", "--theta", "1e10", "--window", "100"],
    ["kernel", "--family", "whittaker", "--z-re", "0.2", "--z-im", "1e300", "--points", "1,-1"],
], ids=" ".join)
def test_input_outside_a_route_range_exits_2_with_one_line(args, tmp_path, capsys):
    # each ended in a traceback, printed a numpy array over several lines,
    # or exited 0 with nan entries or a header-only file
    out = tmp_path / "out.csv"
    assert run([*args, "-o", str(out)]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["fredholm", "--theta", "700"],
    ["prob", "--theta", "700", "--rows", "1"],
], ids=" ".join)
def test_overflowing_determinant_exits_1_with_one_line(args, tmp_path, capsys):
    # det(1+L) overflowed to inf with a numpy warning, and the check then
    # failed at rel_err inf or 1.0
    out = tmp_path / "out.csv"
    assert run([*args, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "overflows a double" in err
    assert not out.exists()


def test_nan_fails_the_check(tmp_path, capsys, monkeypatch):
    # rel >= tol is False for NaN, so a NaN determinant exited 0
    monkeypatch.setattr(oracle, "fredholm_det", lambda lop: math.nan)
    out = tmp_path / "f.csv"
    assert run(["fredholm", "--theta", "1", "--window", "5", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("detproc: check failed: relative error nan")
    assert read_csv(out)[1] == ["nan", "2.7182818284590451", "nan"]


def test_correlation_of_an_unseen_configuration_passes(tmp_path):
    # no sample holds 21/2 at theta = 4, so the estimate and its stderr
    # are 0; the prediction 1.38e-9 is 1.2e-3 binomial sigmas away
    out = tmp_path / "c.csv"
    assert run(["correlation", "--theta", "4", "--points", "21", "--n", "1000",
                "-o", str(out)]) == 0
    assert float(read_csv(out)[1][4]) < 0.01


@pytest.mark.parametrize("estimate, prediction, n, passes", [
    (0.0, 0.0, 1000, True),
    (0.0, 1.38e-9, 1000, True),
    (0.0, 0.5, 1000, False),
    (1.0, 1.0, 1000, True),
])
def test_zero_stderr_is_judged_by_the_binomial_sigma(estimate, prediction, n, passes):
    assert (cli._sigmas(estimate, 0.0, prediction, n) < 4.0) == passes


def test_positive_stderr_is_the_sigma():
    assert cli._sigmas(0.3, 0.01, 0.25, 1000) == abs(0.3 - 0.25) / 0.01


def test_verify_suites(tmp_path):
    for suite in ("two-point", "contour", "cd", "special-functions",
                  "drhp", "psi"):
        out = tmp_path / f"{suite}.csv"
        assert run(["verify", "--suite", suite, "-o", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["check_id", "point", "residual", "tolerance", "pass"]
        assert all(r[4] == "true" for r in rows[1:])


def test_limits_studies(tmp_path):
    assert run(["limits", "--study", "zw-degeneration", "--theta", "1",
                "-o", str(tmp_path / "l1.csv")]) == 0
    assert run(["limits", "--study", "whittaker-scaling",
                "-o", str(tmp_path / "l2.csv")]) == 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["kernel"])  # missing required arguments
    assert exc.value.code == 2


def test_invalid_parameters_exit_code(tmp_path):
    # integer z is a parameter error -> exit 2
    assert run(["kernel", "--family", "zw-l", "--z-re", "2", "--z-im", "0",
                "--xi", "0.5", "-o", str(tmp_path / "z.csv")]) == 2


def test_window_error_exits_2_with_one_line(tmp_path, capsys):
    # it ended in a traceback while only DomainError and ParameterError
    # were caught
    assert run(["fredholm", "--window", "0", "-o", str(tmp_path / "f.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "window radius must be >= 1" in err


def test_convergence_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # a pole of m at 0.999 of fit_m1's radius: no doubling of its
    # trapezoid passes, and fit_m1 raises ConvergenceError
    original = drhp._m_from_0f1
    pole = 0.999 * drhp._m1_radius(1.0)

    def with_pole(theta, zeta, lo, hi):
        m = original(theta, zeta, lo, hi)
        return m + (1.0 / (np.asarray(zeta) - pole))[..., None, None]

    monkeypatch.setattr(drhp, "_m_from_0f1", with_pole)
    assert run(["verify", "--suite", "drhp", "-o", str(tmp_path / "d.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("detproc: numerical failure: ConvergenceError: fit_m1")


_EXIT_CODES = {
    errors.DomainError: 2, errors.PoleError: 2, errors.ParameterError: 2,
    errors.WindowError: 2, errors.DegenerateGridError: 2,
    errors.ConvergenceError: 1, errors.SingularOperatorError: 1,
    errors.BesselOverflowError: 1,
}


def test_every_typed_error_has_an_exit_code():
    typed = {v for v in vars(errors).values()
             if isinstance(v, type) and issubclass(v, Exception)}
    assert typed == set(_EXIT_CODES)


@pytest.mark.parametrize("error", list(_EXIT_CODES), ids=lambda e: e.__name__)
def test_typed_error_exit_code(error, tmp_path, capsys, monkeypatch):
    def fail():
        raise error("raised inside the suite")

    monkeypatch.setattr(drhp, "suite_cd", fail)
    assert run(["verify", "--suite", "cd", "-o", str(tmp_path / "cd.csv")]) == _EXIT_CODES[error]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "raised inside the suite" in err


# one cheap invocation of every subcommand
_SUBCOMMANDS = {
    "kernel": ["kernel", "--family", "bessel", "--window", "4"],
    "oracle-compare": ["oracle-compare", "--family", "bessel", "--window", "8"],
    "fredholm": ["fredholm", "--theta", "1", "--window", "5"],
    "prob": ["prob", "--window", "10"],
    "sample": ["sample", "--n", "3"],
    "correlation": ["correlation", "--n", "100"],
    "verify": ["verify", "--suite", "cd"],
    "limits": ["limits", "--study", "zw-degeneration"],
}


def test_subcommand_table_covers_the_parser():
    actions = [a for a in cli._build_parser()._actions if a.dest == "command"]
    assert set(actions[0].choices) == set(_SUBCOMMANDS)


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_subcommand_returns_a_table_and_writes_no_file(command, tmp_path):
    # main alone writes the CSV and sets the exit code
    out = tmp_path / "out.csv"
    args = cli._build_parser().parse_args([*_SUBCOMMANDS[command], "-o", str(out)])
    header, rows, failure = args.func(args)
    rows = list(rows)
    assert rows and all(len(row) == len(header) for row in rows)
    assert failure is None or isinstance(failure, str)
    assert not out.exists()


def test_io_error_exit_code(capsys):
    # every subcommand's writer maps OSError to exit 3; verify's own writer
    # once ended in a FileNotFoundError traceback
    for command, args in _SUBCOMMANDS.items():
        assert run([*args, "-o", "/nonexistent-dir/out.csv"]) == 3, command
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("detproc: i/o error:"), command


def test_verify_writes_one_row_per_check(tmp_path, monkeypatch):
    # 17 significant digits and the pass column as true / false
    rows = [drhp.ResidualCheck("alpha", "x=1", 1e-12, 1e-9),
            drhp.ResidualCheck("beta", "x=2", 1.0, 1e-9)]
    monkeypatch.setattr(drhp, "suite_cd", lambda: rows)
    out = tmp_path / "report.csv"
    assert run(["verify", "--suite", "cd", "-o", str(out)]) == 1
    assert out.read_text().splitlines() == [
        "check_id,point,residual,tolerance,pass",
        "alpha,x=1,9.9999999999999998e-13,1.0000000000000001e-09,true",
        "beta,x=2,1,1.0000000000000001e-09,false",
    ]


def test_console_entry_point(tmp_path):
    out = tmp_path / "f.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "detproc.cli", "fredholm", "--theta", "1",
         "--window", "20", "-o", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
