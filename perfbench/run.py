"""detproc benchmark: time cross-checked answers, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (src/detproc must be there).  Each
run starts fresh child interpreters (child.py) that import detproc from
src/.  A child runs a closed loop with one client over the workload's task
mix; a task computes one answer by two independent routes and checks them
against each other (see workloads.py).

--trace 0 reports the end-to-end metrics:

    setup_s           median over SETUP_SPAWNS children of the wall time
                      from spawn to "ready" (interpreter, import detproc,
                      the workload's fixed inputs)
    task_p50_ms       median task latency (nearest rank; >= 100 tasks)
    task_p90_ms       90th-percentile task latency (>= 10 tasks beyond it)
    tasks_per_s       tasks completed per second of task time
    pass_frac         passed checks / attempted checks (1 - fail_frac;
                      a task that raises fails every check it would make)
    agree_digits_min  min over passing agreement checks (tolerance <= 1e-3)
                      of -log10(residual), clamped at 16
    peak_rss_mb       the timed child's ru_maxrss at exit

Task times are taken at the reference host speed of speed.py: each task's
wall time is scaled by how long a fixed slice of reference work took next
to it.  Raw wall times are in the run record.

--trace 1 runs the same seed untraced and then traced (wrappers at the
layer boundaries, spans kept in memory), checks that both compute
bit-identical residuals, times every README CLI command as a subprocess,
and reports the per-layer metrics of PER_LAYER.  Span counts and self
times are per traced task; sampler.theta*.samples_per_s come from the
untraced run, and trace.overhead_ratio is its tasks_per_s over the traced
run's.

Known seed failures (known_failures.json) count as failed checks in
pass_frac and in the ledger, never as failed operations: the final line's
`failed` counts tasks that raised, checks that failed without being listed
there, and CLI commands that failed.  `correct` is true when `failed` is 0
and (with --trace 1) the traced residuals equal the untraced ones.

The run record is printed before the result line; it and the full check
ledger are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import json
import math
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
CHILD = HERE / "child.py"
WORKLOADS = ("lattice", "montecarlo", "continuum", "certify")
SETUP_SPAWNS = 5
BUDGET_S = 170.0
AGREEMENT_TOL = 1e-3
MAX_DIGITS = 16.0

END_TO_END = (
    ("setup_s", "s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("tasks_per_s", "1/s"),
    ("pass_frac", "ratio"),
    ("agree_digits_min", "digits"),
    ("peak_rss_mb", "MiB"),
)

# the README's CLI commands, verbatim after the program name
CLI_COMMANDS = (
    ("kernel-bessel", "kernel --family bessel --theta 1 --window 10 -o kernel.csv"),
    ("oracle-compare-bessel",
     "oracle-compare --family bessel --theta 1 --window 25 -o compare.csv"),
    ("oracle-compare-whittaker",
     "oracle-compare --family whittaker --z-re 0.25 --z-im 0.6 -o wcompare.csv"),
    ("fredholm", "fredholm --theta 1 --window 30 -o fredholm.csv"),
    ("prob", "prob --rows 3,3,1 --theta 1 -o prob.csv"),
    ("sample", "sample --theta 2 --n 10000 --seed 7 -o samples.csv"),
    ("correlation",
     "correlation --theta 4 --points 1,-1 --n 200000 --seed 7 --substreams 8 -o corr.csv"),
    ("verify-drhp", "verify --suite drhp --theta 1 -o drhp.csv"),
    ("verify-psi", "verify --suite psi --z-re 0.25 --z-im 0.6 -o psi.csv"),
    ("verify-two-point", "verify --suite two-point -o twopoint.csv"),
    ("verify-contour", "verify --suite contour -o contour.csv"),
    ("verify-special-functions", "verify --suite special-functions -o special.csv"),
    ("verify-cd", "verify --suite cd -o cd.csv"),
    ("limits-zw-degeneration", "limits --study zw-degeneration --theta 1 -o zwlimit.csv"),
    ("limits-whittaker-scaling", "limits --study whittaker-scaling -o scaling.csv"),
)

_SPAN_METRICS = (
    ("special.bessel_j.series", ("calls", "self_s")),
    ("special.bessel_j.decimal_tail", ("calls", "self_s")),
    ("special.bessel_j_dorder", ("calls", "self_s")),
    ("special.whittaker_w", ("calls", "self_s")),
    ("special.whittaker_w_complex", ("calls", "self_s")),
    ("special.bessel_j_complex_order", ("calls", "self_s")),
    ("kernels.matrix", ("calls", "self_s")),
    ("kernels.entry", ("calls", "self_s")),
    ("kernels.diagonal", ("calls", "self_s")),
    ("oracle.materialize", ("self_s",)),
    ("oracle.resolvent", ("self_s",)),
    ("oracle.fredholm_det", ("self_s",)),
    ("oracle.nystrom_build", ("self_s",)),
    ("oracle.nystrom_k_at", ("calls", "self_s")),
    ("sampler.empirical_correlations", ("self_s",)),
    ("sampler.poisson", ("self_s",)),
    ("sampler.permutation", ("self_s",)),
    ("sampler.rsk_shape", ("self_s",)),
    ("partitions.fr_config", ("self_s",)),
    ("drhp.suite_drhp", ("self_s",)),
    ("drhp.fit_m1", ("self_s",)),
    ("drhp.suite_psi", ("self_s",)),
    ("drhp.suite_two_point", ("self_s",)),
    ("drhp.suite_contour", ("self_s",)),
    ("bench.task", ("self_s",)),
)
_UNITS = {"calls": "count", "self_s": "s"}
MC_RATE_CLASSES = (("sampler.theta4.samples_per_s", "theta=4"),
                   ("sampler.theta30.samples_per_s", "theta=30"),
                   ("sampler.theta100.samples_per_s", "theta=100"))

PER_LAYER = (
    (("special.bessel_j.calls", "count"),)
    + tuple((f"{span}.{field}", _UNITS[field])
            for span, fields in _SPAN_METRICS for field in fields)
    + (("oracle.nystrom_k_at.new_column_ratio", "ratio"),
       ("sampler.samples", "count"))
    + tuple((name, "1/s") for name, _ in MC_RATE_CLASSES)
    + (("partitions.young_diagram.calls", "count"),
       ("drhp.checks", "count"),
       ("drhp.checks_failed", "count"),
       ("cli.import_s", "s"))
    + tuple((f"cli.{cid}.wall_s", "s") for cid, _ in CLI_COMMANDS)
    + (("cli.exit_nonzero", "count"),
       ("trace.tasks", "count"),
       ("trace.overhead_ratio", "ratio"))
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed check)."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    values at or below it.  With n values, n - ceil(q n / 100) lie beyond."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def agree_digits(residual: float) -> float:
    if residual <= 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, -math.log10(residual))


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list, deadline: float) -> tuple[float, dict | None]:
    """Start child.py; return (seconds from spawn to 'ready', its result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


# ----------------------------------------------------------------------
# checks and the ledger
# ----------------------------------------------------------------------

def load_known() -> list:
    with open(HERE / "known_failures.json") as fh:
        return json.load(fh)["failures"]


def is_known(known: list, workload: str, cls: str, check_id: str, point: str) -> bool:
    return any(k["workload"] == workload and k["class"] == cls and k["check"] == check_id
               and k.get("point", point) == point for k in known)


def all_checks(result: dict, classes) -> list:
    """(class, check_id, point, residual, tolerance, task index) of a child run."""
    rows = []
    for index, task in enumerate(result["tasks"]):
        for check_id, point, residual, tol in task["checks"]:
            rows.append((classes[task["cls"]], check_id, point, residual, tol, index))
    for cls, check_id, point, residual, tol in result["end_checks"]:
        rows.append((cls, check_id, point, residual, tol, None))
    return rows


def ledger(workload: str, rows: list, known: list, routes) -> list:
    """One entry per (class, check, point): counts, worst residual, verdict."""
    entries: dict = {}
    for cls, check_id, point, residual, tol, _ in rows:
        entry = entries.setdefault((cls, check_id, point), {
            "id": check_id, "workload": workload, "class": cls, "point": point,
            "routes": routes(check_id), "tolerance": tol, "attempted": 0,
            "failed": 0, "worst_residual": 0.0,
            "known_failure": is_known(known, workload, cls, check_id, point)})
        entry["attempted"] += 1
        entry["failed"] += not residual < tol
        entry["worst_residual"] = max(entry["worst_residual"], residual)
    for entry in entries.values():
        entry["pass"] = entry["failed"] == 0
    return list(entries.values())


def failed_operations(rows: list, entries: list) -> int:
    """Operations (tasks, end-of-run checks) that raised or failed a check
    not listed in known_failures.json."""
    new = {(e["class"], e["id"], e["point"]) for e in entries
           if e["failed"] and not e["known_failure"]}
    bad = set()
    for n, (cls, check_id, point, residual, tol, task) in enumerate(rows):
        if not residual < tol and (cls, check_id, point) in new:
            bad.add(("task", task) if task is not None else ("end", n))
    return len(bad)


def normalized_latencies(result: dict) -> list:
    tasks = result["tasks"]
    return [t["latency_s"] * f
            for t, f in zip(tasks, speed.factors(result["probes_s"], len(tasks)))]


def end_to_end(tasks_result: dict, rows: list, setups: list) -> dict:
    latencies = normalized_latencies(tasks_result)
    passed = sum(residual < tol for _, _, _, residual, tol, _ in rows)
    digits = [agree_digits(residual) for _, _, _, residual, tol, _ in rows
              if residual < tol <= AGREEMENT_TOL]
    values = {
        "setup_s": statistics.median(setups),
        "task_p50_ms": 1e3 * percentile(latencies, 50),
        "task_p90_ms": 1e3 * percentile(latencies, 90),
        "tasks_per_s": len(latencies) / sum(latencies),
        "pass_frac": passed / len(rows),
        "agree_digits_min": min(digits) if digits else 0.0,
        "peak_rss_mb": tasks_result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


# ----------------------------------------------------------------------
# traced run: per-layer metrics and the CLI
# ----------------------------------------------------------------------

def run_cli(deadline: float) -> tuple[dict, list]:
    """Wall time of `python -c 'import detproc.cli'` and of every README command."""
    metrics, records = {}, []
    imports = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import detproc.cli"], cwd=ROOT,
                       env=child_env(), check=True,
                       timeout=max(1.0, deadline - time.perf_counter()))
        imports.append(time.perf_counter() - t0)
    metrics["cli.import_s"] = statistics.median(imports)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for cid, command in CLI_COMMANDS:
            argv = shlex.split(command)
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "detproc.cli", *argv], cwd=tmp,
                                  env=child_env(), capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.perf_counter()))
            wall = time.perf_counter() - t0
            csv_path = Path(tmp) / argv[argv.index("-o") + 1]
            header = _csv_header(csv_path)
            records.append({"id": cid, "command": "detproc " + command, "wall_s": wall,
                            "exit": proc.returncode, "csv_header": header,
                            "stderr": proc.stderr[-500:]})
            metrics[f"cli.{cid}.wall_s"] = wall
    metrics["cli.exit_nonzero"] = sum(r["exit"] != 0 for r in records)
    return metrics, records


def _csv_header(path: Path):
    """The first CSV row if every field is a non-numeric name, else None."""
    try:
        with open(path, newline="") as fh:
            row = next(csv.reader(fh), None)
    except OSError:
        return None
    if not row:
        return None
    for field in row:
        try:
            float(field)
            return None
        except ValueError:
            pass
    return row


def per_layer(workload: str, plain: dict, traced: dict, classes) -> dict:
    by_name = traced["layers"]["spans"]
    counts = traced["layers"]["counts"]
    absent = traced["absent"]

    # counts and self times are per traced task, so runs of any length
    # compare; times use one host-speed factor for the whole traced run
    n_tasks = len(traced["tasks"])
    scale = speed.REFERENCE_S / statistics.median(traced["probes_s"]) / n_tasks

    def span(name: str, field: str):
        calls, self_s = by_name.get(name, (0, 0.0))
        return calls / n_tasks if field == "calls" else self_s * scale

    values = {f"{name}.{field}": span(name, field)
              for name, fields in _SPAN_METRICS for field in fields}
    values["special.bessel_j.calls"] = sum(
        span(f"special.bessel_j.{b}", "calls") for b in ("series", "decimal_tail", "asymptotic"))
    k_at_calls = by_name.get("oracle.nystrom_k_at", (0, 0.0))[0]
    values["oracle.nystrom_k_at.new_column_ratio"] = (
        counts.get("oracle.nystrom_k_at.new_columns", 0) / k_at_calls if k_at_calls else 0.0)
    values["sampler.samples"] = sum(t.get("samples", 0) for t in traced["tasks"])
    plain_factors = speed.factors(plain["probes_s"], len(plain["tasks"]))
    for name, label in MC_RATE_CLASSES:
        mine = [(t, f) for t, f in zip(plain["tasks"], plain_factors)
                if classes[t["cls"]] == label and "mc_s" in t]
        busy = sum(t["mc_s"] * f for t, f in mine)
        values[name] = sum(t["samples"] for t, _ in mine) / busy if busy else 0.0
    values["partitions.young_diagram.calls"] = counts.get("partitions.young_diagram", 0) / n_tasks
    drhp_rows = ([c for t in traced["tasks"] for c in t["checks"]]
                 if workload == "certify" else [])
    values["drhp.checks"] = len(drhp_rows)
    values["drhp.checks_failed"] = sum(not c[2] < c[3] for c in drhp_rows)
    values["trace.tasks"] = n_tasks
    plain_rate = len(plain["tasks"]) / sum(normalized_latencies(plain))
    traced_rate = len(traced["tasks"]) / sum(normalized_latencies(traced))
    values["trace.overhead_ratio"] = plain_rate / traced_rate
    for prefix in absent:
        for name in values:
            if name.startswith(prefix + "."):
                values[name] = None
    return values


def residuals_identical(plain: dict, traced: dict) -> bool:
    """The wrappers pass results through, so every check of the tasks both
    runs completed must carry the same residual, bit for bit."""
    for a, b in zip(plain["tasks"], traced["tasks"]):
        if a["checks"] != b["checks"] or a.get("counts") != b.get("counts"):
            return False
    return True


# ----------------------------------------------------------------------
# run record
# ----------------------------------------------------------------------

def blas_info() -> dict:
    import numpy as np
    info = {"name": None, "version": None, "threads": None,
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS") if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(pattern):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(args, per_workload: dict) -> dict:
    import numpy as np
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_info(), "commit": git_commit(),
            **per_workload}


def check_counts(result: dict, classes, entries: list) -> dict:
    per_class: dict = {}
    for task in result["tasks"]:
        per_class[classes[task["cls"]]] = per_class.get(classes[task["cls"]], 0) + 1
    attempted = sum(e["attempted"] for e in entries)
    failed = sum(e["failed"] for e in entries)
    return {"tasks": len(result["tasks"]), "tasks_per_class": per_class,
            "checks_attempted": attempted, "checks_failed": failed,
            "fail_frac": failed / attempted if attempted else 0.0,
            "known_failures_seen": sorted(f"{e['class']}/{e['id']}@{e['point']}"
                                          for e in entries if e["failed"] and e["known_failure"]),
            "new_failures": sorted(f"{e['class']}/{e['id']}@{e['point']}"
                                   for e in entries if e["failed"] and not e["known_failure"])}


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "detproc" / "__init__.py").is_file():
        print(f"run.py: no detproc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + BUDGET_S
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds)]
    try:
        setups = [spawn(child_args + ["--setup-only"], deadline)[0]
                  for _ in range(0 if args.trace else SETUP_SPAWNS - 1)]
        setup_s, plain = spawn(child_args, deadline)
        setups.append(setup_s)
        if args.trace:
            traced = spawn(child_args + ["--trace"], deadline)[1]
            cli_metrics, cli_records = run_cli(deadline)
    except (BenchError, subprocess.SubprocessError, OSError, json.JSONDecodeError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 3

    known = load_known()
    classes = workloads.WORKLOADS[args.workload].classes
    rows = all_checks(plain, classes)
    entries = ledger(args.workload, rows, known, workloads.routes)
    attempted = len(plain["tasks"]) + len(plain["end_checks"])
    failed = failed_operations(rows, entries)
    record_extra = {"checks": check_counts(plain, classes, entries)}
    if args.trace:
        identical = residuals_identical(plain, traced)
        cli_failed = sum(r["exit"] != 0 or r["csv_header"] is None for r in cli_records)
        attempted += len(traced["tasks"]) + len(cli_records)
        failed += cli_failed + (0 if identical else 1)
        layer = per_layer(args.workload, plain, traced, classes)
        layer.update(cli_metrics)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
        record_extra.update({"traced_residuals_identical": identical, "cli": cli_records,
                             "absent": traced["absent"]})
    else:
        metrics = end_to_end(plain, rows, setups)
        raw = [t["latency_s"] for t in plain["tasks"]]
        record_extra["raw_wall"] = {
            "setup_s": setups, "task_p50_ms": 1e3 * percentile(raw, 50),
            "task_p90_ms": 1e3 * percentile(raw, 90),
            "tasks_per_s": len(raw) / plain["elapsed_s"],
            "probe_median_s": statistics.median(plain["probes_s"])}

    record = run_record(args, record_extra)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, "ledger": entries, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
