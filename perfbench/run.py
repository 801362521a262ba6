"""End-to-end benchmark of the onsager CLI, one workload a run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ./src.
A closed loop with one client: each pass runs the workload's invocations
one after another, every invocation in a fresh interpreter, because every
user pays the import and the cold kernel/quadrature caches on every run.
Passes repeat while the next one is expected to end within S seconds (at
least one pass).  Outputs of every invocation are checked against
independent oracles; a nonzero exit, a traceback or a failed check counts
the invocation as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
    wall_s       median wall time of one pass, process starts included
    setup_s      median wall time of a fresh `onsager --help` process
                 (interpreter, import and parser), SETUP_REPEATS of them
                 before every pass
    peak_rss_mb  largest maximum resident set of any workload process
Both times are given at a fixed machine speed: calibrate.py runs right
before every pass, and the pass and the `--help` processes just before
that calibration each count as their wall time times
CALIBRATION_S / (that calibration's wall time).  The raw times are in the
record line.
--trace 1 alternates untraced passes with passes run under tracer.py and
reports the per-layer metrics: counts of the first traced pass (they must
repeat exactly in every traced pass), medians of the layer times, and
trace.overhead_ratio = median traced pass / median untraced pass.

The line before the last one on stdout is a JSON record with the
environment, the pass times, CPU seconds and the fail ratio; the last line
is the result: {"correct", "attempted", "failed", "metrics"}.
See NOTES.md for why each workload exists.
"""

import argparse
import csv
import json
import math
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
REFERENCE = HERE / "reference" / "tables_d3.json"

SETUP_REPEATS = 2  # `--help` processes before every pass
# wall time of calibrate.py at the speed the reported times refer to
CALIBRATION_S = 1.0
# every child must have ended well inside the 180 s a run may take
RUN_DEADLINE_S = 160.0

TOL = 1e-10              # the CLI's default --tol, used by every workload
LAMBDA_1 = 32 / math.pi  # D = 3: k_1 = 5 pi / 32, lambda_1 = N(3, 2) / k_1
ORACLE_RTOL = 1e-8
TABLE_RTOL = 1e-7
MASS_TOL = 1e-12
# rounding of the 128-term energy sum once the density has settled; the
# seed commit shows rises of at most 9e-16
ENERGY_SLACK = 1e-14


# ---------------------------------------------------------------- checks

def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _modes(row):
    return [float(v) for k, v in row.items() if k.startswith("u_")]


def check_sweep(out, ctx):
    errors = []
    by_lambda = {}
    for row in _rows(out / "sweep.csv"):
        by_lambda.setdefault(float(row["lambda"]), []).append(row)
        if not float(row["residual"]) <= TOL:
            errors.append(f"sweep residual {row['residual']} > {TOL} "
                          f"at lambda {row['lambda']}")
    if len(by_lambda) != 40:
        errors.append(f"sweep has {len(by_lambda)} lambda values, not 40")
    for lam, rows in by_lambda.items():
        first = [r for r in rows if r["branch"] == "0"]
        if not first or max(map(abs, _modes(first[0]))) > 10 * TOL:
            errors.append(f"branch 0 is not isotropic at lambda {lam}")
        expected = (3,) if lam > LAMBDA_1 else (2, 3)
        if len(rows) not in expected:
            errors.append(f"{len(rows)} solutions at lambda {lam}, "
                          f"expected {expected}")
    return errors


def check_audit(out, ctx):
    rows = _rows(out / "audit.csv")
    errors = []
    if len(rows) != 3:
        errors.append(f"audit found {len(rows)} solutions, not 3")
    if any(r["degree_sum"] != "1" for r in rows):
        errors.append("audit degree_sum is not 1")
    if any(r["stable_across_truncations"] != "true" for r in rows):
        errors.append("audit is not stable across truncations")
    if sum(int(r["index"]) for r in rows) != 1:
        errors.append("audit indices do not sum to 1")
    if not all(float(r["residual"]) <= TOL for r in rows):
        errors.append(f"audit residual above {TOL}")
    return errors


def check_evolve(out, ctx):
    rows = _rows(out / "evolve.csv")
    errors = []
    if len(rows) < 2:
        return ["evolve wrote fewer than 2 rows"]
    if not all(abs(float(r["mass"]) - 1.0) <= MASS_TOL for r in rows):
        errors.append(f"mass drifts more than {MASS_TOL} from 1")
    energy = [float(r["energy"]) for r in rows]
    for before, after in zip(energy, energy[1:]):
        if not after <= before + ENERGY_SLACK * max(1.0, abs(before)):
            errors.append(f"energy rises from {before} to {after}")
            break
    if "a_1" not in ctx:
        errors.append("spectral oracle unavailable: " + ctx["oracle_error"])
        return errors
    a_1 = float(rows[-1]["a_1"])
    if not abs(a_1 - ctx["a_1"]) <= ORACLE_RTOL * abs(ctx["a_1"]):
        errors.append(f"final a_1 {a_1} differs from the spectral "
                      f"{ctx['a_1']} by more than {ORACLE_RTOL} relative")
    return errors


def _close(value, ref):
    return abs(value - ref) <= TABLE_RTOL * abs(ref)


def check_coeffs(out, ctx):
    ref = ctx["reference"]["k"]
    rows = _rows(out / "coeffs.csv")
    errors = []
    if [r["n"] for r in rows] != [str(n) for n in range(1, 201)]:
        errors.append("coeffs rows are not n = 1..200")
    for r in rows:
        k = float(ref[r["n"]])
        for col in ("k_quadrature", "k_recurrence"):
            if not _close(float(r[col]), k):
                errors.append(f"{col} at n={r['n']} is {r[col]}, "
                              f"reference {ref[r['n']]}")
    return errors


def check_thresholds(out, ctx):
    ref = ctx["reference"]["lambda"]
    found = {}
    for r in _rows(out / "thresholds.csv"):
        m = re.fullmatch(r"lambda_([1-9][0-9]*)", r["name"])
        if m:
            found[m.group(1)] = float(r["value"])
    errors = []
    if sorted(found, key=int) != [str(n) for n in range(1, 65)]:
        errors.append("thresholds rows are not lambda_1..lambda_64")
    for n, value in found.items():
        if not _close(value, float(ref[n])):
            errors.append(f"lambda_{n} is {value}, reference {ref[n]}")
    return errors


# ------------------------------------------------------------- workloads

CLI = ["-m", "onsager.cli"]


def workload_invocations(name, seed):
    """(CLI arguments, check) for each invocation of one pass."""
    s = str(seed)
    if name == "census":
        return [
            (CLI + ["sweep", "--lambda-min", "9", "--lambda-max", "13",
                    "--steps", "40", "--modes", "16", "--nmax", "16",
                    "--seed", s, "--output", "sweep.csv"], check_sweep),
            (CLI + ["audit-degree", "--lambda", "15", "--truncations",
                    "8,12,16", "--nmax", "16", "--seed", s,
                    "--output", "audit.csv"], check_audit),
        ]
    if name == "evolve":
        return [(CLI + ["evolve", "--lambda", "11.3", "--grid", "128",
                        "--t-max", "50", "--output", "evolve.csv"],
                 check_evolve)]
    if name == "tables":
        return [
            (CLI + ["coeffs", "--dim", "3", "--nmax", "200", "--method",
                    "both", "--output", "coeffs.csv"], check_coeffs),
            (CLI + ["thresholds", "--dim", "3", "--nmax", "64",
                    "--output", "thresholds.csv"], check_thresholds),
        ]
    raise KeyError(name)


WORKLOADS = ("census", "evolve", "tables")


# ------------------------------------------------------- child processes

class Runner:
    """Starts the program's processes, one at a time, and waits for each."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("ONSAGER_QUAD_ORDER", None)

    def argv(self, args, trace_stem=None, invocation=None):
        """`python3 ARGS`, or `python3 tracer.py STEM ID ARGS`."""
        if trace_stem is not None:
            return [sys.executable, str(HERE / "tracer.py"), trace_stem,
                    invocation, *args]
        return [sys.executable, *args]

    def run(self, argv, cwd):
        """Run argv in cwd; returns (exit code, wall s, cpu s, max rss MB,
        stdout, stderr).  A child still running at the deadline is killed
        and reported with exit code None."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return None, 0.0, 0.0, 0.0, "", "run deadline reached"
        with open(cwd / ".stdout", "w+") as out, \
                open(cwd / ".stderr", "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=cwd)
            pidfd = os.pidfd_open(proc.pid)
            status = None
            try:
                ready, _, _ = select.select([pidfd], [], [], timeout)
                if not ready:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                if status is None:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                    os.wait4(proc.pid, 0)
                os.close(pidfd)
            wall = time.perf_counter() - start
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        if not ready:
            code, stderr = None, stderr + "killed at the run deadline\n"
        cpu = usage.ru_utime + usage.ru_stime
        return code, wall, cpu, usage.ru_maxrss / 1024.0, stdout, stderr


def _failure(code, stderr):
    if code != 0:
        return f"exit {code}: {stderr.strip()[-300:]}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    return None


@dataclass
class Pass:
    """One pass: wall time of each invocation, CPU seconds, the largest
    resident set, one error per failed invocation, the span files."""

    walls: list = field(default_factory=list)
    cpu: float = 0.0
    rss: float = 0.0
    errors: list = field(default_factory=list)
    trace_stems: list = field(default_factory=list)
    killed: bool = False

    @property
    def wall(self):
        return sum(self.walls)


def run_pass(runner, workload, seed, ctx, tag, traced):
    out = WORK / workload / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = Pass()
    for i, (args, check) in enumerate(
            workload_invocations(workload, seed)):
        stem = invocation = None
        if traced:
            invocation = f"{workload}-{seed}-{tag}-{i}"
            stem = str(out / f"spans-{i}")
            result.trace_stems.append(stem)
        code, wall, cpu, rss, _, stderr = runner.run(
            runner.argv(args, stem, invocation), out)
        result.walls.append(wall)
        result.cpu += cpu
        result.rss = max(result.rss, rss)
        failure = _failure(code, stderr)
        if failure is None:
            try:
                problems = check(out, ctx)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                failure = "; ".join(problems[:3])
        if failure is not None:
            result.errors.append(f"{args[len(CLI)]}: {failure}")
        if code is None:
            result.killed = True
            break
    return result


def measure_setup(runner):
    out = WORK / "setup"
    out.mkdir(parents=True, exist_ok=True)
    walls, errors = [], []
    for _ in range(SETUP_REPEATS):
        code, wall, _, _, stdout, stderr = runner.run(
            runner.argv(CLI + ["--help"]), out)
        walls.append(wall)
        failure = _failure(code, stderr)
        if failure is None and not stdout.startswith("usage: onsager"):
            failure = "no usage text"
        if failure is not None:
            errors.append(f"--help: {failure}")
    return walls, errors


def calibrate(runner):
    """Wall time of calibrate.py, or None if it failed."""
    out = WORK / "calibration"
    out.mkdir(parents=True, exist_ok=True)
    code, wall, _, _, _, _ = runner.run(
        runner.argv([str(HERE / "calibrate.py")]), out)
    return wall if code == 0 else None


def prepare(runner, workload):
    """Oracle data each workload's checks need, made outside timing."""
    ctx = {}
    if workload == "tables":
        with open(REFERENCE) as fh:
            ctx["reference"] = json.load(fh)
    if workload == "evolve":
        out = WORK / "oracle"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        code, _, _, _, _, stderr = runner.run(
            [sys.executable, str(HERE / "oracle.py"), "prolate.json"], out)
        failure = _failure(code, stderr)
        if failure is None:
            with open(out / "prolate.json") as fh:
                oracle = json.load(fh)
            if oracle["converged"] and oracle["u_1"] < -1.0:
                ctx["a_1"] = oracle["a_1"]
            else:
                failure = f"prolate solve failed: {oracle}"
        if failure is not None:
            ctx["oracle_error"] = failure
    return ctx


# --------------------------------------------------------------- tracing

def layer_totals(stem):
    """Per function: calls, inclusive ns (outermost spans of the name) and
    self ns (span minus the spans it directly caused), plus the work
    counts, from one invocation's span file."""
    with open(stem + ".json") as fh:
        header = json.load(fh)
    n = header["spans"]
    columns = [array(code) for code in "iqqqb"]
    with open(stem + ".bin", "rb") as fh:
        for column in columns:
            column.fromfile(fh, n)
    name_col, parent, start, end, nested = columns
    duration = [e - s for s, e in zip(start, end)]
    children = [0] * n
    for i, p in enumerate(parent):
        if p >= 0:
            children[p] += duration[i]
    names = header["names"]
    calls = [0] * len(names)
    inclusive = [0] * len(names)
    self_ns = [0] * len(names)
    for i in range(n):
        k = name_col[i]
        calls[k] += 1
        self_ns[k] += duration[i] - children[i]
        if not nested[i]:
            inclusive[k] += duration[i]
    totals = {}
    for k, name in enumerate(names):
        totals[f"{name}.calls"] = calls[k]
        totals[f"{name}.s"] = inclusive[k] / 1e9
        totals[f"{name}.self_s"] = self_ns[k] / 1e9
    totals.update(header["counts"])
    return totals


def pass_layers(result):
    summed = {}
    for stem in result.trace_stems:
        for key, value in layer_totals(stem).items():
            summed[key] = summed.get(key, 0) + value
    starts = summed["solver.multistart.starts"]
    summed["solver.multistart.yield"] = (
        summed["solver.multistart.found"] / starts if starts else 0.0)
    return summed


def _is_time(name):
    return name.endswith(".s") or name.endswith("_s")


def layer_metrics(traced, untraced, spec):
    per_pass = [pass_layers(p) for p in traced]
    metrics, errors = {}, []
    for entry in spec:
        name = entry["name"]
        if name == "trace.overhead_ratio":
            value = (statistics.median(p.wall for p in traced)
                     / statistics.median(p.wall for p in untraced))
        elif _is_time(name):
            value = statistics.median(p[name] for p in per_pass)
        else:
            value = per_pass[0][name]
            if any(p[name] != value for p in per_pass):
                errors.append(f"count {name} differs between traced passes")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics, errors


# ----------------------------------------------------------- environment

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """The checkout's commit, read from .git without running git (which
    would search the directories above the checkout); None outside a git
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment(seed):
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _git_commit(),
        "seed": seed,
    }


# ------------------------------------------------------------------ main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still kills and reaps its child (Runner.run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "onsager" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no onsager sources under {SRC}; run "
                         "from the root of a source checkout\n")
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    runner = Runner(time.perf_counter() + RUN_DEADLINE_S)
    errors, passes, traced = [], [], []
    setup_walls, calibrations = [], []
    ctx = prepare(runner, args.workload)

    start = time.perf_counter()
    while True:
        if not args.trace:
            walls, setup_errors = measure_setup(runner)
            setup_walls.append(walls)
            errors.extend(setup_errors)
            calibrations.append(calibrate(runner))
            if calibrations[-1] is None:
                sys.stderr.write("perfbench: calibrate.py failed\n")
                return 1
        result = run_pass(runner, args.workload, args.seed, ctx,
                          f"pass{len(passes)}", traced=False)
        passes.append(result)
        rounds = [result]
        if args.trace and not result.killed:
            result = run_pass(runner, args.workload, args.seed, ctx,
                              f"traced{len(traced)}", traced=True)
            traced.append(result)
            rounds.append(result)
        if any(r.killed for r in rounds):
            break
        elapsed = time.perf_counter() - start
        typical = elapsed / len(passes)
        if elapsed + typical > args.seconds:
            break

    every = passes + traced
    for p in every:
        errors.extend(p.errors)
    # each failed invocation adds exactly one error; the rest of `errors`
    # (counts that differ between traced passes) fail the run, not an
    # invocation
    failed = len(errors)
    attempted = sum(map(len, setup_walls)) + sum(
        len(p.walls) for p in every)
    if args.trace:
        complete = [p for p in traced if not p.killed]
        if complete:
            metrics, count_errors = layer_metrics(
                complete, [p for p in passes if not p.killed],
                bench["per_layer"])
            errors.extend(count_errors)
        else:
            metrics = {}
            errors.append("no traced pass completed")
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        speed = [CALIBRATION_S / c for c in calibrations]
        values = {
            "wall_s": statistics.median(
                p.wall * k for p, k in zip(passes, speed)),
            "setup_s": statistics.median(
                w * k for walls, k in zip(setup_walls, speed) for w in walls),
            "peak_rss_mb": max(p.rss for p in passes),
        }
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in values.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "invocation_wall_s": [p.walls for p in passes],
        "traced_pass_wall_s": [p.wall for p in traced],
        "setup_wall_s": setup_walls,
        "calibration_wall_s": calibrations,
        "cpu_s": statistics.median(p.cpu for p in passes),
        "fail_ratio": {"value": failed / attempted, "failed": failed,
                       "attempted": attempted},
        "failures": errors[:10],
        "environment": environment(args.seed),
    }
    print(json.dumps(record))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
