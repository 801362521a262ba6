"""Command-line front end: coefficient tables, thresholds, single solves,
concentration sweeps, degree audits and dynamics runs, emitted as CSV
with a JSON mirror.

Each command takes only the flags it honours (`_COMMAND_FLAGS`); each
flag's type and default are declared once (`_FLAGS`).  `--config FILE`
reads a JSON object whose keys are flag names and whose values are
strings or numbers; its items are parsed as flags placed before the
explicit ones, so explicit flags win.

Exit codes: 0 success, 2 validation error (nothing written), 3 numerical
failure (machine-readable error record written), 64 unknown command.

The front end (usage, `COMMAND --help`, an unknown command, parsing and
`--config`) imports the standard library and `onsager.errors` alone.
The kernel loads once the flags have parsed, and the solver,
bifurcation and dynamics modules are imported by the commands that run
them, so each command loads only what it needs.  The kernel table and
the thresholds need no numpy: `thresholds` and `coeffs --method
recurrence` run on the standard library, and numpy loads with the
first module that computes on arrays.  `evolve --help` reads its
default step from the dynamics module.
"""

import argparse
import csv
import io
import json
import math
import os
import sys

from .errors import OnsagerError, ValidationError

__all__ = ["main", "emit_table"]

USAGE = """usage: onsager COMMAND [options]

commands:
  coeffs        kernel coefficient tables (quadrature and/or recurrence)
  thresholds    uniqueness thresholds and critical concentrations
  solve         single solve of u = lambda G(u) from a given start
  sweep         multistart census over a lambda range (bifurcation diagram)
  audit-degree  solution census with Brouwer index sums over truncations
  evolve        relaxation dynamics from a perturbed isotropic state

every command takes --dim --nmax --output --format --config (a JSON object
of flag values; explicit flags win); `onsager COMMAND --help` lists the rest.
"""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_table(records, path, fmt: str):
    """Write records (list of dicts with identical, nonempty keys and
    scalar values) to path, or to stdout when path is None.

    CSV output carries 17 significant digits and LF line endings; a CSV
    file is accompanied by a JSON mirror at the same stem, so its path
    must not end in ".json"; JSON output stands alone.  Identical records
    produce byte-identical output.
    """
    if not records:
        raise ValidationError("no records to write")
    keys = list(records[0].keys())
    for rec in records:
        if list(rec.keys()) != keys:
            raise ValidationError("records have inconsistent columns")
    if not keys:
        raise ValidationError("records have no columns")
    if fmt not in ("csv", "json"):
        raise ValidationError(f"unknown format {fmt!r}")
    if (fmt == "csv" and path is not None
            and os.path.splitext(path)[0] + ".json" == path):
        raise ValidationError(f"CSV output {path} would be overwritten by "
                              "its JSON mirror")
    json_text = json.dumps(records, indent=2) + "\n"
    if fmt == "json":
        text = json_text
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        for rec in records:
            writer.writerow([_fmt(rec[k]) for k in keys])
        text = buf.getvalue()
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    if fmt == "csv":
        stem, _ = os.path.splitext(path)
        with open(stem + ".json", "w", newline="\n") as fh:
            fh.write(json_text)


def _truncations(text: str) -> list:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated positive integers, got {text!r}")
    return values


def _init(text: str) -> list:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
        if all(math.isfinite(v) for v in values):
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be comma-separated finite numbers, got {text!r}")


# Each flag once: its type or choices and its real default.  The dest is
# the flag name with "-" read as "_", and a config key is the flag name.
_FLAGS = {
    "dim": dict(type=int, default=3),
    "nmax": dict(type=int, default=12),
    "tol": dict(type=float, default=1e-10),
    "max-iter": dict(type=int, default=200),
    "seed": dict(type=int, default=0),
    "method": dict(choices=("quadrature", "recurrence", "both"),
                   default="both"),
    "lambda": dict(type=float, default=None),
    "lambda-min": dict(type=float, default=None),
    "lambda-max": dict(type=float, default=None),
    "steps": dict(type=int, default=20),
    "modes": dict(type=int, default=None, help="default: --nmax"),
    "starts": dict(type=int, default=30),
    "init": dict(type=_init, default=None,
                 help="comma-separated starting coefficients"),
    "truncations": dict(type=_truncations, default="8,12,16",
                        help="comma-separated mode counts"),
    "grid": dict(type=int, default=128),
    "t-max": dict(type=float, default=50.0),
    "dt": dict(type=float, default=None,
               help="default: {DT_PER_H2:g} h^2 (no step limit)"),
    "perturb": dict(type=float, default=0.01),
    "record-every": dict(type=int, default=100),
    "output": dict(default=None, help="output file; stdout when omitted"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "config": dict(default=None,
                   help="JSON object of flag values; explicit flags win"),
}

_COMMON = ("dim", "nmax", "output", "format", "config")

# The flags each command honours; every other flag is rejected.
_COMMAND_FLAGS = {
    "coeffs": _COMMON + ("method",),
    "thresholds": _COMMON,
    "solve": _COMMON + ("lambda", "modes", "init", "tol", "max-iter"),
    "sweep": _COMMON + ("lambda-min", "lambda-max", "steps", "modes",
                        "starts", "seed", "tol", "max-iter"),
    "audit-degree": _COMMON + ("lambda", "truncations", "starts", "seed"),
    "evolve": _COMMON + ("lambda", "grid", "t-max", "dt", "perturb",
                         "record-every"),
}

COMMANDS = tuple(_COMMAND_FLAGS)


class _Parser(argparse.ArgumentParser):
    """Reports a parse error as a ValidationError, so that every exit-2
    path prints one `onsager: ...` line and nothing else, and takes a
    negative `--init` list after a space."""

    def error(self, message):
        raise ValidationError(message)

    def parse_known_args(self, args=None, namespace=None):
        """As argparse, except that `--init -0.5,1` reads as
        `--init=-0.5,1`: argparse takes a value that starts with "-" and
        is not a single number for a flag."""
        joined = []
        for item in sys.argv[1:] if args is None else args:
            if joined and joined[-1] == "--init" and item.startswith("-"):
                joined[-1] = "--init=" + item
            else:
                joined.append(item)
        return super().parse_known_args(joined, namespace)


def _build_parser(command: str) -> argparse.ArgumentParser:
    p = _Parser(prog=f"onsager {command}", allow_abbrev=False)
    for name in _COMMAND_FLAGS[command]:
        flag = _FLAGS[name]
        if name == "dt":  # the default step is the dynamics module's
            from .dynamics import DT_PER_H2
            flag = dict(flag, help=flag["help"].format(DT_PER_H2=DT_PER_H2))
        p.add_argument("--" + name, **flag)
    return p


def _config_argv(path: str) -> list:
    """The JSON object in `path` as `--key=value` items, to be parsed
    before the explicit flags so that those win."""
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as e:
        raise ValidationError(f"--config {path}: {e}") from e
    if not isinstance(loaded, dict):
        raise ValidationError(f"--config {path}: expected a JSON object")
    argv = []
    for key, value in loaded.items():
        if key == "config":
            raise ValidationError(f"--config {path}: key 'config' not allowed")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValidationError(f"--config {path}: {key!r} must be a string "
                                  f"or a number, got {json.dumps(value)}")
        argv.append(f"--{key}={value}")
    return argv


_POSITIVE = ("nmax", "tol", "max_iter", "lambda", "lambda_min",
             "lambda_max", "steps", "starts", "t_max", "perturb",
             "record_every")


def _positive(value) -> bool:
    return value is not None and 0 < value < math.inf


def _validate(cfg: dict):
    """Range checks of the parsed flags `cfg` (dest -> value) that their
    types cannot express."""
    from .polybasis import MAX_DIM

    def fail(name, rule):
        raise ValidationError(
            f"--{name.replace('_', '-')} must be {rule}, got {cfg[name]}")
    if not 3 <= cfg["dim"] <= MAX_DIM:
        fail("dim", f"in 3..{MAX_DIM}")
    for name in _POSITIVE:
        if name in cfg and not _positive(cfg[name]):
            fail(name, "positive and finite")
    if cfg.get("dt") is not None and not _positive(cfg["dt"]):
        fail("dt", "positive and finite")
    if "seed" in cfg and cfg["seed"] < 0:
        fail("seed", ">= 0")
    if "grid" in cfg:
        from .dynamics import MIN_POINTS
        if cfg["grid"] < MIN_POINTS:
            fail("grid", f">= {MIN_POINTS}")
    if "lambda_max" in cfg and cfg["lambda_max"] < cfg["lambda_min"]:
        raise ValidationError("--lambda-max must be >= --lambda-min")
    if cfg.get("steps") == 1 and cfg["lambda_max"] != cfg["lambda_min"]:
        raise ValidationError("--steps 1 needs --lambda-max equal to "
                              "--lambda-min")
    if cfg.get("modes") is not None and not 1 <= cfg["modes"] <= cfg["nmax"]:
        fail("modes", f"in 1..{cfg['nmax']} (--nmax)")
    if "truncations" in cfg and max(cfg["truncations"]) > cfg["nmax"]:
        fail("truncations", f"at most --nmax {cfg['nmax']}")
    modes = cfg.get("modes") or cfg["nmax"]
    if len(cfg.get("init") or ()) > modes:
        fail("init", f"at most {modes} entries (--modes, else --nmax)")


def _state_columns(coeffs, width) -> dict:
    out = {}
    for i in range(width):
        out[f"u_{i + 1}"] = float(coeffs[i]) if i < len(coeffs) else 0.0
    return out


def _run_coeffs(cfg, spec):
    """The closed-form table, the quadrature cross-check, or both."""
    from . import kernel
    quad = None if cfg["method"] == "recurrence" else kernel.build_kernel_spec(
        cfg["dim"], cfg["nmax"], "onsager-quadrature")
    records = []
    for n in range(1, cfg["nmax"] + 1):
        if cfg["method"] == "both":
            kq, kr = quad.coeff(n), spec.coeff(n)
            records.append({"n": n, "k_quadrature": kq, "k_recurrence": kr,
                            "rel_diff": abs(kq - kr) / abs(kq)})
        else:
            records.append({"n": n, "k": (quad or spec).coeff(n)})
    return records


def _run_thresholds(cfg, spec):
    from . import bifurcation
    report = bifurcation.uniqueness_thresholds(spec)
    records = [
        {"name": "lambda_tilde0", "value": report.lambda_tilde0},
        {"name": "lambda_0_lower", "value": report.lambda_0_interval[0]},
        {"name": "lambda_0_upper", "value": report.lambda_0_interval[1]},
        {"name": "lambda_exp_bound", "value": report.lambda_exp_bound},
        {"name": "tail_bound", "value": report.tail_bound},
    ]
    for n, crit in enumerate(report.lambda_crit, start=1):
        records.append({"name": f"lambda_{n}", "value": crit})
    return records


def _run_solve(cfg, spec):
    import numpy as np

    from . import solver
    modes = cfg["modes"] if cfg["modes"] is not None else cfg["nmax"]
    coeffs = np.zeros(modes)
    given = cfg["init"] or []
    coeffs[:len(given)] = given
    report = solver.solve(spec, cfg["lambda"],
                          solver.AxisymState(D=cfg["dim"], coeffs=coeffs),
                          tol=cfg["tol"], max_iter=cfg["max_iter"])
    record = {
        "lambda": cfg["lambda"],
        "converged": report.converged,
        "iterations": report.iterations,
        "residual": report.residual_norm,
        "norm": solver.state_norm(report.state.coeffs),
    }
    record.update(_state_columns(report.state.coeffs, modes))
    return [record]


def _run_sweep(cfg, spec):
    import numpy as np

    from . import solver
    modes = cfg["modes"] if cfg["modes"] is not None else cfg["nmax"]
    lams = [float(lam) for lam in np.linspace(
        cfg["lambda_min"], cfg["lambda_max"], cfg["steps"])]
    if any(a >= b for a, b in zip(lams, lams[1:])):
        raise ValidationError(
            f"--steps {cfg['steps']} repeats a lambda value between "
            f"--lambda-min {cfg['lambda_min']} and --lambda-max "
            f"{cfg['lambda_max']}")
    found = solver.censuses(spec, lams, cfg["starts"], [cfg["seed"]],
                            N=modes, tol=cfg["tol"], max_iter=cfg["max_iter"])
    records = []
    for lam, (census,) in zip(lams, found):
        for branch, report in enumerate(census):
            record = {
                "lambda": lam,
                "branch": branch,
                "norm": solver.state_norm(report.state.coeffs),
                "residual": report.residual_norm,
            }
            record.update(_state_columns(report.state.coeffs, modes))
            records.append(record)
    return records


def _run_audit(cfg, spec):
    from . import bifurcation, solver
    truncs = cfg["truncations"]
    census = bifurcation.degree_audit(spec, cfg["lambda"], cfg["starts"],
                                      cfg["seed"], truncs)
    degree = sum(sol.index for sol in census)
    width = max(truncs)
    records = []
    for i, sol in enumerate(census):
        record = {
            "lambda": cfg["lambda"],
            "solution": i,
            "index": sol.index,
            # degree_audit raises unless every truncation's index sum is
            # 1; both columns stay while perfbench/run.py's check_audit
            # reads them (ROADMAP.md item 7 drops them)
            "degree_sum": degree,
            "stable_across_truncations": True,
            "norm": solver.state_norm(sol.state.coeffs),
            "residual": sol.residual_norm,
        }
        record.update(_state_columns(sol.state.coeffs, width))
        records.append(record)
    return records


def _run_evolve(cfg, spec):
    import numpy as np

    from . import dynamics
    from .polybasis import legendre_table
    grid = dynamics.make_grid(cfg["dim"], cfg["grid"])
    dt = cfg["dt"] or dynamics.DT_PER_H2 * grid.h ** 2
    shape = 1.0 + cfg["perturb"] * legendre_table(cfg["dim"], 2,
                                                  np.cos(grid.points))[2]
    if np.any(shape < 0.0):
        raise ValidationError(
            f"--perturb {cfg['perturb']} makes the start density "
            f"1 + perturb P_2 negative (min P_2 = -1/{cfg['dim'] - 1})")
    traj = dynamics.evolve(shape, spec, cfg["lambda"], dt, cfg["t_max"], grid,
                           record_every=cfg["record_every"])
    records = []
    for t, f, energy in zip(traj.times, traj.densities, traj.energies):
        records.append({
            "time": t,
            "mass": dynamics.grid_mass(f, grid),
            "energy": energy,
            "a_1": float(dynamics.grid_moments(f, grid, 1)[0]),
        })
    return records


_RUNNERS = {
    "coeffs": _run_coeffs,
    "thresholds": _run_thresholds,
    "solve": _run_solve,
    "sweep": _run_sweep,
    "audit-degree": _run_audit,
    "evolve": _run_evolve,
}


def _write_error_record(command, cfg, exc):
    record = {"error": type(exc).__name__, "message": str(exc),
              "command": command, "parameters": cfg}
    text = json.dumps(record, indent=2) + "\n"
    if cfg["output"]:
        stem, _ = os.path.splitext(cfg["output"])
        try:
            with open(stem + ".error.json", "w", newline="\n") as fh:
                fh.write(text)
            return
        except OSError:
            pass
    sys.stderr.write(text)


def _linalg_errors() -> tuple:
    """numpy's LinAlgError once a command has loaded numpy, else nothing:
    a command that never loaded numpy cannot raise it."""
    np = sys.modules.get("numpy")
    return (np.linalg.LinAlgError,) if np is not None else ()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return 0
    command = argv[0]
    if command not in COMMANDS:
        sys.stderr.write(f"onsager: unknown command {command!r}\n" + USAGE)
        return 64
    parser = _build_parser(command)
    try:
        args = parser.parse_args(argv[1:])
        if args.config is not None:
            args = parser.parse_args(_config_argv(args.config) + argv[1:])
    except SystemExit:  # --help printed the command's flags
        return 0
    except ValidationError as e:
        sys.stderr.write(f"onsager: {e}\n")
        return 2
    cfg = vars(args)
    from . import kernel
    try:
        _validate(cfg)
        spec = kernel.build_kernel_spec(cfg["dim"], cfg["nmax"],
                                        "onsager-recurrence")
        records = _RUNNERS[command](cfg, spec)
        emit_table(records, cfg["output"], cfg["format"])
    except ValidationError as e:
        sys.stderr.write(f"onsager: {e}\n")
        return 2
    except (OnsagerError, OSError, OverflowError, MemoryError,
            *_linalg_errors()) as e:
        sys.stderr.write(f"onsager: {e}\n")
        _write_error_record(command, cfg, e)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
