"""Command-line front end: coefficient tables, thresholds, single solves,
concentration sweeps, degree audits and dynamics runs, emitted as CSV
with a JSON mirror.

Exit codes: 0 success, 2 validation error (nothing written), 3 numerical
failure (machine-readable error record written), 64 unknown command.
"""

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import bifurcation, dynamics, kernel, solver
from .errors import OnsagerError, ValidationError
from .polybasis import legendre_eval
from .solver import AxisymState

__all__ = ["main", "emit_table"]

COMMANDS = ("coeffs", "thresholds", "solve", "sweep", "audit-degree",
            "evolve")

USAGE = """usage: onsager COMMAND [options]

commands:
  coeffs        kernel coefficient tables (quadrature and/or recurrence)
  thresholds    uniqueness thresholds and critical concentrations
  solve         single solve of u = lambda G(u) from a given start
  sweep         multistart census over a lambda range (bifurcation diagram)
  audit-degree  solution census with Brouwer index sums over truncations
  evolve        relaxation dynamics from a perturbed isotropic state

common options: --dim --nmax --tol --seed --order --output --format
                --config (JSON file whose keys mirror flag names;
                explicit flags win)
run `onsager COMMAND --help` for the full list.
"""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_table(records, path, fmt: str):
    """Write records (list of dicts with identical keys) to path, or to
    stdout when path is None.

    CSV output carries 17 significant digits and LF line endings; a CSV
    file is accompanied by a JSON mirror at the same stem, JSON output
    stands alone.  Identical records produce byte-identical output.
    """
    if not records:
        raise ValidationError("no records to write")
    keys = list(records[0].keys())
    for rec in records:
        if list(rec.keys()) != keys:
            raise ValidationError("records have inconsistent columns")
    if fmt not in ("csv", "json"):
        raise ValidationError(f"unknown format {fmt!r}")
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


def _default_order() -> int:
    env = os.environ.get("ONSAGER_QUAD_ORDER")
    return int(env) if env else solver.DEFAULT_ORDER


def _build_parser(command: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog=f"onsager {command}", allow_abbrev=False)
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with defaults; explicit flags win")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--order", type=int, default=None,
                   help="quadrature order (env ONSAGER_QUAD_ORDER)")
    p.add_argument("--output", type=str, default=None,
                   help="output file; stdout when omitted")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                   default=None)
    if command == "coeffs":
        p.add_argument("--method",
                       choices=("quadrature", "recurrence", "both"),
                       default=None)
    if command in ("solve", "audit-degree", "evolve"):
        p.add_argument("--lambda", dest="lam", type=float, default=None)
    if command == "solve":
        p.add_argument("--modes", type=int, default=None)
        p.add_argument("--init", type=str, default=None,
                       help="comma-separated starting coefficients")
        p.add_argument("--solver", choices=("newton", "picard"),
                       default=None)
    if command == "sweep":
        p.add_argument("--lambda-min", dest="lambda_min", type=float,
                       default=None)
        p.add_argument("--lambda-max", dest="lambda_max", type=float,
                       default=None)
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--modes", type=int, default=None)
        p.add_argument("--starts", type=int, default=None)
    if command == "audit-degree":
        p.add_argument("--starts", type=int, default=None)
        p.add_argument("--truncations", type=str, default=None,
                       help="comma-separated mode counts")
    if command == "evolve":
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--t-max", dest="t_max", type=float, default=None)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--perturb", type=float, default=None)
        p.add_argument("--record-every", dest="record_every", type=int,
                       default=None)
    return p


_DEFAULTS = {
    "dim": 3, "nmax": 12, "tol": 1e-10, "max_iter": 200, "seed": 0,
    "output": None, "fmt": "csv", "method": "both", "lam": None,
    "modes": None, "init": None, "solver": "newton", "lambda_min": None,
    "lambda_max": None, "steps": 20, "starts": 30,
    "truncations": "8,12,16", "grid": 128, "t_max": 50.0, "dt": None,
    "perturb": 0.01, "record_every": 100,
}


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    cfg["order"] = _default_order()
    if args.config is not None:
        with open(args.config) as fh:
            loaded = json.load(fh)
        for key, value in loaded.items():
            cfg[key.replace("-", "_")] = value
    for key, value in vars(args).items():
        if key != "config" and value is not None:
            cfg[key] = value
    return cfg


def _validate(cfg: dict, command: str):
    flag_names = {"lam": "lambda", "fmt": "format"}

    def positive(name):
        if cfg[name] is None or cfg[name] <= 0:
            flag = flag_names.get(name, name.replace("_", "-"))
            raise ValidationError(
                f"--{flag} must be positive, got {cfg[name]}")
    if cfg["dim"] < 3:
        raise ValidationError(f"--dim must be >= 3, got {cfg['dim']}")
    for name in ("nmax", "tol", "max_iter", "order"):
        positive(name)
    if cfg["seed"] < 0:
        raise ValidationError(f"--seed must be >= 0, got {cfg['seed']}")
    if command in ("solve", "audit-degree", "evolve"):
        positive("lam")
    if command == "sweep":
        positive("lambda_min")
        positive("lambda_max")
        positive("steps")
        positive("starts")
        if cfg["lambda_max"] < cfg["lambda_min"]:
            raise ValidationError("--lambda-max must be >= --lambda-min")
    if command == "audit-degree":
        positive("starts")
        truncs = _parse_int_list(cfg["truncations"])
        if not truncs or any(t < 1 for t in truncs):
            raise ValidationError("--truncations must be positive integers")
        if max(truncs) > cfg["nmax"]:
            raise ValidationError(
                f"--truncations entries must be <= --nmax {cfg['nmax']}, "
                f"got {max(truncs)}")
    if command == "evolve":
        if cfg["grid"] < dynamics.MIN_POINTS:
            raise ValidationError(f"--grid must be >= {dynamics.MIN_POINTS}, "
                                  f"got {cfg['grid']}")
        positive("t_max")
        positive("perturb")
        positive("record_every")
        if cfg["dt"] is not None and cfg["dt"] <= 0:
            raise ValidationError("--dt must be positive")
    if command in ("solve", "sweep") and cfg["modes"] is not None:
        if not 1 <= cfg["modes"] <= cfg["nmax"]:
            raise ValidationError(f"--modes must be in 1..{cfg['nmax']} "
                                  f"(--nmax), got {cfg['modes']}")
    if command == "solve" and cfg["init"]:
        _parse_init(cfg["init"])


def _parse_int_list(text) -> list:
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    return [int(v) for v in str(text).split(",") if v.strip()]


def _parse_init(text) -> list:
    try:
        values = [float(v) for v in str(text).split(",") if v.strip()]
        if all(math.isfinite(v) for v in values):
            return values
    except ValueError:
        pass
    raise ValidationError(
        f"--init must be comma-separated finite numbers, got {text!r}")


def _state_columns(coeffs, width) -> dict:
    out = {}
    for i in range(width):
        out[f"u_{i + 1}"] = float(coeffs[i]) if i < len(coeffs) else 0.0
    return out


def _run_coeffs(cfg):
    D, n_max = cfg["dim"], cfg["nmax"]
    records = []
    if cfg["method"] == "both":
        quad = kernel.build_kernel_spec(D, n_max, "onsager-quadrature")
        rec = kernel.build_kernel_spec(D, n_max, "onsager-recurrence")
        for n in range(1, n_max + 1):
            kq, kr = quad.coeff(n), rec.coeff(n)
            records.append({"n": n, "k_quadrature": kq, "k_recurrence": kr,
                            "rel_diff": abs(kq - kr) / abs(kq)})
    else:
        source = "onsager-" + cfg["method"]
        spec = kernel.build_kernel_spec(D, n_max, source)
        for n in range(1, n_max + 1):
            records.append({"n": n, "k": spec.coeff(n)})
    return records


def _run_thresholds(cfg):
    spec = kernel.build_kernel_spec(cfg["dim"], cfg["nmax"],
                                    "onsager-quadrature")
    report = bifurcation.uniqueness_thresholds(spec)
    records = [
        {"name": "lambda_tilde0", "value": report.lambda_tilde0},
        {"name": "lambda_0", "value": report.lambda_0},
        {"name": "lambda_0_lower", "value": report.lambda_0_interval[0]},
        {"name": "lambda_0_upper", "value": report.lambda_0_interval[1]},
        {"name": "lambda_exp_bound", "value": report.lambda_exp_bound},
        {"name": "tail_bound", "value": report.tail_bound},
    ]
    for n, crit in enumerate(report.lambda_crit, start=1):
        records.append({"name": f"lambda_{n}", "value": crit})
    return records


def _run_solve(cfg):
    spec = kernel.build_kernel_spec(cfg["dim"], cfg["nmax"],
                                    "onsager-quadrature")
    modes = cfg["modes"] if cfg["modes"] is not None else cfg["nmax"]
    coeffs = np.zeros(modes)
    if cfg["init"]:
        given = _parse_init(cfg["init"])
        if len(given) > modes:
            raise ValidationError(f"--init has {len(given)} entries for "
                                  f"{modes} modes")
        coeffs[:len(given)] = given
    report = solver.solve(spec, cfg["lam"],
                          AxisymState(D=cfg["dim"], coeffs=coeffs),
                          method=cfg["solver"], tol=cfg["tol"],
                          max_iter=cfg["max_iter"], order=cfg["order"])
    record = {
        "lambda": cfg["lam"],
        "converged": report.converged,
        "iterations": report.iterations,
        "residual": report.residual_norm,
        "norm": solver.state_norm(cfg["dim"], report.state.coeffs),
    }
    record.update(_state_columns(report.state.coeffs, modes))
    return [record]


def _run_sweep(cfg):
    spec = kernel.build_kernel_spec(cfg["dim"], cfg["nmax"],
                                    "onsager-quadrature")
    modes = cfg["modes"] if cfg["modes"] is not None else cfg["nmax"]
    lams = np.linspace(cfg["lambda_min"], cfg["lambda_max"], cfg["steps"])
    records = []
    for lam in lams:
        census = solver.multistart(spec, float(lam), cfg["starts"],
                                   seed=cfg["seed"], N=modes,
                                   tol=cfg["tol"],
                                   max_iter=cfg["max_iter"],
                                   order=cfg["order"])
        for branch, report in enumerate(census):
            record = {
                "lambda": float(lam),
                "branch": branch,
                "norm": solver.state_norm(cfg["dim"], report.state.coeffs),
                "residual": report.residual_norm,
            }
            record.update(_state_columns(report.state.coeffs, modes))
            records.append(record)
    records.sort(key=lambda r: (r["lambda"], r["branch"]))
    return records


def _run_audit(cfg):
    spec = kernel.build_kernel_spec(cfg["dim"], cfg["nmax"],
                                    "onsager-quadrature")
    truncs = _parse_int_list(cfg["truncations"])
    report = bifurcation.degree_audit(spec, cfg["lam"], cfg["starts"],
                                      cfg["seed"], truncs)
    width = max(truncs)
    records = []
    for i, sol in enumerate(report.solutions):
        record = {
            "lambda": cfg["lam"],
            "solution": i,
            "index": sol.index,
            "degree_sum": report.degree_sum,
            "stable_across_truncations": report.stable_across_truncations,
            "norm": solver.state_norm(cfg["dim"], sol.state.coeffs),
            "residual": sol.residual_norm,
        }
        record.update(_state_columns(sol.state.coeffs, width))
        records.append(record)
    return records


def _run_evolve(cfg):
    spec = kernel.build_kernel_spec(cfg["dim"], cfg["nmax"],
                                    "onsager-quadrature")
    grid = dynamics.make_grid(cfg["dim"], cfg["grid"])
    dt = cfg["dt"] if cfg["dt"] is not None else grid.h ** 2 / 8.0
    shape = 1.0 + cfg["perturb"] * legendre_eval(cfg["dim"], 2,
                                                 np.cos(grid.points))
    traj = dynamics.evolve(shape, spec, cfg["lam"], dt, cfg["t_max"], grid,
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


def _write_error_record(cfg, exc):
    record = {"error": type(exc).__name__, "message": str(exc)}
    text = json.dumps(record, indent=2) + "\n"
    if cfg.get("output"):
        stem, _ = os.path.splitext(cfg["output"])
        try:
            with open(stem + ".error.json", "w", newline="\n") as fh:
                fh.write(text)
            return
        except OSError:
            pass
    sys.stderr.write(text)


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
    except SystemExit:
        return 2
    try:
        cfg = _merge_config(args)
        _validate(cfg, command)
    except (ValidationError, ValueError, OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"onsager: {e}\n")
        return 2
    try:
        records = _RUNNERS[command](cfg)
        emit_table(records, cfg["output"], cfg["fmt"])
    except ValidationError as e:
        sys.stderr.write(f"onsager: {e}\n")
        return 2
    except (OnsagerError, OSError, np.linalg.LinAlgError) as e:
        sys.stderr.write(f"onsager: {e}\n")
        _write_error_record(cfg, e)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
