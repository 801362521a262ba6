import ast
import csv
import gc
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from onsager import cli, dynamics, kernel, solver
from onsager.bifurcation import degree_audit
from onsager.dynamics import evolve
from onsager.errors import InconclusiveAuditError, ValidationError
from onsager.polybasis import DT_PER_H2, _folded_rule, _mode_tables, zonal_rule


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_no_arguments_prints_usage(capsys):
    assert cli.main([]) == 0
    out = capsys.readouterr().out
    assert "usage: onsager" in out
    for command in cli.COMMANDS:
        assert command in out


def test_unknown_command_exits_64(capsys):
    assert cli.main(["orbit"]) == 64
    assert "unknown command" in capsys.readouterr().err


def test_unknown_flag_exits_2(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert cli.main(["coeffs", "--bogus", "1", "--output", str(out)]) == 2
    assert not out.exists()


def test_invalid_lambda_exits_2_without_output(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = cli.main(["solve", "--lambda", "-3", "--output", str(out)])
    assert code == 2
    assert "--lambda" in capsys.readouterr().err
    assert not out.exists()


def test_coeffs_methods_agree(tmp_path):
    out = tmp_path / "coeffs.csv"
    code = cli.main(["coeffs", "--dim", "3", "--nmax", "12",
                     "--method", "both", "--output", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 12
    assert all(float(r["rel_diff"]) <= 1e-9 for r in rows)
    # JSON mirror carries the same values
    mirror = json.loads((tmp_path / "coeffs.json").read_text())
    for row, rec in zip(rows, mirror):
        assert float(row["k_quadrature"]) == rec["k_quadrature"]
        assert float(row["k_recurrence"]) == rec["k_recurrence"]


def test_thresholds_known_values(capsys):
    assert cli.main(["thresholds", "--dim", "3", "--nmax", "64"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    values = {r["name"]: float(r["value"]) for r in rows}
    assert values["lambda_tilde0"] == pytest.approx(4 / (5 * math.pi),
                                                    rel=1e-10)
    assert values["lambda_1"] == pytest.approx(32 / math.pi, rel=1e-10)
    assert values["lambda_2"] / values["lambda_1"] == pytest.approx(
        8.0, rel=1e-9)


def test_solve_reports_convergence(capsys):
    assert cli.main(["solve", "--lambda", "12", "--modes", "6",
                     "--init", "0.5"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 1
    assert rows[0]["converged"] == "true"
    assert float(rows[0]["residual"]) <= 1e-10
    assert float(rows[0]["u_1"]) > 0.5


def test_sweep_is_byte_identical_and_sorted(tmp_path):
    argv = ["sweep", "--lambda-min", "9", "--lambda-max", "11",
            "--steps", "3", "--modes", "6", "--starts", "8", "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--output", str(a)]) == 0
    assert cli.main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = _read_csv(a)
    keys = [(float(r["lambda"]), int(r["branch"])) for r in rows]
    assert keys == sorted(keys)


def test_audit_degree_sums_to_plus_one(tmp_path):
    out = tmp_path / "audit.csv"
    code = cli.main(["audit-degree", "--lambda", "15", "--starts", "20",
                     "--truncations", "8,12", "--output", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 3
    assert all(int(r["degree_sum"]) == 1 for r in rows)
    assert sorted(int(r["index"]) for r in rows) == [-1, 1, 1]
    assert all(r["stable_across_truncations"] == "true" for r in rows)


def test_audit_degree_exits_3_when_the_index_sum_is_not_one(tmp_path,
                                                            capsys):
    # at lambda = 120 the default census misses solutions: its indices sum
    # to 2 at N = 8, which no complete census of a degree-1 map gives
    out = tmp_path / "audit.csv"
    code = cli.main(["audit-degree", "--lambda", "120", "--truncations",
                     "8,12,16", "--nmax", "16", "--output", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == ("onsager: index sum at N=8 is 2, not the degree 1: the "
                   "census of 4 solutions is incomplete\n")
    record = json.loads((tmp_path / "audit.error.json").read_text())
    assert record["error"] == "InconclusiveAuditError"
    assert record["command"] == "audit-degree"
    assert record["parameters"]["lambda"] == 120.0
    assert not out.exists()


def test_evolve_writes_monotone_energy(tmp_path):
    out = tmp_path / "run.csv"
    code = cli.main(["evolve", "--lambda", "11.3", "--grid", "48",
                     "--t-max", "0.5", "--record-every", "200",
                     "--output", str(out)])
    assert code == 0
    rows = _read_csv(out)
    energies = [float(r["energy"]) for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))
    masses = [float(r["mass"]) for r in rows]
    assert all(m == pytest.approx(1.0, abs=1e-12) for m in masses)


def test_evolve_divergence_exits_3_with_error_record(tmp_path, capsys):
    # the Boltzmann factor underflows to 0 within two steps
    out = tmp_path / "run.csv"
    code = cli.main(["evolve", "--lambda", "1e4", "--grid", "32",
                     "--t-max", "1", "--output", str(out)])
    assert code == 3
    record = json.loads((tmp_path / "run.error.json").read_text())
    assert record["error"] == "DivergenceError"
    assert record["command"] == "evolve"
    params = record["parameters"]
    assert set(params) == {"dim", "nmax", "lambda", "grid", "t_max", "dt",
                           "perturb", "record_every", "output", "format",
                           "config"}
    assert (params["lambda"], params["grid"], params["t_max"]) == (
        1e4, 32, 1.0)
    assert params["perturb"] == 0.01 and params["dt"] is None


def test_evolve_relaxes_at_large_lambda(monkeypatch, tmp_path):
    # the semi-implicit step has no step limit: lambda = 500 relaxes to a
    # sharply aligned state at the default dt
    runs = []

    def recording(*args, **kwargs):
        runs.append(evolve(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(dynamics, "evolve", recording)
    out = tmp_path / "run.csv"
    assert cli.main(["evolve", "--lambda", "500", "--grid", "32",
                     "--output", str(out)]) == 0
    assert all(np.all(f > 0) for f in runs[0].densities)
    assert all(abs(float(r["mass"]) - 1.0) <= 1e-12
               for r in _read_csv(out))


def test_evolve_at_dim_343_prints_no_warning(capsys):
    # the density is of size 1/sigma_343, about 3e222: the energy and
    # the l1 settle test take it to the first power only
    argv = ["evolve", "--dim", "343", "--lambda", "5", "--grid", "32",
            "--t-max", "0.001", "--nmax", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


def test_solve_at_dim_343_past_degree_1000_prints_no_warning(capsys):
    # the mode tables reach degree 2 nmax = 1040, past the degree where
    # C_k^(341/2)(1) overflows; below lambda_1 the solve lands on the
    # isotropic state
    argv = ["solve", "--dim", "343", "--nmax", "520", "--lambda", "1",
            "--init", "0.01"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    header, row = out.splitlines()
    assert header.startswith("lambda,converged,iterations,residual,norm,")
    values = row.split(",")
    assert values[:2] == ["1", "true"]
    assert float(values[3]) <= 1e-10 and float(values[4]) <= 1e-15


SWEEP_AT_1E300 = ("lambda,branch,norm,residual," + ",".join(
    f"u_{i}" for i in range(1, 13)) + "\n1.0000000000000001e+300"
    + ",0" * 15 + "\n")
AUDIT_AT_1E200 = ("index sum at N=2 is 2, not the degree 1: the census of 2 "
                  "solutions is incomplete")


@pytest.mark.parametrize("argv, code, expected", [
    ("sweep --lambda-min 1e300 --lambda-max 1e300 --steps 1", 0,
     SWEEP_AT_1E300),
    ("audit-degree --lambda 1e200 --truncations 2 --nmax 2", 3,
     AUDIT_AT_1E200),
    ("solve --lambda 12 --init 1e300", 0, None),
], ids=["sweep", "audit-degree", "solve"])
def test_overflowing_norms_print_no_warning(capsys, argv, code, expected):
    # states of size 1e300 give residual norms near the largest double,
    # without a RuntimeWarning: the sweep prints the isotropic state
    # alone, and the solve from u_1 = 1e300 converges.  The audit's census
    # at 1e200 holds the isotropic state and the prolate one whose
    # density sits on the pole nodes, a fixed point of the discrete map
    # (test_prolate_state_at_1e200_is_a_fixed_point): index sum 2, so it
    # exits 3 with the error record and no traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv.split()) == code
    out, err = capsys.readouterr()
    if code:
        assert out == ""
        line, record = err.split("\n", 1)
        assert line == "onsager: " + expected
        record = json.loads(record)
        assert record["error"] == "InconclusiveAuditError"
        assert record["message"] == expected
        return
    assert err == ""
    if expected is not None:
        assert out == expected
        return
    header, row = out.splitlines()
    assert header == "lambda,converged,iterations,residual,norm," + ",".join(
        f"u_{i}" for i in range(1, 13))
    values = row.split(",")
    assert values[:2] == ["12", "true"]
    residual, norm = float(values[3]), float(values[4])
    u = np.array([float(v) for v in values[5:]])
    assert residual <= 1e-14
    assert norm == np.abs(u).sum()
    # which solution Newton's path from 1e300 reaches turns on the last
    # bits of the extreme Gauss weights; it must be one of the census
    spec = kernel.build_kernel_spec(3, 12, "onsager-recurrence")
    census = solver.multistart(spec, 12.0, 30, 0)
    assert min(solver.state_norm(r.state.coeffs - u) for r in census) <= 1e-9


def test_prolate_state_at_1e200_is_a_fixed_point():
    # the audit-degree case above: an independent 300-bit replay of
    # u = lam G(u) on the solver's 128-node rule, at the census's
    # prolate state.  Its density sits on the two pole nodes (the rest
    # weighs below 1e-300), so lam G(u) = -lam k_n (P_2n(pole) - base_n)
    # is constant near u and u matches it to an ulp: the census finds a
    # fixed point of the discrete map, not a rounding artefact
    spec = kernel.build_kernel_spec(3, 2, "onsager-recurrence")
    with pytest.raises(InconclusiveAuditError) as caught:
        degree_audit(spec, 1e200, 30, 0, (2,))
    census, _ = caught.value.censuses
    assert [r.converged for r in census] == [True, True]
    assert [r.residual_norm for r in census] == [0.0, 0.0]
    assert np.array_equal(census[0].state.coeffs, [0.0, 0.0])
    u = census[1].state.coeffs
    assert u[0] < -4e199 and u[1] < -1e199
    nodes, weights = zonal_rule(3, 128)
    with mpmath.workprec(300):
        rows = [[mpmath.legendre(2 * n, mpmath.mpf(t)) for t in nodes]
                for n in (1, 2)]
        field = [u[0] * p2 + u[1] * p4 for p2, p4 in zip(*rows)]
        low = min(field)
        density = [mpmath.mpf(w) * mpmath.exp(low - f)
                   for w, f in zip(weights, field)]
        total = sum(density)
        pole = np.abs(nodes) == nodes[-1]
        rest = sum(d for d, at in zip(density, pole) if not at)
        assert rest < 1e-300 * total
        for n, row in enumerate(rows):
            base = sum(w * p for w, p in zip(weights, row)) / sum(weights)
            moment = sum(d * p for d, p in zip(density, row)) / total - base
            image = -1e200 * mpmath.mpf(spec.coeffs[n]) * moment
            assert abs(image - u[n]) <= 2 ** -52 * abs(u[n]), n


# every numpy.linalg routine that hands its matrix to LAPACK
LAPACK = ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv",
          "lstsq", "pinv", "qr", "slogdet", "solve", "svd")


@pytest.mark.parametrize("argv, size", [
    ("sweep --lambda-min 9 --lambda-max 13 --steps 40 --modes 16 --nmax 16",
     16),
    ("audit-degree --lambda 15 --truncations 8,12,16 --nmax 16", 16),
    ("evolve --lambda 11.3 --grid 128 --t-max 50", 12),
    ("coeffs --dim 3 --nmax 12 --method both", 12),
    ("coeffs --dim 3 --nmax 200 --method both", 200),
], ids=["sweep", "audit-degree", "evolve", "coeffs", "coeffs-200"])
def test_readme_commands_hand_lapack_no_matrix_above_n(monkeypatch, capsys,
                                                       argv, size):
    # the Gauss rules come from Newton's method on the recurrence, not
    # from an eigensolve of their Jacobi matrices (order 128 to 224): the
    # only matrices numpy.linalg sees are the N x N Newton systems and
    # spectra.  The caches are cleared, so every rule is built here
    shapes = []

    def recording(routine):
        def call(a, *args, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return routine(a, *args, **kwargs)
        return call

    for name in LAPACK:
        monkeypatch.setattr(np.linalg, name,
                            recording(getattr(np.linalg, name)))
    for cache in (zonal_rule, _folded_rule, _mode_tables):
        cache.cache_clear()
    assert cli.main(argv.split()) == 0
    capsys.readouterr()
    assert all(max(shape, default=0) <= size for shape in shapes), shapes


SWEEP_AT_1E308 = ("lambda,branch,norm,residual," + ",".join(
    f"u_{i}" for i in range(1, 13)) + "\n1e+308" + ",0" * 15 + "\n")


@pytest.mark.parametrize("argv, expected", [
    ("solve --lambda 12 --modes 8 --init 1e308,1e308", None),
    ("sweep --lambda-min 1e308 --lambda-max 1e308 --steps 1", SWEEP_AT_1E308),
], ids=["solve", "sweep"])
def test_overflowing_densities_print_no_warning(monkeypatch, capsys, argv,
                                                expected):
    # u of size 1e308 overflows in the density pass: the weights, moments
    # and Cov of such a start are NaN, so its Newton update is not finite
    # and the row ends; the solve start's first residual norm overflows
    # to inf
    norms, state_norm = [], solver.state_norm

    def recording(coeffs):
        norms.append(state_norm(coeffs))
        return norms[-1]

    monkeypatch.setattr(solver, "state_norm", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if expected is not None:
        assert out == expected
        return
    assert np.isinf(norms[0]).all()
    assert out.splitlines()[1].startswith("12,true,")


def test_overflow_exits_3_with_error_record(tmp_path, capsys):
    # N(343, 2n) passes the largest double before n = 600
    out = tmp_path / "t.csv"
    code = cli.main(["thresholds", "--dim", "343", "--nmax", "600",
                     "--output", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    record = json.loads((tmp_path / "t.error.json").read_text())
    assert record["error"] == "OverflowError"
    assert not out.exists()


def test_out_of_memory_exits_3_with_error_record(monkeypatch, tmp_path,
                                                 capsys):
    # numpy's allocation failure is a MemoryError; the census raises it
    # here without allocating anything
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 916. MiB for an array with "
                          "shape (30, 2000, 2000) and data type float64")

    monkeypatch.setattr(solver, "censuses", no_memory)
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--lambda-min", "9", "--lambda-max", "9",
                     "--steps", "1", "--nmax", "2000", "--output", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("onsager: Unable to allocate 916. MiB")
    assert "Traceback" not in err and err.count("\n") == 1
    record = json.loads((tmp_path / "sweep.error.json").read_text())
    assert record["error"] == "MemoryError"
    assert record["command"] == "sweep"
    assert record["parameters"]["nmax"] == 2000
    assert not out.exists()


def test_linalg_error_exits_3_with_error_record(monkeypatch, tmp_path,
                                                capsys):
    # the exit-3 handler takes numpy's LinAlgError once a command has
    # loaded numpy
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(solver, "censuses", singular)
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--lambda-min", "9", "--lambda-max", "9",
                     "--steps", "1", "--output", str(out)])
    assert code == 3
    assert capsys.readouterr().err == "onsager: Singular matrix\n"
    record = json.loads((tmp_path / "sweep.error.json").read_text())
    assert record["error"] == "LinAlgError"
    assert not out.exists()


def test_system_exit_from_a_command_propagates(monkeypatch, tmp_path,
                                              capsys):
    # only argparse's --help exit reads as success; a command that exits
    # is not turned into exit 0
    def exits(cfg, spec):
        raise SystemExit(7)

    monkeypatch.setitem(cli._RUNNERS, "solve", exits)
    out = tmp_path / "solve.csv"
    with pytest.raises(SystemExit) as info:
        cli.main(["solve", "--lambda", "12", "--output", str(out)])
    assert info.value.code == 7
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["thresholds", "--dim", "7", "--nmax", "30"],
    ["solve", "--dim", "10", "--lambda", "12"],
    ["sweep", "--lambda-min", "9", "--lambda-max", "11", "--steps", "2",
     "--modes", "6", "--nmax", "6", "--starts", "6"],
    ["audit-degree", "--lambda", "15", "--truncations", "4,6", "--nmax",
     "6", "--starts", "10"],
    ["evolve", "--lambda", "11.3", "--grid", "32", "--t-max", "0.01"],
], ids=lambda argv: argv[0])
def test_solving_commands_use_the_closed_form_table(monkeypatch, capsys,
                                                    argv):
    def no_quadrature(D, n):
        raise AssertionError("a solving command ran quadrature")

    monkeypatch.setattr(kernel, "coeff_by_quadrature", no_quadrature)
    assert cli.main(argv) == 0


def test_coeffs_cross_check_at_dim_7(capsys):
    # the quadrature guard is relative: D = 7 up to n = 30 converges
    assert cli.main(["coeffs", "--dim", "7", "--nmax", "30"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 30
    assert all(float(r["rel_diff"]) <= 1e-6 for r in rows)


def test_unwritable_output_exits_3(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = cli.main(["coeffs", "--nmax", "4", "--output", str(missing)])
    assert code == 3
    # the error record falls back to stderr when the path is unwritable
    err = capsys.readouterr().err
    assert "error" in err


def test_config_file_merge_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 3, "nmax": 6, "method": "quadrature"}))
    out = tmp_path / "c.csv"
    code = cli.main(["coeffs", "--config", str(cfg), "--nmax", "4",
                     "--output", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 4          # flag beats config
    assert "k" in rows[0]          # config's method selection applies


def test_config_file_missing_exits_2(tmp_path):
    assert cli.main(["coeffs", "--config",
                     str(tmp_path / "nope.json")]) == 2


def test_order_flag_and_config_key_exit_2(tmp_path, capsys):
    # the solver has one fixed quadrature rule, so no command sets its order
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 64}))
    out = tmp_path / "t.csv"
    for argv in (["solve", "--lambda", "5"],
                 ["sweep", "--lambda-min", "9", "--lambda-max", "13"]):
        for extra in (["--order", "64"], ["--config", str(cfg)]):
            assert cli.main(argv + extra + ["--output", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("onsager: ")
            assert captured.err.count("\n") == 1
            assert "--order" in captured.err
            assert not out.exists()


@pytest.mark.parametrize("argv, config, check", [
    (["solve", "--modes", "6", "--init", "0.5"], {"lambda": 12},
     lambda out: out.startswith("lambda,converged") and "\n12,true," in out),
    (["coeffs", "--nmax", "3"], {"format": "json"},
     lambda out: [r["n"] for r in json.loads(out)] == [1, 2, 3]),
    (["solve", "--lambda", "12", "--modes", "6", "--init", "0.5"],
     {"max-iter": 1}, lambda out: "\n12,false,1," in out),
    (["solve", "--lambda", "12", "--modes", "6"], {"init": "-0.5,1"},
     lambda out: "\n12,true," in out),
    (["coeffs", "--nmax", "3", "--format", "csv"], {"format": "json"},
     lambda out: out.startswith("n,k_quadrature")),
    (["solve", "--modes", "6", "--init", "0.5", "--lambda", "12"],
     {"lambda": -1}, lambda out: "\n12,true," in out),
])
def test_config_keys_are_flag_names(tmp_path, capsys, argv, config, check):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(argv + ["--config", str(cfg)]) == 0
    assert check(capsys.readouterr().out)


@pytest.mark.parametrize("command, text", [
    ("coeffs", '{"nmaxx": 4}'),
    ("solve", '{"lam": 12}'),
    ("solve", '{"lambda": 12, "max_iter": 5}'),
    ("coeffs", '{"nmax": true}'),
    ("coeffs", '{"nmax": null}'),
    ("coeffs", '{"nmax": [4]}'),
    ("coeffs", '{"nmax": {"n": 4}}'),
    ("coeffs", '[{"nmax": 4}]'),
    ("coeffs", '"nmax"'),
    ("coeffs", '{"dim": "three"}'),
    ("solve", '{"lambda": "12x"}'),
    ("coeffs", '{"method": "spline"}'),
    ("solve", '{"lambda": 12, "solver": "newton"}'),
    ("coeffs", '{"config": "other.json"}'),
    ("coeffs", '{"nmax": 4'),
])
def test_bad_config_exits_2(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "t.csv"
    assert cli.main([command, "--config", str(cfg),
                     "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("onsager: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["coeffs", "--seed", "1"], "--seed"),
    (["thresholds", "--order", "64"], "--order"),
    (["evolve", "--lambda", "11.3", "--tol", "1e-3"], "--tol"),
    (["audit-degree", "--lambda", "15", "--max-iter", "5"], "--max-iter"),
    (["solve", "--lambda", "12", "--seed", "1"], "--seed"),
    (["solve", "--lambda", "12", "--solver", "newton"], "--solver"),
])
def test_flags_a_command_ignores_are_rejected(tmp_path, capsys, argv, flag):
    out = tmp_path / "t.csv"
    assert cli.main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("onsager: ") and err.count("\n") == 1
    assert flag in err
    assert not out.exists()


HONOURED = {
    "coeffs": {"dim", "nmax", "method"},
    "thresholds": {"dim", "nmax"},
    "solve": {"dim", "nmax", "tol", "max-iter", "lambda", "modes", "init"},
    "sweep": {"dim", "nmax", "tol", "max-iter", "seed", "lambda-min",
              "lambda-max", "steps", "modes", "starts"},
    "audit-degree": {"dim", "nmax", "seed", "lambda", "starts",
                     "truncations"},
    "evolve": {"dim", "nmax", "lambda", "grid", "t-max", "dt", "perturb",
               "record-every"},
}


def test_each_command_accepts_exactly_its_honoured_flags():
    assert set(cli.COMMANDS) == set(HONOURED)
    pairs = 0
    for command in cli.COMMANDS:
        parser = cli._build_parser(command)
        flags = {s[2:] for action in parser._actions
                 for s in action.option_strings if s.startswith("--")}
        flags.discard("help")
        assert flags == HONOURED[command] | {"output", "format", "config"}
        pairs += len(flags)
    assert pairs == 54


def test_command_help_exits_0(capsys):
    assert cli.main(["solve", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--lambda" in out and "--init" in out
    assert "--seed" not in out


def _readme_flag_table():
    """{command: {flag: parenthesized default or None}} from the README's
    per-command flag table; the row "every command" is keyed None."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    body = readme.split("| command | flags |\n| --- | --- |\n", 1)[1]
    table = {}
    for line in body.split("\n\n", 1)[0].splitlines():
        name, cell = line.strip("|").split("|", 1)
        name = name.strip()
        command = None if name == "every command" else name.strip("`")
        # a flag, its optional metavar, and an optional "(default; note)"
        table[command] = {
            flag: default.split(";")[0] if default else None
            for flag, default in re.findall(
                r"`--([a-z-]+)[^`]*`(?: \(([^)]*)\))?", cell)}
    return table


def test_readme_flag_table_matches_the_parser():
    table = _readme_flag_table()
    assert set(table) == set(cli.COMMANDS) | {None}
    for command, flags in table.items():
        expected = (cli._COMMON if command is None else
                    set(cli._COMMAND_FLAGS[command]) - set(cli._COMMON))
        assert set(flags) == set(expected), command
        for flag, text in flags.items():
            default = cli._FLAGS[flag]["default"]
            if default is None:
                # no value default: the README names a behaviour, not a
                # value, or nothing
                if text is not None:
                    with pytest.raises(ValueError):
                        float(text.replace("`", ""))
            else:
                shown = default if isinstance(default, str) else format(
                    default, "g")
                assert text == shown, (command, flag)


def _readme_command_lines():
    """The `onsager ...` example lines of the README's command-line
    section, split into argv lists."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    return [shlex.split(line) for line in block.split("```", 1)[0]
            .splitlines() if line.startswith("onsager ")]


def _readme_library_block():
    """The python block of the README's library-use section."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1]
    return block.split("```", 1)[0]


def test_readme_library_block_runs_without_scipy(tmp_path):
    # the block imports each name from its module and runs with scipy
    # unimportable; it prints the census size and the degree sum
    script = ("import sys\nsys.modules['scipy'] = None\n"
              + _readme_library_block())
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          cwd=tmp_path, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "3 1\n")


def test_readme_command_lines_parse_and_validate():
    lines = _readme_command_lines()
    assert sorted(argv[1] for argv in lines) == sorted(cli.COMMANDS)
    for argv in lines:
        args = cli._build_parser(argv[1]).parse_args(argv[2:])
        cli._validate(vars(args))


@pytest.mark.parametrize("argv, flag", [
    (["solve", "--lambda", "nan"], "--lambda"),
    (["evolve", "--lambda", "11.3", "--t-max", "inf"], "--t-max"),
    (["evolve", "--lambda", "11.3", "--dt", "nan"], "--dt"),
    (["sweep", "--lambda-min", "9", "--lambda-max", "inf"], "--lambda-max"),
])
def test_non_finite_values_exit_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "t.csv"
    assert cli.main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert flag in err and err.count("\n") == 1
    assert not out.exists()


def test_emit_table_validation(tmp_path):
    with pytest.raises(ValidationError):
        cli.emit_table([], str(tmp_path / "x.csv"), "csv")
    with pytest.raises(ValidationError):
        cli.emit_table([{"a": 1}, {"b": 2}], str(tmp_path / "x.csv"), "csv")
    with pytest.raises(ValidationError):
        cli.emit_table([{"a": 1}], str(tmp_path / "x.csv"), "yaml")
    with pytest.raises(ValidationError):
        cli.emit_table([{}], str(tmp_path / "x.csv"), "csv")


def test_emit_table_round_trip(tmp_path):
    records = [{"n": 1, "value": math.pi}, {"n": 2, "value": 1.0 / 3.0}]
    path = tmp_path / "t.csv"
    cli.emit_table(records, str(path), "csv")
    cli.emit_table(records, str(tmp_path / "again.csv"), "csv")
    assert path.read_bytes() == (tmp_path / "again.csv").read_bytes()
    rows = _read_csv(path)
    mirror = json.loads((tmp_path / "t.json").read_text())
    # 17 significant digits make the CSV text round-trip losslessly
    for row, rec, orig in zip(rows, mirror, records):
        assert float(row["value"]) == rec["value"] == orig["value"]


def test_json_mirror_is_the_indented_dump(tmp_path, capsys):
    # the JSON mirror and the JSON output are byte for byte what
    # json.dumps(records, indent=2) writes
    rows = [
        (math.nan, 'quote " and backslash \\', True),
        (math.inf, "non-ASCII \u03bb \u00e9 \U0001f600", False),
        (-math.inf, "", True),
        (-0.0, "tab\tnew\nline", False),
        (1e300, "}, {", True),
        (12, "-7", False),
    ]
    records = [{"x": x, 'key "\u03bb"': text, "b": b} for x, text, b in rows]
    expected = json.dumps(records, indent=2) + "\n"
    cli.emit_table(records, str(tmp_path / "t.csv"), "csv")
    assert (tmp_path / "t.json").read_text() == expected
    cli.emit_table(records, None, "json")
    assert capsys.readouterr().out == expected


def test_csv_at_a_json_path_exits_2_and_writes_nothing(tmp_path, capsys):
    # the JSON mirror of a CSV written to x.json is x.json itself: before
    # the check it overwrote the CSV and the command exited 0
    path = tmp_path / "o1.json"
    with pytest.raises(ValidationError, match="mirror"):
        cli.emit_table([{"a": 1}], str(path), "csv")
    assert cli.main(["coeffs", "--nmax", "2", "--method", "recurrence",
                     "--output", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("onsager: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_emit_table_json_only(tmp_path):
    path = tmp_path / "t.json"
    cli.emit_table([{"a": 1.5}], str(path), "json")
    assert json.loads(path.read_text()) == [{"a": 1.5}]
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    (["audit-degree", "--lambda", "15"], "--truncations"),
    (["audit-degree", "--lambda", "15", "--truncations", "8,20",
      "--nmax", "16"], "--truncations"),
    (["solve", "--lambda", "12", "--modes", "13"], "--modes"),
    (["sweep", "--lambda-min", "9", "--lambda-max", "10", "--modes", "13"],
     "--modes"),
    (["evolve", "--lambda", "11.3", "--grid", "31"], "--grid"),
    (["solve", "--lambda", "12", "--modes", "4", "--init", "0.5,abc"],
     "--init"),
    (["coeffs", "--dim", "400", "--nmax", "2"], "--dim"),
    (["sweep", "--lambda-min", "9", "--lambda-max", "13", "--steps", "1"],
     "--steps 1"),
])
def test_invalid_flag_combinations_exit_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "t.csv"
    assert cli.main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert flag in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--lambda-min", "9", "--lambda-max", "9"], "--steps 20"),
    (["sweep", "--lambda-min", "9", "--lambda-max", "9.000000000000002",
      "--steps", "40"], "--steps 40"),
    (["evolve", "--lambda", "11.3", "--perturb", "3"], "--perturb 3"),
], ids=["sweep-equal-bounds", "sweep-near-equal-bounds", "evolve-perturb"])
def test_inputs_that_ran_misleadingly_exit_2(monkeypatch, tmp_path, capsys,
                                              argv, flag):
    # a sweep whose lambda grid repeats a value ran the same census once
    # per copy and interleaved the copies' rows; a perturbation beyond
    # 1 / max(-P_2) = D - 1 made the start density negative, and evolve
    # exited 3 blaming the dynamics.  Both now stop before any run.
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(solver, "censuses", no_run)
    monkeypatch.setattr(dynamics, "evolve", no_run)
    out = tmp_path / "t.csv"
    assert cli.main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("onsager: ") and flag in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_evolve_perturbation_within_the_bound_runs(tmp_path):
    # --perturb 2 at D = 3 touches zero at t = 0 only; the grid's nodes
    # miss t = 0, so the start density is positive
    out = tmp_path / "run.csv"
    assert cli.main(["evolve", "--lambda", "11.3", "--perturb", "2",
                     "--grid", "64", "--t-max", "0.5",
                     "--output", str(out)]) == 0
    assert _read_csv(out)


@pytest.mark.parametrize("argv", [
    ["--grid", "128", "--perturb", "2.0005"],
    ["--grid", "32", "--perturb", "2.014"],
    ["--dim", "5", "--grid", "128", "--perturb", "4.002"],
    ["--dim", "5", "--grid", "32", "--perturb", "4.04"],
], ids=["d3-128", "d3-32", "d5-128", "d5-32"])
def test_perturbation_above_the_bound_exits_2_before_a_grid_is_built(
        monkeypatch, tmp_path, capsys, argv):
    # min P_2 = -1/(D - 1) lies at t = 0, which an even grid has no node
    # at: checked at the nodes alone, these starts passed and ran.  The
    # bound is now checked on the flags
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(dynamics, "make_grid", no_grid)
    out = tmp_path / "t.csv"
    assert cli.main(["evolve", "--lambda", "11.3", *argv,
                     "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"onsager: --perturb {float(argv[-1])} ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_json_format_on_stdout(capsys):
    assert cli.main(["coeffs", "--nmax", "3", "--method", "recurrence",
                     "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in records] == [1, 2, 3]


@pytest.mark.parametrize("value", ["-0.5,1", "-0.5", "-1e-1,0.2", "0.5,-1"])
def test_negative_init_after_a_space(capsys, value):
    argv = ["solve", "--lambda", "12", "--modes", "6"]
    assert cli.main(argv + ["--init", value]) == 0
    spaced = capsys.readouterr().out
    assert cli.main(argv + [f"--init={value}"]) == 0
    assert capsys.readouterr().out == spaced
    assert "\n12,true," in spaced


def _src_env():
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_cli_import_loads_no_numpy_or_scipy():
    # `onsager --help` pays for every module `import onsager.cli` loads:
    # numpy loads only when a command computes, and the package runs on
    # numpy alone
    probe = ("import sys, onsager.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('numpy', 'scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_dt_help_names_the_default_step():
    # `evolve --help` imports no package module, so the help spells out
    # the step that polybasis defines
    assert cli._FLAGS["dt"]["help"].startswith(f"default: {DT_PER_H2:g} h^2")


_FRONT = ["cli", "errors"]
_BASE = _FRONT + ["kernel", "polybasis"]


@pytest.mark.parametrize(("argv", "code", "loaded", "numpy"), [
    ([], 0, _FRONT, False),
    (["sweep", "--help"], 0, _FRONT, False),
    (["frob"], 64, _FRONT, False),
    (["sweep", "--bogus"], 2, _FRONT, False),
    (["coeffs", "--config", "missing.json"], 2, _FRONT, False),
    (["evolve", "--help"], 0, _FRONT, False),
    (["evolve", "--lambda", "5", "--grid", "31"], 2, _BASE, False),
    (["evolve", "--lambda", "5", "--perturb", "3"], 2, _BASE, False),
    (["coeffs", "--nmax", "3"], 0, _BASE, True),
    (["coeffs", "--nmax", "3", "--method", "recurrence"], 0, _BASE, False),
    (["thresholds", "--nmax", "3"], 0, _BASE + ["bifurcation"], False),
    (["solve", "--lambda", "5", "--nmax", "3"], 0, _BASE + ["solver"], True),
    (["sweep", "--lambda-min", "5", "--lambda-max", "6", "--steps", "2",
      "--nmax", "3", "--starts", "3"], 0, _BASE + ["solver"], True),
    (["audit-degree", "--lambda", "5", "--truncations", "2", "--nmax", "2",
      "--starts", "3"], 0, _BASE + ["bifurcation", "solver"], True),
    (["evolve", "--lambda", "5", "--grid", "32", "--t-max", "0.01",
      "--nmax", "3"], 0, _BASE + ["dynamics"], True),
], ids=["help", "sweep-help", "unknown-command", "unknown-flag",
        "missing-config", "evolve-help", "evolve-grid-31", "evolve-perturb-3",
        "coeffs", "coeffs-recurrence",
        "thresholds", "solve", "sweep", "audit-degree", "evolve"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, code,
                                                     loaded, numpy):
    # usage, help and parse errors load the standard library and the cli
    # alone; a flag that parses but fails its range check (`--grid 31`,
    # `--perturb 3`) loads the kernel and polybasis, no numpy.  The
    # closed-form kernel table and the thresholds are
    # standard-library arithmetic, so `thresholds` and `coeffs --method
    # recurrence` load no numpy; numpy loads once a command computes on
    # arrays.  The package and cli import the solver, bifurcation and
    # dynamics modules only where a command runs them; the census draws
    # its starts from the standard library's generator, so no command
    # loads numpy.random and the hashing modules that come with it
    probe = ("import sys; from onsager import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "print(code, sorted(m for m in sys.modules "
             "if m.startswith('onsager.')))\n"
             "print(sorted(m for m in ('numpy', 'numpy.random', 'secrets',"
             " 'hashlib') if m in sys.modules))")
    out = ["--output", "out.csv"] if argv else []
    proc = subprocess.run([sys.executable, "-c", probe, *argv, *out],
                          env=_src_env(), cwd=tmp_path, capture_output=True,
                          text=True, check=True)
    modules = sorted(f"onsager.{name}" for name in loaded)
    expected = ["numpy"] if numpy else []
    assert proc.stdout.splitlines()[-2:] == [f"{code} {modules}",
                                             f"{expected}"]


@pytest.mark.parametrize(("argv", "code"), [
    (["thresholds", "--dim", "3", "--nmax", "64"], 0),
    (["coeffs", "--nmax", "12", "--method", "recurrence"], 0),
    # N(343, 2n) passes the largest double before n = 600
    (["thresholds", "--dim", "343", "--nmax", "600"], 3),
], ids=["thresholds", "coeffs-recurrence", "thresholds-overflow"])
def test_numpy_free_commands_run_with_numpy_unimportable(tmp_path, argv,
                                                         code):
    # with numpy made unimportable, the standard-library commands still
    # succeed, and a numerical failure still exits 3 with one `onsager:`
    # line and its error record
    probe = ("import sys; sys.modules['numpy'] = None\n"
             "from onsager import cli; sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", probe, *argv, "--output",
                           "out.csv"], env=_src_env(), cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == code
    if code == 0:
        assert proc.stderr == ""
        assert (tmp_path / "out.csv").exists()
    else:
        assert proc.stderr.startswith("onsager: ")
        assert proc.stderr.count("\n") == 1
        record = json.loads((tmp_path / "out.error.json").read_text())
        assert record["error"] == "OverflowError"
        assert not (tmp_path / "out.csv").exists()


def test_import_onsager_loads_and_binds_nothing():
    # the package is its modules: `import onsager` loads none of them and
    # no numpy, and binds no name besides its dunders (__version__)
    probe = (
        "import sys, onsager\n"
        "print(sorted(m for m in sys.modules if m.startswith('onsager.')))\n"
        "print('numpy' in sys.modules)\n"
        "print([n for n in vars(onsager) if not n.startswith('__')])")
    out = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "False", "[]"]


def test_readme_examples_run_without_scipy(tmp_path):
    # with scipy unimportable, every README example exits 0 and writes
    # nothing to stderr
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from onsager import cli\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    code = cli.main(argv + ['--output', f'out{i}.csv'])\n"
        "    if code != 0:\n"
        "        sys.exit(f'{argv} exited {code}')\n")
    argvs = [argv[1:] for argv in _readme_command_lines()]
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          env=_src_env(), cwd=tmp_path, capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(list(tmp_path.glob("out*.csv"))) == len(argvs) == 6


def test_main_as_a_library_call_freezes_nothing(tmp_path):
    # only the process entry freezes the collector's heap: a program that
    # calls main keeps its own objects collectable
    for i, argv in enumerate(_readme_command_lines()):
        frozen = gc.get_freeze_count()
        out = str(tmp_path / f"out{i}.csv")
        assert cli.main(argv[1:] + ["--output", out]) == 0
        assert gc.get_freeze_count() == frozen, argv


def _outputs(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize("argv, code", [
    ([], 0),
    (["frob", "--output", "out.csv"], 64),
    (["sweep", "--bogus", "--output", "out.csv"], 2),
    (["audit-degree", "--lambda", "120", "--truncations", "8,12,16",
      "--nmax", "16", "--output", "out.csv"], 3),
], ids=["usage", "unknown-command", "rejected-flag", "inconclusive-audit"])
def test_process_exit_is_the_library_call(monkeypatch, capsys, tmp_path,
                                          argv, code):
    # `python -m onsager.cli` exits with main's code and writes main's
    # stdout, stderr and files (CSV, JSON mirror, error record)
    library, process = tmp_path / "library", tmp_path / "process"
    library.mkdir()
    process.mkdir()
    monkeypatch.chdir(library)
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "onsager.cli", *argv],
                          env=_src_env(), cwd=process, capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert _outputs(process) == _outputs(library)
    if code == 3:
        assert set(_outputs(library)) == {"out.error.json"}


def test_process_entry_freezes_the_heap_and_keeps_the_teardown(tmp_path):
    # after the command, atexit handlers still run with the heap frozen
    # and stdout is still flushed
    probe = ("import atexit, gc, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count()"
             " > 0))\n"
             "sys.argv[1:] = ['coeffs', '--nmax', '2', '--method',"
             " 'recurrence']\n"
             "from onsager.cli import run\n"
             "run()\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                          cwd=tmp_path, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("n,k\n1,")
    assert proc.stdout.endswith("\nfrozen True\n")


def test_console_script_is_the_module_entry():
    # the `onsager` script and `python -m onsager.cli` run one function
    root = Path(__file__).parent.parent
    script = re.search(
        r'^\[project\.scripts\]\nonsager = "onsager\.cli:(\w+)"$',
        (root / "pyproject.toml").read_text(), re.M)
    module = ast.parse((root / "src" / "onsager" / "cli.py").read_text())
    block, = [node for node in module.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    call, = block.body
    assert ast.unparse(call) == f"{script.group(1)}()"
    assert script.group(1) == "run" and callable(cli.run)
