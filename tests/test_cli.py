import csv
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from onsager import cli, dynamics, kernel
from onsager.dynamics import evolve
from onsager.errors import ValidationError


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
    # grid_norm squares densities of size 1/sigma_343, about 3e222
    argv = ["evolve", "--dim", "343", "--lambda", "5", "--grid", "32",
            "--t-max", "0.001", "--nmax", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


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


def test_order_flag_and_config_give_identical_output(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 64}))
    argv = ["solve", "--lambda", "5", "--modes", "4"]
    assert cli.main(argv + ["--order", "64"]) == 0
    by_flag = capsys.readouterr().out
    assert cli.main(argv + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == by_flag


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
    "solve": {"dim", "nmax", "tol", "max-iter", "order", "lambda", "modes",
              "init"},
    "sweep": {"dim", "nmax", "tol", "max-iter", "seed", "order",
              "lambda-min", "lambda-max", "steps", "modes", "starts"},
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
    assert pairs == 56


def test_command_help_exits_0(capsys):
    assert cli.main(["solve", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--lambda" in out and "--init" in out
    assert "--seed" not in out


def test_readme_command_lines_parse_and_validate():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = [shlex.split(line) for line in block.split("```", 1)[0]
             .splitlines() if line.startswith("onsager ")]
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
])
def test_invalid_flag_combinations_exit_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "t.csv"
    assert cli.main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert flag in err
    assert err.count("\n") == 1
    assert not out.exists()


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


def test_cli_import_loads_no_scipy_linalg_or_optimize():
    # `onsager --help` pays for every module `import onsager.cli` loads
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe = ("import sys, onsager.cli; print(sorted({m for m in sys.modules "
             "if m.split('.')[:2] in (['scipy', 'linalg'], "
             "['scipy', 'optimize'])}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
