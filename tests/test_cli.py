"""End-to-end tests of the command-line interface (in-process)."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cpelab
from cpelab import cli, diagnostics, evolve, operators, stokes_solver
from cpelab.grid import grad_h, make_grid
from cpelab.operators import (
    SolverBreakdown,
    _bordered,
    mode_wavevectors,
    vertical_lame_block,
    vertical_reduction,
)
from cpelab.transforms import PhysicalParams, column_density

pytestmark = pytest.mark.usefixtures("clean_output_env")


@pytest.fixture
def clean_output_env(monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "schema_version": 1,
        "mode": "LocalGamma1",
        "grid": {"nx": 8, "ny": 8, "nz": 5},
        "params": {"mu": 1.0, "mu_prime": 0.5, "xi_bar": 1.0},
        "dt": 1e-3,
        "t_end": 5e-3,
        "preset": "random_smooth",
        "amplitude": 0.05,
        "seed": 1,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def write_problem(tmp_path, name="problem.json", **overrides):
    prob = {
        "schema_version": 1,
        "grid": {"nx": 8, "ny": 8, "nz": 7},
        "params": {"mu": 1.0, "mu_prime": 0.5},
        "lam": 0.0,
        "rhs": "manufactured",
    }
    prob.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(prob, indent=1))
    return str(path)


def read_summary(dirpath):
    with open(dirpath / "summary.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def located(cases):
    """Parametrize ``(overrides, needle, line)``; ``line`` is the line the
    message names, or None for a message that names none."""
    return [pytest.param(overrides, needle, line, id=f"overrides{i}-{needle}")
            for i, (overrides, needle, line) in enumerate(cases)]


# params with a value that is not finite, and the message each exits 2 with
NONFINITE_PARAMS = [
    ({"mu": float("inf"), "mu_prime": 0.5}, "mu must be finite, got inf"),
    ({"mu": 1.0, "mu_prime": float("-inf")},
     "mu_prime must be finite, got -inf"),
    ({"mu": 1e308, "mu_prime": 1e308},
     "mu + mu_prime must be finite, got inf"),
    ({"mu": 1.0, "mu_prime": 0.5, "xi_bar": float("inf")},
     "xi_bar must be finite, got inf"),
    ({"mu": 1.0, "mu_prime": 0.5, "M1": float("nan")},
     "M1 must be finite, got nan"),
    ({"mu": 1.0, "mu_prime": 0.5, "M2": float("inf")},
     "M2 must be finite, got inf"),
]
NONFINITE_CASES = [({"params": params}, f"invalid params: {message}", None)
                   for params, message in NONFINITE_PARAMS]
NONFINITE_IDS = ("nonfinite-mu", "nonfinite-mu_prime", "overflowing-sum",
                 "nonfinite-xi_bar", "nonfinite-M1", "nonfinite-M2")

ADMISSIBLE = {"mu": 1.0, "mu_prime": 0.5}
GENERAL = "GeneralNoGravity"
# a pressure law that is not an object, unknown, or with an unknown option,
# and one in a Gamma1 mode
PRESSURE_CASES = [
    ({"mode": GENERAL, "params": {**ADMISSIBLE, "pressure": "tanh"}},
     "'pressure' must be an object", 12),
    ({"mode": GENERAL, "params": {**ADMISSIBLE, "pressure": {"law": "cubic"}}},
     "invalid pressure law: unknown pressure law 'cubic'", 13),
    ({"mode": GENERAL,
      "params": {**ADMISSIBLE, "pressure": {"law": "tanh", "beta": 1.0}}},
     "unknown key 'beta' in 'pressure'", 14),
    ({"mode": GENERAL,
      "params": {**ADMISSIBLE, "pressure": {"law": "tanh", "c": 2.0}}},
     "invalid pressure law: unknown pressure-law options ['c']", 13),
    ({"params": {**ADMISSIBLE, "pressure": {"law": "linear"}}},
     "'pressure' is only meaningful for the GeneralNoGravity mode", 12),
]


# a run key that breaks its own rule, with the message and line that
# simulate and spectrum both exit 2 with
RUN_KEY_RULES = [
    ({"dt": -1}, "dt must be positive, got -1.0", 14),
    ({"t_end": 0}, "t_end must be positive, got 0.0", 15),
    ({"amplitude": float("inf")}, "amplitude must be finite, got inf", 17),
    ({"amplitude": float("nan")}, "amplitude must be finite, got nan", 17),
    ({"tolerances": {"fp_tol": 0}},
     "tolerance 'fp_tol' must be finite and positive, got 0.0", 20),
    ({"output_every": 0}, "output_every must be >= 1, got 0", 19),
    ({"dt": float("inf"), "t_end": float("inf")}, "dt must be finite, got inf",
     14),
    ({"t_end": float("inf")}, "t_end must be finite, got inf", 15),
]
RUN_KEY_IDS = ("dt-negative", "t_end-zero", "amplitude-inf", "amplitude-nan",
               "fp_tol-zero", "output_every-zero", "dt-inf", "t_end-inf")


def assert_config_error(capsys, needle, line):
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert needle in err
    if line is None:
        assert "(line" not in err
    else:
        assert err.endswith(f" (line {line})\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["simulate", cfg, "--output-dir", str(out_a)]) == 0
    assert cli.main(["simulate", cfg, "--output-dir", str(out_b)]) == 0
    csv_a = (out_a / "diagnostics.csv").read_bytes()
    csv_b = (out_b / "diagnostics.csv").read_bytes()
    assert csv_a == csv_b
    assert (out_a / "summary.json").read_bytes() == \
        (out_b / "summary.json").read_bytes()

    summary = read_summary(out_a)
    assert summary["schema_version"] == 1
    assert summary["subcommand"] == "simulate"
    assert summary["status"] == "completed"
    assert summary["exit_code"] == 0
    assert summary["rows_written"] == 6
    assert summary["diagnostics_csv"] == "diagnostics.csv"
    assert set(summary["final"]) == set(
        ("t", "mass", "energy", "dissipation_integral", "zeta_m_h1",
         "v_l2", "min_xi", "max_xi", "min_det"))
    assert summary["final"]["t"] == pytest.approx(5e-3)
    header = csv_a.decode().splitlines()[0]
    assert header.startswith("t,mass,energy")


def test_output_dir_precedence(tmp_path, monkeypatch):
    dir_cfg = tmp_path / "from_config"
    dir_env = tmp_path / "from_env"
    dir_flag = tmp_path / "from_flag"
    cfg = write_config(tmp_path, output_dir=str(dir_cfg))

    assert cli.main(["simulate", cfg]) == 0
    assert (dir_cfg / "summary.json").exists()

    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(dir_env))
    assert cli.main(["simulate", cfg]) == 0
    assert (dir_env / "summary.json").exists()

    assert cli.main(["simulate", cfg, "--output-dir", str(dir_flag)]) == 0
    assert (dir_flag / "summary.json").exists()


@pytest.mark.parametrize("command", ("simulate", "spectrum", "resolvent"))
@pytest.mark.parametrize("source", ("--output-dir", cli.OUTPUT_DIR_ENV,
                                    "the 'output_dir' key"))
def test_output_dir_that_cannot_be_created_is_a_config_error(
        tmp_path, monkeypatch, capsys, command, source):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    out = str(blocker / "out")
    keyed = {"output_dir": out} if source.endswith("key") else {}
    write = write_problem if command == "resolvent" else write_config
    argv = [command, write(tmp_path, **keyed)]
    if source == "--output-dir":
        argv += ["--output-dir", out]
    elif source == cli.OUTPUT_DIR_ENV:
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, out)
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: cannot create the output directory {out!r} given by "
        f"{source}: Not a directory\n")


@pytest.mark.parametrize("command,name", [
    ("simulate", "diagnostics.csv"), ("simulate", "summary.json"),
    ("spectrum", "symbol_eigs.csv"), ("spectrum", "summary.json"),
    ("resolvent", "zeta.npy"), ("resolvent", "V.npy"),
    ("resolvent", "summary.json"),
])
def test_output_file_that_cannot_be_written_is_a_config_error(
        tmp_path, capsys, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    write = write_problem if command == "resolvent" else write_config
    assert cli.main([command, write(tmp_path), "--output-dir",
                     str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: cannot write the output file "
        f"{str(out / name)!r}: Is a directory\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ("LocalGamma1", "LocalGamma2",
                                  "GlobalGamma1", GENERAL))
def test_overflowing_jacobian_is_a_flow_map_exit(tmp_path, capsys, mode):
    # one step of dt = 1e300 takes the flow map's Jacobian past the float
    # range; its determinant must not reach a warning or a traceback
    params = {"mu": 1.0, "mu_prime": 0.5, "xi_bar": 1.0}
    if mode == GENERAL:
        params["pressure"] = {"law": "tanh"}
    cfg = write_config(tmp_path, mode=mode, params=params, dt=1e300,
                       t_end=1e300, amplitude=0.2)
    out = tmp_path / "out"
    assert cli.main(["simulate", cfg, "--output-dir", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    assert ("flow map degenerated: singular Jacobian: det overflows the "
            "float range") in captured.out.splitlines()
    assert read_summary(out)["status"] == "map_noninvertible"


def test_simulate_reports_terminal_status(tmp_path):
    cfg = write_config(
        tmp_path, mode="GlobalGamma1", preset="fourier_perturbation",
        amplitude=0.55, perturbation_mode=[1, 0],
        grid={"nx": 8, "ny": 8, "nz": 7}, t_end=0.1)
    code = cli.main(["simulate", cfg, "--output-dir", str(tmp_path / "out")])
    assert code == 3
    summary = read_summary(tmp_path / "out")
    assert summary["status"] == "positivity_lost"
    assert summary["exit_code"] == 3
    assert "xi_bar/2" in summary["message"]


@pytest.mark.parametrize("amplitude", (0.45, 0.9))
@pytest.mark.parametrize("mode", ("LocalGamma1", "LocalGamma2",
                                  "GeneralNoGravity"))
def test_singular_flow_map_jacobian_exits_4(tmp_path, mode, amplitude):
    # One violent step makes the new flow-map Jacobian singular.
    cfg = write_config(
        tmp_path, mode=mode, grid={"nx": 12, "ny": 12, "nz": 7},
        params={"mu": 0.02, "mu_prime": 0.02, "M1": 0.05, "M2": 2.0},
        dt=0.5, t_end=2.0, output_every=1, preset="fourier_perturbation",
        amplitude=amplitude, perturbation_mode=[1, 0])
    out = tmp_path / "out"
    assert cli.main(["simulate", cfg, "--output-dir", str(out)]) == 4
    summary = read_summary(out)
    assert summary["status"] == "map_noninvertible"
    assert summary["exit_code"] == 4
    assert "singular Jacobian" in summary["message"]
    rows = diagnostics.read_diagnostics_csv(str(out / "diagnostics.csv"))
    assert np.all(np.isfinite(rows))
    assert rows.shape[0] == summary["rows_written"] == summary["n_steps"] + 1


def test_initial_density_outside_window_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, preset="fourier_perturbation",
                       amplitude=0.9, perturbation_mode=[1, 0])
    assert cli.main(["simulate", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "[M1, M2] = [0.5, 2.0]" in err


def test_failed_fixed_point_exits_8_with_outputs(tmp_path):
    # A positive fp_tol below round-off is valid but can never be met.
    cfg = write_config(
        tmp_path, grid={"nx": 12, "ny": 12, "nz": 7},
        params={"mu": 0.02, "mu_prime": 0.02, "M1": 0.05, "M2": 2.0},
        dt=0.1, t_end=2.0, output_every=1, preset="fourier_perturbation",
        amplitude=0.45, perturbation_mode=[1, 0],
        tolerances={"fp_tol": 1e-300})
    out = tmp_path / "out"
    assert cli.main(["simulate", cfg, "--output-dir", str(out)]) == 8
    summary = read_summary(out)
    assert summary["status"] == "implicit_solve_failed"
    assert summary["exit_code"] == 8
    assert "did not converge in 200 iterations" in summary["message"]
    assert summary["n_steps"] == 0 and summary["fp_iterations"] is None
    rows = diagnostics.read_diagnostics_csv(str(out / "diagnostics.csv"))
    assert rows.shape[0] == summary["rows_written"] == 1
    assert np.all(np.isfinite(rows))


@pytest.mark.parametrize("amplitude,code", ((1.2, 2), (0.9, 3)))
def test_global_initial_density_must_be_positive(tmp_path, capsys,
                                                 amplitude, code):
    cfg = write_config(
        tmp_path, mode="GlobalGamma1", grid={"nx": 12, "ny": 12, "nz": 7},
        params={"mu": 0.02, "mu_prime": 0.02, "M1": 0.05, "M2": 2.0},
        dt=0.1, t_end=2.0, output_every=1, preset="fourier_perturbation",
        amplitude=amplitude, perturbation_mode=[1, 0])
    out = tmp_path / "out"
    assert cli.main(["simulate", cfg, "--output-dir", str(out)]) == code
    if code == 2:
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "not positive: min -0.2" in err
        assert not (out / "summary.json").exists()
    else:
        assert read_summary(out)["status"] == "positivity_lost"


def test_summary_reports_fixed_point_iterations(tmp_path):
    out = tmp_path / "local"
    assert cli.main(["simulate", write_config(tmp_path),
                     "--output-dir", str(out)]) == 0
    fp = read_summary(out)["fp_iterations"]
    assert set(fp) == {"min", "mean", "max"}
    assert 1 <= fp["min"] <= fp["mean"] <= fp["max"] <= 200
    assert isinstance(fp["min"], int) and isinstance(fp["max"], int)

    out = tmp_path / "global"
    cfg = write_config(tmp_path, name="global.json", mode="GlobalGamma1")
    assert cli.main(["simulate", cfg, "--output-dir", str(out)]) == 0
    assert read_summary(out)["fp_iterations"] is None


def test_decay_fit_only_on_completed_runs(tmp_path):
    # 14 steps, then the flow map leaves the diffeomorphism regime
    cfg = write_config(
        tmp_path, mode="GeneralNoGravity", grid={"nx": 12, "ny": 12, "nz": 7},
        params={"mu": 0.02, "mu_prime": 0.02, "M1": 0.05, "M2": 2.0},
        dt=0.02, t_end=2.0, output_every=1, preset="fourier_perturbation",
        amplitude=0.45, perturbation_mode=[1, 0])
    out = tmp_path / "stopped"
    assert cli.main(["simulate", cfg, "--output-dir", str(out)]) == 4
    summary = read_summary(out)
    assert summary["status"] == "map_noninvertible"
    assert summary["rows_written"] >= 12
    assert summary["decay_fit"] is None

    cfg = write_config(tmp_path, name="completed.json", t_end=0.012)
    out = tmp_path / "completed"
    assert cli.main(["simulate", cfg, "--output-dir", str(out)]) == 0
    summary = read_summary(out)
    assert summary["rows_written"] == 13
    assert set(summary["decay_fit"]) == {"eta", "r_squared", "n_tail",
                                         "t_start"}


def test_import_loads_neither_sympy_nor_scipy():
    # sympy is for verify alone, and scipy for the tests alone
    src = os.path.dirname(os.path.dirname(cpelab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, cpelab.cli\n"
            "for name in ('sympy', 'cpelab.verify'):\n"
            "    assert name not in sys.modules, name\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


def test_every_exported_name_exists():
    for info in pkgutil.iter_modules(cpelab.__path__):
        module = importlib.import_module(f"cpelab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"cpelab.{info.name}.{name}"


def test_imports_are_at_module_level():
    # the one exception keeps sympy out of every command but verify
    allowed = {("cli", "_cmd_verify")}
    offenders = []
    for info in pkgutil.iter_modules(cpelab.__path__):
        path = os.path.join(cpelab.__path__[0], f"{info.name}.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (isinstance(node, (ast.Import, ast.ImportFrom))
                        and (info.name, func.name) not in allowed):
                    offenders.append(f"{info.name}.{func.name}:{node.lineno}")
    assert offenders == []


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_malformed_json_names_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "mode": "LocalGamma1",\n  oops\n}\n')
    assert cli.main(["simulate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "line 3" in err


def test_missing_file_is_config_error(tmp_path, capsys):
    assert cli.main(["simulate", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize("content,needle", [
    (b'{"schema_version": 1, "mode": "\xff"}', "cannot read config file"),
    (b"[" * 200_000 + b"]" * 200_000, "invalid JSON in"),
    (b'{"seed": ' + b"7" * 5000 + b"}", "invalid JSON in"),
], ids=("not-utf-8", "nested-too-deeply", "integer-too-long"))
@pytest.mark.parametrize("command", ("simulate", "spectrum", "resolvent"))
def test_unparsable_file_is_config_error(tmp_path, capsys, command, content,
                                         needle):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {needle} {str(path)!r}: ")
    assert "Traceback" not in err


# every number key of the two schemas, holding "@" in place of its value;
# spectrum reads every field of a run config that simulate reads
RUN, PROBLEM = ("simulate", "spectrum"), ("resolvent",)
NUMBER_KEY_PATHS = [
    *((RUN, {"params": {**ADMISSIBLE, key: "@"}}, key)
      for key in ("mu", "mu_prime", "xi_bar", "M1", "M2")),
    (RUN, {"mode": GENERAL, "params": {
        **ADMISSIBLE, "pressure": {"law": "linear", "c": "@"}}}, "c"),
    (RUN, {"mode": GENERAL, "params": {
        **ADMISSIBLE, "pressure": {"law": "tanh", "alpha": "@"}}}, "alpha"),
    *((RUN, {key: "@"}, key) for key in ("dt", "t_end", "amplitude")),
    *((RUN, {"tolerances": {key: "@"}}, key)
      for key in sorted(cli._TOLERANCE_KEYS)),
    (PROBLEM, {"lam": "@"}, "lam"),
    (PROBLEM, {"lam": ["@", 0.0]}, "lam"),
    (PROBLEM, {"lam": [0.0, "@"]}, "lam"),
]


@pytest.mark.parametrize("sign", (1, -1), ids=("plus", "minus"))
@pytest.mark.parametrize(
    "commands,overrides,key", NUMBER_KEY_PATHS,
    ids=[f"{key}-{i}" for i, (_, _, key) in enumerate(NUMBER_KEY_PATHS)])
def test_integer_past_the_float_range_is_config_error(
        tmp_path, capsys, commands, overrides, key, sign):
    # an integer literal such as 1 followed by 400 zeros has no float
    write = write_config if commands == RUN else write_problem
    path = write(tmp_path, **overrides)
    with open(path, encoding="utf-8") as fh:
        text = fh.read().replace('"@"', str(sign * 10 ** 400))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    line = text.count("\n", 0, text.find(f'"{key}"')) + 1
    for command in commands:
        assert cli.main([command, path, "--output-dir",
                         str(tmp_path / "out")]) == 2
        assert_config_error(capsys, f"'{key}' must be finite, got an "
                            "integer past the float range", line)


def test_unknown_key_is_located(tmp_path, capsys):
    cfg = write_config(tmp_path, vlscosity=2.0)
    assert cli.main(["simulate", cfg]) == 2
    assert_config_error(capsys, "unknown key 'vlscosity' in run config", 19)


def test_tolerance_typo_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, tolerances={"fp_tol": 1e-12, "fp_toll": 1.0})
    assert cli.main(["simulate", cfg]) == 2
    assert_config_error(capsys, "unknown key 'fp_toll' in 'tolerances'", 21)


@pytest.mark.parametrize("key,value", [
    ("fp_tol", 0.0),
    ("fp_tol", -1.0),
    ("fp_tol", float("nan")),
    ("det_floor", -1.0),
    # read by no run, but checked the same way
    ("inv_tol", 0.0),
    ("lin_tol", float("inf")),
    ("mean_tol", -1.0),
])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, key, value):
    # the fixed point can never meet fp_tol = 0, and a negative det_floor
    # would switch the invertibility guard off
    cfg = write_config(tmp_path, tolerances={key: value})
    out = tmp_path / "out"
    assert cli.main(["simulate", cfg, "--output-dir", str(out)]) == 2
    assert_config_error(capsys, f"tolerance '{key}' must be finite", 20)
    assert not (out / "summary.json").exists()


def test_schema_version_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, schema_version=2)
    assert cli.main(["simulate", cfg]) == 2
    assert_config_error(capsys, "unsupported schema_version 2", 2)


@pytest.mark.parametrize("overrides,needle,line", located([
    ({"mode": "Gamma7"}, "unknown mode", 3),
    ({"preset": "warp"}, "unknown preset", 16),
    ({"grid": {"nx": 7, "ny": 8, "nz": 5}}, "invalid grid", None),
    ({"grid": {"nx": 8, "ny": 8}}, "nz", None),
    ({"dt": True}, "dt", 14),
    ({"dt": -1e-3}, "dt must be positive", 14),
    ({"seed": 1.5}, "seed", 18),
    ({"params": {"mu": -1.0, "mu_prime": 0.5}}, "mu", None),
    ({"params": {"mu": 1.0}}, "mu_prime", None),
    ({"mode": ["x"]}, "unknown mode", 3),
    ({"mode": {}}, "unknown mode", 3),
    *NONFINITE_CASES,
    ({"seed": -1}, "'seed' must be non-negative, got -1", 18),
    *PRESSURE_CASES,
    *RUN_KEY_RULES,
    # a step count that overflows
    ({"t_end": 1e308}, "t_end / dt must be finite", None),
    ({"dt": 1e-320}, "t_end / dt must be finite", None),
]))
def test_invalid_values_exit_2(tmp_path, capsys, overrides, needle, line):
    cfg = write_config(tmp_path, **overrides)
    assert cli.main(["simulate", cfg]) == 2
    assert_config_error(capsys, needle, line)


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        cli.main([])
    assert exc_info.value.code == 2


def readme_exit_codes():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    table = text[text.index("Exit codes:"):].split("\n\n")[1]
    return {int(row.split("|")[1]) for row in table.splitlines()[2:]}


def test_readme_exit_code_table_matches_cli():
    assert readme_exit_codes() == {value for name, value in vars(cli).items()
                                   if name.startswith("EXIT_")}


def readme_code_spans():
    """The inline code spans of README.md, fenced blocks left out."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = re.sub(r"```.*?```", "", fh.read(), flags=re.S)
    return re.findall(r"`([^`\n]+)`", text)


def test_readme_cites_public_names_that_exist():
    # a dotted span is a citation when it starts at a cpelab module or class;
    # file names (summary.json) and other packages (numpy.linalg) are not
    modules = {m.name: importlib.import_module(f"cpelab.{m.name}")
               for m in pkgutil.iter_modules(cpelab.__path__)}
    classes = {name: obj for mod in modules.values()
               for name, obj in vars(mod).items()
               if isinstance(obj, type) and obj.__module__.startswith("cpelab")}
    cited = []
    for span in readme_code_spans():
        parts = span.removeprefix("cpelab.").split(".")
        if (not re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", span)
                or parts[-1] in ("csv", "json", "npy", "py", "toml", "md")
                or parts[0] not in {**modules, **classes}):
            continue
        cited.append(span)
        obj = modules.get(parts[0]) or classes[parts[0]]
        for attr in parts[1:]:
            fields = ({f.name for f in dataclasses.fields(obj)}
                      if dataclasses.is_dataclass(obj) else set())
            assert hasattr(obj, attr) or attr in fields, span
            assert not attr.startswith("_"), span
            obj = getattr(obj, attr, None)
    assert len(cited) >= 10


def test_readme_names_no_private_name():
    # an identifier that begins with an underscore, after a space, a dot,
    # a parenthesis or the span's start (w_H and d_z V are not names)
    private = [s for s in readme_code_spans()
               if re.search(r"(?:^|[\s.(,])_[A-Za-z]", s)]
    assert private == []


def terminal_conditions(cls=evolve.TerminalCondition):
    for sub in cls.__subclasses__():
        yield sub
        yield from terminal_conditions(sub)


def test_every_terminal_status_has_a_documented_exit_code():
    statuses = {c.status for c in terminal_conditions()}
    assert statuses and statuses <= set(cli.STATUS_EXIT)
    assert set(cli.STATUS_EXIT.values()) <= readme_exit_codes()


def test_general_pressure_law_run_completes(tmp_path):
    cfg = write_config(tmp_path, mode=GENERAL, params={
        **ADMISSIBLE, "pressure": {"law": "tanh", "alpha": 0.4}})
    out = tmp_path / "out"
    assert cli.main(["simulate", cfg, "--output-dir", str(out)]) == 0
    assert read_summary(out)["status"] == "completed"
    rows = diagnostics.read_diagnostics_csv(str(out / "diagnostics.csv"))
    assert rows.shape[0] == 6 and np.all(np.isfinite(rows))


# A GeneralNoGravity pressure force below the cap on c whose explicit
# remainder overflows: the run ends as a blowup that names it.
OVERFLOWING_PRESSURE = {"mode": GENERAL, "dt": 0.01, "t_end": 0.05,
                        "preset": "fourier_perturbation", "amplitude": 0.1,
                        "perturbation_mode": [1, 0]}


def overflowing_pressure_params(c):
    return {"mu": 1.0, "mu_prime": 1.0,
            "pressure": {"law": "linear", "c": c}}


# Finite but extreme configs at 8x8x5, and grids above the resolution
# ceiling, with the exit codes of simulate, spectrum and resolvent (at
# lambda = 0); 9 is a solver breakdown.  The grids must be rejected before
# anything is allocated: the arrays they ask for fit in no memory.
HOSTILE = [
    ({"params": {**ADMISSIBLE, "xi_bar": 1e308}}, (2, 9, 9)),
    ({"mode": "GlobalGamma1", "params": {"mu": 1e-300, "mu_prime": 0.0}},
     (0, 9, 9)),
    ({"mode": "GlobalGamma1", "params": {"mu": 1e300, "mu_prime": 0.0}},
     (0, 9, 9)),
    ({"params": {"mu": 1e-300, "mu_prime": 0.5}}, (0, 9, 9)),
    ({"params": {"mu": 1.0, "mu_prime": 1e300}}, (9, 9, 9)),
    ({"grid": {"nx": 2**40, "ny": 8, "nz": 5}}, (2, 2, 2)),
    ({"grid": {"nx": 8, "ny": 8, "nz": 10**9}}, (2, 2, 2)),
    ({"grid": {"nx": 4, "ny": 65536, "nz": 3}}, (2, 2, 2)),
    ({"params": {"mu": 1.0, "mu_prime": 1e308}}, (9, 9, 9)),
    ({"params": {"mu": 1e308, "mu_prime": 0.5}}, (9, 9, 9)),
    ({"params": {**ADMISSIBLE, "xi_bar": 1e-320}}, (2, 9, 9)),
    ({"mode": GENERAL, "params": {**ADMISSIBLE, "M2": 1e308}}, (2, 2, 0)),
    ({"params": {"mu": -1e308, "mu_prime": 0.5}}, (2, 9, 2)),
    ({"mode": GENERAL, "params": {**ADMISSIBLE, "pressure": {
        "law": "linear", "c": 1e308}}}, (2, 2, 2)),
    ({**OVERFLOWING_PRESSURE, "params": overflowing_pressure_params(4e307)},
     (5, 0, 2)),
    ({**OVERFLOWING_PRESSURE, "params": overflowing_pressure_params(1e307)},
     (5, 0, 2)),
]
HOSTILE_IDS = ("xi_bar-1e308", "global-mu-1e-300", "global-mu-1e300",
               "mu-1e-300", "mu_prime-1e300", "nx-2**40", "nz-10**9",
               "ny-65536",
               "mu_prime-1e308", "mu-1e308", "xi_bar-1e-320",
               "general-M2-1e308", "mu--1e308", "general-c-1e308",
               "general-c-4e307", "general-c-1e307")
# the message that names the cause of an overflowing zeta row
ZETA_ROW_OVERFLOW = ("operator breakdown: the zeta row overflows "
                     "(xi_bar * |k| exceeds the float range at "
                     "xi_bar = 1e+308)")
DATA_OVERFLOW = "operator breakdown: the manufactured data overflow"
DENSITY_WINDOW = ("config error: invalid params: the density window "
                  "[M1/2, 2*M2] must be finite, got 2*M2 = inf")
PRESSURE_OVERFLOW = ("config error: invalid params: pressure derivative must "
                     "be finite and positive, and the pressure finite, on the "
                     "sampled interval [0.25, 4.0]: range [1e+308, 1e+308]")
# under the block ceiling, but its derivative matrices would not fit
LONG_AXIS = ("config error: invalid grid: resolution too large: ny=65536 "
             "exceeds 1024")
# (row, command) -> a line its standard error must hold
HOSTILE_ERRORS = {
    **{("ny-65536", command): LONG_AXIS
       for command in ("simulate", "spectrum", "resolvent")},
    ("xi_bar-1e308", "spectrum"): ZETA_ROW_OVERFLOW,
    ("xi_bar-1e308", "resolvent"): DATA_OVERFLOW,
    ("mu_prime-1e308", "simulate"):
        "operator breakdown: the Lame block overflows (mu = 1, "
        "mu_prime = 1e+308, least column density 1)",
    ("mu_prime-1e308", "spectrum"):
        "operator breakdown: the symbol overflows (mu = 1, mu_prime = 1e+308)",
    ("mu_prime-1e308", "resolvent"): DATA_OVERFLOW,
    ("mu-1e308", "simulate"):
        "operator breakdown: the Lame block overflows (mu = 1e+308, "
        "mu_prime = 0.5, least column density 1)",
    ("mu-1e308", "spectrum"):
        "operator breakdown: the symbol overflows (mu = 1e+308, mu_prime = 0.5)",
    ("mu-1e308", "resolvent"): DATA_OVERFLOW,
    ("xi_bar-1e-320", "simulate"):
        "config error: initial surface density leaves [M1, M2] = [0.5, 2.0]: "
        "range [-0.05, 0.0401979]",
    ("xi_bar-1e-320", "spectrum"):
        "operator breakdown: the Lame block overflows (mu = 1, mu_prime = 0.5, "
        "least column density 9.99989e-321)",
    ("xi_bar-1e-320", "resolvent"): DATA_OVERFLOW,
    ("general-M2-1e308", "simulate"): DENSITY_WINDOW,
    ("general-M2-1e308", "spectrum"): DENSITY_WINDOW,
    ("general-c-1e308", "simulate"): PRESSURE_OVERFLOW,
    ("general-c-1e308", "spectrum"): PRESSURE_OVERFLOW,
    # an inadmissible pair is reported, but not as a -Infinity minimum
    ("mu--1e308", "spectrum"):
        "operator breakdown: the symbol overflows (mu = -1e+308, mu_prime = 0.5)",
}
# a breakdown's message starts by naming its cause
BREAKDOWN_CAUSE = re.compile(
    r"operator breakdown: |linear-algebra breakdown in [^:]+: "
    r"|linear-solver breakdown: relative residual |spectral bound is not ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "row,overrides,codes",
    [(row, *case) for row, case in zip(HOSTILE_IDS, HOSTILE)],
    ids=HOSTILE_IDS)
def test_hostile_configs_exit_with_documented_codes(tmp_path, capsys, row,
                                                    overrides, codes):
    run = {"grid": {"nx": 8, "ny": 8, "nz": 5}, **overrides}
    config = write_config(tmp_path, **run)
    problem = write_problem(tmp_path, grid=run["grid"],
                            params=run.get("params", ADMISSIBLE))
    for command, path, code in zip(("simulate", "spectrum", "resolvent"),
                                   (config, config, problem), codes):
        out = tmp_path / command
        assert cli.main([command, path, "--output-dir", str(out)]) == code
        assert code in readme_exit_codes()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if (row, command) in HOSTILE_ERRORS:
            assert HOSTILE_ERRORS[row, command] in err.splitlines()
        if code == cli.EXIT_CONFIG:
            assert err.startswith("config error:")
        elif code == cli.EXIT_BREAKDOWN:
            assert len(err.splitlines()) == 1 and BREAKDOWN_CAUSE.match(err)
        if (out / "diagnostics.csv").exists():
            rows = diagnostics.read_diagnostics_csv(
                str(out / "diagnostics.csv"))
            assert np.all(np.isfinite(rows))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", (4e307, 1e307))
def test_overflowing_explicit_remainder_ends_as_a_named_blowup(tmp_path,
                                                               capsys, c):
    config = write_config(tmp_path, **OVERFLOWING_PRESSURE,
                          params=overflowing_pressure_params(c))
    out = tmp_path / "out"
    assert cli.main(["simulate", config, "--output-dir", str(out)]) == 5
    summary = read_summary(out)
    assert summary["status"] == "blowup"
    assert summary["message"] == ("non-finite explicit remainder F2: its "
                                  "nonlinear terms overflow")
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_zeta_row_of_a_random_resolvent_names_its_cause(
        tmp_path, capsys):
    problem = write_problem(tmp_path, grid={"nx": 8, "ny": 8, "nz": 5},
                            params={**ADMISSIBLE, "xi_bar": 1e308},
                            rhs="random", lam=1.0)
    assert cli.main(["resolvent", problem, "--output-dir",
                     str(tmp_path / "out")]) == cli.EXIT_BREAKDOWN
    err = capsys.readouterr().err
    assert err.splitlines() == [ZETA_ROW_OVERFLOW]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_manufactured_data_whose_transform_overflows_name_their_cause(
        tmp_path, capsys):
    # finite data, but the sums of their horizontal transform overflow
    problem = write_problem(tmp_path, grid={"nx": 8, "ny": 8, "nz": 5},
                            lam=1e308)
    assert cli.main(["resolvent", problem, "--output-dir",
                     str(tmp_path / "out")]) == cli.EXIT_BREAKDOWN
    assert capsys.readouterr().err.splitlines() == [DATA_OVERFLOW]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_manufactured_data_whose_norm_overflows_end_in_the_residual_check(
        tmp_path, capsys):
    # finite data and transform, but the squares of their norm in the
    # lambda = 0 compatibility check overflow; the residual reads nan
    problem = write_problem(tmp_path, grid={"nx": 8, "ny": 8, "nz": 5},
                            params={**ADMISSIBLE, "xi_bar": 1e300})
    out = tmp_path / "out"
    assert cli.main(["resolvent", problem, "--output-dir",
                     str(out)]) == cli.EXIT_BREAKDOWN
    assert capsys.readouterr().err.splitlines() == [
        "linear-solver breakdown: relative residual nan exceeds 1.0e-08"]
    assert not (out / "summary.json").exists()


# The generated sweep: each key path of the schema set to each hostile
# value, through simulate and spectrum in three modes and through resolvent.
HOSTILE_VALUES = (None, True, "x", [], {}, 0, -1, 10**30, 1e308, -1e308,
                  float("nan"), float("inf"), float("-inf"), 1e30, 1e-320)
SWEEP_MODES = ("LocalGamma1", "GlobalGamma1", GENERAL)
# the step counts that overflow, always swept
STEP_COUNT_ROWS = [{"t_end": float("inf")}, {"t_end": 1e308}, {"dt": 1e-320},
                   {"dt": float("inf"), "t_end": float("inf")}]
CFL_ADVISORY = "advective CFL advisory"


def schema_paths(top, nested):
    """Key paths of the keys ``top`` and of each nested object's keys."""
    paths = [(key,) for key in sorted(top)]
    for prefix, keys in nested:
        paths += [prefix + (key,) for key in sorted(keys)]
    return paths


def hostile_sweep(sample):
    """``(command, overrides, path, value)`` cases: the step-count rows and
    a fixed-seed sample of ``sample`` key paths set to hostile values."""
    run_paths = schema_paths(cli._RUN_KEYS, [
        (("grid",), cli._GRID_KEYS), (("params",), cli._PARAM_KEYS),
        (("params", "pressure"), cli._PRESSURE_KEYS),
        (("tolerances",), cli._TOLERANCE_KEYS)])
    problem_paths = schema_paths(cli._RESOLVENT_KEYS, [
        (("grid",), cli._GRID_KEYS), (("params",), cli._PARAM_KEYS)])
    fixed, cases = [], []
    for mode in SWEEP_MODES:
        params = dict(ADMISSIBLE)
        if mode == GENERAL:
            params["pressure"] = {"law": "linear", "c": 1.0}
        base = {"mode": mode, "params": params}
        for command in ("simulate", "spectrum"):
            fixed += [(command, {**base, **row}, None, None)
                      for row in STEP_COUNT_ROWS]
            cases += [(command, base, path, value) for path in run_paths
                      for value in HOSTILE_VALUES]
    cases += [("resolvent", {}, path, value) for path in problem_paths
              for value in HOSTILE_VALUES]
    pick = np.random.default_rng(19).choice(len(cases), sample, replace=False)
    return fixed + [cases[i] for i in sorted(pick)]


def swept_file(tmp_path, command, overrides, path, value):
    """The config or problem file of a sweep case, or None for a run that
    asks for more than 1000 steps: a request, not a fault."""
    write = write_problem if command == "resolvent" else write_config
    name = write(tmp_path, grid={"nx": 8, "ny": 8, "nz": 5}, **overrides)
    with open(name, encoding="utf-8") as fh:
        obj = json.load(fh)
    if path is not None:
        inner = obj
        for key in path[:-1]:
            inner = inner.setdefault(key, {})
        inner[path[-1]] = value
    dt, t_end = obj.get("dt"), obj.get("t_end")
    if (command == "simulate"
            and all(type(v) in (int, float) for v in (dt, t_end))
            and dt > 0 and 1000 < t_end / dt < float("inf")):
        return None
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return name


def test_generated_hostile_sweep_ends_with_documented_codes(tmp_path, capsys):
    codes = readme_exit_codes()
    for i, case in enumerate(hostile_sweep(800)):
        name = swept_file(tmp_path, *case)
        if name is None:
            continue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main([case[0], name, "--output-dir",
                                 str(tmp_path / f"out{i}")])
            except Exception as exc:
                pytest.fail(f"{case} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in codes, (case, code, err)
        assert "Traceback" not in err, case
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)
                    and CFL_ADVISORY not in str(w.message)], case


def test_interrupt_prints_one_line_and_exits_130(tmp_path, capsys,
                                                 monkeypatch):
    def interrupted(cfg):
        raise KeyboardInterrupt

    monkeypatch.setattr(evolve, "run_simulation", interrupted)
    out = tmp_path / "out"
    try:
        code = cli.main(["simulate", write_config(tmp_path), "--output-dir",
                         str(out)])
    except KeyboardInterrupt:  # would otherwise stop the whole test run
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert code == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert not (out / "summary.json").exists()


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_admissible(tmp_path):
    cfg = write_config(tmp_path, grid={"nx": 6, "ny": 6, "nz": 7})
    out = tmp_path / "spectrum_out"
    assert cli.main(["spectrum", cfg, "--output-dir", str(out)]) == 0
    summary = read_summary(out)
    assert summary["ok"] is True
    assert summary["eta0"] > 0.0
    assert summary["explanation"] is None
    assert summary["b1_min"] == pytest.approx(np.exp(-2) / (1 - np.exp(-1)) ** 2)
    assert summary["min_symbol_eig"] == pytest.approx(4 * np.pi**2, rel=1e-12)
    lines = (out / "symbol_eigs.csv").read_text().splitlines()
    assert lines[0] == "k1,k2,lam1,lam2"
    assert len(lines) == 1 + (17 * 17 - 1)
    k1, k2, lam1, lam2 = lines[1].split(",")
    assert (int(k1), int(k2)) == (-8, -8)
    assert float(lam1) >= float(lam2) > 0.0


@pytest.mark.parametrize("mode", (["x"], {}))
def test_spectrum_unhashable_mode_exits_2(tmp_path, capsys, mode):
    cfg = write_config(tmp_path, mode=mode)
    assert cli.main(["spectrum", cfg]) == 2
    assert_config_error(capsys, "unknown mode", 3)


def block_eigenvalues(g, params, kx, ky):
    """zgeev's eigenvalues of the bordered block of A_CHS at the integer
    mode (kx, ky), or of the k = 0 velocity block."""
    S, R = vertical_reduction(g)
    S2, R2 = np.kron(S, np.eye(2)), np.kron(R, np.eye(2))
    kt = mode_wavevectors(g)[kx, ky]
    rho = column_density(params.model, params.xi_bar, g.z)
    B = S2 @ vertical_lame_block(kt, rho, g, params) @ R2
    if kx or ky:
        B = _bordered(B, kt, g.wz @ R, 0.0, -1.0, params.xi_bar)
    return np.linalg.eigvals(B)


@pytest.mark.parametrize("params,shell", (
    ({"mu": 1.0, "mu_prime": 0.5, "xi_bar": 1.0}, 1),
    ({"mu": 0.01, "mu_prime": -0.005, "xi_bar": 5.0}, 0),
), ids=("shell1", "k0"))
def test_spectrum_names_the_mode_that_holds_eta0(tmp_path, params, shell):
    cfg = write_config(tmp_path, grid={"nx": 16, "ny": 16, "nz": 9},
                       params=params)
    out = tmp_path / "spectrum_out"
    assert cli.main(["spectrum", cfg, "--output-dir", str(out)]) == 0
    summary = read_summary(out)
    g, p = make_grid(16, 16, 9), PhysicalParams(**params)
    # the named block holds the maximum, bit for bit
    kx, ky = summary["eta0_mode"]
    assert kx * kx + ky * ky == shell
    assert block_eigenvalues(g, p, kx, ky).real.max() == -summary["eta0"]
    # the gap to the largest max Re on any other |k|^2 shell, of the blocks
    # with kx, ky >= 0 (the others are their reflections)
    best, size = {}, 0.0
    for kx, ky in np.ndindex(g.nx // 2, g.ny // 2):
        ev = block_eigenvalues(g, p, kx, ky)
        q = kx * kx + ky * ky
        best[q] = max(best.get(q, -np.inf), ev.real.max())
        size = max(size, np.abs(ev).max())
    want = -summary["eta0"] - max(v for q, v in best.items() if q != shell)
    assert want > 0
    assert abs(summary["eta0_gap"] - want) <= 1e-12 * size


def test_spectrum_inadmissible_is_reported_not_rejected(tmp_path):
    # every other field, time keys included, is valid
    for mu, mu_prime in ((1.0, -1.5), (-1.0, 0.5)):
        cfg = write_config(
            tmp_path, params={"mu": mu, "mu_prime": mu_prime, "xi_bar": 0.8,
                              "M1": 0.4, "M2": 3.0},
            grid={"nx": 6, "ny": 6, "nz": 7}, output_every=2,
            perturbation_mode=[1, 1], tolerances={"fp_tol": 1e-10})
        out = tmp_path / f"spectrum_out_{mu}"
        assert cli.main(["spectrum", cfg, "--output-dir", str(out)]) == 0
        summary = read_summary(out)
        assert summary["ok"] is False
        assert summary["eta0"] is None
        assert summary["eta0_mode"] is None and summary["eta0_gap"] is None
        assert summary["min_symbol_eig"] < 0.0
        assert summary["xi_bar"] == 0.8
        assert "mu + mu_prime" in summary["explanation"]
        assert (out / "symbol_eigs.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectrum_breakdown_in_the_bound_writes_nothing(tmp_path, capsys):
    # the symbol is admissible, but the Lame blocks of the bound overflow
    cfg = write_config(tmp_path, params={**ADMISSIBLE, "xi_bar": 1e-320})
    out = tmp_path / "spectrum_out"
    assert cli.main(["spectrum", cfg, "--output-dir", str(out)]) == 9
    assert capsys.readouterr().err.splitlines() == [
        HOSTILE_ERRORS["xi_bar-1e-320", "spectrum"]]
    assert not (out / "symbol_eigs.csv").exists()
    assert not (out / "summary.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_bound_that_is_not_positive_exits_9_and_writes_nothing(
        tmp_path, capsys, monkeypatch):
    # lift the k = 0 block's max Re by 100: every other block stays below it
    lifted = []

    def lifting(M, where, original=stokes_solver._max_real_part):
        re, size = original(M, where)
        if where == "the k = 0 block":
            re = re + 100.0
            lifted.append(re)
        return re, size

    monkeypatch.setattr(stokes_solver, "_max_real_part", lifting)
    with pytest.raises(SolverBreakdown) as exc:
        stokes_solver.spectral_bound(make_grid(8, 8, 5),
                                     PhysicalParams(**ADMISSIBLE))
    message = (f"spectral bound is not positive (max Re = {lifted[0]}); the "
               "mean-free operator should be exponentially stable")
    assert lifted[0] > 0 and str(exc.value) == message
    cfg = write_config(tmp_path, params={**ADMISSIBLE, "xi_bar": 1.0})
    out = tmp_path / "spectrum_out"
    assert cli.main(["spectrum", cfg, "--output-dir", str(out)]) == 9
    assert capsys.readouterr().err.splitlines() == [message]
    assert lifted[1] == lifted[0]
    assert not (out / "summary.json").exists()


INADMISSIBLE = {"mu": -1.0, "mu_prime": 0.5}


@pytest.mark.parametrize("overrides,needle,line", [
    ({"params": {**INADMISSIBLE, "xi_bar": -1.0}},
     "invalid params: xi_bar must be positive, got -1.0", None),
    ({"params": {**INADMISSIBLE, "M1": "x"}},
     "'M1' must be a number, got 'x'", 12),
    ({"params": {**INADMISSIBLE, "pressure": {"law": "linear"}}},
     "'pressure' is only meaningful for the GeneralNoGravity mode", 12),
    ({"mode": "GlobalGamma1",
      "params": {"mu": 1.0, "mu_prime": 0.5, "xi_bar": 2.0}},
     "set xi_bar=1, got 2.0", None),
    ({"dt": True}, "'dt' must be a number, got True", 14),
    *NONFINITE_CASES,
    ({"seed": -1}, "'seed' must be non-negative, got -1", 18),
    ({"mode": GENERAL, "params": {**INADMISSIBLE, "pressure": {"law": "cubic"}}},
     "invalid pressure law: unknown pressure law 'cubic'", 13),
    *RUN_KEY_RULES,
], ids=("inadmissible-xi_bar", "inadmissible-M1", "inadmissible-pressure",
        "global-xi_bar", "dt") + NONFINITE_IDS + ("seed", "unknown-law")
    + RUN_KEY_IDS)
def test_spectrum_checks_fields_as_simulate_does(tmp_path, capsys, overrides,
                                                 needle, line):
    # only the viscosity pair's admissibility is reported rather than
    # rejected; every other field is checked by the parsers of simulate
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "spectrum_out"
    assert cli.main(["spectrum", cfg, "--output-dir", str(out)]) == 2
    assert_config_error(capsys, needle, line)
    assert not out.exists()


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------


def test_resolvent_manufactured_steady(tmp_path):
    prob = write_problem(tmp_path)
    out = tmp_path / "res"
    assert cli.main(["resolvent", prob, "--output-dir", str(out)]) == 0
    summary = read_summary(out)
    assert summary["residual"] <= 1e-8
    assert summary["truth_error"] <= 1e-8
    zeta = np.load(out / "zeta.npy")
    V = np.load(out / "V.npy")
    assert zeta.shape == (8, 8)
    assert V.shape == (8, 8, 7, 2)
    assert zeta.dtype == np.float64  # real data at a real shift stays real


def test_resolvent_imaginary_shift(tmp_path):
    prob = write_problem(tmp_path, lam=[0.0, 10.0])
    out = tmp_path / "res"
    assert cli.main(["resolvent", prob, "--output-dir", str(out)]) == 0
    summary = read_summary(out)
    assert summary["lam"] == [0.0, 10.0]
    assert summary["residual"] <= 1e-8
    assert np.load(out / "zeta.npy").dtype == np.complex128


def test_resolvent_random_at_zero_shift_is_incompatible(tmp_path, capsys):
    prob = write_problem(tmp_path, rhs="random", seed=3)
    assert cli.main(["resolvent", prob,
                     "--output-dir", str(tmp_path / "res")]) == 6
    assert "compatibility" in capsys.readouterr().err


def test_resolvent_random_at_positive_shift_succeeds(tmp_path):
    prob = write_problem(tmp_path, rhs="random", lam=1.0, seed=3)
    out = tmp_path / "res"
    assert cli.main(["resolvent", prob, "--output-dir", str(out)]) == 0
    assert read_summary(out)["residual"] <= 1e-8


def test_resolvent_zero_rhs(tmp_path):
    prob = write_problem(tmp_path, rhs="zero", lam=1.0)
    out = tmp_path / "res"
    assert cli.main(["resolvent", prob, "--output-dir", str(out)]) == 0
    summary = read_summary(out)
    assert summary["zeta_l2"] == 0.0
    assert summary["v_l2"] == 0.0


def test_simulate_sets_up_once(tmp_path, monkeypatch):
    # one parser per process, and one initial state per simulate: the
    # state the config check built is the one the run starts from
    assert cli.build_parser() is cli.build_parser()
    original, built = evolve.initial_state, []

    def initial_state(cfg, g):
        built.append(original(cfg, g))
        return built[-1]

    monkeypatch.setattr(evolve, "initial_state", initial_state)
    run = evolve.run_simulation
    starts = []
    monkeypatch.setattr(evolve, "run_simulation",
                        lambda cfg: starts.append(cfg.initial) or run(cfg))
    cfg_path = write_config(tmp_path)
    for out in ("a", "b"):
        assert cli.main(["simulate", cfg_path, "--output-dir",
                         str(tmp_path / out)]) == 0
    assert len(built) == 2
    assert all(a is b for a, b in zip(starts, built, strict=True))
    assert ((tmp_path / "a" / "diagnostics.csv").read_bytes()
            == (tmp_path / "b" / "diagnostics.csv").read_bytes())


def test_resolvent_applies_viscous_operator_once_per_field(tmp_path,
                                                           monkeypatch):
    apply = operators.apply_hydrostatic_lame
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return apply(*args, **kwargs)

    monkeypatch.setattr(operators, "apply_hydrostatic_lame", counting)
    prob = write_problem(tmp_path, lam=3.0)
    assert cli.main(["resolvent", prob,
                     "--output-dir", str(tmp_path / "res")]) == 0
    # the manufactured rhs and the residual check, whose value the summary
    # reports
    assert len(calls) == 2

    # one call on complex V matches the real and imaginary parts applied
    # separately
    g = make_grid(8, 8, 7)
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    for lam in (3.0, 0.5 + 40j):
        problem, zeta, V = stokes_solver.manufactured_resolvent_problem(
            lam, g, params)
        lam = complex(lam)
        AV = (apply(V.real, 1.0, g, params, bc="raw")
              + 1j * apply(V.imag, 1.0, g, params, bc="raw"))
        f2 = lam * V - AV + grad_h(zeta, g)[:, :, None, :]
        f2[:, :, -1, :] = 0.0
        f2[:, :, 0, :] = 0.0
        if lam.imag == 0.0:
            assert np.array_equal(problem.f2, f2.real)
        else:
            err = np.max(np.abs(problem.f2 - f2)) / np.max(np.abs(f2))
            assert err <= 1e-13


@pytest.mark.parametrize("overrides,needle,line", located([
    ({"lam": -1.0}, "Re lambda", 12),
    ({"lam": "big"}, "lam", 12),
    ({"rhs": "noise"}, "unknown rhs preset", 13),
    ({"extra": 1}, "extra", 14),
    ({"lam": float("nan")}, "'lam' must be finite", 12),
    ({"lam": float("inf")}, "'lam' must be finite", 12),
    ({"lam": [0.0, float("-inf")]}, "'lam' must be finite", 12),
    *NONFINITE_CASES,
    ({"rhs": "random", "seed": -1}, "'seed' must be non-negative, got -1",
     14),
    ({"params": {**ADMISSIBLE, "pressure": {"law": "linear"}}},
     "'pressure' is only meaningful for the GeneralNoGravity mode", 11),
]))
def test_resolvent_config_errors(tmp_path, capsys, overrides, needle, line):
    prob = write_problem(tmp_path, **overrides)
    assert cli.main(["resolvent", prob]) == 2
    assert_config_error(capsys, needle, line)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_battery_passes(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) == 11
    assert all(ln.startswith("[PASS]") for ln in lines)


def test_verify_mutation_makes_oracle_check_fail(capsys):
    assert cli.main(["verify", "--mutation", "flip_w_advection"]) == 7
    out = capsys.readouterr().out
    fails = [ln for ln in out.splitlines() if ln.startswith("[FAIL]")]
    assert len(fails) == 1
    assert "oracle" in fails[0]


def test_verify_argument_validation(capsys):
    for scale in ("0.5", "nan", "inf"):
        assert cli.main(["verify", "--tol-scale", scale]) == 2
        assert "tol-scale" in capsys.readouterr().err
    assert cli.main(["verify", "--mutation", "bogus"]) == 2
    assert "unknown mutation" in capsys.readouterr().err
