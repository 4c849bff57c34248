"""Command-line interface: configuration, subcommands, reproducible output.

Subcommands
-----------
``simulate``
    Run a time integration from a JSON run configuration; write the
    diagnostics CSV and a summary JSON.
``spectrum``
    Compute the symbol-ellipticity report and the spectral bound eta0 for
    the linear operator of a run configuration, with the mode that holds
    it; write a per-mode symbol CSV and a summary JSON.  Every field it
    reads is checked as ``simulate`` checks it (the time keys are
    optional), except that a finite but inadmissible viscosity pair is
    reported rather than rejected.
``resolvent``
    Solve one resolvent problem described by a JSON problem file; write
    the solution fields and a summary JSON.
``verify``
    Run a curated battery of the package's correctness properties and
    print a pass/fail table.

A configuration error exits with ``EXIT_CONFIG`` and a message naming the
field and, where it can be found in the file, its line.  The exit codes
are the ``EXIT_*`` constants below; README.md tabulates their meanings.

Determinism: identical configuration and seed produce bitwise-identical
diagnostics CSV files and summary JSONs; no timestamps or host details
are written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import diagnostics, evolve, operators, stokes_solver
from .grid import Grid, dealias, l2_norm, make_grid
from .transforms import (
    PhysicalParams,
    check_viscosities_finite,
    make_pressure_law,
)

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "CPELAB_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_POSITIVITY = 3
EXIT_NONINVERTIBLE = 4
EXIT_BLOWUP = 5
EXIT_COMPATIBILITY = 6
EXIT_VERIFY_FAILED = 7
EXIT_IMPLICIT_FAILED = 8
EXIT_BREAKDOWN = 9

STATUS_EXIT = {
    "completed": EXIT_OK,
    "positivity_lost": EXIT_POSITIVITY,
    "map_noninvertible": EXIT_NONINVERTIBLE,
    "blowup": EXIT_BLOWUP,
    "implicit_solve_failed": EXIT_IMPLICIT_FAILED,
}


class ConfigError(Exception):
    """A configuration file failed validation; the message names the field.

    ``key`` names the offending key when its line in the file belongs in
    the message; :func:`_config_file` appends that line.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


# ---------------------------------------------------------------------------
# JSON configuration parsing
# ---------------------------------------------------------------------------

_GRID_KEYS = {"nx", "ny", "nz"}
_PARAM_KEYS = {"mu", "mu_prime", "xi_bar", "M1", "M2", "pressure"}
_PRESSURE_KEYS = {"law", "c", "alpha"}
#: Tolerance keys of the schema; no run reads the last three.
_TOLERANCE_KEYS = {*evolve.TOLERANCES, "inv_tol", "lin_tol", "mean_tol"}
_RUN_KEYS = {
    "schema_version", "mode", "grid", "params", "dt", "t_end",
    "output_every", "preset", "amplitude", "perturbation_mode", "seed",
    "tolerances", "output_dir",
}
_RESOLVENT_KEYS = {
    "schema_version", "grid", "params", "lam", "rhs", "seed", "output_dir",
}


def _key_line(text: str, key: str) -> str:
    """Best-effort source location of a key in the raw JSON text."""
    idx = text.find(f'"{key}"')
    if idx < 0:
        return ""
    return f" (line {text.count(chr(10), 0, idx) + 1})"


@contextlib.contextmanager
def _config_file(path: str):
    """Load a JSON object; a keyed error in the block gets the key's line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path!r}: {exc.msg} (line {exc.lineno}, "
            f"column {exc.colno})") from exc
    except (RecursionError, ValueError) as exc:  # too deep, or too long an int
        raise ConfigError(f"invalid JSON in {path!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config root in {path!r} must be a JSON object")
    try:
        yield obj
    except ConfigError as exc:
        if exc.key is None:
            raise
        raise ConfigError(f"{exc}{_key_line(text, exc.key)}") from exc


def _require(obj: dict, key: str):
    if key not in obj:
        raise ConfigError(f"missing required key '{key}'")
    return obj[key]


def _check_unknown(obj: dict, allowed: set, where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}", key)


def _as_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{key}' must be a number, got {value!r}", key)
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"'{key}' must be finite, got an integer past the "
                          "float range", key) from exc


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}", key)
    return value


def _as_seed(value) -> int:
    seed = _as_int(value, "seed")
    if seed < 0:
        raise ConfigError(f"'seed' must be non-negative, got {seed}", "seed")
    return seed


def _check_schema_version(obj: dict) -> None:
    version = _require(obj, "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version!r}; this build reads "
            f"version {SCHEMA_VERSION}", "schema_version")


def _parse_grid(obj: dict) -> Grid:
    grid = _require(obj, "grid")
    if not isinstance(grid, dict):
        raise ConfigError("'grid' must be an object", "grid")
    _check_unknown(grid, _GRID_KEYS, "'grid'")
    nx, ny, nz = (_as_int(_require(grid, k), k) for k in ("nx", "ny", "nz"))
    try:
        return make_grid(nx, ny, nz)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _parse_output_dir(obj: dict) -> str | None:
    output_dir = obj.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("'output_dir' must be a string", "output_dir")
    return output_dir


def _parse_params(obj: dict, model: str) -> PhysicalParams:
    raw = _require(obj, "params")
    if not isinstance(raw, dict):
        raise ConfigError("'params' must be an object", "params")
    _check_unknown(raw, _PARAM_KEYS, "'params'")
    kwargs = {"model": model}
    for key in ("mu", "mu_prime"):
        kwargs[key] = _as_number(_require(raw, key), key)
    for key in ("xi_bar", "M1", "M2"):
        if key in raw:
            kwargs[key] = _as_number(raw[key], key)
    if "pressure" in raw:
        if model != "GeneralNoGravity":
            raise ConfigError(
                "'pressure' is only meaningful for the GeneralNoGravity "
                "mode", "pressure")
        pres = raw["pressure"]
        if not isinstance(pres, dict):
            raise ConfigError("'pressure' must be an object", "pressure")
        _check_unknown(pres, _PRESSURE_KEYS, "'pressure'")
        law = _require(pres, "law")
        law_kwargs = {k: _as_number(pres[k], k)
                      for k in ("c", "alpha") if k in pres}
        try:
            kwargs.update(make_pressure_law(law, **law_kwargs))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid pressure law: {exc}", "law") from exc
    elif model == "GeneralNoGravity":
        kwargs.update(make_pressure_law("linear", c=1.0))
    try:
        return PhysicalParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid params: {exc}") from exc


def _parse_mode_grid_params(obj: dict) -> tuple[str, Grid, PhysicalParams]:
    """Schema version, mode, grid and params of a run config."""
    _check_schema_version(obj)
    mode = _run_value("mode", _require(obj, "mode"))
    g = _parse_grid(obj)
    params = _parse_params(obj, evolve.MODE_MODEL[mode])
    try:
        evolve._check_mode_params(mode, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return mode, g, params


def _run_value(key: str, value):
    """``value`` of the run key ``key``, checked by its own rule."""
    try:
        evolve.check_run_value(key, value)
    except ValueError as exc:
        raise ConfigError(str(exc), key) from exc
    return value


def _parse_run_keys(obj: dict) -> dict:
    """:class:`evolve.RunConfig` keyword arguments of the run keys present."""
    kwargs = {}
    for key, parse in (("dt", _as_number), ("t_end", _as_number),
                       ("amplitude", _as_number), ("output_every", _as_int)):
        if key in obj:
            kwargs[key] = _run_value(key, parse(obj[key], key))
    if "seed" in obj:
        kwargs["seed"] = _as_seed(obj["seed"])
    if "preset" in obj:
        kwargs["preset"] = _run_value("preset", obj["preset"])
    if "perturbation_mode" in obj:
        pm = obj["perturbation_mode"]
        if (not isinstance(pm, list) or len(pm) != 2
                or any(type(k) is not int for k in pm)):
            raise ConfigError("'perturbation_mode' must be a pair of integers",
                              "perturbation_mode")
        kwargs["perturbation_mode"] = tuple(pm)
    if "tolerances" in obj:
        tol = obj["tolerances"]
        if not isinstance(tol, dict):
            raise ConfigError("'tolerances' must be an object", "tolerances")
        _check_unknown(tol, _TOLERANCE_KEYS, "'tolerances'")
        for key, value in tol.items():
            value = _run_value(key, _as_number(value, key))
            if key in evolve.TOLERANCES:
                kwargs[key] = value
    kwargs["output_dir"] = _parse_output_dir(obj)
    return kwargs


def parse_run_config(path: str) -> evolve.RunConfig:
    """Parse and validate a simulate configuration file.

    Every violation raises :class:`ConfigError` naming the offending field
    and, when it can be located in the raw text, its line number.
    """
    with _config_file(path) as obj:
        _check_unknown(obj, _RUN_KEYS, "run config")
        mode, g, params = _parse_mode_grid_params(obj)
        for key in ("dt", "t_end"):
            _require(obj, key)
        kwargs = _parse_run_keys(obj)
        try:
            cfg = evolve.RunConfig(mode=mode, nx=g.nx, ny=g.ny, nz=g.nz,
                                   params=params, **kwargs)
            vars(cfg)["grid"] = g  # the cached grid: no second make_grid
            # the preset's initial density must be positive, and in the
            # local modes lie in [M1, M2]; the run starts from this state
            cfg.initial
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return cfg


def parse_resolvent_problem(path: str):
    """Parse a resolvent problem file.

    Returns ``(lam, rhs_kind, seed, grid, params, output_dir)`` where
    ``rhs_kind`` is one of ``manufactured``, ``random``, ``zero``.
    """
    with _config_file(path) as obj:
        _check_unknown(obj, _RESOLVENT_KEYS, "resolvent problem")
        _check_schema_version(obj)
        g = _parse_grid(obj)
        params = _parse_params(obj, "Gamma1")
        raw_lam = _require(obj, "lam")
        if isinstance(raw_lam, list) and len(raw_lam) == 2:
            lam = complex(*(_as_number(v, "lam") for v in raw_lam))
        else:
            lam = complex(_as_number(raw_lam, "lam"))
        try:
            stokes_solver.check_spectral_parameter(lam)
        except ValueError as exc:
            raise ConfigError(str(exc), "lam") from exc
        rhs = obj.get("rhs", "manufactured")
        if rhs not in ("manufactured", "random", "zero"):
            raise ConfigError(
                f"unknown rhs preset {rhs!r}; expected manufactured, random "
                "or zero", "rhs")
        seed = _as_seed(obj.get("seed", 0))
        return lam, rhs, seed, g, params, _parse_output_dir(obj)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _resolve_output_dir(flag_value, config_value) -> str:
    """The first of the flag, the environment and the config key that is
    set, created if missing; one that cannot be created is a config error
    naming its source."""
    for source, out in (("--output-dir", flag_value),
                        (OUTPUT_DIR_ENV, os.environ.get(OUTPUT_DIR_ENV)),
                        ("the 'output_dir' key", config_value),
                        ("the default", ".")):
        if out:
            break
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory {out!r} "
                          f"given by {source}: {exc.strerror}") from exc
    return out


@contextlib.contextmanager
def _writing(path: str):
    """Around a write of the output file ``path``: an ``OSError`` (a
    directory of that name, say) is a config error that names the file."""
    try:
        yield path
    except OSError as exc:
        raise ConfigError(f"cannot write the output file {path!r}: "
                          f"{exc.strerror or exc}") from exc


def _write_summary(out_dir: str, subcommand: str, payload: dict) -> str:
    """Write ``summary.json``; ``payload`` gains the schema header."""
    payload.update(schema_version=SCHEMA_VERSION, subcommand=subcommand)
    path = os.path.join(out_dir, "summary.json")
    with _writing(path), open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    cfg = parse_run_config(args.config)
    out_dir = _resolve_output_dir(args.output_dir, cfg.output_dir)
    result = evolve.run_simulation(cfg)
    csv_path = os.path.join(out_dir, "diagnostics.csv")
    with _writing(csv_path):
        diagnostics.write_diagnostics_csv(result.rows, csv_path)

    rows = np.asarray(result.rows)
    final = dict(zip(diagnostics.COLUMNS, (float(v) for v in rows[-1])))
    decay = None
    if result.status == "completed" and cfg.preset != "steady":
        with contextlib.suppress(ValueError):
            fit = diagnostics.fit_decay_rate(
                rows[:, 0], rows[:, diagnostics.COLUMNS.index("v_l2")])
            decay = {"eta": fit.eta, "r_squared": fit.r_squared,
                     "n_tail": fit.n_tail, "t_start": fit.t_start}
    fp = result.fp_iterations
    fp_stats = ({"min": min(fp), "mean": sum(fp) / len(fp), "max": max(fp)}
                if fp else None)
    payload = {
        "mode": cfg.mode,
        "grid": [cfg.nx, cfg.ny, cfg.nz],
        "preset": cfg.preset,
        "seed": cfg.seed,
        "dt": cfg.dt,
        "status": result.status,
        "exit_code": STATUS_EXIT[result.status],
        "message": result.message,
        "t_final": result.t_final,
        "n_steps": result.n_steps,
        "rows_written": int(rows.shape[0]),
        "final": final,
        "decay_fit": decay,
        "fp_iterations": fp_stats,
        "diagnostics_csv": os.path.basename(csv_path),
    }
    _write_summary(out_dir, "simulate", payload)
    print(f"status={result.status} t_final={result.t_final:.6g} "
          f"steps={result.n_steps} -> {csv_path}")
    if result.message:
        print(result.message)
    return STATUS_EXIT[result.status]


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    with _config_file(args.config) as obj:
        _check_unknown(obj, _RUN_KEYS, "run config")
        # A finite but inadmissible viscosity pair is reported (ok = false
        # with an explanation), not rejected: the shared parse checks every
        # other field against an admissible stand-in pair.
        raw = obj.get("params")
        stand_in = ({**obj, "params": {**raw, "mu": 1.0, "mu_prime": 0.0}}
                    if isinstance(raw, dict) else obj)
        _, g, params = _parse_mode_grid_params(stand_in)
        mu, mu_prime = (_as_number(_require(raw, k), k)
                        for k in ("mu", "mu_prime"))
        try:
            check_viscosities_finite(mu, mu_prime)
        except ValueError as exc:
            raise ConfigError(f"invalid params: {exc}") from exc
        run = _parse_run_keys(obj)
    out_dir = _resolve_output_dir(args.output_dir, run["output_dir"])
    report = operators.symbol_ellipticity_report(mu, mu_prime)

    # eta0 first: a breakdown there (exit 9) leaves no output behind
    min_symbol_eig = min(report.min_lam1, report.min_lam2)
    eta0 = eta0_mode = eta0_gap = explanation = None
    if report.ok:
        eta0, eta0_mode, eta0_gap = stokes_solver._located_bound(
            g, dataclasses.replace(params, mu=mu, mu_prime=mu_prime),
            params.xi_bar)
    else:
        explanation = (
            f"symbol not parameter-elliptic: min eigenvalue "
            f"{min_symbol_eig:.6g} <= 0 at k_H = {report.argmin_k} "
            f"(requires mu > 0 and mu + mu_prime > 0)")

    csv_path = os.path.join(out_dir, "symbol_eigs.csv")
    with (_writing(csv_path),
          open(csv_path, "w", encoding="utf-8", newline="") as fh):
        np.savetxt(fh, np.column_stack([report.k, report.lam1, report.lam2]),
                   fmt=("%d", "%d", "%.17g", "%.17g"), delimiter=",",
                   header="k1,k2,lam1,lam2", comments="")
    payload = {
        "grid": [g.nx, g.ny, g.nz],
        "mu": mu,
        "mu_prime": mu_prime,
        "xi_bar": params.xi_bar,
        "ok": report.ok,
        "eta0": eta0,
        "eta0_mode": eta0_mode,
        "eta0_gap": eta0_gap,
        "min_symbol_eig": min_symbol_eig,
        "b1_min": operators.B1_MIN,
        "explanation": explanation,
        "symbol_csv": os.path.basename(csv_path),
    }
    path = _write_summary(out_dir, "spectrum", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"-> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------

def _cmd_resolvent(args) -> int:
    lam, rhs_kind, seed, g, params, cfg_out = parse_resolvent_problem(
        args.problem)
    out_dir = _resolve_output_dir(args.output_dir, cfg_out)

    truth_error = None
    if rhs_kind == "manufactured":
        problem, zeta_true, V_true = stokes_solver.manufactured_resolvent_problem(
            lam, g, params)
    else:
        if rhs_kind == "random":
            rng = np.random.default_rng(seed)
            f1 = dealias(rng.standard_normal((g.nx, g.ny)), g)
            f2 = dealias(rng.standard_normal((g.nx, g.ny, g.nz, 2)), g)
            f2[:, :, [0, -1], :] = 0.0
        else:
            f1 = np.zeros((g.nx, g.ny))
            f2 = np.zeros((g.nx, g.ny, g.nz, 2))
        problem = stokes_solver.ResolventProblem(lam, f1, f2, params.xi_bar)

    zeta, V, residual = stokes_solver._solve_checked(problem, g, params)
    if rhs_kind == "manufactured":
        scale = max(stokes_solver._state_norm(zeta_true, V_true, g), 1e-300)
        truth_error = float(stokes_solver._state_norm(
            zeta - zeta_true, V - V_true, g) / scale)

    for name, field in (("zeta.npy", zeta), ("V.npy", V)):
        with _writing(os.path.join(out_dir, name)) as path:
            np.save(path, field)
    payload = {
        "grid": [g.nx, g.ny, g.nz],
        "lam": [lam.real, lam.imag],
        "rhs": rhs_kind,
        "seed": seed,
        "xi_bar": params.xi_bar,
        "residual": residual,
        "truth_error": truth_error,
        "zeta_l2": l2_norm(zeta, g),
        "v_l2": l2_norm(V, g),
        "fields": ["zeta.npy", "V.npy"],
    }
    path = _write_summary(out_dir, "resolvent", payload)
    print(f"residual={residual:.3e} zeta_l2={payload['zeta_l2']:.6g} "
          f"v_l2={payload['v_l2']:.6g} -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    if args.tol_scale < 1.0:
        raise ConfigError("--tol-scale must be >= 1 (tolerances only relax)")
    if args.mutation is not None and args.mutation not in evolve.F2_MUTATIONS:
        raise ConfigError(f"unknown mutation {args.mutation!r}; expected "
                          f"one of {sorted(evolve.F2_MUTATIONS)}")
    from . import verify  # imports sympy, which only this command needs
    ok = verify.run(args.tol_scale, args.mutation)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``cpelab`` parser, built once (parsing leaves no state in it)."""
    parser = argparse.ArgumentParser(
        prog="cpelab",
        description=("Simulator and operator laboratory for the compressible "
                     "primitive equations on the periodic cylinder."))
    sub = parser.add_subparsers(dest="subcommand", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output-dir", default=None,
                        help=f"output directory (overrides {OUTPUT_DIR_ENV} "
                             "and the config)")

    p_sim = sub.add_parser("simulate", parents=[output],
                           help="run a time integration")
    p_sim.add_argument("config", help="JSON run configuration")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_spec = sub.add_parser("spectrum", parents=[output],
                            help="symbol ellipticity report and spectral bound")
    p_spec.add_argument("config", help="JSON run configuration "
                                       "(time-stepping keys optional)")
    p_spec.set_defaults(fn=_cmd_spectrum)

    p_res = sub.add_parser("resolvent", parents=[output],
                           help="solve one resolvent problem")
    p_res.add_argument("problem", help="JSON problem file")
    p_res.set_defaults(fn=_cmd_resolvent)

    p_ver = sub.add_parser("verify",
                           help="run the curated correctness battery")
    p_ver.add_argument("--mutation", default=None,
                       help="inject a named defect into the explicit "
                            "nonlinearity before running the oracle check "
                            "(the check must then fail)")
    p_ver.add_argument("--tol-scale", type=float, default=1.0,
                       help="relax all check tolerances by this factor (>= 1)")
    p_ver.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except stokes_solver.CompatibilityError as exc:
        print(exc, file=sys.stderr)
        return EXIT_COMPATIBILITY
    except operators.SolverBreakdown as exc:
        print(exc, file=sys.stderr)
        return EXIT_BREAKDOWN
    except KeyboardInterrupt:
        # 128 + SIGINT, the status a shell reports for an interrupted Python
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
