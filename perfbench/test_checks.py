"""Self-tests of the benchmark's output checks.

Each test makes a small real output with ``cpelab.cli.main``, shows that
the check accepts it, then corrupts it and shows that the check rejects
it.  Run from the repository root with ``python3 -m pytest perfbench``.
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from cpelab import cli  # noqa: E402
from cpelab.grid import make_grid  # noqa: E402
from cpelab.stokes_solver import spectral_bound  # noqa: E402
from cpelab.transforms import PhysicalParams  # noqa: E402


def run_cli(tmp_path, sub, cfg):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "out")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([sub, str(path), "--output-dir", out])
    return out, rc


def rewrite_rows(out, edit):
    rows = checks.read_diagnostics(out)
    edit(rows)
    with open(os.path.join(out, "diagnostics.csv"), "w") as fh:
        fh.write(",".join(checks.COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join(f"{v:.17g}" for v in r) + "\n")


def rewrite_summary(out, **changes):
    summary = checks.read_summary(out)
    summary.update(changes)
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh)


def simulate_cfg(mode, grid, dt, t_end, preset, amplitude, **extra):
    cfg = {"schema_version": 1, "mode": mode,
           "grid": dict(zip(("nx", "ny", "nz"), grid)),
           "params": {"mu": 1.0, "mu_prime": 1.0}, "dt": dt, "t_end": t_end,
           "output_every": 2, "preset": preset, "amplitude": amplitude}
    cfg.update(extra)
    return cfg


# -- decay run ---------------------------------------------------------------

@pytest.fixture
def decay_run(tmp_path):
    cfg = simulate_cfg("GlobalGamma1", (8, 8, 5), 0.05, 6.0,
                       "fourier_perturbation", 1e-3)
    out, rc = run_cli(tmp_path, "simulate", cfg)
    eta0 = spectral_bound(make_grid(8, 8, 5),
                          PhysicalParams(mu=1.0, mu_prime=1.0, model="Gamma1"))
    return out, rc, 61, eta0


def test_decay_check_accepts_a_real_run(decay_run):
    out, rc, n_rows, eta0 = decay_run
    assert checks.check_decay_run(out, rc, n_rows, eta0, 1.0) == []


def test_decay_check_rejects_a_wrong_eta0(decay_run):
    out, rc, n_rows, eta0 = decay_run
    assert checks.check_decay_run(out, rc, n_rows, 3.0 * eta0, 1.0)


def test_decay_check_rejects_lost_mass(decay_run):
    out, rc, n_rows, eta0 = decay_run
    rewrite_rows(out, lambda r: r.__setitem__((-1, 1), r[-1, 1] * (1 + 1e-5)))
    assert checks.check_decay_run(out, rc, n_rows, eta0, 1.0)


def test_decay_check_rejects_a_missing_row(decay_run):
    out, rc, n_rows, eta0 = decay_run
    assert checks.check_decay_run(out, rc, n_rows + 1, eta0, 1.0)


# -- large-data run ------------------------------------------------------------

@pytest.fixture
def large_run(tmp_path):
    cfg = simulate_cfg("LocalGamma1", (8, 8, 5), 0.01, 0.1, "random_smooth",
                       0.2, seed=3)
    out, rc = run_cli(tmp_path, "simulate", cfg)
    return out, rc


def large_check(out, rc):
    return checks.check_large_data_run(out, rc, 6, 0.5, 2.0, 0.1)


def test_large_data_check_accepts_a_real_run(large_run):
    assert large_check(*large_run) == []


@pytest.mark.parametrize("column, value", [
    ("min_det", 0.05),                # below det_floor
    ("max_xi", 4.5),                  # above 2 * M2
    ("dissipation_integral", -1.0),   # the integral decreased
    ("mass", 0.0),                    # mass lost
])
def test_large_data_check_rejects_a_corrupted_row(large_run, column, value):
    out, rc = large_run
    j = checks.COLUMNS.index(column)
    rewrite_rows(out, lambda r: r.__setitem__((3, j), value))
    assert large_check(out, rc)


def test_large_data_check_rejects_a_status_mismatch(large_run):
    out, rc = large_run
    rewrite_summary(out, exit_code=4)
    assert large_check(out, rc)


# -- guard run -----------------------------------------------------------------

@pytest.fixture
def guard_run(tmp_path):
    cfg = simulate_cfg("GlobalGamma1", (12, 12, 7), 0.02, 2.0,
                       "fourier_perturbation", 0.9,
                       params={"mu": 0.02, "mu_prime": 0.02})
    out, rc = run_cli(tmp_path, "simulate", cfg)
    return out, rc


def test_guard_check_accepts_a_terminal_run(guard_run):
    out, rc = guard_run
    assert rc == 3 and checks.check_guard_run(out, rc) == []


def test_guard_check_rejects_a_wrong_status(guard_run):
    out, rc = guard_run
    rewrite_summary(out, status="map_noninvertible")
    assert checks.check_guard_run(out, rc)


def test_guard_check_rejects_non_finite_rows(guard_run):
    out, rc = guard_run
    rewrite_rows(out, lambda r: r.__setitem__((0, 2), np.nan))
    assert checks.check_guard_run(out, rc)


def test_guard_check_rejects_an_undocumented_exit_code(guard_run):
    out, _ = guard_run
    assert checks.check_guard_run(out, 1)


# -- spectrum ------------------------------------------------------------------

MU, MU_PRIME = 0.8, 0.6


@pytest.fixture
def spectrum_run(tmp_path):
    cfg = {"schema_version": 1, "mode": "GlobalGamma1",
           "grid": {"nx": 8, "ny": 8, "nz": 9},
           "params": {"mu": MU, "mu_prime": MU_PRIME}}
    out, rc = run_cli(tmp_path, "spectrum", cfg)
    coarse = spectral_bound(make_grid(6, 6, 7),
                            PhysicalParams(mu=MU, mu_prime=MU_PRIME,
                                           model="Gamma1"))
    return out, rc, coarse


def test_spectrum_check_accepts_a_real_run(spectrum_run):
    assert checks.check_spectrum(*spectrum_run[:2], MU, MU_PRIME,
                                 spectrum_run[2]) == []


def test_spectrum_check_rejects_a_wrong_eta0(spectrum_run):
    out, rc, coarse = spectrum_run
    rewrite_summary(out, eta0=1.2 * checks.read_summary(out)["eta0"])
    assert checks.check_spectrum(out, rc, MU, MU_PRIME, coarse)


def test_spectrum_check_rejects_a_wrong_symbol(spectrum_run):
    out, rc, coarse = spectrum_run
    path = os.path.join(out, "symbol_eigs.csv")
    lines = open(path).read().splitlines()
    k1, k2, lam1, lam2 = lines[5].split(",")
    lines[5] = ",".join((k1, k2, repr(float(lam1) * (1 + 1e-9)), lam2))
    open(path, "w").write("\n".join(lines) + "\n")
    assert checks.check_spectrum(out, rc, MU, MU_PRIME, coarse)


def test_spectrum_check_rejects_a_missing_wavevector(spectrum_run):
    out, rc, coarse = spectrum_run
    path = os.path.join(out, "symbol_eigs.csv")
    lines = open(path).read().splitlines()
    open(path, "w").write("\n".join(lines[:-1]) + "\n")
    assert checks.check_spectrum(out, rc, MU, MU_PRIME, coarse)


# -- resolvent -----------------------------------------------------------------

@pytest.fixture(params=[0.0, 3.0, 25j], ids=["zero", "real", "imag"])
def resolvent_run(tmp_path, request):
    lam = complex(request.param)
    cfg = {"schema_version": 1, "grid": {"nx": 8, "ny": 8, "nz": 9},
           "params": {"mu": MU, "mu_prime": MU_PRIME},
           "lam": [lam.real, lam.imag], "rhs": "manufactured"}
    out, rc = run_cli(tmp_path, "resolvent", cfg)
    return out, rc, lam


def test_resolvent_check_accepts_a_real_solve(resolvent_run):
    assert checks.check_resolvent(*resolvent_run, (8, 8, 9)) == []


def test_resolvent_check_rejects_a_perturbed_V(resolvent_run):
    out, rc, lam = resolvent_run
    path = os.path.join(out, "V.npy")
    V = np.load(path)
    V[2, 3, 4, 1] += 1e-6
    np.save(path, V)
    assert checks.check_resolvent(out, rc, lam, (8, 8, 9))


def test_resolvent_check_rejects_a_wrong_zeta(resolvent_run):
    out, rc, lam = resolvent_run
    path = os.path.join(out, "zeta.npy")
    np.save(path, np.roll(np.load(path), 1, axis=0))
    assert checks.check_resolvent(out, rc, lam, (8, 8, 9))
