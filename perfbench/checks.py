"""Correctness checks on the files that ``cpelab`` writes.

Every check takes an output directory (and what the benchmark knows about
the inputs) and returns a list of problems; an empty list means the output
passed.  The checks read the files with the standard library and numpy and
compare them against independent computations or properties the method
must have -- closed-form symbols, a manufactured solution written here, a
decay rate fitted here -- never against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

COLUMNS = ("t", "mass", "energy", "dissipation_integral", "zeta_m_h1",
           "v_l2", "min_xi", "max_xi", "min_det")

# The documented exit code of each terminal status of ``cpelab simulate``.
STATUS_EXIT = {"completed": 0, "positivity_lost": 3,
               "map_noninvertible": 4, "blowup": 5}

# Relative mass drift allowed over a run.  The decay runs are linear and
# mass is conserved to round-off there (the acceptance suite asks 1e-6);
# the large-data runs drift at first order in dt (about 3e-6 at dt = 0.01).
MASS_TOL_LINEAR = 1e-6
MASS_TOL_LARGE = 1e-4
# Symbol eigenvalues are one product each, so only round-off may differ.
SYMBOL_RTOL = 1e-12
# The manufactured resolvent solution is exactly representable on the grid
# (two Fourier modes times a quadratic in z), so the solve must reproduce
# it to solver accuracy (the acceptance suite's residual tolerance).
RESOLVENT_RTOL = 1e-8
# eta0 converges spectrally; 8x8x9 is within 0.1 % of 32x32x17.
ETA0_COARSE_RTOL = 0.05


def read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_diagnostics(out_dir: str) -> np.ndarray:
    """Rows of ``diagnostics.csv`` as a float array, header checked."""
    with open(os.path.join(out_dir, "diagnostics.csv"), newline="",
              encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != COLUMNS:
            raise ValueError(f"diagnostics header {header} != {COLUMNS}")
        rows = [[float(v) for v in row] for row in reader]
    if not rows or any(len(r) != len(COLUMNS) for r in rows):
        raise ValueError("diagnostics.csv has no rows or ragged rows")
    return np.array(rows)


def col(rows: np.ndarray, name: str) -> np.ndarray:
    return rows[:, COLUMNS.index(name)]


def fitted_decay_rate(t: np.ndarray, v: np.ndarray,
                      skip_fraction: float = 0.2) -> float:
    """Least-squares rate of exp(-eta t) on the tail of a positive series."""
    keep = t >= t[0] + skip_fraction * (t[-1] - t[0])
    slope = np.polyfit(t[keep], np.log(v[keep]), 1)[0]
    return float(-slope)


def _load(out_dir: str, rc) -> tuple[list, dict | None, np.ndarray | None]:
    """Summary and rows of a simulate run, or the problems reading them."""
    try:
        summary = read_summary(out_dir)
        rows = read_diagnostics(out_dir)
    except (OSError, ValueError, StopIteration) as exc:
        return [f"unreadable output: {exc}"], None, None
    problems = []
    if summary.get("exit_code") != rc:
        problems.append(f"summary exit_code {summary.get('exit_code')} "
                        f"!= return code {rc}")
    if not np.all(np.isfinite(rows)):
        problems.append("non-finite diagnostics rows")
    return problems, summary, rows


def check_completed_run(out_dir: str, rc, n_rows: int) -> tuple[
        list, np.ndarray | None]:
    problems, summary, rows = _load(out_dir, rc)
    if summary is None:
        return problems, None
    if rc != 0 or summary.get("status") != "completed":
        problems.append(f"run did not complete: rc {rc}, status "
                        f"{summary.get('status')}: {summary.get('message')}")
    if rows.shape[0] != n_rows:
        problems.append(f"{rows.shape[0]} diagnostics rows, expected {n_rows}")
    return problems, rows


def mass_drift(rows: np.ndarray) -> float:
    m = col(rows, "mass")
    return float(np.max(np.abs(m - m[0])) / abs(m[0]))


def check_decay_run(out_dir: str, rc, n_rows: int, eta0: float,
                    xi_bar: float) -> list:
    """Small-data run: decay at the spectral rate, mass kept, xi positive."""
    problems, rows = check_completed_run(out_dir, rc, n_rows)
    if rows is None or problems:
        return problems
    eta = fitted_decay_rate(col(rows, "t"), col(rows, "v_l2"))
    if not 0.5 * eta0 <= eta <= 1.5 * eta0:
        problems.append(f"fitted decay rate {eta:.6g} outside "
                        f"[0.5, 1.5] * eta0 = {eta0:.6g}")
    drift = mass_drift(rows)
    if not drift <= MASS_TOL_LINEAR:
        problems.append(f"mass drift {drift:.3e} > {MASS_TOL_LINEAR:g}")
    if not np.min(col(rows, "min_xi")) >= 0.5 * xi_bar:
        problems.append("surface density fell below xi_bar / 2")
    return problems


def check_large_data_run(out_dir: str, rc, n_rows: int, M1: float, M2: float,
                         det_floor: float) -> list:
    """Large-data run: mass, density window, Jacobian floor, dissipation."""
    problems, rows = check_completed_run(out_dir, rc, n_rows)
    if rows is None or problems:
        return problems
    drift = mass_drift(rows)
    if not drift <= MASS_TOL_LARGE:
        problems.append(f"mass drift {drift:.3e} > {MASS_TOL_LARGE:g}")
    lo, hi = float(np.min(col(rows, "min_xi"))), float(np.max(col(rows, "max_xi")))
    if not (0.5 * M1 <= lo and hi <= 2.0 * M2):
        problems.append(f"density [{lo:.6g}, {hi:.6g}] left the window "
                        f"[{0.5 * M1}, {2.0 * M2}]")
    min_det = float(np.min(col(rows, "min_det")))
    if not min_det > det_floor:
        problems.append(f"min det {min_det:.6g} <= det_floor {det_floor}")
    if not np.all(np.diff(col(rows, "dissipation_integral")) >= 0.0):
        problems.append("dissipation integral decreased")
    return problems


def check_guard_run(out_dir: str, rc) -> list:
    """Any documented ending: exit code, matching status, finite rows."""
    if rc not in STATUS_EXIT.values():
        return [f"undocumented exit code {rc}"]
    problems, summary, rows = _load(out_dir, rc)
    if summary is None:
        return problems
    status = summary.get("status")
    if STATUS_EXIT.get(status) != rc:
        problems.append(f"status {status!r} does not match exit code {rc}")
    return problems


def symbol_rows_expected(mu: float, mu_prime: float, kmax: int = 8) -> dict:
    """Closed-form symbol eigenvalues (mu+mu')|k|^2 and mu|k|^2, k = 2 pi k_H."""
    out = {}
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            if (k1, k2) != (0, 0):
                k2abs = (2.0 * math.pi) ** 2 * (k1 * k1 + k2 * k2)
                out[(k1, k2)] = ((mu + mu_prime) * k2abs, mu * k2abs)
    return out


def check_spectrum(out_dir: str, rc, mu: float, mu_prime: float,
                   eta0_coarse: float) -> list:
    """Symbol CSV against closed forms; eta0 positive and grid-stable."""
    if rc != 0:
        return [f"spectrum exited {rc}"]
    problems = []
    expected = symbol_rows_expected(mu, mu_prime)
    seen = set()
    try:
        with open(os.path.join(out_dir, "symbol_eigs.csv"), newline="",
                  encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader) != ["k1", "k2", "lam1", "lam2"]:
                problems.append("symbol_eigs.csv has a wrong header")
            for k1, k2, lam1, lam2 in reader:
                key = (int(k1), int(k2))
                seen.add(key)
                want = expected.get(key)
                if want is None:
                    problems.append(f"unexpected wavevector {key}")
                    continue
                for got, ref in zip((float(lam1), float(lam2)), want):
                    if not abs(got - ref) <= SYMBOL_RTOL * abs(ref):
                        problems.append(f"symbol at {key}: {got!r} != {ref!r}")
        summary = read_summary(out_dir)
    except (OSError, ValueError, StopIteration) as exc:
        return [f"unreadable spectrum output: {exc}"]
    if seen != set(expected):
        problems.append(f"{len(seen)} wavevectors, expected {len(expected)}")
    eta0 = summary.get("eta0")
    if not (summary.get("ok") is True and isinstance(eta0, float) and eta0 > 0):
        problems.append(f"eta0 {eta0!r} is not a positive number")
    elif not abs(eta0 / eta0_coarse - 1.0) <= ETA0_COARSE_RTOL:
        problems.append(f"eta0 {eta0:.6g} differs from its coarse-grid value "
                        f"{eta0_coarse:.6g} by more than {ETA0_COARSE_RTOL:.0%}")
    return problems


def chebyshev_z(nz: int) -> np.ndarray:
    """Vertical collocation nodes z_j = (1 - cos(j pi / (nz - 1))) / 2."""
    return (1.0 - np.cos(np.pi * np.arange(nz) / (nz - 1))) / 2.0


def manufactured_solution(lam: complex, nx: int, ny: int, nz: int):
    """Trigonometric x (1 - z^2) fields the resolvent problem is built from.

    Complex lambda scales the fields by fixed complex factors, so the
    solution of a complex problem is genuinely complex.
    """
    x = (np.arange(nx) / nx)[:, None]
    y = (np.arange(ny) / ny)[None, :]
    tau = 2.0 * np.pi
    zeta = (0.3 * np.cos(tau * x) * np.sin(2 * tau * y)
            + 0.2 * np.sin(tau * y))
    phi = (1.0 - chebyshev_z(nz) ** 2)[None, None, :]
    psi1 = np.sin(tau * x) * np.cos(tau * y) + 0.5 * np.cos(2 * tau * y)
    psi2 = np.cos(tau * x) * np.sin(2 * tau * y) - 0.3 * np.sin(tau * x)
    V = np.stack([psi1[:, :, None] * phi, psi2[:, :, None] * phi], axis=-1)
    if complex(lam).imag != 0.0:
        return zeta * (1.0 + 0.5j), V * (1.0 - 0.25j)
    return zeta, V


def check_resolvent(out_dir: str, rc, lam: complex,
                    grid: tuple[int, int, int]) -> list:
    """zeta.npy and V.npy against the manufactured solution."""
    if rc != 0:
        return [f"resolvent exited {rc}"]
    try:
        zeta = np.load(os.path.join(out_dir, "zeta.npy"))
        V = np.load(os.path.join(out_dir, "V.npy"))
    except (OSError, ValueError) as exc:
        return [f"unreadable resolvent output: {exc}"]
    problems = []
    for name, got, ref in zip(("zeta", "V"), (zeta, V),
                              manufactured_solution(lam, *grid)):
        if got.shape != ref.shape:
            problems.append(f"{name} shape {got.shape} != {ref.shape}")
            continue
        err = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
        if not err <= RESOLVENT_RTOL:
            problems.append(f"{name} differs from the manufactured solution "
                            f"by {err:.3e} (relative)")
    return problems
