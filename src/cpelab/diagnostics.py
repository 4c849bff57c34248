"""Scalar functionals and fits that turn analytic statements into checks.

Mass, energy and dissipation functionals are evaluated on Lagrangian
fields, weighted by the flow-map Jacobian: the exact change of variables
of the Eulerian functionals, which they equal at the identity map.
Decay-rate fits and envelope monotonicity checks connect the simulation
output to the linear spectral bound.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import Grid, grad_h, integral, l2_norm, validate_field
from .transforms import DELTA, PhysicalParams, column_density, lame_weights

__all__ = [
    "COLUMNS",
    "EnergyEntry",
    "EnergyReport",
    "DecayFit",
    "potential_energy_density",
    "lagrangian_energy",
    "lagrangian_mass",
    "surface_h1_norm",
    "fit_decay_rate",
    "envelope_maxima",
    "envelope_is_decreasing",
    "write_diagnostics_csv",
    "read_diagnostics_csv",
]

#: Column order of the diagnostics CSV emitted by the simulation driver.
COLUMNS = ("t", "mass", "energy", "dissipation_integral", "zeta_m_h1",
           "v_l2", "min_xi", "max_xi", "min_det")


class EnergyEntry(NamedTuple):
    """Instantaneous energy ``E`` and dissipation rate ``D``."""

    E: float
    D: float


@dataclass(frozen=True)
class EnergyReport:
    """Energy-balance time series extracted from diagnostics rows.

    ``residual[i] = E[i] + dissipation_integral[i] - E[0]`` vanishes for the
    continuum dynamics of the models with an energy identity and is O(dt)
    for the first-order integrator.
    """

    t: np.ndarray
    E: np.ndarray
    dissipation_integral: np.ndarray
    residual: np.ndarray
    mass: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> "EnergyReport":
        a = np.asarray(rows, dtype=float)
        if a.ndim != 2 or a.shape[1] != len(COLUMNS):
            raise ValueError(
                f"expected rows with {len(COLUMNS)} columns, got {a.shape}")
        t, mass, E, diss = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
        return cls(t=t, E=E, dissipation_integral=diss,
                   residual=E + diss - E[0], mass=mass)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential-decay fit of a positive time series."""

    eta: float
    r_squared: float
    n_tail: int
    t_start: float


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 48-point Gauss-Legendre rule of the pressure primitive.

    Made on first use rather than at import: its eigensolve raises the
    peak memory of every process that imports the package, while only
    ``GeneralNoGravity`` runs need it.
    """
    return np.polynomial.legendre.leggauss(48)


def potential_energy_density(xi: np.ndarray,
                             params: PhysicalParams) -> np.ndarray:
    """Potential energy density of the surface field, per model.

    Gamma1 uses ``xi log xi + 1 - xi``; GeneralNoGravity uses the pressure
    primitive ``xi * int_1^xi P(s)/s^2 ds - P(1)(xi - 1)`` (evaluated by
    Gauss-Legendre quadrature, exact to roundoff for smooth laws); Gamma2
    has no surface energy identity here, so the squared deviation from the
    reference density is returned as a monitoring quantity.
    """
    xi = np.asarray(xi, dtype=float)
    if np.min(xi) <= 0:
        raise ValueError(f"nonpositive density (min {np.min(xi):.3e})")
    if params.model == "Gamma1":
        return xi * np.log(xi) + 1.0 - xi
    if params.model == "Gamma2":
        return (xi - params.xi_bar) ** 2
    nodes, weights = _gauss_legendre()
    s = 1.0 + (xi[..., None] - 1.0) * 0.5 * (nodes + 1.0)
    vals = params.pressure(s) / s**2
    prim = 0.5 * (xi - 1.0) * (vals @ weights)
    return xi * prim - float(params.pressure(1.0)) * (xi - 1.0)


def lagrangian_energy(zeta_full: np.ndarray, V: np.ndarray, dV: np.ndarray,
                      dzV: np.ndarray, fm, g: Grid,
                      params: PhysicalParams) -> EnergyEntry:
    """Energy and dissipation evaluated on Lagrangian fields.

    The kinetic energy weighs the speed with the column density rho, and
    the dissipation is the energy form of the Lame operator L,

        int w_H (mu |grad V|^2 + mu' (div V)^2) + mu w_Z |d_z V|^2,

    with the weights of :func:`cpelab.transforms.lame_weights`; ``dV`` is
    grad_h_vec(V) and ``dzV`` vertical_derivative(V).  After the
    change of variables the Eulerian gradient is the label gradient
    contracted with the inverse flow-map Jacobian, and the area element
    contributes the Jacobian determinant.  Gamma1 fields live in the
    stretched vertical coordinate, where its energy identity holds.
    """
    det = fm.detX
    det3 = det[:, :, None]
    wH, wZ = lame_weights(params.model, g.z)
    rho = column_density(params.model, zeta_full, g.z)
    # the component sums of np.sum, in its order, without its generic loop
    speed2 = V[..., 0] ** 2 + V[..., 1] ** 2
    kinetic = integral(0.5 * rho * speed2 * det3, g)
    potential = integral(potential_energy_density(zeta_full, params) * det, g)
    GT = dV @ fm.Z[:, :, None]
    G2 = GT**2
    gradsq = ((G2[..., 0, 0] + G2[..., 0, 1]) + G2[..., 1, 0]) + G2[..., 1, 1]
    div2 = (GT[..., 0, 0] + GT[..., 1, 1]) ** 2
    dzsq = dzV[..., 0] ** 2 + dzV[..., 1] ** 2
    D = (params.mu * integral(wH * gradsq * det3, g)
         + params.mu * integral(wZ * dzsq * det3, g)
         + params.mu_prime * integral(wH * div2 * det3, g))
    return EnergyEntry(E=float(kinetic + potential), D=float(D))


def lagrangian_mass(zeta_full: np.ndarray, fm, g: Grid,
                    params: PhysicalParams) -> float:
    """Total mass of the state, evaluated on the label grid.

    In the stretched Gamma1 coordinates a fluid column of surface density
    ``xi`` carries mass ``delta * xi``; the Gamma2 column adds the constant
    ``z/2`` stratification, which integrates to 1/4 over the cylinder.
    """
    area = integral(zeta_full * fm.detX, g)
    if params.model == "Gamma1":
        return float(DELTA * area)
    if params.model == "Gamma2":
        return float(area + 0.25)
    return float(area)


def surface_h1_norm(f: np.ndarray, g: Grid) -> float:
    """Discrete H1 norm of a surface field (spectral first derivatives)."""
    validate_field(f, g, "scalar2d")
    return float(np.sqrt(l2_norm(f, g) ** 2 + l2_norm(grad_h(f, g), g) ** 2))


#: Fraction of the time span that the fits and envelopes skip as transient.
TAIL_SKIP_FRACTION = 0.2
#: Number of equal time windows of the envelope checks.
ENVELOPE_WINDOWS = 8


def _tail_mask(t: np.ndarray) -> np.ndarray:
    return t >= t[0] + TAIL_SKIP_FRACTION * (t[-1] - t[0])


def fit_decay_rate(t: np.ndarray, values: np.ndarray) -> DecayFit:
    """Exponential decay rate from the tail of a positive series.

    Least squares on ``log(values)`` against ``t`` over the tail window
    ``t >= t0 + TAIL_SKIP_FRACTION * (t_end - t0)`` (transients are
    excluded by construction).  Returns the rate ``eta = -slope`` and the
    coefficient of determination of the log fit.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if t.shape != values.shape or t.ndim != 1:
        raise ValueError("t and values must be 1D arrays of equal length")
    keep = _tail_mask(t)
    tt, vv = t[keep], values[keep]
    if tt.size < 10:
        raise ValueError(
            f"need at least 10 samples in the tail window, got {tt.size}")
    if np.min(vv) <= 0:
        raise ValueError("decay fit needs positive values in the tail window")
    logv = np.log(vv)
    slope, intercept = np.polyfit(tt, logv, 1)
    pred = slope * tt + intercept
    ss_res = float(np.sum((logv - pred) ** 2))
    ss_tot = float(np.sum((logv - np.mean(logv)) ** 2))
    if ss_tot <= 1e-30:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return DecayFit(eta=float(-slope), r_squared=float(r2),
                    n_tail=int(tt.size), t_start=float(tt[0]))


def envelope_maxima(t: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Maxima of |values| over ENVELOPE_WINDOWS equal windows of the tail."""
    n = ENVELOPE_WINDOWS
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = _tail_mask(t)
    tt, vv = t[keep], np.abs(values[keep])
    if tt.size < 2 * n:
        raise ValueError(
            f"need at least {2 * n} tail samples for {n} windows, got "
            f"{tt.size}")
    edges = np.linspace(tt[0], tt[-1], n + 1)
    idx = np.clip(np.searchsorted(edges, tt, side="right") - 1, 0, n - 1)
    out = np.empty(n)
    for w in range(n):
        sel = idx == w
        if not np.any(sel):
            raise ValueError(f"empty envelope window {w}")
        out[w] = np.max(vv[sel])
    return out


def envelope_is_decreasing(t: np.ndarray, values: np.ndarray) -> bool:
    """True when the tail-window maxima decrease strictly."""
    m = envelope_maxima(t, values)
    return bool(np.all(np.diff(m) < 0))


def write_diagnostics_csv(rows, path: str) -> None:
    """Write diagnostics rows with 17 significant digits per value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for row in rows:
            if len(row) != len(COLUMNS):
                raise ValueError(
                    f"row has {len(row)} fields, expected {len(COLUMNS)}")
            writer.writerow([f"{float(v):.17g}" for v in row])


def read_diagnostics_csv(path: str) -> np.ndarray:
    """Read a diagnostics CSV back into a float array."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(COLUMNS):
        raise ValueError(
            f"{path}: expected {len(COLUMNS)} columns, got {data.shape[1]}")
    return data

