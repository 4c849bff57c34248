"""Physical parameters, pressure laws, the vertical coordinate change and
the vertical profiles of the viscous operator.

For the isothermal pressure law (model ``Gamma1``, p = rho, gravity 1) the
hydrostatic balance gives rho = xi(x,y) * exp(-z) with xi the surface
density.  The vertical change of variables

    z' = (1 - exp(-z)) / delta,  delta = 1 - exp(-1),

turns exp(-z) into the affine profile 1 - delta*z', and simulations for
this model run entirely in the transformed coordinate.  The models
``Gamma2`` (p = rho^2, gravity 1, rho = xi + z/2) and ``GeneralNoGravity``
(p = P(rho), gravity 0, rho = xi) use the untransformed vertical
coordinate.

The viscous operator of every model is the compressible hydrostatic Lame
operator A = L / rho with

    L V = w_H(z) (mu Lap_H + mu' grad_H div_H) V + mu d_z(w_Z(z) d_z V),

and the model enters only through three profiles, defined here once:

* the vertical weights (w_H, w_Z) = (1/(1 - delta z), (1 - delta z)/delta^2)
  for ``Gamma1`` (the stretched coordinate) and (1, 1) for ``Gamma2`` and
  ``GeneralNoGravity`` (:func:`lame_weights`);
* the column density rho(xi, z) = xi + z/2 for ``Gamma2`` and rho = xi for
  ``Gamma1`` (in the stretched coordinate) and ``GeneralNoGravity``
  (:func:`column_density`).

The energy form of L is the viscous dissipation
int w_H (mu |grad_H V|^2 + mu' (div_H V)^2) + mu w_Z |d_z V|^2.

The sound-speed constant c and the gravity g are hard-coded to the
normalized values (c = 1; g = 1 with gravity, g = 0 without).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "DELTA",
    "MODELS",
    "PhysicalParams",
    "check_viscosities_finite",
    "column_density",
    "lame_weights",
    "make_pressure_law",
]

#: delta = 1 - e^{-1}, the constant of the vertical transform.
DELTA: float = 1.0 - math.exp(-1.0)

#: Supported model names.
MODELS = ("Gamma1", "Gamma2", "GeneralNoGravity")

_PPRIME_SAMPLES = 257


def lame_weights(model: str, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertical weights (w_H, w_Z) of the Lame operator L at the nodes z."""
    if model == "Gamma1":
        one_minus = 1.0 - DELTA * z
        return 1.0 / one_minus, one_minus / DELTA**2
    ones = np.ones_like(z)
    return ones, ones


def column_density(model: str, xi, z: np.ndarray) -> np.ndarray:
    """Density rho(xi, z) of the columns of surface density ``xi``.

    Returns shape ``xi.shape + z.shape``; where rho does not depend on z
    the result is a read-only broadcast of ``xi``.
    """
    xi = np.asarray(xi, dtype=float)[..., None]
    if model == "Gamma2":
        return xi + 0.5 * z
    return np.broadcast_to(xi, xi.shape[:-1] + z.shape)


def _require_finite(*named: tuple[str, float]) -> None:
    for name, value in named:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def check_viscosities_finite(mu: float, mu_prime: float) -> None:
    """Raise ``ValueError`` unless mu, mu_prime and mu + mu_prime are finite.

    Unlike :class:`PhysicalParams` it accepts an inadmissible pair, which
    the ``spectrum`` command reports rather than rejects.
    """
    _require_finite(("mu", mu), ("mu_prime", mu_prime),
                    ("mu + mu_prime", mu + mu_prime))


@dataclass(frozen=True)
class PhysicalParams:
    """Model constants.

    Parameters
    ----------
    mu, mu_prime : float
        Finite viscosities with mu > 0 and a finite mu + mu_prime > 0.
    model : str
        One of ``Gamma1``, ``Gamma2``, ``GeneralNoGravity``.
    xi_bar : float
        Reference mean surface density (finite, > 0).
    M1, M2 : float
        Finite positivity bounds 0 < M1 <= M2 for the initial surface
        density.
    pressure, pressure_derivative : callable, optional
        The pressure law P and its derivative P' (``GeneralNoGravity``
        only); sampled on [M1/2, 2*M2], P must be finite and P' finite
        and positive, so that P' lies between two positive constants there.
    """

    mu: float
    mu_prime: float
    model: str = "Gamma1"
    xi_bar: float = 1.0
    M1: float = 0.5
    M2: float = 2.0
    pressure: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False)
    pressure_derivative: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False)

    def __post_init__(self) -> None:
        check_viscosities_finite(self.mu, self.mu_prime)
        _require_finite(("xi_bar", self.xi_bar), ("M1", self.M1),
                        ("M2", self.M2))
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not self.mu + self.mu_prime > 0:
            raise ValueError(
                f"mu + mu_prime must be positive, got {self.mu + self.mu_prime}"
            )
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if not self.xi_bar > 0:
            raise ValueError(f"xi_bar must be positive, got {self.xi_bar}")
        if not 0 < self.M1 <= self.M2:
            raise ValueError(f"need 0 < M1 <= M2, got M1={self.M1}, M2={self.M2}")
        if self.model == "GeneralNoGravity":
            if self.pressure is None or self.pressure_derivative is None:
                raise ValueError(
                    "GeneralNoGravity requires a pressure law P and derivative P'"
                )
            lo, hi = self.density_window
            if not np.isfinite(hi):
                raise ValueError(
                    f"the density window [M1/2, 2*M2] must be finite, "
                    f"got 2*M2 = {hi}")
            s = np.linspace(lo, hi, _PPRIME_SAMPLES)
            with np.errstate(over="ignore", invalid="ignore"):
                p = np.asarray(self.pressure(s), dtype=float)
                dp = np.asarray(self.pressure_derivative(s), dtype=float)
            if not (np.all(np.isfinite(p)) and np.all(np.isfinite(dp))
                    and dp.min() > 0):
                raise ValueError(
                    "pressure derivative must be finite and positive, and the "
                    f"pressure finite, on the sampled interval [{lo}, {hi}]: "
                    f"range [{dp.min()}, {dp.max()}]")

    @property
    def density_window(self) -> tuple[float, float]:
        """[M1/2, 2*M2]: the surface densities the local modes may reach."""
        return self.M1 / 2.0, 2.0 * self.M2


def make_pressure_law(name: str, **kwargs) -> dict:
    """Construct a named pressure law for ``GeneralNoGravity``.

    ``linear``: P(s) = c*s with P' = c (pass ``c``, default 1.0).
    ``tanh``: P(s) = s + alpha*log(cosh(s-1)) with P'(s) = 1 + alpha*tanh(s-1)
    in [1-alpha, 1+alpha] (pass ``alpha`` in (0,1), default 0.5).

    Returns a dict with keys ``pressure`` and ``pressure_derivative``
    suitable for splicing into :class:`PhysicalParams`.
    """
    if name == "linear":
        c = float(kwargs.pop("c", 1.0))
        if kwargs:
            raise ValueError(f"unknown pressure-law options {sorted(kwargs)}")
        if not c > 0:
            raise ValueError(f"linear pressure law needs c > 0, got {c}")
        return {
            "pressure": lambda s, c=c: c * np.asarray(s, dtype=float),
            "pressure_derivative": lambda s, c=c: np.full_like(
                np.asarray(s, dtype=float), c),
        }
    if name == "tanh":
        alpha = float(kwargs.pop("alpha", 0.5))
        if kwargs:
            raise ValueError(f"unknown pressure-law options {sorted(kwargs)}")
        if not 0 < alpha < 1:
            raise ValueError(f"tanh pressure law needs 0 < alpha < 1, got {alpha}")

        def pressure(s, alpha=alpha):
            s = np.asarray(s, dtype=float)
            # log(cosh(t)) computed stably as |t| + log1p(exp(-2|t|)) - log 2
            t = np.abs(s - 1.0)
            return s + alpha * (t + np.log1p(np.exp(-2.0 * t)) - math.log(2.0))

        def pressure_derivative(s, alpha=alpha):
            return 1.0 + alpha * np.tanh(np.asarray(s, dtype=float) - 1.0)

        return {
            "pressure": pressure,
            "pressure_derivative": pressure_derivative,
        }
    raise ValueError(f"unknown pressure law {name!r}; expected 'linear' or 'tanh'")
