"""Physical parameters, pressure laws and the vertical coordinate change.

For the isothermal pressure law (model ``Gamma1``, p = rho, gravity 1) the
hydrostatic balance gives rho = xi(x,y) * exp(-z) with xi the surface
density.  The vertical change of variables

    z' = (1 - exp(-z)) / delta,  delta = 1 - exp(-1),

turns exp(-z) into the affine profile 1 - delta*z', and simulations for
this model run entirely in the transformed coordinate.  The models
``Gamma2`` (p = rho^2, gravity 1, rho = xi + z/2) and ``GeneralNoGravity``
(p = P(rho), gravity 0, rho = xi) use the untransformed vertical
coordinate.

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
    "make_pressure_law",
]

#: delta = 1 - e^{-1}, the constant of the vertical transform.
DELTA: float = 1.0 - math.exp(-1.0)

#: Supported model names.
MODELS = ("Gamma1", "Gamma2", "GeneralNoGravity")

_PPRIME_SAMPLES = 257


@dataclass(frozen=True)
class PhysicalParams:
    """Model constants.

    Parameters
    ----------
    mu, mu_prime : float
        Viscosities with mu > 0 and mu + mu_prime > 0.
    model : str
        One of ``Gamma1``, ``Gamma2``, ``GeneralNoGravity``.
    xi_bar : float
        Reference mean surface density (> 0).
    M1, M2 : float
        Positivity bounds 0 < M1 <= M2 for the initial surface density.
    pressure, pressure_derivative : callable, optional
        The pressure law P and its derivative P' (``GeneralNoGravity``
        only); P' must satisfy c1 <= P' <= c2 on [M1/2, 2*M2].
    c1, c2 : float
        Bounds for P' (``GeneralNoGravity`` only).
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
    c1: float = 0.0
    c2: float = 0.0

    @property
    def gravity(self) -> float:
        return 0.0 if self.model == "GeneralNoGravity" else 1.0

    def __post_init__(self) -> None:
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
            if not 0 < self.c1 <= self.c2:
                raise ValueError(
                    f"need 0 < c1 <= c2 for the pressure law, got "
                    f"c1={self.c1}, c2={self.c2}"
                )
            s = np.linspace(self.M1 / 2.0, 2.0 * self.M2, _PPRIME_SAMPLES)
            dp = np.asarray(self.pressure_derivative(s), dtype=float)
            slack = 1e-12 * max(1.0, self.c2)
            if np.any(dp < self.c1 - slack) or np.any(dp > self.c2 + slack):
                raise ValueError(
                    "pressure derivative leaves [c1, c2] on the sampled "
                    f"interval [{self.M1 / 2.0}, {2.0 * self.M2}]: "
                    f"range [{dp.min()}, {dp.max()}] vs [{self.c1}, {self.c2}]"
                )


def make_pressure_law(name: str, **kwargs) -> dict:
    """Construct a named pressure law for ``GeneralNoGravity``.

    ``linear``: P(s) = c*s with P' = c (pass ``c``, default 1.0).
    ``tanh``: P(s) = s + alpha*log(cosh(s-1)) with P'(s) = 1 + alpha*tanh(s-1)
    in [1-alpha, 1+alpha] (pass ``alpha`` in (0,1), default 0.5).

    Returns a dict with keys ``pressure``, ``pressure_derivative``, ``c1``,
    ``c2`` suitable for splicing into :class:`PhysicalParams`.
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
            "c1": c,
            "c2": c,
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
            "c1": 1.0 - alpha,
            "c2": 1.0 + alpha,
        }
    raise ValueError(f"unknown pressure law {name!r}; expected 'linear' or 'tanh'")
