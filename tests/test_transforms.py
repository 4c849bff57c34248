"""Model constants and pressure laws."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cpelab.transforms import (
    DELTA,
    PhysicalParams,
    make_pressure_law,
)


def test_delta_value():
    assert np.isclose(DELTA, 1.0 - math.exp(-1.0), atol=0)
    assert 0.63 < DELTA < 0.64


def test_params_validation():
    PhysicalParams(mu=1.0, mu_prime=-0.5)  # admissible: mu + mu' > 0
    with pytest.raises(ValueError, match="mu must be positive"):
        PhysicalParams(mu=0.0, mu_prime=1.0)
    with pytest.raises(ValueError, match="mu \\+ mu_prime"):
        PhysicalParams(mu=1.0, mu_prime=-1.0)
    with pytest.raises(ValueError, match="unknown model"):
        PhysicalParams(mu=1.0, mu_prime=1.0, model="Gamma3")
    with pytest.raises(ValueError, match="xi_bar"):
        PhysicalParams(mu=1.0, mu_prime=1.0, xi_bar=-1.0)
    with pytest.raises(ValueError, match="M1"):
        PhysicalParams(mu=1.0, mu_prime=1.0, M1=3.0, M2=2.0)
    with pytest.raises(ValueError, match="pressure law"):
        PhysicalParams(mu=1.0, mu_prime=1.0, model="GeneralNoGravity")


def test_linear_pressure_law():
    law = make_pressure_law("linear", c=2.5)
    s = np.linspace(0.25, 4.0, 7)
    assert np.allclose(law["pressure"](s), 2.5 * s)
    assert np.allclose(law["pressure_derivative"](s), 2.5)
    assert law["c1"] == law["c2"] == 2.5
    with pytest.raises(ValueError):
        make_pressure_law("linear", c=-1.0)
    with pytest.raises(ValueError):
        make_pressure_law("linear", slope=1.0)


def test_tanh_pressure_law_bounds_and_consistency():
    law = make_pressure_law("tanh", alpha=0.4)
    s = np.linspace(0.25, 4.0, 401)
    dp = law["pressure_derivative"](s)
    assert np.all(dp >= 0.6 - 1e-12) and np.all(dp <= 1.4 + 1e-12)
    # finite differences of P reproduce P'
    h = 1e-6
    fd = (law["pressure"](s + h) - law["pressure"](s - h)) / (2 * h)
    assert np.allclose(fd, dp, atol=1e-8)
    assert np.isclose(law["pressure"](1.0), 1.0, atol=1e-15)
    with pytest.raises(ValueError):
        make_pressure_law("tanh", alpha=1.5)
    with pytest.raises(ValueError):
        make_pressure_law("parabolic")


def test_pressure_derivative_bounds_enforced_by_params():
    law = make_pressure_law("tanh", alpha=0.3)
    PhysicalParams(mu=1.0, mu_prime=0.0, model="GeneralNoGravity", **law)
    bad = dict(law)
    bad["c1"] = 0.9  # true P' dips to 0.7 on the sampled interval
    with pytest.raises(ValueError, match="pressure derivative"):
        PhysicalParams(mu=1.0, mu_prime=0.0, model="GeneralNoGravity", **bad)


def test_gravity_switch():
    assert PhysicalParams(mu=1.0, mu_prime=1.0, model="Gamma1").gravity == 1.0
    png = PhysicalParams(mu=1.0, mu_prime=1.0, model="GeneralNoGravity",
                         **make_pressure_law("linear"))
    assert png.gravity == 0.0
