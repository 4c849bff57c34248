"""Internal consistency of the chain-rule oracle.

The oracle derives the Lagrangian nonlinearities symbolically, by
composing Eulerian expressions with the flow map and letting the
computer algebra system apply the chain rule.  These tests pin down its
structural properties: boundary values of the reconstructed vertical
velocity, exact reductions in degenerate configurations (no deformation,
constant density), and the coefficient-sampling contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from cpelab import reference
from cpelab.grid import grad_h_vec, l2_norm, make_grid, vertical_derivative
from cpelab.reference import (
    MODES,
    N_COEFFS,
    build_oracle_template,
    sample_coefficients,
)


@pytest.fixture(scope="module")
def template():
    return build_oracle_template("LocalGamma1", mu=1.0, mu_prime=0.5)


@pytest.fixture(scope="module")
def grid():
    # nz = 17 resolves the cos(3 pi z / 2) velocity profile to ~1e-11;
    # coarser vertical grids leave visible Chebyshev truncation in the
    # numeric cross-derivatives below.
    return make_grid(16, 16, 17)


def test_sample_coefficients_contract():
    rng = np.random.default_rng(0)
    c = sample_coefficients(rng, "LocalGamma1")
    assert c.shape == (N_COEFFS,)
    assert np.all(np.abs(c[:4]) <= 0.006)
    assert np.all(np.abs(c[4:]) <= 0.05)
    cg = sample_coefficients(rng, "GlobalGamma1")
    assert np.all(cg[-2:] == 0.0)
    with pytest.raises(ValueError, match="unknown mode"):
        sample_coefficients(rng, "Gamma7")


def test_build_template_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        build_oracle_template("Gamma7")


def test_truth_shapes_and_flow_map_consistency(template, grid):
    rng = np.random.default_rng(1)
    c = sample_coefficients(rng, "LocalGamma1")
    truth = template.evaluate(c, grid)
    g = grid
    assert truth.zeta.shape == (g.nx, g.ny)
    assert truth.V.shape == (g.nx, g.ny, g.nz, 2)
    assert truth.W.shape == (g.nx, g.ny, g.nz)
    assert truth.F1.shape == (g.nx, g.ny)
    assert truth.F2.shape == (g.nx, g.ny, g.nz, 2)
    assert np.all(truth.fm.detX > 0)
    prod = np.einsum("abik,abkj->abij", truth.fm.Z, truth.fm.gradX)
    assert np.allclose(prod, np.eye(2), atol=1e-13)


def test_vertical_velocity_vanishes_at_bottom(template, grid):
    rng = np.random.default_rng(2)
    c = sample_coefficients(rng, "LocalGamma1")
    truth = template.evaluate(c, grid)
    assert np.allclose(truth.W[:, :, 0], 0.0, atol=1e-15)


def test_undeformed_constant_density_reductions(template, grid):
    # No displacement, no density perturbation: F1 vanishes identically
    # and F2 reduces to minus the advection terms.
    g = grid
    c = np.zeros(N_COEFFS)
    rng = np.random.default_rng(3)
    c[7:15] = 0.05 * rng.uniform(-1.0, 1.0, 8)  # velocity only
    truth = template.evaluate(c, g)
    assert np.allclose(truth.zeta, truth.zeta0, atol=0)
    assert np.allclose(truth.fm.gradX, np.eye(2), atol=1e-15)
    assert np.max(np.abs(truth.F1)) < 1e-12

    dV = grad_h_vec(truth.V, g)
    Vbar = np.einsum("abzi,z->abi", truth.V, g.wz)
    Vt = truth.V - Vbar[:, :, None, :]
    advH = np.einsum("abzk,abzik->abzi", Vt, dV)
    advZ = truth.W[..., None] * vertical_derivative(truth.V, g)
    resid = truth.F2 + advH + advZ
    assert l2_norm(resid, g) < 1e-6 * max(l2_norm(truth.F2, g), 1e-30)


def test_modes_tuple_and_determinism(template, grid):
    assert MODES == ("LocalGamma1", "LocalGamma2", "GlobalGamma1",
                     "GeneralNoGravity")
    rng1 = np.random.default_rng(4)
    rng2 = np.random.default_rng(4)
    c1 = sample_coefficients(rng1, "LocalGamma1")
    c2 = sample_coefficients(rng2, "LocalGamma1")
    assert np.array_equal(c1, c2)
    t1 = template.evaluate(c1, grid)
    t2 = template.evaluate(c2, grid)
    assert np.array_equal(t1.F2, t2.F2)


def test_template_records_parameters(template):
    assert template.mode == "LocalGamma1"
    assert template.mu == 1.0 and template.mu_prime == 0.5
