"""Tests for the scalar diagnostics, fits and CSV serialization."""

from __future__ import annotations

import numpy as np
import pytest

from cpelab.diagnostics import (
    COLUMNS,
    DecayFit,
    EnergyReport,
    envelope_is_decreasing,
    envelope_maxima,
    fit_decay_rate,
    lagrangian_energy,
    lagrangian_mass,
    potential_energy_density,
    read_diagnostics_csv,
    surface_h1_norm,
    write_diagnostics_csv,
)
from cpelab.flowmap import FlowMap, identity_map, inverse_jacobian
from cpelab.grid import grad_h_vec, integral, make_grid, vertical_derivative
from cpelab.transforms import (
    DELTA,
    PhysicalParams,
    column_density,
    lame_weights,
    make_pressure_law,
)


def test_columns_schema_is_frozen():
    assert COLUMNS == ("t", "mass", "energy", "dissipation_integral",
                       "zeta_m_h1", "v_l2", "min_xi", "max_xi", "min_det")


# ---------------------------------------------------------------------------
# mass
# ---------------------------------------------------------------------------


def test_lagrangian_mass_per_model():
    g = make_grid(8, 8, 7)
    fm = identity_map(g)
    ones = np.ones((g.nx, g.ny))
    p1 = PhysicalParams(mu=1.0, mu_prime=0.5, model="Gamma1")
    p2 = PhysicalParams(mu=1.0, mu_prime=0.5, model="Gamma2")
    pg = PhysicalParams(mu=1.0, mu_prime=0.5, model="GeneralNoGravity",
                        **make_pressure_law("linear"))
    # a stretched-coordinate column of surface density 1 carries mass delta
    assert lagrangian_mass(ones, fm, g, p1) == \
        pytest.approx(DELTA, abs=1e-14)
    # the affine profile zeta + z/2 integrates to zeta + 1/4
    assert lagrangian_mass(ones, fm, g, p2) == \
        pytest.approx(1.25, abs=1e-14)
    rho3 = ones[:, :, None] + 0.5 * g.z[None, None, :]
    assert integral(rho3, g) == pytest.approx(1.25, abs=1e-14)
    assert lagrangian_mass(2.0 * ones, fm, g, pg) == \
        pytest.approx(2.0, abs=1e-14)


# ---------------------------------------------------------------------------
# energy functionals
# ---------------------------------------------------------------------------


def test_potential_energy_density_formulas():
    p1 = PhysicalParams(mu=1.0, mu_prime=0.5, model="Gamma1")
    xi = np.array([1.0, np.e, 0.5])
    vals = potential_energy_density(xi, p1)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(1.0, rel=1e-14)          # e*1 + 1 - e
    assert vals[2] == pytest.approx(0.5 * np.log(0.5) + 0.5, rel=1e-14)
    assert np.all(vals >= 0.0)

    p2 = PhysicalParams(mu=1.0, mu_prime=0.5, model="Gamma2", xi_bar=1.2)
    assert potential_energy_density(np.array([1.5]), p2)[0] == \
        pytest.approx(0.09, rel=1e-14)

    # linear pressure P = c*s integrates to the isothermal potential
    c = 2.0
    pg = PhysicalParams(mu=1.0, mu_prime=0.5, model="GeneralNoGravity",
                        **make_pressure_law("linear", c=c))
    xi = np.array([0.6, 1.0, 1.7])
    want = c * (xi * np.log(xi) - xi + 1.0)
    assert np.max(np.abs(potential_energy_density(xi, pg) - want)) < 1e-12

    with pytest.raises(ValueError, match="nonpositive density"):
        potential_energy_density(np.array([1.0, -0.1]), p1)


def test_energy_trivial_states():
    g = make_grid(8, 8, 7)
    p1 = PhysicalParams(mu=1.0, mu_prime=0.5, model="Gamma1")
    xi = np.ones((g.nx, g.ny))
    v = np.zeros((g.nx, g.ny, g.nz, 2))
    fm = identity_map(g)
    entry = lagrangian_energy(xi, v, fm, g, p1)
    assert entry.E == 0.0 and entry.D == 0.0

    v_const = np.zeros_like(v)
    v_const[..., 0] = 0.3
    v_const[..., 1] = -0.4
    entry = lagrangian_energy(xi, v_const, fm, g, p1)
    assert entry.E == pytest.approx(0.5 * 0.25, rel=1e-13)
    assert entry.D == pytest.approx(0.0, abs=1e-20)

    with pytest.raises(ValueError, match="nonpositive density"):
        lagrangian_energy(-xi, v, fm, g, p1)


def test_lagrangian_energy_matches_eulerian_under_change_of_variables():
    # Shear map X1 = y1 + a sin(2 pi y2), X2 = y2 (unit Jacobian): composing
    # analytic Eulerian fields with X and evaluating the Jacobian-weighted
    # label-frame functionals must reproduce the Eulerian values.
    g = make_grid(32, 32, 9)
    a = 0.05
    y1 = g.x[:, None]
    y2 = g.y[None, :]
    X1 = y1 + a * np.sin(2 * np.pi * y2)

    def xi_of(x1, x2):
        return 1.0 + 0.3 * np.cos(2 * np.pi * x1)

    phi = (1.0 - g.z**2)[None, None, :]
    def v_of(x1, x2):
        out = np.zeros((g.nx, g.ny, g.nz, 2))
        out[..., 0] = (np.sin(2 * np.pi * x1) * np.ones_like(x2))[:, :, None] * phi
        out[..., 1] = (0.5 * np.cos(2 * np.pi * x2) * np.ones_like(x1))[:, :, None] * phi
        return out

    xi = xi_of(y1, y2) * np.ones((g.nx, g.ny))
    v = v_of(y1, y2)

    disp = np.zeros((g.nx, g.ny, 2))
    disp[:, :, 0] = a * np.sin(2 * np.pi * y2)
    gradX = np.broadcast_to(np.eye(2), (g.nx, g.ny, 2, 2)) + grad_h_vec(disp, g)
    Z, detX = inverse_jacobian(gradX)
    fm = FlowMap(disp=disp, gradX=gradX, Z=Z, detX=detX)
    zeta = xi_of(X1, y2) * np.ones((g.nx, g.ny))
    V = v_of(X1, y2 * np.ones_like(X1))

    for model in ("Gamma1", "Gamma2", "GeneralNoGravity"):
        kw = make_pressure_law("linear") if model == "GeneralNoGravity" else {}
        params = PhysicalParams(mu=1.0, mu_prime=0.5, model=model, **kw)
        eul = lagrangian_energy(xi, v, identity_map(g), g, params)
        lag = lagrangian_energy(zeta, V, fm, g, params)
        assert lag.E == pytest.approx(eul.E, rel=1e-9)
        assert lag.D == pytest.approx(eul.D, rel=1e-9)

    with pytest.raises(ValueError, match="nonpositive density"):
        lagrangian_energy(-zeta, V, fm, g,
                          PhysicalParams(mu=1.0, mu_prime=0.5))


@pytest.mark.parametrize("model", ("Gamma1", "Gamma2", "GeneralNoGravity"))
def test_energy_is_lagrangian_energy_at_identity_map(model):
    g = make_grid(8, 8, 7)
    rng = np.random.default_rng(8)
    xi = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, (g.nx, g.ny))
    v = rng.standard_normal((g.nx, g.ny, g.nz, 2))
    kw = make_pressure_law("tanh") if model == "GeneralNoGravity" else {}
    params = PhysicalParams(mu=0.7, mu_prime=0.4, model=model, **kw)
    # at the identity map the Jacobian weights are 1 and the label gradient
    # is the Eulerian one: plain quadrature of the Eulerian functionals
    wH, wZ = lame_weights(model, g.z)
    rho = column_density(model, xi, g.z)
    dv = grad_h_vec(v, g)
    dzv = vertical_derivative(v, g)
    E = (integral(0.5 * rho * np.sum(v**2, axis=-1), g)
         + integral(potential_energy_density(xi, params), g))
    D = (0.7 * integral(wH * np.sum(dv**2, axis=(-2, -1)), g)
         + 0.7 * integral(wZ * np.sum(dzv**2, axis=-1), g)
         + 0.4 * integral(wH * (dv[..., 0, 0] + dv[..., 1, 1])**2, g))
    entry = lagrangian_energy(xi, v, identity_map(g), g, params)
    assert entry.E == pytest.approx(E, rel=1e-14)
    assert entry.D == pytest.approx(D, rel=1e-14)


def test_surface_h1_norm_of_plane_wave():
    g = make_grid(16, 16, 5)
    f = np.cos(2 * np.pi * g.x)[:, None] * np.ones(g.ny)
    want = np.sqrt(0.5 * (1.0 + 4 * np.pi**2))
    assert surface_h1_norm(f, g) == pytest.approx(want, rel=1e-13)
    with pytest.raises(ValueError, match="2D scalar"):
        surface_h1_norm(np.ones((g.nx, g.ny, g.nz)), g)


# ---------------------------------------------------------------------------
# fits and envelopes
# ---------------------------------------------------------------------------


def test_fit_decay_rate_recovers_synthetic_rate():
    t = np.linspace(0.0, 10.0, 201)
    v = 3e-2 * np.exp(-0.3 * t)
    fit = fit_decay_rate(t, v)
    assert isinstance(fit, DecayFit)
    assert fit.eta == pytest.approx(0.3, abs=1e-12)
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.t_start == pytest.approx(2.0)
    assert fit.n_tail == int(np.sum(t >= 2.0))

    rng = np.random.default_rng(0)
    noisy = v * np.exp(0.01 * rng.standard_normal(t.size))
    fit = fit_decay_rate(t, noisy)
    assert fit.eta == pytest.approx(0.3, rel=0.02)
    assert fit.r_squared > 0.99


def test_fit_decay_rate_edge_cases():
    t = np.linspace(0.0, 10.0, 101)
    const = np.full_like(t, 2.5)
    fit = fit_decay_rate(t, const)
    assert fit.eta == pytest.approx(0.0, abs=1e-14)
    # unit values make the log exactly zero, exercising the degenerate
    # zero-variance branch of the goodness-of-fit computation
    assert fit_decay_rate(t, np.ones_like(t)).r_squared == 1.0
    with pytest.raises(ValueError, match="at least 10 samples"):
        fit_decay_rate(t[:5], const[:5])
    with pytest.raises(ValueError, match="positive values"):
        fit_decay_rate(t, np.linspace(1.0, -1.0, t.size))
    with pytest.raises(ValueError, match="1D arrays"):
        fit_decay_rate(t, const[:50])


def test_envelope_maxima_and_monotonicity():
    t = np.linspace(0.0, 20.0, 801)
    decaying = np.exp(-0.5 * t) * np.cos(10.0 * t)
    m = envelope_maxima(t, decaying)
    assert m.shape == (8,)
    assert np.all(np.diff(m) < 0)
    assert envelope_is_decreasing(t, decaying)
    growing = np.exp(0.1 * t) * np.cos(10.0 * t)
    assert not envelope_is_decreasing(t, growing)
    with pytest.raises(ValueError, match="tail samples"):
        envelope_maxima(t[:10], decaying[:10])


# ---------------------------------------------------------------------------
# energy report and CSV round trip
# ---------------------------------------------------------------------------


def synthetic_rows():
    rows = []
    for i, t in enumerate(np.linspace(0.0, 1.0, 6)):
        E = np.exp(-0.5 * t)
        diss = 1.0 - np.exp(-0.5 * t)
        rows.append((t, 0.632, E, diss, 1e-3 * E, 2e-3 * E, 0.9, 1.1,
                     1.0 - 1e-5 * i))
    return rows


def test_energy_report_from_rows():
    rows = synthetic_rows()
    rep = EnergyReport.from_rows(rows)
    assert rep.t.shape == (6,)
    assert rep.residual[0] == 0.0
    # E + int D - E0 = 0 exactly for this synthetic balance
    assert np.max(np.abs(rep.residual)) < 1e-15
    assert np.all(rep.mass == 0.632)
    with pytest.raises(ValueError, match="columns"):
        EnergyReport.from_rows([[0.0, 1.0]])


def test_diagnostics_csv_roundtrip_is_exact(tmp_path):
    rows = synthetic_rows()
    rows.append((1.2, 0.6320000000000001, 1e-17, -3.5e-8, 0.0, 1.0,
                 0.5000000000000002, 2.0, 0.09999999999999999))
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv(rows, str(path))
    back = read_diagnostics_csv(str(path))
    assert back.shape == (len(rows), len(COLUMNS))
    assert np.array_equal(back, np.asarray(rows, dtype=float))
    header = path.read_text().splitlines()[0]
    assert header == ",".join(COLUMNS)
    with pytest.raises(ValueError, match="fields"):
        write_diagnostics_csv([(0.0, 1.0)], str(tmp_path / "bad.csv"))
    (tmp_path / "narrow.csv").write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ValueError, match="columns"):
        read_diagnostics_csv(str(tmp_path / "narrow.csv"))

