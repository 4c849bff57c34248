"""Horizontal flow map: advancement, inversion, point evaluation, Jacobians.

The RK4 advancement is checked against an adaptive high-accuracy ODE
integration of the same characteristics (independent integrator), and
the algebraic pieces against closed-form examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cpelab.flowmap import (
    FlowMap,
    advance_flow,
    advance_flow_lagrangian,
    check_invertibility,
    evaluate_at_points,
    identity_map,
    inverse_jacobian,
    invert_map,
    positions,
)
from cpelab.grid import div_h, grad_h_vec, make_grid


def smooth_velocity(g, scale=0.1):
    x = g.x[:, None]
    y = g.y[None, :]
    return scale * np.stack(
        [np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.3,
         np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y) - 0.2], axis=-1)


def identity_positions(g):
    return np.stack(np.meshgrid(g.x, g.y, indexing="ij"), axis=-1)


def test_identity_map_structure():
    g = make_grid(8, 8, 5)
    fm = identity_map(g)
    assert np.allclose(fm.disp, 0.0, atol=0)
    assert np.allclose(fm.gradX, np.eye(2), atol=0)
    assert np.allclose(fm.detX, 1.0, atol=0)
    assert np.allclose(positions(fm, g), identity_positions(g), atol=0)


def test_interpolation_exact_at_grid_nodes_and_resolved_modes():
    g = make_grid(8, 8, 3)
    rng = np.random.default_rng(0)
    f = rng.standard_normal((8, 8))
    vals = evaluate_at_points(f, identity_positions(g), g)
    assert np.allclose(vals, f, atol=1e-12)
    # off-grid evaluation of a resolved trigonometric polynomial is exact
    pts = rng.uniform(-1.0, 2.0, size=(40, 2))
    f2 = np.cos(2 * np.pi * 2 * g.x)[:, None] * np.sin(
        2 * np.pi * g.y)[None, :]
    exact = np.cos(2 * np.pi * 2 * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])
    assert np.allclose(evaluate_at_points(f2, pts, g), exact, atol=1e-12)


def test_advance_flow_matches_adaptive_ode_integration():
    g = make_grid(16, 16, 3)
    vbar = smooth_velocity(g)
    dt = 0.01
    fm = identity_map(g)
    for _ in range(20):
        fm = advance_flow(fm, vbar, g, dt)
    got = positions(fm, g)

    def rhs(_t, u):
        pts = u.reshape(-1, 2)
        return evaluate_at_points(vbar, pts, g).reshape(-1)

    seeds = identity_positions(g)[::4, ::4].reshape(-1)
    sol = solve_ivp(rhs, (0.0, 0.2), seeds, rtol=1e-12, atol=1e-13,
                    dense_output=False)
    ref = sol.y[:, -1].reshape(-1, 2)
    assert np.max(np.abs(got[::4, ::4].reshape(-1, 2) - ref)) < 1e-9


def test_advance_flow_jacobian_consistent_with_displacement_gradient():
    g = make_grid(16, 16, 3)
    vbar = smooth_velocity(g)
    fm = identity_map(g)
    for _ in range(10):
        fm = advance_flow(fm, vbar, g, 0.01)
    spectral = np.eye(2) + grad_h_vec(fm.disp, g)
    assert np.max(np.abs(fm.gradX - spectral)) < 1e-8


def test_translation_and_stationary_cases():
    g = make_grid(8, 8, 3)
    c = np.array([0.3, -0.1])
    vbar = np.broadcast_to(c, (8, 8, 2)).copy()
    fm = advance_flow(identity_map(g), vbar, g, 0.5)
    assert np.allclose(fm.disp, 0.5 * c, atol=1e-14)
    assert np.allclose(fm.gradX, np.eye(2), atol=1e-14)
    assert np.allclose(fm.detX, 1.0, atol=1e-14)
    fm0 = advance_flow(identity_map(g), np.zeros((8, 8, 2)), g, 0.5)
    assert np.allclose(fm0.disp, 0.0, atol=0)


def test_inverse_jacobian_matches_numpy_inverse_and_rejects_singular():
    rng = np.random.default_rng(1)
    G = np.eye(2) + 0.3 * rng.standard_normal((6, 6, 2, 2))
    G = np.where(np.linalg.det(G)[..., None, None] > 0.2, G,
                 np.eye(2))  # keep the sample well-conditioned
    Z, det = inverse_jacobian(G)
    assert np.allclose(Z, np.linalg.inv(G), atol=1e-13)
    assert np.allclose(det, np.linalg.det(G), atol=1e-13)
    bad = np.zeros((2, 2))
    with pytest.raises(ValueError, match="singular"):
        inverse_jacobian(bad)


def test_invert_map_matches_analytic_shear_inverse():
    g = make_grid(32, 32, 3)
    a = 0.05
    y2 = g.y[None, :]
    disp = np.zeros((32, 32, 2))
    disp[:, :, 0] = a * np.sin(2 * np.pi * y2)
    gradX = np.tile(np.eye(2), (32, 32, 1, 1))
    gradX[:, :, 0, 1] = a * 2 * np.pi * np.cos(2 * np.pi * y2)
    Z, det = inverse_jacobian(gradX)
    fm = FlowMap(disp=disp, gradX=gradX, Z=Z, detX=det)
    Y = invert_map(fm, g, inv_tol=1e-14)
    ident = identity_positions(g)
    Y_exact = ident.copy()
    Y_exact[:, :, 0] -= a * np.sin(2 * np.pi * ident[:, :, 1])
    assert np.max(np.abs(Y - Y_exact)) < 1e-12


def test_roundtrip_inverse_composed_with_map_is_identity():
    g = make_grid(16, 16, 3)
    vbar = smooth_velocity(g, scale=0.05)
    fm = identity_map(g)
    for _ in range(4):
        fm = advance_flow(fm, vbar, g, 0.05)
    ident = identity_positions(g)
    dY = invert_map(fm, g, inv_tol=1e-13) - ident
    Xpos = positions(fm, g)
    comp = Xpos + evaluate_at_points(dY, Xpos, g)
    assert np.max(np.abs(comp - ident)) < 1e-10


def test_neumann_series_bound_on_inverse_jacobian():
    # ||Z - I|| <= 2 ||gradX - I|| pointwise (matrix infinity norm) while
    # the deviation stays <= 1/2.
    rng = np.random.default_rng(2)
    E = rng.uniform(-0.2, 0.2, size=(50, 2, 2))
    G = np.eye(2) + E
    Z, _ = inverse_jacobian(G)
    dev = np.abs(E).sum(axis=-1).max(axis=-1)
    zdev = np.abs(Z - np.eye(2)).sum(axis=-1).max(axis=-1)
    assert np.all(dev <= 0.5)
    assert np.all(zdev <= 2.0 * dev + 1e-14)


def test_liouville_residual_first_order_in_dt():
    g = make_grid(16, 16, 3)
    vbar = smooth_velocity(g)
    divv = div_h(vbar, g)

    def residual(stepper, dt):
        fm0 = identity_map(g)
        for _ in range(3):  # move off the identity first
            fm0 = stepper(fm0, vbar, g, dt)
        fm1 = stepper(fm0, vbar, g, dt)
        dv_at_X = evaluate_at_points(divv, positions(fm0, g), g)
        r = (fm1.detX - fm0.detX) / dt - dv_at_X * fm0.detX
        return np.max(np.abs(r))

    for stepper in (advance_flow, advance_flow_lagrangian):
        if stepper is advance_flow_lagrangian:
            def stepper_l(fm, v, g_, dt):
                V = evaluate_at_points(v, positions(fm, g_), g_)
                return advance_flow_lagrangian(fm, V, g_, dt)
            use = stepper_l
        else:
            use = stepper
        r1 = residual(use, 0.02)
        r2 = residual(use, 0.01)
        assert r1 / r2 == pytest.approx(2.0, rel=0.35), (
            f"Liouville residual not O(dt) for {stepper.__name__}")


def test_check_invertibility_report():
    g = make_grid(8, 8, 3)
    rep = check_invertibility(identity_map(g))
    assert rep.ok and rep.supnorm_dev == 0.0 and rep.min_det == 1.0
    gradX = np.tile(np.eye(2), (8, 8, 1, 1))
    gradX[:, :, 0, 1] = 0.8  # infinity-norm deviation 0.8 > 1/2
    Z, det = inverse_jacobian(gradX)
    fm = FlowMap(disp=np.zeros((8, 8, 2)), gradX=gradX, Z=Z, detX=det)
    rep2 = check_invertibility(fm)
    assert not rep2.ok and rep2.supnorm_dev == pytest.approx(0.8)


def test_advance_flow_validation_errors():
    g = make_grid(8, 8, 3)
    fm = identity_map(g)
    with pytest.raises(ValueError, match="dt"):
        advance_flow(fm, np.zeros((8, 8, 2)), g, 0.0)
    with pytest.raises(ValueError):
        advance_flow(fm, np.zeros((8, 8, 3)), g, 0.1)
