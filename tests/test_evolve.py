"""Tests for the Lagrangian IMEX time integration."""

from __future__ import annotations

import collections
import copy
import dataclasses
import warnings

import numpy as np
import pytest

from cpelab import diagnostics, evolve, flowmap, grid, reference
from cpelab.diagnostics import potential_energy_density
from cpelab.evolve import (
    EVOLUTION_MODES,
    MODE_MODEL,
    BlowupDetected,
    LagrangianState,
    MapNonInvertible,
    PositivityLost,
    RunConfig,
    Stepper,
    TerminalCondition,
    _diagnostics_row,
    full_surface_density,
    initial_state,
    nonlinearity_F1,
    nonlinearity_F2,
    reconstruct_w,
    run_simulation,
)
from cpelab.flowmap import (
    FlowMap,
    advance_flow_lagrangian,
    identity_map,
    inverse_jacobian,
)
from cpelab.grid import (
    _ddx,
    _ddy,
    div_h,
    grad_h,
    grad_h_vec,
    l2_norm,
    make_grid,
    vertical_average,
    vertical_derivative,
)
from cpelab.operators import (
    _real_form,
    mode_matrices,
    mode_wavevectors,
    vertical_lame_block,
)
from cpelab.stokes_solver import ResolventProblem, solve_resolvent
from cpelab.transforms import (
    PhysicalParams,
    column_density,
    lame_weights,
    make_pressure_law,
)


def rel_err(a, b, g):
    return l2_norm(a - b, g) / max(l2_norm(b, g), 1e-300)


def gamma1_params(**kw):
    return PhysicalParams(mu=kw.pop("mu", 1.0), mu_prime=kw.pop("mu_prime", 0.5),
                          model="Gamma1", **kw)


def mode_params(mode, general_params):
    return {"Gamma1": gamma1_params(),
            "Gamma2": PhysicalParams(mu=0.8, mu_prime=0.3, model="Gamma2"),
            "GeneralNoGravity": general_params}[MODE_MODEL[mode]]


def state_from_truth(truth):
    return LagrangianState(mode=truth.mode, zeta=truth.zeta, V=truth.V,
                           fm=truth.fm, t=0.0, zeta0=truth.zeta0,
                           dtV=truth.dtV)


@pytest.fixture(scope="module")
def oracle_grid():
    return make_grid(24, 24, 17)


@pytest.fixture(scope="module")
def oracle_gamma1():
    return reference.build_oracle_template("LocalGamma1", mu=1.0, mu_prime=0.5)


@pytest.fixture(scope="module")
def oracle_general():
    return reference.build_oracle_template(
        "GeneralNoGravity", mu=0.8, mu_prime=0.2,
        pressure="tanh", pressure_alpha=0.4)


@pytest.fixture(scope="module")
def general_params():
    return PhysicalParams(mu=0.8, mu_prime=0.2, model="GeneralNoGravity",
                          **make_pressure_law("tanh", alpha=0.4))


# ---------------------------------------------------------------------------
# nonlinear remainders against the symbolic oracle
# ---------------------------------------------------------------------------


def test_nonlinearities_match_oracle(oracle_gamma1, oracle_general,
                                     general_params, oracle_grid):
    g = oracle_grid
    cases = [
        (oracle_gamma1, gamma1_params(), "LocalGamma1"),
        (oracle_general, general_params, "GeneralNoGravity"),
    ]
    rng = np.random.default_rng(11)
    for template, params, mode in cases:
        for _ in range(2):
            coeffs = reference.sample_coefficients(rng, mode)
            truth = template.evaluate(coeffs, g)
            state = state_from_truth(truth)
            F1 = nonlinearity_F1(state, g, params, dealias=False)
            F2 = nonlinearity_F2(state, truth.dtV, g, params, dealias=False)
            W = reconstruct_w(state, g, params)
            assert rel_err(F1, truth.F1, g) < 1e-6, mode
            assert rel_err(F2, truth.F2, g) < 1e-6, mode
            assert rel_err(W, truth.W, g) < 1e-7, mode
            # the continuity-equation reconstruction integrates from z = 0
            assert np.all(W[:, :, 0] == 0.0)


def test_mutation_is_detectable(oracle_gamma1, oracle_grid):
    g = oracle_grid
    rng = np.random.default_rng(12)
    coeffs = reference.sample_coefficients(rng, "LocalGamma1")
    truth = oracle_gamma1.evaluate(coeffs, g)
    state = state_from_truth(truth)
    params = gamma1_params()
    good = nonlinearity_F2(state, truth.dtV, g, params, dealias=False)
    bad = nonlinearity_F2(state, truth.dtV, g, params, dealias=False,
                          mutation="flip_w_advection")
    assert rel_err(good, truth.F2, g) < 1e-6
    assert rel_err(bad, truth.F2, g) > 1e-4


def test_unknown_mutation_rejected(oracle_gamma1, oracle_grid):
    g = oracle_grid
    rng = np.random.default_rng(13)
    truth = oracle_gamma1.evaluate(
        reference.sample_coefficients(rng, "LocalGamma1"), g)
    state = state_from_truth(truth)
    with pytest.raises(ValueError, match="unknown mutation"):
        nonlinearity_F2(state, None, g, gamma1_params(), mutation="nope")


def test_remainders_vanish_on_linearization_point():
    # Local modes keep the full pressure gradient explicit, so their F2
    # reduces to exactly that term on the linearization point; with a
    # constant baseline both remainders vanish identically.  The global
    # mode treats the pressure implicitly and F2 vanishes outright.
    g = make_grid(8, 8, 5)
    params = gamma1_params()
    zeta0 = 1.0 + 0.2 * np.cos(2 * np.pi * g.x)[:, None] * np.ones(g.ny)
    state = LagrangianState(
        mode="LocalGamma1", zeta=zeta0.copy(), V=np.zeros((g.nx, g.ny, g.nz, 2)),
        fm=identity_map(g), t=0.0, zeta0=zeta0)
    assert np.all(nonlinearity_F1(state, g, params) == 0.0)
    F2 = nonlinearity_F2(state, None, g, params, dealias=False)
    pressure = -grad_h(zeta0, g)[:, :, None, :] / zeta0[:, :, None, None]
    assert np.max(np.abs(F2 - pressure)) < 1e-12

    flat = np.full((g.nx, g.ny), 1.3)
    const = LagrangianState(
        mode="LocalGamma1", zeta=flat.copy(), V=np.zeros((g.nx, g.ny, g.nz, 2)),
        fm=identity_map(g), t=0.0, zeta0=flat)
    assert np.max(np.abs(nonlinearity_F2(const, None, g, params))) < 1e-14

    glob = LagrangianState(
        mode="GlobalGamma1", zeta=np.zeros((g.nx, g.ny)),
        V=np.zeros((g.nx, g.ny, g.nz, 2)), fm=identity_map(g), t=0.0)
    assert np.all(nonlinearity_F1(glob, g, params) == 0.0)
    assert np.all(nonlinearity_F2(glob, None, g, params) == 0.0)


def test_mode_parameter_guards():
    g = make_grid(8, 8, 5)
    zeta = np.ones((g.nx, g.ny))
    state = LagrangianState(mode="LocalGamma1", zeta=zeta,
                            V=np.zeros((g.nx, g.ny, g.nz, 2)),
                            fm=identity_map(g), t=0.0, zeta0=zeta)
    wrong = PhysicalParams(mu=1.0, mu_prime=0.5, model="Gamma2")
    with pytest.raises(ValueError, match="needs params.model"):
        nonlinearity_F1(state, g, wrong)
    with pytest.raises(ValueError, match="unknown mode"):
        LagrangianState(mode="Gamma7", zeta=zeta,
                        V=np.zeros((g.nx, g.ny, g.nz, 2)),
                        fm=identity_map(g), t=0.0, zeta0=zeta)
    with pytest.raises(ValueError, match="requires a zeta0"):
        LagrangianState(mode="LocalGamma1", zeta=zeta,
                        V=np.zeros((g.nx, g.ny, g.nz, 2)),
                        fm=identity_map(g), t=0.0)
    with pytest.raises(ValueError, match="xi_bar"):
        Stepper("GlobalGamma1", g, gamma1_params(xi_bar=2.0), dt=1e-3)


def test_reconstruct_w_rejects_nonpositive_density():
    g = make_grid(8, 8, 5)
    zeta = -np.ones((g.nx, g.ny))
    state = LagrangianState(mode="LocalGamma1", zeta=zeta,
                            V=np.zeros((g.nx, g.ny, g.nz, 2)),
                            fm=identity_map(g), t=0.0, zeta0=np.ones_like(zeta))
    with pytest.raises(ValueError, match="nonpositive surface density"):
        reconstruct_w(state, g, gamma1_params())


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_global_steady_state_is_exact_fixed_point():
    g = make_grid(8, 8, 7)
    params = gamma1_params()
    state = LagrangianState(
        mode="GlobalGamma1", zeta=np.zeros((g.nx, g.ny)),
        V=np.zeros((g.nx, g.ny, g.nz, 2)), fm=identity_map(g), t=0.0)
    stepper = Stepper("GlobalGamma1", g, params, dt=1e-2)
    for _ in range(20):
        state = stepper.step(state)
    assert np.max(np.abs(state.zeta)) <= 1e-15
    assert np.max(np.abs(state.V)) <= 1e-15
    assert np.max(np.abs(state.fm.disp)) == 0.0


def test_step_is_first_order_accurate():
    def final_state(dt):
        cfg = RunConfig(mode="LocalGamma1", nx=8, ny=8, nz=7,
                        params=gamma1_params(), dt=dt, t_end=0.02,
                        preset="random_smooth", amplitude=0.05, seed=2)
        res = run_simulation(cfg)
        assert res.status == "completed"
        return res.state

    g = make_grid(8, 8, 7)
    ref = final_state(0.02 / 160)
    coarse = final_state(2e-3)
    fine = final_state(1e-3)
    ec = l2_norm(coarse.V - ref.V, g) + l2_norm(coarse.zeta - ref.zeta, g)
    ef = l2_norm(fine.V - ref.V, g) + l2_norm(fine.zeta - ref.zeta, g)
    assert ec / ef == pytest.approx(2.0, rel=0.45)


def test_mass_conserved_on_short_run():
    cfg = RunConfig(mode="LocalGamma1", nx=12, ny=12, nz=7,
                    params=gamma1_params(), dt=1e-3, t_end=0.02,
                    preset="random_smooth", amplitude=0.05, seed=0)
    res = run_simulation(cfg)
    assert res.status == "completed"
    masses = np.array([row[1] for row in res.rows])
    assert np.max(np.abs(masses - masses[0])) <= 1e-6 * abs(masses[0])


def test_energy_decays_in_linear_regime():
    cfg = RunConfig(mode="GlobalGamma1", nx=8, ny=8, nz=7,
                    params=gamma1_params(), dt=5e-3, t_end=0.2,
                    preset="fourier_perturbation", amplitude=1e-6,
                    perturbation_mode=(1, 0))
    res = run_simulation(cfg)
    assert res.status == "completed"
    E = np.array([row[2] for row in res.rows])
    assert np.all(E >= 0.0)
    assert np.all(np.diff(E) <= 1e-9 * E[0])
    assert E[-1] < 0.95 * E[0]


def test_stepper_reuse_matches_throwaway_steps():
    g = make_grid(8, 8, 7)
    params = gamma1_params()
    cfg = RunConfig(mode="LocalGamma1", nx=8, ny=8, nz=7, params=params,
                    dt=1e-3, t_end=0.01, preset="random_smooth",
                    amplitude=0.05, seed=4)
    s0 = initial_state(cfg, g)
    stepper = Stepper("LocalGamma1", g, params, 1e-3, zeta0=s0.zeta0)
    a = stepper.step(stepper.step(s0))

    def throwaway(state):
        return Stepper(state.mode, g, params, 1e-3,
                       zeta0=state.zeta0).step(state)

    b = throwaway(throwaway(s0))
    assert np.array_equal(a.zeta, b.zeta)
    assert np.array_equal(a.V, b.V)
    assert np.array_equal(a.fm.disp, b.fm.disp)
    glob = LagrangianState(mode="GlobalGamma1", zeta=np.zeros((g.nx, g.ny)),
                           V=np.zeros((g.nx, g.ny, g.nz, 2)),
                           fm=identity_map(g), t=0.0)
    with pytest.raises(ValueError, match="stepper built for"):
        stepper.step(glob)


def loop_implicit_matrix(mode, kt, g, params, dt, rho_star):
    """One mode's implicit matrix, written out as the reference."""
    nz, iz = g.nz, np.arange(g.nz)
    if mode == "GlobalGamma1":
        off = 1
        M = np.zeros((1 + 2 * nz, 1 + 2 * nz), dtype=complex)
        M[0, 0] = 1.0
        M[1:, 1:] = np.eye(2 * nz) - dt * vertical_lame_block(
            kt, params.xi_bar, g, params)
        for c in range(2):
            M[0, 1 + iz * 2 + c] = dt * params.xi_bar * 1j * kt[c] * g.wz
            M[1 + iz * 2 + c, 0] = dt * 1j * kt[c]
    else:
        off = 0
        if mode == "LocalGamma1":
            L = vertical_lame_block(kt, 1.0, g, params)
        else:  # mu Lap + mu' grad_H div_H with unit coefficient
            L = (params.mu * np.kron(g.Dz @ g.Dz - float(kt @ kt)
                                     * np.eye(nz), np.eye(2))
                 - params.mu_prime * np.kron(np.eye(nz), np.outer(kt, kt)))
        M = rho_star * np.eye(2 * nz) - dt * L
    for c in range(2):
        top, bot = off + (nz - 1) * 2 + c, off + c
        M[top, :] = 0.0
        M[top, top] = 1.0
        M[bot, :] = 0.0
        M[bot, off + iz * 2 + c] = g.Dz[0]
    return M


@pytest.mark.parametrize("mode", EVOLUTION_MODES)
def test_stepper_inverse_matches_mode_loop(mode, general_params):
    g = make_grid(6, 8, 5)
    params = mode_params(mode, general_params)
    zeta0 = None
    if mode != "GlobalGamma1":
        zeta0 = 1.0 + 0.2 * np.cos(2 * np.pi * g.x)[:, None] \
            * np.ones((1, g.ny))
    stepper = Stepper(mode, g, params, 0.05, zeta0=zeta0)
    K = mode_wavevectors(g)
    # only the rfft2 half-spectrum ky >= 0 is stored, and only the columns
    # of zeta and the interior levels, as (ky, kx, columns, rows); the
    # coupled inverses in the real form D^-1 inv D, D = diag(i, 1, ..., 1)
    lead = int(mode == "GlobalGamma1")
    inv = stepper._inv_t.transpose(1, 0, 3, 2)
    assert not hasattr(stepper, "_inv")
    assert inv.dtype == float and inv.shape[:2] == (g.nx, g.ny // 2 + 1)
    d = np.ones(lead + 2 * g.nz, dtype=complex)
    d[:lead] = 1j
    columns = np.r_[:lead, lead + 2:len(d) - 2]
    for ix, iy in np.ndindex(inv.shape[:2]):
        ref = np.linalg.inv(loop_implicit_matrix(
            mode, K[ix, iy], g, params, 0.05, stepper.rho_star))
        ref = (ref / d[:, None] * d)[:, columns]
        err = np.max(np.abs(inv[ix, iy] - ref))
        assert err <= 1e-12 * np.max(np.abs(ref))


def full_spectrum_inverse(stepper):
    g = stepper.g
    K = mode_wavevectors(g)
    return np.array([[np.linalg.inv(loop_implicit_matrix(
        stepper.mode, K[ix, iy], g, stepper.params, stepper.dt,
        stepper.rho_star)) for iy in range(g.ny)] for ix in range(g.nx)])


def full_spectrum_momentum(stepper, inv, V, F2, iterations):
    """The fixed point on every mode: fft2, a complex einsum, ifft2."""
    g = stepper.g
    base = stepper.rho0 * (V + stepper.dt * F2)
    Vm = V
    for _ in range(iterations):
        r = base + (stepper.rho_star - stepper.rho0) * Vm
        r[:, :, -1, :] = 0.0
        r[:, :, 0, :] = 0.0
        rh = np.fft.fft2(r, axes=(0, 1)).reshape(g.nx, g.ny, 2 * g.nz)
        sol = np.einsum("abij,abj->abi", inv, rh)
        Vm = np.fft.ifft2(sol.reshape(g.nx, g.ny, g.nz, 2),
                          axes=(0, 1)).real
    return Vm


def full_spectrum_dealias(f, g):
    """The 2/3 rule in the two-pass form: fft2, mask, ifft2."""
    mask = g.dealias_mask.reshape(g.dealias_mask.shape + (1,) * (f.ndim - 2))
    return np.fft.ifft2(np.fft.fft2(f, axes=(0, 1)) * mask, axes=(0, 1)).real


def full_spectrum_coupled(stepper, inv, zeta, V, F1, F2):
    """The coupled solve on every mode, F1 and F2 dealiased beforehand."""
    g, dt = stepper.g, stepper.dt
    zh = np.fft.fft2(zeta + dt * full_spectrum_dealias(F1, g), axes=(0, 1))
    r = V + dt * full_spectrum_dealias(F2, g)
    r[:, :, -1, :] = 0.0
    r[:, :, 0, :] = 0.0
    rh = np.fft.fft2(r, axes=(0, 1)).reshape(g.nx, g.ny, 2 * g.nz)
    sol = np.einsum("abij,abj->abi", inv,
                    np.concatenate([zh[..., None], rh], axis=-1))
    zeta_new = np.fft.ifft2(sol[..., 0], axes=(0, 1)).real
    V_new = np.fft.ifft2(sol[..., 1:].reshape(g.nx, g.ny, g.nz, 2),
                         axes=(0, 1)).real
    return zeta_new, V_new


@pytest.mark.parametrize("shape", ((6, 8, 5), (7, 9, 5)))
@pytest.mark.parametrize("mode", EVOLUTION_MODES)
def test_half_spectrum_solves_match_full_spectrum(mode, shape,
                                                  general_params,
                                                  grid_of_any_parity):
    g = grid_of_any_parity(*shape)
    params = mode_params(mode, general_params)
    rng = np.random.default_rng(21)
    zeta0 = None
    if mode != "GlobalGamma1":
        zeta0 = 1.0 + 0.2 * rng.random((g.nx, g.ny))
    stepper = Stepper(mode, g, params, 0.05, zeta0=zeta0)
    inv = full_spectrum_inverse(stepper)

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    V, F2 = rng.standard_normal((2, g.nx, g.ny, g.nz, 2))
    if mode == "GlobalGamma1":
        zeta, F1 = rng.standard_normal((2, g.nx, g.ny))
        # the step dealiases both remainders before the solve
        got = stepper._solve_coupled(zeta, V, grid.dealias(F1, g),
                                     grid.dealias(F2, g))
        ref = full_spectrum_coupled(stepper, inv, zeta, V, F1, F2)
        assert rel(got[0], ref[0]) <= 1e-12
        assert rel(got[1], ref[1]) <= 1e-12
    else:
        got, iterations = stepper._solve_momentum(V, F2)
        assert 1 <= iterations <= stepper.fp_max_iter
        ref = full_spectrum_momentum(stepper, inv, V, F2, iterations)
        assert rel(got, ref) <= 1e-12


def test_coupled_step_is_the_resolvent_at_inverse_dt():
    # (1 - dt A_CHS)^-1 = (1/dt) (1/dt - A_CHS)^-1: the GlobalGamma1 step
    # and the resolvent solve share the per-mode blocks; the sweep takes
    # the dense path on the first grid and pocketfft on the second
    params = gamma1_params()
    dt = 0.05
    rng = np.random.default_rng(8)
    for shape, dense in (((12, 12, 9), True), ((48, 44, 5), False)):
        g = make_grid(*shape)
        zeta = rng.standard_normal((g.nx, g.ny))
        V = rng.standard_normal((g.nx, g.ny, g.nz, 2))
        stepper = Stepper("GlobalGamma1", g, params, dt)
        assert (stepper._dft is not None) == dense
        got = stepper._solve_coupled(zeta, V, np.zeros_like(zeta),
                                     np.zeros_like(V))
        ref = solve_resolvent(ResolventProblem(1.0 / dt, zeta / dt, V / dt),
                              g, params)
        for a, b in zip(got, ref):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_random_smooth_spectrum_is_band_limited():
    g = make_grid(12, 12, 5)
    f = evolve._lowpass_random(np.random.default_rng(0), g)
    fh = np.fft.fft2(f)
    k = np.abs(np.fft.fftfreq(g.nx, d=1.0 / g.nx))
    outside = (k[:, None] > 2) | (k[None, :] > 2)
    assert np.max(np.abs(fh[outside])) <= 1e-12 * np.max(np.abs(fh))


def three_operand_twisted_terms(Z, dZ, dV, H, Vt):
    """F2's contractions with the z-dependent factor in every product."""
    C = np.einsum("abnk,abmk->abnm", Z, Z) - np.eye(2)
    tau = np.einsum("abnk,abmkn->abm", Z, dZ)
    twlap = (np.einsum("abnm,abzinm->abzi", C, H)
             + np.einsum("abm,abzim->abzi", tau, dV))
    twgd = (np.einsum("abni,abmj,abzjnm->abzi", Z, Z, H)
            - np.einsum("abzjij->abzi", H)
            + np.einsum("abni,abmjn,abzjm->abzi", Z, dZ, dV))
    advH = np.einsum("abzk,ablk,abzil->abzi", Vt, Z, dV)
    return twlap, twgd, advH


def test_F2_contractions_match_three_operand_forms(
        oracle_gamma1, oracle_general, general_params, oracle_grid,
        monkeypatch):
    g = oracle_grid
    rng = np.random.default_rng(14)
    states = []
    for template, params, mode in (
            (oracle_gamma1, gamma1_params(), "LocalGamma1"),
            (oracle_general, general_params, "GeneralNoGravity")):
        for _ in range(2):
            truth = template.evaluate(
                reference.sample_coefficients(rng, mode), g)
            states.append((state_from_truth(truth), params))
    got = [nonlinearity_F2(s, s.dtV, g, p, dealias=False) for s, p in states]
    monkeypatch.setattr(evolve, "_twisted_terms", three_operand_twisted_terms)
    for (s, p), F2 in zip(states, got):
        ref = nonlinearity_F2(s, s.dtV, g, p, dealias=False)
        assert np.max(np.abs(F2 - ref)) <= 1e-12 * np.max(np.abs(ref))


def einsum_twisted_terms(Z, dZ, dV, H, Vt):
    """``_twisted_terms`` with C = Z Z^T - I and ZdZ as einsums."""
    nx, ny, nz = Vt.shape[:3]
    C = np.einsum("abnk,abmk->abnm", Z, Z) - np.eye(2)
    tau = np.einsum("abnk,abmkn->abm", Z, dZ)
    twlap = (np.einsum("abnm,abzinm->abzi", C, H)
             + np.einsum("abm,abzim->abzi", tau, dV))
    ZZ = np.einsum("abni,abmj->abjnmi", Z, Z).reshape(nx, ny, 8, 2)
    ZdZ = np.einsum("abni,abmjn->abjmi", Z, dZ).reshape(nx, ny, 4, 2)
    twgd = (H.reshape(nx, ny, nz, 8) @ ZZ
            - np.einsum("abzjij->abzi", H)
            + dV.reshape(nx, ny, nz, 4) @ ZdZ)
    advH = np.einsum("abzl,abzil->abzi", Vt @ np.swapaxes(Z, -1, -2), dV)
    return twlap, twgd, advH


def test_twisted_products_keep_the_bytes_of_their_einsums(
        oracle_gamma1, oracle_general, general_params, oracle_grid,
        monkeypatch):
    # C and ZdZ are two-term elementwise products summed in einsum's order
    rng = np.random.default_rng(16)
    nx, ny, nz = 6, 8, 5
    for Z in (rng.standard_normal((nx, ny, 2, 2)),
              np.broadcast_to(np.eye(2), (nx, ny, 2, 2))):
        args = (Z, rng.standard_normal((nx, ny, 2, 2, 2)),
                rng.standard_normal((nx, ny, nz, 2, 2)),
                rng.standard_normal((nx, ny, nz, 2, 2, 2)),
                rng.standard_normal((nx, ny, nz, 2)))
        for got, ref in zip(evolve._twisted_terms(*args),
                            einsum_twisted_terms(*args)):
            assert same_bytes(got, ref)
    g = oracle_grid
    states = []
    for template, params, mode in (
            (oracle_gamma1, gamma1_params(), "LocalGamma1"),
            (oracle_general, general_params, "GeneralNoGravity")):
        truth = template.evaluate(reference.sample_coefficients(rng, mode), g)
        states.append((state_from_truth(truth), params))
    got = [nonlinearity_F2(s, s.dtV, g, p) for s, p in states]
    monkeypatch.setattr(evolve, "_twisted_terms", einsum_twisted_terms)
    for (s, p), F2 in zip(states, got):
        assert same_bytes(F2, nonlinearity_F2(s, s.dtV, g, p))


def test_F2_one_transform_derivatives_match_composed_form(
        oracle_gamma1, oracle_general, general_params, oracle_grid,
        monkeypatch):
    g = oracle_grid
    rng = np.random.default_rng(15)
    cases = []
    for template, params, mode in (
            (oracle_gamma1, gamma1_params(), "LocalGamma1"),
            (oracle_general, general_params, "GeneralNoGravity")):
        truth = template.evaluate(reference.sample_coefficients(rng, mode), g)
        for dealias in (False, True):
            cases.append((state_from_truth(truth), params, dealias))
    got = [nonlinearity_F2(s, s.dtV, g, p, dealias=d) for s, p, d in cases]
    # F2's H as composed first derivatives, by differentiating dV
    monkeypatch.setattr(evolve, "_second_derivatives", lambda V, dV: np.stack(
        [_ddx(dV, g), _ddy(dV, g)], axis=-2))
    for (s, p, d), F2 in zip(cases, got):
        ref = nonlinearity_F2(s, s.dtV, g, p, dealias=False)
        if d:
            ref = full_spectrum_dealias(ref, g)
        assert np.max(np.abs(F2 - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fused_coupled_step_matches_two_pass_form(oracle_gamma1):
    # coarse enough that the oracle remainders carry modes the mask cuts
    g = make_grid(12, 12, 9)
    params = gamma1_params()
    stepper = Stepper("GlobalGamma1", g, params, 0.05)
    inv = full_spectrum_inverse(stepper)
    rng = np.random.default_rng(16)
    for _ in range(2):
        truth = oracle_gamma1.evaluate(
            reference.sample_coefficients(rng, "LocalGamma1"), g)
        state = LagrangianState(
            mode="GlobalGamma1", zeta=truth.zeta - params.xi_bar, V=truth.V,
            fm=truth.fm, t=0.0, dtV=truth.dtV)
        new = stepper.step(state)
        F1 = nonlinearity_F1(state, g, params, dealias=False)
        F2 = nonlinearity_F2(state, state.dtV, g, params, dealias=False)
        refs = full_spectrum_coupled(stepper, inv, state.zeta, state.V, F1, F2)
        for got, ref in zip((new.zeta, new.V), refs):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def stepper_and_state(mode, params, g, dt=0.01):
    """A stepper and its random_smooth initial state."""
    cfg = RunConfig(mode=mode, nx=g.nx, ny=g.ny, nz=g.nz, params=params,
                    dt=dt, t_end=dt, preset="random_smooth", amplitude=0.2,
                    seed=5)
    state = initial_state(cfg, g)
    return Stepper(mode, g, params, dt, zeta0=state.zeta0), state


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mode", EVOLUTION_MODES)
def test_step_shares_one_mean_velocity_gradient(mode, general_params):
    g = make_grid(8, 8, 5)
    params = mode_params(mode, general_params)
    stepper, s0 = stepper_and_state(mode, params, g)
    s1 = stepper.step(s0)
    Vbar = vertical_average(s1.V, g)
    dVbar = grad_h_vec(Vbar, g)
    assert np.array_equal(evolve._derived(s1, g, "dVbar"), dVbar)
    assert same_bytes(evolve._derived(s1, g, "Vbar"), Vbar)
    # the continuity divergence is its trace, F1 and the advance read it
    assert np.array_equal(dVbar[..., 0, 0] + dVbar[..., 1, 1],
                          div_h(Vbar, g))
    fresh = dataclasses.replace(s1)
    assert fresh._record == {}
    assert np.array_equal(nonlinearity_F1(s1, g, params),
                          nonlinearity_F1(fresh, g, params))
    shared = advance_flow_lagrangian(s0.fm, Vbar, g, 0.01, dVbar=dVbar)
    own = advance_flow_lagrangian(s0.fm, Vbar, g, 0.01)
    for name in ("disp", "gradX", "Z", "detX"):
        assert np.array_equal(getattr(shared, name), getattr(own, name))
        assert np.array_equal(getattr(s1.fm, name), getattr(own, name))
    # the next step reads the kept gradient as if it took it again
    a, b = stepper.step(s1), stepper.step(fresh)
    for name in ("zeta", "V", "dtV"):
        assert same_bytes(getattr(a, name), getattr(b, name))
    assert same_bytes(a.fm.gradX, b.fm.gradX)


def test_gamma2_step_reads_div_V_off_the_gradient_F1_took(monkeypatch,
                                                          general_params):
    g = make_grid(8, 8, 5)
    params = mode_params("LocalGamma2", general_params)
    stepper, s0 = stepper_and_state("LocalGamma2", params, g)
    s1 = stepper.step(s0)
    dV = grad_h_vec(s1.V, g)
    assert np.array_equal(dV[..., 0, 0] + dV[..., 1, 1], div_h(s1.V, g))
    # no derivative of a scalar 3D field: div_h V_new is not taken again
    counts = collections.Counter()
    for name in ("_ddx", "_ddy"):
        def derivative(f, g_, fn=getattr(grid, name)):
            counts["scalar3d"] += f.shape == (g.nx, g.ny, g.nz)
            return fn(f, g_)
        monkeypatch.setattr(grid, name, derivative)
    stepper.step(s1)
    assert counts["scalar3d"] == 0


def test_gamma2_reconstruct_w_reads_the_gradient_F2_took(monkeypatch,
                                                       general_params):
    g = make_grid(8, 8, 5)
    params = mode_params("LocalGamma2", general_params)
    stepper, s0 = stepper_and_state("LocalGamma2", params, g)
    s1 = stepper.step(s0)
    fresh = dataclasses.replace(s1)
    nonlinearity_F2(s1, s1.dtV, g, params)
    # the recorded gradient is grad_H V, bit for bit, and stays on the state
    assert same_bytes(evolve._derived(s1, g, "dV"), grad_h_vec(s1.V, g))
    assert same_bytes(reconstruct_w(s1, g, params),
                      reconstruct_w(fresh, g, params))
    # a step from a recorded state takes two gradients of 3D vector fields:
    # the mass flux in reconstruct_w and V_new in F1; F2 and W read V's
    # gradient off the record, which a fresh state fills with one more
    counts = collections.Counter()

    def gradient(v, g_, fn=evolve.grad_h_vec):
        counts[v.ndim] += 1
        return fn(v, g_)

    monkeypatch.setattr(evolve, "grad_h_vec", gradient)
    stepper.step(s1)
    assert counts[4] == 2
    counts.clear()
    stepper.step(dataclasses.replace(s1))
    assert counts[4] == 3


@pytest.mark.parametrize("mode", EVOLUTION_MODES)
def test_each_accepted_velocity_is_differentiated_once(mode, general_params,
                                                       monkeypatch):
    # Vbar, grad_H Vbar, grad_H V, d_z V and V - Vbar of each accepted
    # velocity are taken once, whichever of F1, F2, W, the flow-map advance
    # and the energy read them: calls are counted by the bytes of their field
    taken = collections.Counter()
    average = grid.vertical_average
    for name in ("vertical_average", "vertical_derivative", "_derivatives"):
        fn = getattr(grid, name)

        def counted(f, arg, name=name, fn=fn):
            if name != "_derivatives" or any(o == 1 for _, o in arg):
                taken[name, f.shape, f.tobytes()] += 1
            return fn(f, arg)

        for module in (grid, evolve, diagnostics, flowmap):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    derived = evolve._derived

    def counted_fluctuation(state, g, name):
        if name == "Vt" and name not in state._record:
            taken["Vt", state.V.shape, state.V.tobytes()] += 1
        return derived(state, g, name)

    monkeypatch.setattr(evolve, "_derived", counted_fluctuation)
    accepted, step = [], Stepper.step

    def recorded(self, state):
        new = step(self, state)
        accepted.append(new.V)
        return new

    monkeypatch.setattr(Stepper, "step", recorded)
    params = mode_params(mode, general_params)
    cfg = RunConfig(mode=mode, nx=8, ny=8, nz=5, params=params, dt=0.01,
                    t_end=0.03, preset="random_smooth", amplitude=0.2, seed=5)
    accepted.append(cfg.initial.V)
    assert run_simulation(cfg).status == "completed" and len(accepted) == 4
    g = cfg.grid
    for n, V in enumerate(accepted):
        Vbar = average(V, g)
        counts = [taken[name, f.shape, f.tobytes()] for name, f in (
            ("vertical_average", V), ("_derivatives", Vbar),
            ("_derivatives", V), ("vertical_derivative", V), ("Vt", V))]
        # only the coupled step's F1 reads the initial state's grad_H Vbar,
        # and F2 and W do not read the last state's V - Vbar
        first = mode != "GlobalGamma1" and n == 0
        last = n == len(accepted) - 1
        assert counts == [1, 0 if first else 1, 1, 1, 0 if last else 1], n


def test_a_replaced_velocity_never_reuses_the_old_gradient():
    g = make_grid(8, 8, 5)
    params = gamma1_params()
    stepper, s0 = stepper_and_state("GlobalGamma1", params, g)
    s1 = stepper.step(s0)
    moved = dataclasses.replace(s1, V=2.0 * s1.V)
    # doubling is exact, so each new derived field is exactly twice the old
    for name in ("Vbar", "Vt", "dVbar", "dV", "dzV"):
        assert np.array_equal(evolve._derived(moved, g, name),
                              2.0 * evolve._derived(s1, g, name)), name
    rebuilt = LagrangianState(mode=s1.mode, zeta=s1.zeta, V=2.0 * s1.V,
                              fm=s1.fm, t=s1.t, dtV=s1.dtV)
    assert np.array_equal(nonlinearity_F1(moved, g, params),
                          nonlinearity_F1(rebuilt, g, params))


@pytest.mark.parametrize("mode", EVOLUTION_MODES)
def test_reflected_inverses_solve_as_every_row_inverted(mode, general_params):
    g = make_grid(8, 8, 5)
    params = mode_params(mode, general_params)
    stepper, s0 = stepper_and_state(mode, params, g)
    coupled = mode == "GlobalGamma1"
    K = mode_wavevectors(g)[:, :g.ny // 2 + 1]
    M = mode_matrices(K, 1.0, g, params, stepper.rho_star, stepper.dt,
                      params.xi_bar if coupled else None)
    if coupled:
        M = _real_form(M)
    every = copy.copy(stepper)
    inv = np.stack([np.linalg.inv(row) for row in M])
    # the columns of zeta and the interior levels, as (ky, kx, c, n)
    lead = int(coupled)
    every._inv_t = np.ascontiguousarray(
        inv[..., np.r_[:lead, lead + 2:M.shape[-1] - 2]].transpose(1, 0, 3, 2))
    # equal in value; only the sign of some zeros differs
    assert np.array_equal(stepper._inv_t, every._inv_t)
    F2 = nonlinearity_F2(s0, None, g, params)
    if coupled:
        F1 = nonlinearity_F1(s0, g, params)
        for got, ref in zip(stepper._solve_coupled(s0.zeta, s0.V, F1, F2),
                            every._solve_coupled(s0.zeta, s0.V, F1, F2)):
            assert same_bytes(got, ref)
    else:
        (V, it), (V_ref, it_ref) = (s._solve_momentum(s0.V, F2)
                                    for s in (stepper, every))
        assert same_bytes(V, V_ref) and it == it_ref


@pytest.mark.parametrize("mode,bound", (("LocalGamma1", 2.5),
                                        ("GlobalGamma1", 3.0)))
def test_stepper_builds_its_inverses_in_place(mode, bound, field_units):
    # each row kx >= 0 is inverted straight into the kept columns of
    # _inv_t and mirrored there, so the build holds no more than the
    # blocks of the rows kx >= 0 beside what it keeps
    g = make_grid(32, 32, 17)
    params = gamma1_params()
    zeta0 = np.ones((g.nx, g.ny))
    kept = Stepper(mode, g, params, 1e-2, zeta0=zeta0)._inv_t
    assert field_units(
        lambda: Stepper(mode, g, params, 1e-2, zeta0=zeta0), kept) <= bound


def test_fixed_point_stops_at_the_first_non_finite_sweep():
    g = make_grid(8, 8, 5)
    stepper, s0 = stepper_and_state("LocalGamma1", gamma1_params(), g, 0.05)
    F2 = np.full_like(s0.V, 1e308)  # finite, but its transform overflows
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            BlowupDetected, match="iterate at iteration 1: the explicit "
                                  "remainder F2 overflows"):
        stepper._solve_momentum(s0.V, F2)


def test_a_state_that_overflows_ends_as_a_named_blowup(monkeypatch):
    # F1 is finite, but zeta + dt F1 overflows in the coupled solve, so the
    # new state holds non-finite values; no RuntimeWarning escapes the step
    g = make_grid(8, 8, 5)
    stepper, s0 = stepper_and_state("GlobalGamma1", gamma1_params(), g, 4.0)
    monkeypatch.setattr(evolve, "nonlinearity_F1",
                        lambda state, g, params: np.full((g.nx, g.ny), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupDetected) as exc:
            stepper.step(s0)
    assert str(exc.value) == "non-finite values in the state"


def counted(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("mode", ("LocalGamma1", "GlobalGamma1"))
def test_step_stays_at_its_transform_floor(mode, monkeypatch):
    g = make_grid(8, 8, 5)
    params = gamma1_params()
    counts = collections.Counter()
    monkeypatch.setattr(np.linalg, "inv",
                        counted(counts, "inv", np.linalg.inv))
    stepper, s0 = stepper_and_state(mode, params, g)
    # one inverse for each kx >= 0; the rows at -kx are reflections
    assert counts["inv"] == g.nx // 2 + 1
    s1 = stepper.step(s0)

    def gradient(v, g_):
        counts["grad Vbar"] += v.ndim == 3
        return grad_h_vec(v, g_)

    for module in (evolve, flowmap):
        monkeypatch.setattr(module, "grad_h_vec", gradient)
    stepper.step(s1)
    assert counts["grad Vbar"] == 1
    if mode == "GlobalGamma1":
        return
    # above DENSE_SWEEP_MAX_N each fixed-point sweep makes rfft and fft
    # forward, ifft and irfft back
    n = 2 * grid.DENSE_SWEEP_MAX_N
    g = make_grid(n, n, 5)
    stepper, s0 = stepper_and_state(mode, params, g)
    s1 = stepper.step(s0)
    F2 = nonlinearity_F2(s1, s1.dtV, g, params)
    names = ("rfft", "fft", "ifft", "irfft")
    for name in names:
        monkeypatch.setattr(np.fft, name,
                            counted(counts, name, getattr(np.fft, name)))
    _, iterations = stepper._solve_momentum(s1.V, F2)
    assert [counts[name] for name in names] == [iterations] * 4


def test_dense_sweeps_make_no_fft_call(monkeypatch):
    g = make_grid(8, 8, 5)
    params = gamma1_params()
    stepper, s0 = stepper_and_state("LocalGamma1", params, g)
    s1 = stepper.step(s0)
    F2 = nonlinearity_F2(s1, s1.dtV, g, params)
    counts = collections.Counter()
    for name in np.fft.__all__:
        monkeypatch.setattr(np.fft, name,
                            counted(counts, name, getattr(np.fft, name)))
    _, iterations = stepper._solve_momentum(s1.V, F2)
    assert iterations > 1 and not counts


# even grids from 4^2 to DENSE_SWEEP_MAX_N^2, square or not, nz in {3, 5, 9}
DENSE_SWEEP_GRIDS = ((4, 4, 3), (4, 10, 5), (8, 8, 9), (12, 6, 3),
                     (12, 12, 5), (16, 20, 9), (24, 14, 5), (24, 24, 9),
                     (40, 16, 5), (32, 40, 3), (40, 40, 9))


@pytest.mark.parametrize("shape", DENSE_SWEEP_GRIDS,
                         ids=["x".join(map(str, s)) for s in DENSE_SWEEP_GRIDS])
@pytest.mark.parametrize("mode", ("LocalGamma1", "LocalGamma2",
                                  "GeneralNoGravity"))
def test_dense_sweeps_match_the_pocketfft_sweeps(mode, shape, general_params):
    g = make_grid(*shape)
    params = mode_params(mode, general_params)
    assert max(g.nx, g.ny) <= grid.DENSE_SWEEP_MAX_N
    stepper, s0 = stepper_and_state(mode, params, g, 0.05)
    assert stepper._dft is not None
    pocketfft = copy.copy(stepper)
    pocketfft._dft = None
    s1 = stepper.step(s0)
    # both sweeps map the interior levels in (y, x) order to all levels
    rhs = np.random.default_rng(sum(shape)).standard_normal(
        (g.ny, g.nx, 2 * (g.nz - 2)))
    got, ref = stepper._sweep(rhs), pocketfft._sweep(rhs)
    assert got.shape == ref.shape == (g.ny, g.nx, 2 * g.nz)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    F2 = nonlinearity_F2(s1, s1.dtV, g, params)
    (V, it), (V_ref, it_ref) = (s._solve_momentum(s1.V, F2)
                                for s in (stepper, pocketfft))
    assert it == it_ref
    assert V.shape == V_ref.shape == s1.V.shape
    assert V.flags.c_contiguous and V_ref.flags.c_contiguous
    assert np.abs(V - V_ref).max() <= 1e-12 * np.abs(V_ref).max()


def np_sum_energy(zeta_full, V, dV, dzV, fm, g, params):
    """lagrangian_energy with its component sums taken by np.sum."""
    det = fm.detX
    det3 = det[:, :, None]
    wH, wZ = lame_weights(params.model, g.z)
    rho = column_density(params.model, zeta_full, g.z)
    speed2 = np.sum(V**2, axis=-1)
    kinetic = diagnostics.integral(0.5 * rho * speed2 * det3, g)
    potential = diagnostics.integral(
        potential_energy_density(zeta_full, params) * det, g)
    GT = dV @ fm.Z[:, :, None]
    gradsq = np.sum(GT**2, axis=(-2, -1))
    div2 = (GT[..., 0, 0] + GT[..., 1, 1]) ** 2
    dzsq = np.sum(dzV**2, axis=-1)
    D = (params.mu * diagnostics.integral(wH * gradsq * det3, g)
         + params.mu * diagnostics.integral(wZ * dzsq * det3, g)
         + params.mu_prime * diagnostics.integral(wH * div2 * det3, g))
    return diagnostics.EnergyEntry(E=float(kinetic + potential), D=float(D))


@pytest.mark.parametrize("mode", EVOLUTION_MODES)
def test_component_sums_keep_the_bytes_of_their_numpy_forms(
        mode, general_params, monkeypatch):
    # E, D, the invertibility report and the flow-map update write their
    # sums over the component axes out; on states of every mode they keep
    # the bits of np.sum and einsum, each energy integrand included
    g = make_grid(8, 8, 5)
    params = mode_params(mode, general_params)
    stepper, state = stepper_and_state(mode, params, g, dt=0.05)
    for _ in range(2):
        state = stepper.step(state)
    integrands = []
    integral = diagnostics.integral

    def recorded(f, g):
        integrands.append(f)
        return integral(f, g)

    monkeypatch.setattr(diagnostics, "integral", recorded)
    args = (full_surface_density(state, params), state.V,
            grad_h_vec(state.V, g), vertical_derivative(state.V, g),
            state.fm, g, params)
    assert diagnostics.lagrangian_energy(*args) == np_sum_energy(*args)
    assert len(integrands) == 10
    for got, ref in zip(integrands[:5], integrands[5:]):
        assert same_bytes(got, ref)

    fm = state.fm
    for M in (fm.gradX - np.eye(2), fm.Z - np.eye(2)):
        assert same_bytes(flowmap._row_sum_norm(M),
                          np.abs(M).sum(axis=-1).max(axis=-1))
    supnorm = float(np.abs(fm.gradX - np.eye(2)).sum(axis=-1)
                    .max(axis=-1).max())
    assert supnorm > 0
    report = flowmap.check_invertibility(fm, 0.1)
    assert report.supnorm_dev.hex() == supnorm.hex()
    assert report.min_det == float(fm.detX.min())

    Vbar = vertical_average(state.V, g)
    gvZ = np.einsum("...ik,...kj->...ij", grad_h_vec(Vbar, g), fm.Z)
    gradX = fm.gradX + 0.05 * np.einsum("...ik,...kj->...ij", gvZ, fm.gradX)
    assert same_bytes(advance_flow_lagrangian(fm, Vbar, g, 0.05).gradX, gradX)


def test_energy_is_evaluated_once_per_state(monkeypatch):
    calls = []
    original = diagnostics.lagrangian_energy

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "lagrangian_energy", counted)
    cfg = RunConfig(mode="LocalGamma1", nx=8, ny=8, nz=5,
                    params=gamma1_params(), dt=1e-3, t_end=7e-3,
                    output_every=2, preset="random_smooth", amplitude=0.05,
                    seed=1)
    res = run_simulation(cfg)
    assert res.status == "completed" and res.n_steps == 7
    assert len(calls) == 7 + 1


def test_diagnostics_match_separate_energy_evaluations(tmp_path):
    # The rows equal those of a loop that evaluates the energy functional
    # for D at every step and again for E at every output row.
    params = gamma1_params()
    cfg = RunConfig(mode="LocalGamma1", nx=8, ny=8, nz=5, params=params,
                    dt=1e-3, t_end=7e-3, output_every=2,
                    preset="random_smooth", amplitude=0.05, seed=1)
    g = make_grid(8, 8, 5)

    def entry(s):
        return diagnostics.lagrangian_energy(
            full_surface_density(s, params), s.V, grad_h_vec(s.V, g),
            vertical_derivative(s.V, g), s.fm, g, params)

    state = initial_state(cfg, g)
    stepper = Stepper(cfg.mode, g, params, cfg.dt, zeta0=state.zeta0)
    rows = [_diagnostics_row(state, g, params, entry(state).E, 0.0)]
    diss, d_prev = 0.0, entry(state).D
    for n in range(1, cfg.n_steps + 1):
        state = stepper.step(state)
        d_new = entry(state).D
        diss += 0.5 * cfg.dt * (d_prev + d_new)
        d_prev = d_new
        if n % cfg.output_every == 0 or n == cfg.n_steps:
            rows.append(_diagnostics_row(state, g, params, entry(state).E,
                                         diss))
    diagnostics.write_diagnostics_csv(rows, tmp_path / "ref.csv")
    diagnostics.write_diagnostics_csv(run_simulation(cfg).rows,
                                      tmp_path / "run.csv")
    assert (tmp_path / "run.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


def test_stepper_validation():
    g = make_grid(8, 8, 5)
    params = gamma1_params()
    with pytest.raises(ValueError, match="dt must be positive"):
        Stepper("LocalGamma1", g, params, dt=0.0, zeta0=np.ones((g.nx, g.ny)))
    with pytest.raises(ValueError, match="requires the zeta0"):
        Stepper("LocalGamma1", g, params, dt=1e-3)
    with pytest.raises(ValueError, match="baseline density"):
        Stepper("LocalGamma1", g, params, dt=1e-3,
                zeta0=np.zeros((g.nx, g.ny)))


@pytest.mark.parametrize("key, value", (
    ("fp_tol", np.nan), ("fp_tol", 0.0), ("fp_tol", -1.0),
    ("det_floor", np.nan), ("det_floor", np.inf)))
def test_stepper_refuses_the_tolerances_run_config_refuses(key, value):
    # else the first step ends as ImplicitSolveFailed or MapNonInvertible
    g = make_grid(8, 8, 5)
    params = gamma1_params()
    message = f"tolerance '{key}' must be finite and positive"
    with pytest.raises(ValueError, match=message):
        RunConfig(mode="LocalGamma1", nx=8, ny=8, nz=5, params=params,
                  dt=1e-3, t_end=1e-3, **{key: value})
    with pytest.raises(ValueError, match=message):
        Stepper("LocalGamma1", g, params, dt=1e-3,
                zeta0=np.ones((g.nx, g.ny)), **{key: value})


def test_cfl_advisory_warns_once_and_changes_no_row():
    # the first step moves dt * max|V| = 0.075 past the grid spacing 1/16
    cfg = RunConfig(mode="LocalGamma1", nx=16, ny=16, nz=5,
                    params=gamma1_params(mu=0.1, mu_prime=0.0), dt=0.3,
                    t_end=0.6, preset="fourier_perturbation", amplitude=0.3)
    with pytest.warns(RuntimeWarning, match="advective CFL advisory") as rec:
        res = run_simulation(cfg)
    assert len(rec) == 1
    assert res.status == "completed" and res.n_steps == 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run_simulation(cfg).rows == res.rows


# ---------------------------------------------------------------------------
# terminal conditions
# ---------------------------------------------------------------------------


def test_positivity_loss_terminates_run():
    cfg = RunConfig(mode="GlobalGamma1", nx=8, ny=8, nz=7,
                    params=gamma1_params(), dt=1e-3, t_end=0.1,
                    preset="fourier_perturbation", amplitude=0.55,
                    perturbation_mode=(1, 0))
    res = run_simulation(cfg)
    assert res.status == "positivity_lost"
    assert "xi_bar/2" in res.message
    assert res.n_steps == 0
    assert len(res.rows) == 1


def test_positivity_guard_on_local_upper_bound():
    g = make_grid(8, 8, 5)
    params = gamma1_params()  # admissible window is [M1/2, 2*M2] = [0.25, 4]
    zeta = np.full((g.nx, g.ny), 4.2)
    state = LagrangianState(mode="LocalGamma1", zeta=zeta,
                            V=np.zeros((g.nx, g.ny, g.nz, 2)),
                            fm=identity_map(g), t=0.0, zeta0=zeta)
    with pytest.raises(PositivityLost, match="left") as exc_info:
        Stepper("LocalGamma1", g, params, 1e-3, zeta0=zeta).step(state)
    assert exc_info.value.status == "positivity_lost"
    assert isinstance(exc_info.value, TerminalCondition)


def test_degenerate_flow_map_terminates_step():
    g = make_grid(8, 8, 5)
    disp = np.zeros((g.nx, g.ny, 2))
    disp[:, :, 0] = 0.1 * np.sin(2 * np.pi * g.x)[:, None]
    gradX = np.broadcast_to(np.eye(2), (g.nx, g.ny, 2, 2)) + grad_h_vec(disp, g)
    Z, detX = inverse_jacobian(gradX)
    fm = FlowMap(disp=disp, gradX=gradX, Z=Z, detX=detX)
    zeta = np.ones((g.nx, g.ny))
    state = LagrangianState(mode="LocalGamma1", zeta=zeta,
                            V=np.zeros((g.nx, g.ny, g.nz, 2)),
                            fm=fm, t=0.0, zeta0=zeta)
    with pytest.raises(MapNonInvertible, match="diffeomorphism") as exc_info:
        Stepper("LocalGamma1", g, gamma1_params(), 1e-3,
                zeta0=zeta).step(state)
    assert exc_info.value.status == "map_noninvertible"


def test_non_finite_state_reports_blowup():
    g = make_grid(8, 8, 5)
    zeta = np.zeros((g.nx, g.ny))
    zeta[0, 0] = np.nan
    state = LagrangianState(mode="GlobalGamma1", zeta=zeta,
                            V=np.zeros((g.nx, g.ny, g.nz, 2)),
                            fm=identity_map(g), t=0.0)
    with pytest.raises(BlowupDetected, match="non-finite") as exc_info:
        Stepper("GlobalGamma1", g, gamma1_params(), 1e-3).step(state)
    assert exc_info.value.status == "blowup"


# ---------------------------------------------------------------------------
# run configuration and presets
# ---------------------------------------------------------------------------


def test_initial_state_presets():
    params = gamma1_params()
    g = make_grid(12, 12, 7)
    steady = initial_state(
        RunConfig(mode="LocalGamma1", nx=12, ny=12, nz=7, params=params,
                  dt=1e-3, t_end=1e-3), g)
    assert np.all(steady.V == 0.0)
    assert np.all(steady.zeta == params.xi_bar)
    assert np.array_equal(steady.zeta0, steady.zeta)

    four = initial_state(
        RunConfig(mode="LocalGamma1", nx=12, ny=12, nz=7, params=params,
                  dt=1e-3, t_end=1e-3, preset="fourier_perturbation",
                  amplitude=1e-3, perturbation_mode=(2, 1)), g)
    phase = 2 * np.pi * (2 * g.x[:, None] + 1 * g.y[None, :])
    assert np.max(np.abs(four.zeta - 1.0 - 1e-3 * np.cos(phase))) < 1e-15

    def rand_state(seed):
        return initial_state(
            RunConfig(mode="LocalGamma1", nx=12, ny=12, nz=7, params=params,
                      dt=1e-3, t_end=1e-3, preset="random_smooth",
                      amplitude=0.05, seed=seed), g)

    a, b, c = rand_state(3), rand_state(3), rand_state(4)
    assert np.array_equal(a.V, b.V) and np.array_equal(a.zeta, b.zeta)
    assert not np.array_equal(a.V, c.V)
    assert np.max(np.abs(a.V[:, :, -1, :])) < 1e-12  # rigid top
    assert np.max(np.abs(np.einsum("j,abjc->abc", g.Dz[0], a.V))) < 1e-8


@pytest.mark.parametrize("shape", ((12, 12, 7), (8, 8, 65)))
@pytest.mark.parametrize("mode", EVOLUTION_MODES)
def test_every_preset_meets_the_boundary_conditions(mode, shape,
                                                    general_params):
    # V = 0 at z = 1 exactly and d_z V = 0 at z = 0 to the bound the
    # deleted initial-state check applied
    params = mode_params(mode, general_params)
    g = make_grid(*shape)
    for preset in evolve.PRESETS:
        cfg = RunConfig(mode=mode, nx=g.nx, ny=g.ny, nz=g.nz, params=params,
                        dt=1e-3, t_end=1e-3, preset=preset,
                        amplitude=0.0 if preset == "steady" else 0.2, seed=5)
        V = initial_state(cfg, g).V
        assert np.all(V[:, :, -1, :] == 0.0)
        scale = max(1.0, float(np.max(np.abs(V))))
        assert np.max(np.abs(g.Dz[0] @ V)) <= 1e-8 * scale


def test_initial_density_window_is_enforced():
    cfg = RunConfig(mode="LocalGamma1", nx=12, ny=12, nz=7,
                    params=gamma1_params(), dt=1e-3, t_end=1e-3,
                    preset="fourier_perturbation", amplitude=0.8)
    with pytest.raises(ValueError, match=r"leaves \[M1, M2\]"):
        initial_state(cfg, make_grid(12, 12, 7))


@pytest.mark.parametrize("mode", [(float("inf"), 0), (float("nan"), 0),
                                  ("a", 1), (1.5, 0)])
def test_run_config_refuses_non_integer_mode_components(mode):
    # the rule's own message, not int()'s OverflowError or ValueError
    with pytest.raises(ValueError, match="perturbation_mode must be a "
                       "nonzero integer pair"):
        RunConfig(mode="LocalGamma1", nx=8, ny=8, nz=5,
                  params=gamma1_params(), dt=1e-3, t_end=1e-2,
                  preset="fourier_perturbation", amplitude=1e-3,
                  perturbation_mode=mode)


def test_run_config_validation():
    params = gamma1_params()
    good = dict(mode="LocalGamma1", nx=8, ny=8, nz=5, params=params,
                dt=1e-3, t_end=1e-2)
    RunConfig(**good)
    with pytest.raises(ValueError, match="unknown preset"):
        RunConfig(**{**good, "preset": "warp"})
    with pytest.raises(ValueError, match="dt must be positive"):
        RunConfig(**{**good, "dt": -1e-3})
    with pytest.raises(ValueError, match="t_end must be positive"):
        RunConfig(**{**good, "t_end": 0.0})
    with pytest.raises(ValueError, match="shorter than one step"):
        RunConfig(**{**good, "t_end": 1e-4})
    with pytest.raises(ValueError, match="output_every"):
        RunConfig(**{**good, "output_every": 0})
    with pytest.raises(ValueError, match="needs amplitude"):
        RunConfig(**{**good, "preset": "fourier_perturbation"})
    with pytest.raises(ValueError, match="perturbation_mode"):
        RunConfig(**{**good, "preset": "fourier_perturbation",
                     "amplitude": 1e-3, "perturbation_mode": (0, 0)})
    with pytest.raises(ValueError, match="perturbation_mode"):
        RunConfig(**{**good, "preset": "fourier_perturbation",
                     "amplitude": 1e-3, "perturbation_mode": [0, 0]})
    with pytest.raises(ValueError, match="perturbation_mode"):
        RunConfig(**{**good, "preset": "fourier_perturbation",
                     "amplitude": 1e-3, "perturbation_mode": (5, 0)})
    # each component is bounded by its own axis, as the 2/3 mask is
    wave = dict(good, preset="fourier_perturbation", amplitude=1e-3)
    RunConfig(**{**wave, "nx": 24, "ny": 12, "perturbation_mode": (6, 0)})
    RunConfig(**{**wave, "nx": 12, "ny": 24, "perturbation_mode": (0, 6)})
    with pytest.raises(ValueError, match="perturbation_mode"):
        RunConfig(**{**wave, "nx": 24, "ny": 12, "perturbation_mode": (0, 5)})
    with pytest.raises(ValueError, match="needs params.model"):
        RunConfig(**{**good, "mode": "LocalGamma2"})
    assert RunConfig(**{**good, "dt": 1e-3, "t_end": 1e-2}).n_steps == 10


def test_rows_respect_output_cadence():
    cfg = RunConfig(mode="LocalGamma1", nx=8, ny=8, nz=5,
                    params=gamma1_params(), dt=1e-3, t_end=1e-2,
                    output_every=3, preset="steady")
    res = run_simulation(cfg)
    assert res.status == "completed"
    assert res.n_steps == 10
    times = [row[0] for row in res.rows]
    assert times == pytest.approx([0.0, 3e-3, 6e-3, 9e-3, 1e-2])


def test_mode_tables_are_consistent():
    assert set(MODE_MODEL) == set(EVOLUTION_MODES)
    assert set(MODE_MODEL.values()) == {"Gamma1", "Gamma2", "GeneralNoGravity"}
    g = make_grid(8, 8, 5)
    state = LagrangianState(mode="GlobalGamma1", zeta=np.zeros((g.nx, g.ny)),
                            V=np.zeros((g.nx, g.ny, g.nz, 2)),
                            fm=identity_map(g), t=0.0)
    assert np.all(full_surface_density(state, gamma1_params()) == 1.0)


@pytest.mark.parametrize("shape", ((8, 8, 5), (12, 6, 7), (7, 9, 5),
                                   (24, 16, 9)))
def test_F2_dense_derivatives_match_pocketfft(shape, grid_of_any_parity,
                                              fft_derivative):
    g = grid_of_any_parity(*shape)
    rng = np.random.default_rng(36)
    V = rng.standard_normal(shape + (2,))
    dV = grad_h_vec(V, g)
    H = evolve._second_derivatives(V, dV)
    # a plane's bits do not depend on the derivatives taken beside it:
    # split, they are those of one fused call
    d = grid._derivatives(V, ((0, 1), (1, 1), (0, 2), (1, 2)))
    assert same_bytes(dV, d[..., :2])
    assert same_bytes(H[..., 0, 0], d[..., 2])
    assert same_bytes(H[..., 1, 1], d[..., 3])
    dxy = grid._derivatives(d[..., 1], ((0, 1),))[..., 0]
    assert same_bytes(H[..., 0, 1], dxy)
    assert same_bytes(H[..., 0, 1], H[..., 1, 0])
    # the fft's derivatives, each axis' multipliers and their squares
    dx, dy = (fft_derivative(V, ik, axis)
              for axis, ik in ((0, g.ikx), (1, g.iky)))
    ref_dV = np.stack([dx, dy], axis=-1)
    ref_H = np.stack([fft_derivative(V, g.ikx**2, 0),
                      fft_derivative(dy, g.ikx, 0),
                      fft_derivative(dx, g.iky, 1),
                      fft_derivative(V, g.iky**2, 1)], axis=-1)
    for got, want in ((dV, ref_dV), (H, ref_H.reshape(H.shape))):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("mode", ("LocalGamma1", "LocalGamma2",
                                  "GeneralNoGravity"))
@pytest.mark.parametrize("shape", ((8, 8, 5), (12, 16, 7)))
def test_small_local_step_transforms_only_to_dealias(mode, shape,
                                                     general_params,
                                                     monkeypatch):
    g = make_grid(*shape)
    params = mode_params(mode, general_params)
    stepper, s0 = stepper_and_state(mode, params, g)
    s1 = stepper.step(s0)
    counts = collections.Counter()
    for name in np.fft.__all__:
        monkeypatch.setattr(np.fft, name,
                            counted(counts, name, getattr(np.fft, name)))
    inside = collections.Counter()

    def dealias(f, g_):
        before = counts.total()
        out = grid.dealias(f, g_)
        inside["calls"] += 1
        inside["transforms"] += counts.total() - before
        return out

    monkeypatch.setattr(evolve, "dealias_field", dealias)
    stepper.step(s1)
    # F2 and F1 are dealiased; no other transform is made
    assert inside["calls"] == 2
    assert counts.total() == inside["transforms"] > 0


def test_steppers_share_one_read_only_set_of_sweep_matrices():
    g = make_grid(12, 12, 7)
    params = gamma1_params()
    (a, _), (b, _), (c, _) = (stepper_and_state(mode, params, g) for mode in
                              ("LocalGamma1", "LocalGamma1", "GlobalGamma1"))
    assert len(a._dft) == len(b._dft) == len(c._dft) == 4
    for ma, mb, mc in zip(a._dft, b._dft, c._dft):
        assert np.shares_memory(ma, mb) and np.shares_memory(ma, mc)
        assert not ma.flags.writeable and not mb.flags.writeable
    # y forward, x forward, x back, y back, spectra in (k, Re/Im) order
    nk = g.ny // 2 + 1
    assert [m.shape for m in a._dft] == [(2 * nk, g.ny), (2 * g.nx, 2 * g.nx),
                                         (2 * g.nx, 2 * g.nx), (g.ny, 2 * nk)]
    # each Stepper's own inverses: the columns of zeta (GlobalGamma1) and
    # the interior levels, transposed, contiguous, and stored once
    assert a._inv_t.shape == (nk, g.nx, 2 * (g.nz - 2), 2 * g.nz)
    assert c._inv_t.shape == (nk, g.nx, 1 + 2 * (g.nz - 2), 1 + 2 * g.nz)
    for s in (a, c):
        assert s._inv_t.flags.c_contiguous
        assert not hasattr(s, "_inv")
    assert not np.shares_memory(a._inv_t, b._inv_t)


def grid_image(kind, f, vector=False):
    """The image of a field (nx, ny, ...) under a symmetry of the periodic
    grid; with ``vector`` the last axis holds (x, y) components."""
    if kind == "shift":  # by whole cells
        f = np.roll(f, (5, 2), axis=(0, 1))
    elif kind == "swap":  # x <-> y, on square grids
        f = f.swapaxes(0, 1)
        if vector:
            f = f[..., ::-1]
    else:  # x -> -x
        f = np.roll(f[::-1], 1, axis=0)
        if vector:
            f = f * np.array([-1.0, 1.0])
    return np.ascontiguousarray(f)


@pytest.mark.parametrize("shape", ((12, 12, 7), (48, 48, 9)))
@pytest.mark.parametrize("mode", EVOLUTION_MODES)
def test_steps_commute_with_the_grid_symmetries(mode, shape, general_params):
    # one grid on each sweep path; three steps of an image are the image
    # of three steps, and its diagnostics row (with the energy and the
    # dissipation) is the same row, so a term that mixes x and y up breaks
    # an equality
    g = make_grid(*shape)
    assert (max(shape) <= grid.DENSE_SWEEP_MAX_N) == (shape[0] == 12)
    params = mode_params(mode, general_params)
    cfg = RunConfig(mode=mode, nx=g.nx, ny=g.ny, nz=g.nz, params=params,
                    dt=5e-3, t_end=5e-3, preset="random_smooth",
                    amplitude=0.3, seed=7)
    s0 = initial_state(cfg, g)

    def three_steps(zeta, V, zeta0):
        state = LagrangianState(mode=mode, zeta=zeta, V=V, fm=identity_map(g),
                                t=0.0, zeta0=zeta0)
        stepper = Stepper(mode, g, params, cfg.dt, zeta0=zeta0)
        for _ in range(3):
            state = stepper.step(state)
        entry = diagnostics.lagrangian_energy(
            full_surface_density(state, params), state.V,
            grad_h_vec(state.V, g), vertical_derivative(state.V, g),
            state.fm, g, params)
        row = _diagnostics_row(state, g, params, entry.E, entry.D)
        return (state.zeta, state.V, state.fm.disp), np.array(row)

    want, want_row = three_steps(s0.zeta, s0.V, s0.zeta0)
    for kind in ("shift", "swap", "reflect"):
        got, row = three_steps(
            grid_image(kind, s0.zeta), grid_image(kind, s0.V, True),
            None if s0.zeta0 is None else grid_image(kind, s0.zeta0))
        for a, b, vector in zip(got, want, (False, True, True)):
            b = grid_image(kind, b, vector)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), kind
        assert np.allclose(row, want_row, rtol=1e-12, atol=0.0), kind
