"""Resolvent problems: manufactured solutions, compatibility, sweeps.

Solvers are verified against manufactured solutions (exact fields
substituted into the equations) and against each other (per-mode vs
dense, monolithic vs decomposed) — independent constructions whose
agreement pins down the discretization.
"""

from __future__ import annotations

import numpy as np
import pytest

from cpelab import stokes_solver
from cpelab.evolve import Stepper
from cpelab.grid import dealias, l2_norm, make_grid
from cpelab.operators import (
    SolverBreakdown,
    mode_wavevectors,
    vertical_lame_block,
    vertical_reduction,
)
from cpelab.stokes_solver import (
    CompatibilityError,
    ResolventProblem,
    imaginary_axis_resolvent_sweep,
    manufactured_resolvent_problem,
    resolvent_residual,
    solve_resolvent,
    solve_steady_decomposed,
    spectral_bound,
)
from cpelab.transforms import PhysicalParams

LAMBDAS = (0.0, 1.0, 1j, 10j, 100j)


@pytest.fixture(scope="module")
def setup():
    g = make_grid(12, 12, 9)
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    return g, params


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_manufactured_solution_residual_and_error(setup, lam):
    g, params = setup
    # the second problem has xi_bar = 1.3 and is solved under params with
    # xi_bar = 1: the solver must use the problem's reference density
    for xi_bar in (1.0, 1.3):
        problem, zeta_true, V_true = manufactured_resolvent_problem(
            lam, g, PhysicalParams(mu=params.mu, mu_prime=params.mu_prime,
                                   xi_bar=xi_bar))
        assert problem.xi_bar == xi_bar
        zeta, V = solve_resolvent(problem, g, params)
        res = resolvent_residual(lam, zeta, V, problem.f1, problem.f2,
                                 problem.xi_bar, g, params)
        assert res <= 1e-8
        scale = np.sqrt(l2_norm(zeta_true, g) ** 2 + l2_norm(V_true, g) ** 2)
        err = np.sqrt(l2_norm(zeta - zeta_true, g) ** 2
                      + l2_norm(V - V_true, g) ** 2)
        assert err / scale <= 1e-10


def test_zero_lambda_requires_mean_free_f1(setup):
    g, params = setup
    f1 = np.full((g.nx, g.ny), 0.2)
    f2 = np.zeros((g.nx, g.ny, g.nz, 2))
    with pytest.raises(CompatibilityError, match="compatibility"):
        solve_resolvent(ResolventProblem(0.0, f1, f2), g, params)


def test_negative_real_part_rejected():
    with pytest.raises(ValueError, match="Re lambda"):
        ResolventProblem(-1.0, np.zeros((4, 4)), np.zeros((4, 4, 5, 2)))


@pytest.mark.parametrize("lam,needle", (
    (float("nan"), "'lam' must be finite, got (nan+0j)"),
    (complex(1.0, float("inf")), "'lam' must be finite, got (1+infj)"),
    (-5e-15, "'lam' must satisfy Re lambda >= 0, got (-5e-15+0j)"),
))
def test_problem_takes_the_parsers_rule_on_lambda(lam, needle):
    with pytest.raises(ValueError) as exc_info:
        ResolventProblem(lam, np.zeros((4, 4)), np.zeros((4, 4, 5, 2)))
    assert str(exc_info.value) == needle


def test_solution_is_linear_in_data(setup):
    g, params = setup
    problem, _, _ = manufactured_resolvent_problem(1j, g, params)
    z1, V1 = solve_resolvent(problem, g, params)
    scaled = ResolventProblem(1j, 3.0 * problem.f1, 3.0 * problem.f2)
    z3, V3 = solve_resolvent(scaled, g, params)
    assert np.allclose(z3, 3.0 * z1, atol=1e-11)
    assert np.allclose(V3, 3.0 * V1, atol=1e-11)


def test_zero_data_gives_zero_solution(setup):
    g, params = setup
    problem = ResolventProblem(10j, np.zeros((g.nx, g.ny)),
                               np.zeros((g.nx, g.ny, g.nz, 2)))
    zeta, V = solve_resolvent(problem, g, params)
    assert np.all(zeta == 0) and np.all(V == 0)


def test_per_mode_and_dense_methods_agree():
    # at lambda = 0 the dense solve deflates the mean and the Nyquist zeta
    # modes, which the per-mode solve pins
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    for shape in ((4, 4, 5), (6, 6, 7)):
        g = make_grid(*shape)
        for lam in (1j, 0.0):
            problem, _, _ = manufactured_resolvent_problem(lam, g, params)
            z1, V1 = solve_resolvent(problem, g, params)
            z2, V2 = stokes_solver._solve_dense(problem, g, params)
            assert np.max(np.abs(z1 - z2)) < 1e-9
            assert np.max(np.abs(V1 - V2)) < 1e-9


def test_random_mean_free_steady_solve_consistency(setup):
    # no manufactured truth: check the equation residual directly
    g, params = setup
    rng = np.random.default_rng(0)
    f1 = dealias(rng.standard_normal((g.nx, g.ny)), g)
    f1 -= f1.mean()
    f2 = dealias(rng.standard_normal((g.nx, g.ny, g.nz, 2)), g)
    f2[:, :, -1, :] = 0.0
    f2[:, :, 0, :] = 0.0
    problem = ResolventProblem(0.0, f1, f2)
    zeta, V = solve_resolvent(problem, g, params)
    res = resolvent_residual(0.0, zeta, V, f1, f2, 1.0, g, params)
    assert res <= 1e-10
    assert abs(float(np.mean(zeta))) < 1e-10  # mean pinned to zero


def test_unresolved_nyquist_data_raises_honest_breakdown(setup):
    # lambda = 0 continuity cannot match f1 content on the Nyquist lines
    # (their derivative multipliers vanish); the residual check reports it.
    g, params = setup
    x = g.x[:, None]
    f1 = np.cos(2 * np.pi * (g.nx // 2) * x) * np.ones((1, g.ny))
    f2 = np.zeros((g.nx, g.ny, g.nz, 2))
    with pytest.raises(SolverBreakdown, match="breakdown"):
        solve_resolvent(ResolventProblem(0.0, f1, f2), g, params)


def _run_stepper(g, params, problem):
    return Stepper("GlobalGamma1", g, params, 1e-2)


def _run_resolvent(g, params, problem):
    return solve_resolvent(problem, g, params)


def _run_spectral_bound(g, params, problem):
    return spectral_bound(g, params)


def _run_steady(g, params, problem):
    return solve_steady_decomposed(problem.f1, problem.f2, g, params)


# (numpy.linalg function, the call of it that fails, solver, lambda, the
# row or block the breakdown must name)
LINALG_FAILURES = [
    ("inv", 3, _run_stepper, 1.0, "mode row 2"),
    ("solve", 2, _run_resolvent, 1.0, "mode row 1"),
    ("eigvals", 1, _run_spectral_bound, 1.0, "the k = 0 block"),
    ("eigvals", 2, _run_spectral_bound, 1.0, "mode row 0"),
    ("inv", 1, _run_steady, 0.0, "the velocity recovery blocks"),
]


@pytest.mark.parametrize(
    "name,nth,run,lam,where", LINALG_FAILURES,
    ids=("stepper", "resolvent", "bound-k0", "bound-row", "steady"))
def test_linear_algebra_failure_names_its_row_or_block(monkeypatch, name,
                                                       nth, run, lam, where):
    g = make_grid(8, 8, 5)
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    problem, _, _ = manufactured_resolvent_problem(lam, g, params)
    original = getattr(np.linalg, name)
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == nth:
            raise np.linalg.LinAlgError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, fails_once)
    with pytest.raises(SolverBreakdown) as info:
        run(g, params, problem)
    assert str(info.value) == f"linear-algebra breakdown in {where}: injected"
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_decomposed_steady_matches_monolithic(setup):
    g, params = setup
    problem, _, _ = manufactured_resolvent_problem(0.0, g, params)
    z_mono, V_mono = solve_resolvent(problem, g, params)
    z_dec, V_dec = solve_steady_decomposed(problem.f1, problem.f2, g, params)
    scale = np.sqrt(l2_norm(z_mono, g) ** 2 + l2_norm(V_mono, g) ** 2)
    err = np.sqrt(l2_norm(z_dec - z_mono, g) ** 2
                  + l2_norm(V_dec - V_mono, g) ** 2)
    assert err / scale <= 1e-7


def test_decomposed_steady_solves_the_real_part_of_complex_data():
    g = make_grid(8, 8, 7)
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    problem, _, _ = manufactured_resolvent_problem(0.0, g, params)
    want = solve_steady_decomposed(problem.f1, problem.f2, g, params)
    for f1, f2 in ((problem.f1 * (1 + 0.5j), problem.f2),
                   (problem.f1, problem.f2 * (1 - 2j))):
        got = solve_steady_decomposed(f1, f2, g, params)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_imaginary_axis_sweep_bounded_with_decaying_velocity(setup):
    g, params = setup
    report = imaginary_axis_resolvent_sweep(g, params, n_rhs=2, seed=1)
    assert report.bounded
    assert np.isfinite(report.max_ratio)
    assert report.slope == pytest.approx(-1.0, abs=0.1)
    # ratios show no growth trend: the largest |lambda| does not dominate
    assert report.ratios[-1] <= 2.0 * max(report.ratios[:3])


def test_imaginary_axis_sweep_takes_reference_density_from_params(
        monkeypatch):
    g = make_grid(6, 6, 5)
    params = PhysicalParams(mu=1.0, mu_prime=0.5, xi_bar=1.3)
    seen = []

    def record(prob, g, params):
        seen.append(prob.xi_bar)
        return np.ones((g.nx, g.ny)), np.ones((g.nx, g.ny, g.nz, 2))

    monkeypatch.setattr(stokes_solver, "solve_resolvent", record)
    imaginary_axis_resolvent_sweep(g, params, n_rhs=1)
    assert seen and set(seen) == {1.3}


def test_spectral_bound_per_mode_matches_dense():
    g = make_grid(6, 6, 7)
    params = PhysicalParams(mu=1.0, mu_prime=1.0)
    # an explicit xi_bar overrides params.xi_bar (= 1) in both methods
    for kwargs in ({}, {"xi_bar": 1.3}):
        e1 = spectral_bound(g, params, method="per_mode", **kwargs)
        e2 = spectral_bound(g, params, method="dense", **kwargs)
        assert e1 > 0
        assert np.isclose(e1, e2, rtol=1e-8)
    # without it, xi_bar is params.xi_bar
    p13 = PhysicalParams(mu=1.0, mu_prime=1.0, xi_bar=1.3)
    assert spectral_bound(g, p13) == spectral_bound(g, p13, xi_bar=1.3)
    assert spectral_bound(g, p13) != spectral_bound(g, params)


def test_mean_free_active_basis_projects_onto_filtered_fields():
    g = make_grid(4, 6, 5)  # nx != ny: the unit fields keep their shape
    nvert = 2
    Q = stokes_solver._mean_free_active_basis(g, nvert)
    assert np.allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-12)
    rng = np.random.default_rng(4)
    zeta = rng.standard_normal((g.nx, g.ny))
    V = rng.standard_normal((g.nx, g.ny, nvert))
    mask_zeta = g.active_mask.astype(float)
    mask_zeta[0, 0] = 0.0

    def filt(f, mask):
        return np.fft.ifft2(np.fft.fft2(f, axes=(0, 1)) * mask,
                            axes=(0, 1)).real

    want = np.concatenate([filt(zeta, mask_zeta).ravel(),
                           filt(V, g.active_mask[:, :, None]).ravel()])
    u = np.concatenate([zeta.ravel(), V.ravel()])
    assert np.allclose(Q @ (Q.T @ u), want, atol=1e-12)


def test_mean_free_active_basis_spans_the_filter_projector():
    g = make_grid(4, 6, 5)
    nvert = 2
    Q = stokes_solver._mean_free_active_basis(g, nvert)
    n2 = g.nx * g.ny
    mask_zeta = g.active_mask.astype(float)
    mask_zeta[0, 0] = 0.0
    # column j of P is the filtered j-th unit state
    units = np.eye(n2 * (1 + nvert))
    zeta = units[:, :n2].reshape(-1, g.nx, g.ny)
    V = units[:, n2:].reshape(-1, g.nx, g.ny, nvert)
    fz = np.fft.ifft2(np.fft.fft2(zeta) * mask_zeta).real
    fV = np.fft.ifft2(np.fft.fft2(V, axes=(1, 2))
                      * g.active_mask[:, :, None], axes=(1, 2)).real
    P = np.concatenate([fz.reshape(len(units), -1),
                        fV.reshape(len(units), -1)], axis=1).T
    assert Q.shape[1] == mask_zeta.sum() + nvert * g.active_mask.sum()
    assert np.max(np.abs(Q @ Q.T - P)) <= 1e-12


def full_spectrum_max_re(g, params, xi_bar=1.0):
    """Largest real part over every active mode, one mode at a time."""
    S, R = vertical_reduction(g)
    S2, R2 = np.kron(S, np.eye(2)), np.kron(R, np.eye(2))
    avg_row = g.wz @ R
    K = mode_wavevectors(g)
    m = 2 * (g.nz - 2)
    idx = np.arange(m // 2)
    best = -np.inf
    for ix, iy in zip(*np.nonzero(g.active_mask)):
        kt = K[ix, iy]
        Ak = S2 @ vertical_lame_block(kt, xi_bar, g, params) @ R2
        if ix == 0 and iy == 0:
            best = max(best, np.linalg.eigvals(Ak).real.max())
            continue
        B = np.zeros((1 + m, 1 + m), dtype=complex)
        B[1:, 1:] = Ak
        for c in range(2):
            B[0, 1 + idx * 2 + c] = -xi_bar * 1j * kt[c] * avg_row
            B[1 + idx * 2 + c, 0] = -1j * kt[c]
        best = max(best, np.linalg.eigvals(B).real.max())
    return best


@pytest.mark.parametrize("n", (8, 16))
@pytest.mark.parametrize("mu,mu_prime", ((1.0, 1.0), (0.7, -0.3)))
def test_spectral_bound_half_spectrum_is_the_full_maximum(n, mu, mu_prime):
    g = make_grid(n, n, 9)
    params = PhysicalParams(mu=mu, mu_prime=mu_prime)
    assert spectral_bound(g, params) == -full_spectrum_max_re(g, params)


def loop_solve_per_mode(problem, g, params):
    """Bordered solve of (lambda - A_CHS) U = F, one mode at a time."""
    lam, xi_bar, nz = complex(problem.lam), problem.xi_bar, g.nz
    n, iz = 1 + 2 * nz, np.arange(nz)
    K = mode_wavevectors(g)
    f1h = np.fft.fft2(np.asarray(problem.f1, dtype=complex), axes=(0, 1))
    f2h = np.fft.fft2(np.asarray(problem.f2, dtype=complex), axes=(0, 1))
    zetah = np.zeros((g.nx, g.ny), dtype=complex)
    Vh = np.zeros((g.nx, g.ny, nz, 2), dtype=complex)
    for ix, iy in np.ndindex(g.nx, g.ny):
        kt = K[ix, iy]
        M = np.zeros((n, n), dtype=complex)
        M[0, 0] = lam
        M[1:, 1:] = lam * np.eye(2 * nz) - vertical_lame_block(
            kt, xi_bar, g, params)
        rhs = np.concatenate([[f1h[ix, iy]], f2h[ix, iy].reshape(2 * nz)])
        for c in range(2):
            M[0, 1 + iz * 2 + c] = xi_bar * 1j * kt[c] * g.wz
            M[1 + iz * 2 + c, 0] = 1j * kt[c]
            top, bot = 1 + (nz - 1) * 2 + c, 1 + c
            M[top, :] = 0.0
            M[top, top] = 1.0
            M[bot, :] = 0.0
            M[bot, 1 + iz * 2 + c] = g.Dz[0]
            rhs[top] = rhs[bot] = 0.0
        if lam == 0 and (ix == iy == 0 or not g.active_mask[ix, iy]):
            M[0, :] = 0.0
            M[0, 0] = 1.0
            rhs[0] = 0.0
        sol = np.linalg.solve(M, rhs)
        zetah[ix, iy] = sol[0]
        Vh[ix, iy] = sol[1:].reshape(nz, 2)
    return (np.fft.ifft2(zetah, axes=(0, 1)),
            np.fft.ifft2(Vh, axes=(0, 1)))


@pytest.mark.parametrize("lam,factor", (
    pytest.param(0.0, 1.0, id="0.0"),
    pytest.param(3.0, 1.0, id="3.0"),
    pytest.param(40j, 1.0, id="40j"),
    # complex data at real lambda is solved on every mode
    pytest.param(2.0, 1.0 + 1.0j, id="2.0-complex-data"),
))
def test_batched_resolvent_matches_mode_loop(setup, lam, factor):
    g, params = setup
    problem, _, _ = manufactured_resolvent_problem(lam, g, params)
    problem = ResolventProblem(lam, factor * problem.f1, factor * problem.f2,
                               xi_bar=problem.xi_bar)
    zeta, V = solve_resolvent(problem, g, params)
    assert np.iscomplexobj(V) == (np.iscomplexobj(factor) or lam.imag != 0)
    z_ref, V_ref = loop_solve_per_mode(problem, g, params)
    for got, ref in ((zeta, z_ref), (V, V_ref)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_dense_solve_keeps_complex_data_at_real_lambda():
    g = make_grid(8, 8, 7)
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    problem, zeta_true, V_true = manufactured_resolvent_problem(2.0, g, params)
    c = 1.0 + 1.0j
    zeta, V = stokes_solver._solve_dense(
        ResolventProblem(2.0, c * problem.f1, c * problem.f2), g, params)
    assert np.iscomplexobj(zeta) and np.iscomplexobj(V)
    scale = np.sqrt(l2_norm(zeta_true, g) ** 2 + l2_norm(V_true, g) ** 2)
    err = np.sqrt(l2_norm(zeta - c * zeta_true, g) ** 2
                  + l2_norm(V - c * V_true, g) ** 2)
    assert err / (abs(c) * scale) <= 1e-10
