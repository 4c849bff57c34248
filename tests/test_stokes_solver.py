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
    _bordered,
    _kron,
    _pack_modes,
    _real_form,
    _replace_rows_dense,
    _unpack_modes,
    dense_chs,
    mode_matrices,
    mode_wavevectors,
    pack_state,
    unpack_state,
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
from cpelab.transforms import PhysicalParams, column_density

LAMBDAS = (0.0, 1.0, 1j, 10j, 100j)


def solve_dense(p, g, params):
    """Monolithic dense solve, the reference for the per-mode solve (coarse
    grids only); lambda = 0 deflates the kernel."""
    lam = complex(p.lam)
    n2 = g.nx * g.ny
    A = dense_chs(p.xi_bar, g, params, bc="raw")
    M = _replace_rows_dense(lam * np.eye(A.shape[0]) - A, g, offset=n2)
    f2 = np.array(p.f2, dtype=complex)
    f2[:, :, [0, -1], :] = 0.0  # their rows hold the boundary conditions
    rhs = pack_state(np.asarray(p.f1, dtype=complex), f2)
    if lam == 0:
        # the kernel, zeta in the mean and on the Nyquist lines, is also the
        # zeta rows' left kernel: adding its projector pins zeta off it
        M[:n2, :n2] += np.eye(n2) - stokes_solver._active_filter(
            g, mean_free=True)
    sol = np.linalg.solve(M, rhs)
    return unpack_state(sol.real if stokes_solver._is_real(p) else sol, g)


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


@pytest.mark.parametrize("lam", (3.7, 37j, 0.5 + 2j), ids=str)
def test_stiff_manufactured_solution_is_solved_to_rounding(lam):
    # at mu = 50 a block's interior rows outweigh its boundary rows by
    # orders of magnitude; with its rows scaled, partial pivoting keeps to
    # the boundary equations and the error stays at rounding (zeta within
    # 8.1e-15, V within 2.2e-15 here; up to 3.5e-12 and 1.2e-13 unscaled)
    g = make_grid(16, 8, 9)
    params = PhysicalParams(mu=50.0, mu_prime=25.0)
    problem, zeta_true, V_true = manufactured_resolvent_problem(lam, g, params)
    zeta, V = solve_resolvent(problem, g, params)
    for got, true in ((zeta, zeta_true), (V, V_true)):
        assert np.max(np.abs(got - true)) <= 1e-13 * np.max(np.abs(true))


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
            z2, V2 = solve_dense(problem, g, params)
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
# row, block or batch the breakdown must name)
LINALG_FAILURES = [
    pytest.param("inv", 3, _run_stepper, 1.0, "mode row 2", id="stepper"),
    # the resolvent at 8^2: the 10 shells |k|^2 = 0 ... 18 of the half-
    # spectrum in batches of ny/2 = 4, each solved as its (zeta, x) part,
    # then its y part; at lambda = 0 a pinned block is a shell of its own
    pytest.param("solve", 3, _run_resolvent, 1.0,
                 "the resolvent shells |k|^2 = 5, 8, 9, 10", id="resolvent"),
    pytest.param("solve", 1, _run_resolvent, 0.0,
                 "the resolvent shells |k|^2 = 0 (pinned), 1, 1 (pinned), 2",
                 id="resolvent-pinned"),
    pytest.param("eigvals", 1, _run_spectral_bound, 1.0, "the k = 0 block",
                 id="bound-k0"),
    # the filter pass at 8^2: the 9 shells |k|^2 = 1 ... 18 in batches of
    # ny/2 = 4, each eigensolved as its (zeta, x) part, then its y part
    pytest.param("eigvals", 2, _run_spectral_bound, 1.0,
                 "the filter shells |k|^2 = 1, 2, 4, 5", id="bound-row"),
    pytest.param("eigvals", 5, _run_spectral_bound, 1.0,
                 "the filter shells |k|^2 = 8, 9, 10, 13", id="bound-row-y"),
    # after the k = 0 block and the three shell batches of the filter pass
    pytest.param("eigvals", 8, _run_spectral_bound, 1.0,
                 "the candidate blocks", id="bound-candidates"),
    pytest.param("inv", 1, _run_steady, 0.0, "the velocity recovery blocks",
                 id="steady"),
]


@pytest.mark.parametrize("name,nth,run,lam,where", LINALG_FAILURES)
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


def full_spectrum_max_re(g, params):
    """Largest real part over every active mode, one mode at a time."""
    S, R = vertical_reduction(g)
    S2, R2 = np.kron(S, np.eye(2)), np.kron(R, np.eye(2))
    avg_row = g.wz @ R
    K = mode_wavevectors(g)
    xi_bar = params.xi_bar
    rho = column_density(params.model, xi_bar, g.z)
    m = 2 * (g.nz - 2)
    idx = np.arange(m // 2)
    best = -np.inf
    for ix, iy in zip(*np.nonzero(g.active_mask)):
        kt = K[ix, iy]
        Ak = S2 @ vertical_lame_block(kt, rho, g, params) @ R2
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


# (nx, ny, nz, model, xi_bar, mu, mu_prime); the last is operators32's
# spectrum, whose oracle takes about a second
BOUND_ORACLE_CASES = [
    pytest.param(n, n, 9, "Gamma1", 1.0, mu, mu_prime,
                 id=f"{mu}-{mu_prime}-{n}")
    for n in (8, 16) for mu, mu_prime in ((1.0, 1.0), (0.7, -0.3))
] + [
    pytest.param(8, 12, 7, "Gamma2", 1.0, 1.0, 0.5, id="8x12x7-Gamma2"),
    pytest.param(12, 8, 7, "Gamma2", 1.3, 0.7, -0.3,
                 id="12x8x7-Gamma2-xi1.3"),
    pytest.param(12, 8, 7, "Gamma1", 1.3, 1.0, 1.0, id="12x8x7-xi1.3"),
    pytest.param(16, 16, 9, "Gamma2", 1.3, 1.0, 1.0, id="16-Gamma2-xi1.3"),
    pytest.param(32, 32, 17, "Gamma1", 1.0, 1.1250954666046669,
                 0.9229103507271816, id="operators32"),
]


def random_bound_cases(count, seed=2026):
    """Random grids from 8x8x5 to 16x16x9: both models, xi_bar 1 and 1.3,
    mu' of both signs."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        nx, ny = rng.choice((8, 12, 16), size=2)
        nz = int(rng.choice((5, 7, 9)))
        model, xi_bar = ("Gamma1", "Gamma2")[i % 2], (1.0, 1.3)[i // 2 % 2]
        mu = float(rng.uniform(0.2, 2.0))
        mu_prime = float(rng.uniform(-0.5, 1.5) * mu)
        cases.append(pytest.param(int(nx), int(ny), nz, model, xi_bar, mu,
                                  mu_prime, id=f"random{i}"))
    return cases


def hard_bound_cases(count, seed=2027):
    """Random grids from 8x8x5 to 24x24x13 in the hard regimes: mu from 1e-3
    to 1e2, mu'/mu from -0.95 to 2, xi_bar from 0.1 to 10."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        nx, ny = rng.choice((8, 12, 16, 24), size=2)
        nz = int(rng.choice((5, 9, 13)))
        mu = float(10 ** rng.uniform(-3, 2))
        mu_prime = float(rng.uniform(-0.95, 2.0) * mu)
        xi_bar = float(10 ** rng.uniform(-1, 1))
        model = ("Gamma1", "Gamma2")[i % 2]
        cases.append(pytest.param(int(nx), int(ny), nz, model, xi_bar, mu,
                                  mu_prime, id=f"hard{i}"))
    return cases


BOUND_ORACLE_CASES += random_bound_cases(20) + [
    pytest.param(16, 16, 9, "Gamma2", 10.0, 1e-3, -0.95e-3, id="mu1e-3-xi10"),
    pytest.param(16, 16, 9, "Gamma1", 10.0, 1e-3, 2e-3, id="mu1e-3-xi10-G1"),
    pytest.param(12, 8, 7, "Gamma2", 0.1, 100.0, -95.0, id="mu100-xi0.1"),
    pytest.param(8, 12, 7, "Gamma1", 5.0, 0.01, -0.005, id="mu0.01-xi5"),
] + hard_bound_cases(20)


@pytest.mark.parametrize("nx,ny,nz,model,xi_bar,mu,mu_prime",
                         BOUND_ORACLE_CASES)
def test_spectral_bound_half_spectrum_is_the_full_maximum(
        nx, ny, nz, model, xi_bar, mu, mu_prime):
    # one mode of each pair +-k is eigensolved, and no bit of eta0 moves
    g = make_grid(nx, ny, nz)
    params = PhysicalParams(mu=mu, mu_prime=mu_prime, model=model,
                            xi_bar=xi_bar)
    assert spectral_bound(g, params) == -full_spectrum_max_re(g, params)
    # the block named as eta0_mode holds the maximum, bit for bit
    eta0, mode, _ = stokes_solver._located_bound(g, params, xi_bar)
    assert named_block_max_re(g, params, mode) == -eta0


def named_block_max_re(g, params, mode):
    """zgeev's max Re of the bordered block of A_CHS at the integer mode
    (kx, ky), or of the k = 0 velocity block at (0, 0)."""
    kt = mode_wavevectors(g)[mode]
    if not any(mode):
        S, R = vertical_reduction(g)
        S2, R2 = np.kron(S, np.eye(2)), np.kron(R, np.eye(2))
        rho = column_density(params.model, params.xi_bar, g.z)
        B = S2 @ vertical_lame_block(kt, rho, g, params) @ R2
    else:
        B = bound_blocks(kt, g, params)
    return np.linalg.eigvals(B).real.max()


def bound_blocks(kt, g, params):
    """The bordered blocks of A_CHS that ``spectral_bound`` eigensolves."""
    S, R = vertical_reduction(g)
    S2, R2 = np.kron(S, np.eye(2)), np.kron(R, np.eye(2))
    rho = column_density(params.model, params.xi_bar, g.z)
    vel = S2 @ vertical_lame_block(kt, rho, g, params) @ R2
    return _bordered(vel, kt, g.wz @ R, 0.0, -1.0, params.xi_bar)


@pytest.mark.parametrize("n,nz", ((16, 9), (32, 17)))
def test_real_form_has_the_eigenvalues_of_the_bordered_blocks(n, nz):
    # the filter pass ranks blocks by the max Re of D^-1 B D, D = diag(i, 1,
    # ..., 1); it must agree with zgeev on B far inside the margin
    # sqrt(eps) max|lambda| of the exact pass
    g = make_grid(n, n, nz)
    params = PhysicalParams(mu=1.1250954666046669, mu_prime=0.9229103507271816)
    K = mode_wavevectors(g)
    for row in range(g.nx):
        B = bound_blocks(K[row], g, params)
        R = _real_form(B)
        assert R.dtype == np.float64
        exact, real = np.linalg.eigvals(B), np.linalg.eigvals(R)
        size = np.abs(exact).max(axis=-1)
        gap = np.abs(real.real.max(axis=-1) - exact.real.max(axis=-1))
        assert np.all(gap <= 1e-3 * np.sqrt(np.finfo(float).eps) * size)


@pytest.mark.parametrize("params", (
    PhysicalParams(mu=1.0, mu_prime=0.5),
    PhysicalParams(mu=0.7, mu_prime=-0.3, model="Gamma2", xi_bar=1.3),
), ids=("Gamma1", "Gamma2"))
def test_ky_reflection_is_a_sign_similarity_of_the_blocks(params):
    # the block at (kx, -ky) is D B D with D = diag(1, (1, -1) per level),
    # entry for entry, so both have the same eigenvalues.  zgeev does not
    # round every such pair alike: at Gamma1 (1, 0.5) the max Re of 8 of
    # the 224 modes differs in its last bits (2.7e-12 relative, OpenBLAS
    # 0.3.31).  The bits of eta0 are pinned by the full-spectrum oracle.
    g = make_grid(16, 16, 9)
    K = mode_wavevectors(g)
    d = np.concatenate([[1.0], np.tile([1.0, -1.0], g.nz - 2)])
    reflected = -np.arange(g.ny) % g.ny
    for row in range(g.nx):
        B = bound_blocks(K[row], g, params)
        assert np.array_equal(B[reflected], d[:, None] * B * d[None, :])
        ev = np.linalg.eigvals(B)
        for stat in (ev.real.max(axis=-1), np.abs(ev).max(axis=-1)):
            assert np.allclose(stat[reflected], stat, rtol=1e-11, atol=0.0)


def shell_parts(q, g, params):
    """The real form of the block at (2 pi sqrt(q), 0), which the filter
    pass eigensolves for the shell |k|^2 = q (integer k), split into
    zeta with the x levels and the y levels: the two parts, then the two
    blocks of entries between them."""
    kt = np.array([2 * np.pi * np.sqrt(q), 0.0])
    R = _real_form(bound_blocks(kt, g, params))
    xz, y = np.r_[0, 1:len(R):2], np.r_[2:len(R):2]
    return (R[np.ix_(xz, xz)], R[np.ix_(y, y)], R[np.ix_(xz, y)],
            R[np.ix_(y, xz)])


@pytest.mark.parametrize("nx,ny,nz,params", (
    (16, 16, 9, PhysicalParams(mu=1.0, mu_prime=0.5)),
    (32, 32, 17, PhysicalParams(mu=1.1250954666046669,
                                mu_prime=0.9229103507271816)),
    (12, 16, 7, PhysicalParams(mu=1.0, mu_prime=-0.9, model="Gamma2",
                               xi_bar=1.3)),
), ids=("16", "operators32", "12x16x7-Gamma2"))
def test_every_block_on_a_shell_has_its_filter_value(nx, ny, nz, params):
    # the Lame symbol is isotropic, so each block is a rotation of the one
    # at (|k|, 0), whose real form splits exactly into two parts; every kept
    # block must read its shell's max Re far inside the filter's margin
    # sqrt(eps) max|lambda| = 1.5e-8 max|lambda|
    g = make_grid(nx, ny, nz)
    K = mode_wavevectors(g)
    for ix in range(g.nx // 2):
        iys = np.arange(ix == 0, g.ny // 2)
        ev = np.linalg.eigvals(bound_blocks(K[ix, iys], g, params))
        for iy, e in zip(iys, ev):
            xz, y, cross, cross_t = shell_parts(ix * ix + iy * iy, g, params)
            assert not cross.any() and not cross_t.any()
            a = max(np.linalg.eigvals(P).real.max() for P in (xz, y))
            assert abs(e.real.max() - a) <= 1e-13 * np.abs(e).max()


def test_a_reflected_block_that_holds_the_maximum_sets_eta0(monkeypatch):
    # zgeev may round a block and its reflection (kx, -ky) apart; force the
    # reflection of the block at k = (1, 1) just above the true maximum
    g = make_grid(8, 8, 5)
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    top = full_spectrum_max_re(g, params)
    K = mode_wavevectors(g)
    block, partner = (bound_blocks(K[1, iy], g, params) for iy in (1, -1))
    parts = shell_parts(2, g, params)[:2]
    original = np.linalg.eigvals
    forced = top + 1e-12 * abs(top)

    def rounding_apart(M):
        # the two parts of its shell |k|^2 = 2 too, so that the filter pass
        # ranks the block a candidate
        ev = original(M)
        for m, e in zip(M.reshape((-1,) + M.shape[-2:]),
                        ev.reshape(-1, ev.shape[-1])):
            for B, target in ((block, top), (parts[0], top), (parts[1], top),
                              (partner, forced)):
                if m.shape == B.shape and np.array_equal(m, B):
                    e += target - e.real.max()
        return ev

    monkeypatch.setattr(np.linalg, "eigvals", rounding_apart)
    assert full_spectrum_max_re(g, params) == forced
    assert spectral_bound(g, params) == -forced


@pytest.mark.parametrize("tied,named", (
    (((1, 1), (1, -1)), (1, 1)),
    (((1, -1), (2, 1)), (2, 1)),
    (((2, 1), (1, 2)), (1, 2)),
    (((1, -2), (1, -1)), (1, -1)),
), ids=("reflection", "next-row", "by-kx", "by-abs-ky"))
def test_a_tie_in_the_exact_pass_names_its_first_block(monkeypatch, tied,
                                                       named):
    # the exact pass takes the kept blocks with ky >= 0 first, then those
    # with ky < 0, each by kx, then |ky|, and a tie names the first: here
    # two blocks read the same max Re, just above the true maximum, and the
    # shells of both are ranked candidates
    g = make_grid(8, 8, 5)
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    top = full_spectrum_max_re(g, params)
    K = mode_wavevectors(g)
    blocks = [bound_blocks(K[k], g, params) for k in tied]
    parts = [P for k in tied for P in shell_parts(k[0] ** 2 + k[1] ** 2, g,
                                                    params)[:2]]
    original = np.linalg.eigvals
    forced = top + 1e-12 * abs(top)

    def tie(M):
        ev = original(M)
        for m, e in zip(M.reshape((-1,) + M.shape[-2:]),
                        ev.reshape(-1, ev.shape[-1])):
            for B, target in [(P, top) for P in parts] + [
                    (B, forced) for B in blocks]:
                if m.shape == B.shape and np.array_equal(m, B):
                    e.real[np.argmax(e.real)] = target  # exactly
        return ev

    monkeypatch.setattr(np.linalg, "eigvals", tie)
    eta0, mode, _ = stokes_solver._located_bound(g, params, params.xi_bar)
    assert eta0 == -forced
    assert mode == named


def test_spectral_bound_eigensolves_one_mode_of_each_pair(monkeypatch):
    g = make_grid(16, 16, 9)
    original = np.linalg.eigvals
    batches = []

    def counted(M):
        batches.append((M.shape, M.dtype))
        return original(M)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    spectral_bound(g, PhysicalParams(mu=1.0, mu_prime=0.5))
    # the filter pass: the k = 0 velocity block, then the 33 shells |k|^2 of
    # the 112 kept blocks (one of each pair +-k of the 224 active modes
    # without k = 0), in batches of ny/2 = 8 shells, each shell as a
    # (zeta, x) part of order 8 and a y part of order 7
    real = np.dtype(float)
    shells = [((c, n, n), real) for c in (8, 8, 8, 8, 1) for n in (8, 7)]
    assert batches[:11] == [((14, 14), real)] + shells
    # the exact pass: one zgeev batch of the kept blocks on the few
    # candidate shells (2 blocks here)
    [(shape, dtype)] = batches[11:]
    assert dtype == complex and shape[1:] == (15, 15)
    assert 1 <= shape[0] <= 4


def test_a_misranked_maximum_is_still_eigensolved_exactly(monkeypatch):
    # the filter rounds apart from zgeev, so another shell may read up to
    # the maximum: the margin sqrt(eps) max|lambda| keeps the block whose
    # shell then reads 0.5 sqrt(eps) max|lambda| below that one
    g = make_grid(16, 16, 9)
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    top = full_spectrum_max_re(g, params)
    K = mode_wavevectors(g)
    rows = [bound_blocks(K[ix], g, params) for ix in range(g.nx // 2 + 1)]
    half = np.s_[:len(rows), :g.ny // 2 + 1]
    best = np.array([np.linalg.eigvals(B).real.max(axis=-1) for B in rows])
    best = np.where(g.active_mask[half], best[half], -np.inf)
    best[0, 0] = -np.inf
    ix, iy = np.unravel_index(np.argmax(best), best.shape)
    assert best[ix, iy] == top
    kx, ky = np.indices(best.shape)
    shell = kx * kx + ky * ky
    jx, jy = np.unravel_index(
        np.argmax(np.where(shell == shell[ix, iy], -np.inf, best)), best.shape)
    block = rows[ix][iy]
    lowered = shell_parts(shell[ix, iy], g, params)[:2]
    raised = shell_parts(shell[jx, jy], g, params)[:2]
    drop = 0.5 * np.sqrt(np.finfo(float).eps) * np.abs(
        np.linalg.eigvals(block)).max()
    original = np.linalg.eigvals
    seen = {"lowered": 0, "raised": 0, "solved": 0}

    def misranked(M):
        ev = original(M)
        for m, e in zip(M.reshape((-1,) + M.shape[-2:]),
                        ev.reshape(-1, ev.shape[-1])):
            if any(m.shape == P.shape and np.array_equal(m, P)
                   for P in lowered):
                seen["lowered"] += 1
                e -= drop
            elif any(m.shape == P.shape and np.array_equal(m, P)
                     for P in raised):
                seen["raised"] += 1
                e += top - e.real.max()
            elif m.shape == block.shape and np.array_equal(m, block):
                seen["solved"] += 1
        return ev

    monkeypatch.setattr(np.linalg, "eigvals", misranked)
    assert spectral_bound(g, params) == -top
    assert seen == {"lowered": 2, "raised": 2, "solved": 1}


@pytest.mark.parametrize("lam", (0.0, 3.7, 37j), ids=str)
@pytest.mark.parametrize("shape", ((8, 12, 5), (12, 8, 7)), ids=str)
def test_each_resolvent_block_is_the_rotated_block_of_its_shell(shape, lam):
    # the block at K, Nyquist lines, k = 0 and pinned blocks too, is
    # Q B Q^T: B the block at (|K|, 0) as the shell solve builds it, at
    # 2 pi sqrt(q) for the integer q = |K|^2 / (2 pi)^2, and Q = diag(1, I
    # kron R) turning each level's velocity by the angle of K; and B has
    # no entries between its (zeta, x) and y parts
    g = make_grid(*shape)
    params = PhysicalParams(mu=0.9, mu_prime=0.6, xi_bar=1.2)
    rho = column_density(params.model, params.xi_bar, g.z)
    K = mode_wavevectors(g).reshape(-1, 2)
    pin = np.zeros(len(K), dtype=bool)
    if lam == 0:
        pin = ~g.active_mask.ravel()
        pin[0] = True

    def blocks(kt):
        M = mode_matrices(kt, rho, g, params, lam, 1.0, xi_bar=params.xi_bar)
        M[pin, 0, :] = 0.0
        M[pin, 0, 0] = 1.0
        return M

    k = np.sqrt(np.sum(K * K, axis=-1))
    q = np.rint((k / (2 * np.pi)) ** 2)
    B = blocks(np.stack([2 * np.pi * np.sqrt(q), 0 * q], axis=-1))
    c, s = np.where(k > 0, K.T / np.where(k > 0, k, 1.0), [[1.0], [0.0]])
    Q = np.zeros(B.shape)
    Q[:, 0, 0] = 1.0
    Q[:, 1:, 1:] = _kron(np.eye(g.nz), np.stack(
        [np.stack([c, -s], -1), np.stack([s, c], -1)], -2))
    M = blocks(K)
    err = np.abs(M - Q @ B @ Q.swapaxes(1, 2)).max(axis=(1, 2))
    assert np.all(err <= 1e-14 * np.abs(M).max(axis=(1, 2)))
    xz, y = stokes_solver._shell_parts(B.shape[-1])
    assert not B[:, xz[:, None], y].any() and not B[:, y[:, None], xz].any()


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


@pytest.mark.parametrize("pinned", (False, True), ids=("2q", "2q+pinned"))
@pytest.mark.parametrize("shape", ((8, 12, 5), (16, 8, 9), (32, 32, 17)),
                         ids=str)
def test_shell_batches_take_every_mode_once_by_ascending_shell(shape,
                                                                pinned):
    # keys 2 q, or the lambda = 0 keys of the resolvent solve, 2 q + 1 for
    # a pinned block (k = 0 and the Nyquist lines)
    g = make_grid(*shape)
    K = mode_wavevectors(g).reshape(-1, 2)
    k2 = np.sum(K * K, axis=-1)
    pin = np.zeros(len(K), dtype=bool)
    if pinned:
        pin = ~g.active_mask.ravel()
        pin[0] = True
    keys = 2 * np.rint(k2 / (2 * np.pi) ** 2).astype(int) + pin
    taken, last, names = [], -1, []
    for kt, pin_of, where, at, row, col in stokes_solver._shell_batches(
            keys, g.ny, "test"):
        assert 0 < len(kt) <= g.ny // 2 and not kt[:, 1].any()
        q = np.rint((kt[:, 0] / (2 * np.pi)) ** 2).astype(int)
        shell = 2 * q + pin_of
        assert last < shell[0] and np.all(np.diff(shell) > 0)
        last = shell[-1]
        assert np.array_equal(keys[at], shell[row])
        assert np.allclose(k2[at], kt[row, 0] ** 2, rtol=1e-12, atol=0.0)
        for r in range(len(kt)):
            # its modes in their stable order, as columns 0 ... count - 1
            assert np.all(np.diff(at[row == r]) > 0)
            assert np.array_equal(col[row == r], np.arange(np.sum(row == r)))
        named = [f"{v} (pinned)" if p else f"{v}" for v, p in zip(q, pin_of)]
        assert where == "the test shells |k|^2 = " + ", ".join(named)
        names += named
        taken.append(at)
    assert np.array_equal(np.sort(np.concatenate(taken)), np.arange(len(K)))
    # k = 0 and the zero wave vectors of the Nyquist modes are pinned
    assert ("0 (pinned)" in names) == pinned
    assert ("0" in names) != pinned


def row_solve_per_mode(p, g, params):
    """The per-mode solve with one factorization per mode, one kx row of
    blocks at a time: the reference of the shell solve."""
    lam = complex(p.lam)
    real = stokes_solver._is_real(p)
    dtype = float if real else complex
    rhs = _pack_modes(np.asarray(p.f2, dtype=dtype),
                      np.asarray(p.f1, dtype=dtype))[..., None]
    nk = rhs.shape[1]
    K = mode_wavevectors(g)[:, :nk]
    pin = np.zeros((g.nx, nk), dtype=bool)
    if lam == 0:
        pin = ~g.active_mask[:, :nk]
        pin[0, 0] = True
        rhs[pin, 0] = 0.0
    rho = column_density(params.model, p.xi_bar, g.z)
    sol = np.empty_like(rhs)
    for ix in range(g.nx):
        M = mode_matrices(K[ix], rho, g, params, lam, 1.0, xi_bar=p.xi_bar)
        M[pin[ix], 0, :] = 0.0
        M[pin[ix], 0, 0] = 1.0
        sol[ix] = np.linalg.solve(M, rhs[ix])
    return _unpack_modes(sol[..., 0], g, real)


@pytest.mark.parametrize("shape", ((8, 12, 5), (12, 8, 7), (16, 8, 9)),
                         ids=str)
def test_shell_solve_matches_the_row_solve(shape):
    # one factorization serves a |k|^2 shell, its modes' data rotated: the
    # solutions match one solve per mode to rounding (V within 6.1e-15
    # relative here, zeta within 1.5e-13), with as small a residual
    g = make_grid(*shape)
    params = PhysicalParams(mu=0.9, mu_prime=0.6, xi_bar=1.2)
    rng = np.random.default_rng(18)
    for lam in (0.0, 3.7, 37j, 0.5 + 2j):
        manufactured, _, _ = manufactured_resolvent_problem(lam, g, params)
        f1 = dealias(rng.standard_normal((g.nx, g.ny)), g)
        f2 = dealias(rng.standard_normal((g.nx, g.ny, g.nz, 2)), g)
        f2[:, :, [0, -1], :] = 0.0
        for base in ((manufactured.f1, manufactured.f2), (f1 - f1.mean(), f2)):
            for factor in (1.0, 1.0 - 0.5j):
                p = ResolventProblem(lam, factor * base[0], factor * base[1],
                                     xi_bar=params.xi_bar)
                got = stokes_solver._solve_per_mode(p, g, params)
                want = row_solve_per_mode(p, g, params)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype
                    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
                assert resolvent_residual(lam, *got, p.f1, p.f2, p.xi_bar, g,
                                          params) <= 1e-13


def test_shell_solve_of_zero_data_is_zero():
    # zero data gives exact zeros, as in the row solve
    g = make_grid(8, 12, 5)
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    for lam in (0.0, 3.7, 37j):
        p = ResolventProblem(lam, np.zeros((g.nx, g.ny)),
                             np.zeros((g.nx, g.ny, g.nz, 2)))
        for a, b in zip(stokes_solver._solve_per_mode(p, g, params),
                        row_solve_per_mode(p, g, params)):
            assert np.array_equal(a, b) and not np.any(a)


def test_shell_solve_factorizes_one_block_per_shell_batch(monkeypatch):
    g = make_grid(16, 8, 9)
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    original = np.linalg.solve
    shapes = []

    def counted(M, b):
        shapes.append((M.shape, b.shape, M.dtype))
        return original(M, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    # the 25 shells |k|^2 = 0 ... 58 of the half-spectrum (80 modes) or of
    # every mode (128), in batches of ny/2 = 4 shells, each batch solved
    # once as its (zeta, x) part of order 10 and once as its y part of
    # order 9, for its modes as columns padded to its largest shell; at
    # real lambda in real form, each mode's Re and Im side by side
    for lam, dtype, widths in ((3.7, float, (12, 12, 8, 12, 8, 8, 4)),
                               (37j, complex, (8, 8, 8, 8, 4, 4, 4))):
        shapes.clear()
        problem, _, _ = manufactured_resolvent_problem(lam, g, params)
        stokes_solver._solve_per_mode(problem, g, params)
        assert shapes == [((b, n, n), (b, n, w), np.dtype(dtype))
                          for b, w in zip((4,) * 6 + (1,), widths)
                          for n in (10, 9)]


def test_dense_solve_keeps_complex_data_at_real_lambda():
    g = make_grid(8, 8, 7)
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    problem, zeta_true, V_true = manufactured_resolvent_problem(2.0, g, params)
    c = 1.0 + 1.0j
    zeta, V = solve_dense(
        ResolventProblem(2.0, c * problem.f1, c * problem.f2), g, params)
    assert np.iscomplexobj(zeta) and np.iscomplexobj(V)
    scale = np.sqrt(l2_norm(zeta_true, g) ** 2 + l2_norm(V_true, g) ** 2)
    err = np.sqrt(l2_norm(zeta - c * zeta_true, g) ** 2
                  + l2_norm(V - c * V_true, g) ** 2)
    assert err / (abs(c) * scale) <= 1e-10
