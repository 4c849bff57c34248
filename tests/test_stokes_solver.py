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
    _pack_modes,
    _unpack_modes,
    mode_matrices,
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
from cpelab.transforms import PhysicalParams, column_density

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


@pytest.mark.parametrize("nx,ny,nz,model,xi_bar,mu,mu_prime",
                         BOUND_ORACLE_CASES)
def test_spectral_bound_half_spectrum_is_the_full_maximum(
        nx, ny, nz, model, xi_bar, mu, mu_prime):
    # one mode of each four is eigensolved, and no bit of eta0 moves
    g = make_grid(nx, ny, nz)
    params = PhysicalParams(mu=mu, mu_prime=mu_prime, model=model,
                            xi_bar=xi_bar)
    assert spectral_bound(g, params) == -full_spectrum_max_re(g, params)


def bound_blocks(kt, g, params):
    """The bordered blocks of A_CHS that ``spectral_bound`` eigensolves."""
    S, R = vertical_reduction(g)
    S2, R2 = np.kron(S, np.eye(2)), np.kron(R, np.eye(2))
    rho = column_density(params.model, params.xi_bar, g.z)
    vel = S2 @ vertical_lame_block(kt, rho, g, params) @ R2
    return _bordered(vel, kt, g.wz @ R, 0.0, -1.0, params.xi_bar)


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


def test_spectral_bound_eigensolves_one_mode_of_each_four(monkeypatch):
    g = make_grid(16, 16, 9)
    original = np.linalg.eigvals
    shapes = []

    def counted(M):
        shapes.append(M.shape)
        return original(M)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    spectral_bound(g, PhysicalParams(mu=1.0, mu_prime=0.5))
    # the k = 0 velocity block, then rows kx = 0..7 of ky = 0..7 without
    # k = 0 and the Nyquist lines: 63 bordered blocks where 112 make the
    # +-k half
    assert shapes == [(14, 14), (7, 15, 15)] + [(8, 15, 15)] * 7


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


def row_solve_per_mode(p, g, params):
    """The per-mode solve with one factorization per mode, one kx row of
    blocks at a time: the reference of the paired solve."""
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
def test_paired_solve_keeps_the_bits_of_the_row_solve(shape):
    # one factorization serves (+-kx, +-ky): D solve(M, D b) has the bits
    # of solve(D M D, b), and + 0.0 gives the flipped zeros their sign
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
                    assert a.tobytes() == b.tobytes()


def test_paired_solve_of_zero_data_is_zero():
    # the only difference from the row solve: zeros may change sign
    g = make_grid(8, 12, 5)
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    for lam in (0.0, 3.7, 37j):
        p = ResolventProblem(lam, np.zeros((g.nx, g.ny)),
                             np.zeros((g.nx, g.ny, g.nz, 2)))
        for a, b in zip(stokes_solver._solve_per_mode(p, g, params),
                        row_solve_per_mode(p, g, params)):
            assert np.array_equal(a, b) and not np.any(a)


def test_paired_solve_factorizes_one_block_per_reflection_class(monkeypatch):
    g = make_grid(16, 8, 9)
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    original = np.linalg.solve
    shapes = []

    def counted(M, b):
        shapes.append((M.shape, b.shape))
        return original(M, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    for lam, columns in ((3.7, 2), (37j, 4)):
        shapes.clear()
        problem, _, _ = manufactured_resolvent_problem(lam, g, params)
        stokes_solver._solve_per_mode(problem, g, params)
        # rows kx = 0..8 of ky = 0..4, each block solved for the
        # right-hand sides of its reflections
        n = 1 + 2 * g.nz
        assert shapes == [((5, n, n), (5, n, columns))] * 9


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
