"""The ``cpelab verify`` battery: eleven self-contained correctness checks.

Each check takes ``(tol_scale, mutation)`` and returns ``(ok, detail)``:
``tol_scale >= 1`` relaxes its tolerance, and only the chain-rule oracle
check uses ``mutation``, a defect injected into the explicit nonlinearity.
This module imports sympy through :mod:`cpelab.reference`, so the CLI
imports it only when ``verify`` runs.
"""

from __future__ import annotations

import functools
import os
import tempfile

import numpy as np

from . import diagnostics, evolve, flowmap, operators, reference, stokes_solver
from .grid import l2_norm, make_grid
from .transforms import PhysicalParams

__all__ = ["VERIFY_CHECKS", "run"]


def _verify_symbol(tol_scale: float, mutation):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(2):
        mu = float(rng.uniform(0.2, 3.0))
        mu_prime = float(rng.uniform(-0.5 * mu, 3.0))
        for k1 in range(-4, 5):
            for k2 in range(-4, 5):
                if k1 == 0 and k2 == 0:
                    continue
                eigs = operators.lame_symbol_eigs((k1, k2), mu, mu_prime)
                dense = np.sort(np.linalg.eigvalsh(eigs.matrix))
                mine = np.sort([eigs.lam1, eigs.lam2])
                worst = max(worst, float(np.max(np.abs(mine - dense)
                                                / np.abs(dense))))
                if min(mine) <= 0:
                    return False, "nonpositive symbol eigenvalue"
    ok = worst <= 1e-12 * tol_scale
    return ok, f"max rel err {worst:.2e}"


def _verify_operator_oracle(tol_scale: float, mutation):
    g = make_grid(4, 4, 5)
    params = PhysicalParams(mu=1.0, mu_prime=0.8)
    xi0 = 1.0 + 0.2 * np.cos(2 * np.pi * g.x)[:, None] * np.sin(
        2 * np.pi * g.y)[None, :]
    A = operators.dense_hydrostatic_lame(xi0, g, params)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(3):
        V = rng.standard_normal((4, 4, 5, 2))
        ref = (A @ V.reshape(-1)).reshape(V.shape)
        out = operators.apply_hydrostatic_lame(V, xi0, g, params)
        worst = max(worst, float(np.max(np.abs(out - ref))
                                 / np.max(np.abs(ref))))
    B = operators.dense_chs(1.0, g, params)
    for _ in range(3):
        zeta = rng.standard_normal((4, 4))
        V = rng.standard_normal((4, 4, 5, 2))
        ref = B @ operators.pack_state(zeta, V)
        rz, rV = operators.unpack_state(ref, g)
        z2, V2 = operators.apply_chs(zeta, V, 1.0, g, params)
        err = max(float(np.max(np.abs(z2 - rz))),
                  float(np.max(np.abs(V2 - rV)))) / max(
                      float(np.max(np.abs(ref))), 1e-300)
        worst = max(worst, err)
    ok = worst <= 1e-10 * tol_scale
    return ok, f"max rel err {worst:.2e}"


def _verify_spectrum(tol_scale: float, mutation):
    g = make_grid(6, 6, 7)
    params = PhysicalParams(mu=1.0, mu_prime=1.0)
    eta0 = stokes_solver.spectral_bound(g, params)
    if not eta0 > 0:
        return False, f"spectral bound {eta0:.3e} not positive"
    A = operators.dense_chs(1.0, g, params, bc="replace")
    null = np.zeros(A.shape[0])
    null[:36] = 1.0
    res = float(np.max(np.abs(A @ null)))
    ok = res <= 1e-12 * tol_scale
    return ok, f"eta0 {eta0:.4f}, null-vector residual {res:.2e}"


@functools.cache
def _manufactured_solve(lam: complex):
    """The manufactured resolvent problem at ``lam`` on 8x8x7 and its
    checked solve ``(g, params, problem, zeta, V, residual)``.

    Cached, so that the decomposed steady check compares against the
    lambda = 0 solve of the resolvent check instead of solving it again.
    """
    g = make_grid(8, 8, 7)
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    problem, _, _ = stokes_solver.manufactured_resolvent_problem(
        lam, g, params)
    return (g, params, problem,
            *stokes_solver._solve_checked(problem, g, params))


def _verify_resolvent(tol_scale: float, mutation):
    worst = max(_manufactured_solve(lam)[-1] for lam in (0.0, 1j))
    ok = worst <= 1e-8 * tol_scale
    return ok, f"max residual {worst:.2e}"


def _verify_compatibility(tol_scale: float, mutation):
    g = make_grid(6, 6, 5)
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    f1 = np.full((6, 6), 0.3)
    f2 = np.zeros((6, 6, 5, 2))
    try:
        stokes_solver.solve_resolvent(
            stokes_solver.ResolventProblem(0.0, f1, f2), g, params)
    except stokes_solver.CompatibilityError:
        return True, "nonzero-mean f1 rejected at lambda = 0"
    return False, "nonzero-mean f1 accepted at lambda = 0"


def _verify_steady_decomposed(tol_scale: float, mutation):
    g, params, problem, z_mono, V_mono, _ = _manufactured_solve(0.0)
    z_dec, V_dec = stokes_solver.solve_steady_decomposed(
        problem.f1, problem.f2, g, params)
    err = stokes_solver._state_norm(z_dec - z_mono, V_dec - V_mono, g)
    scale = max(stokes_solver._state_norm(z_mono, V_mono, g), 1e-300)
    rel = float(err / scale)
    ok = rel <= 1e-7 * tol_scale
    return ok, f"decomposed vs monolithic rel err {rel:.2e}"


def _verify_oracle(tol_scale: float, mutation):
    template = reference.build_oracle_template("LocalGamma1",
                                               mu=1.0, mu_prime=0.5)
    g = make_grid(24, 24, 17)
    params = PhysicalParams(mu=1.0, mu_prime=0.5, model="Gamma1")
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(2):
        coeffs = reference.sample_coefficients(rng, "LocalGamma1")
        truth = template.evaluate(coeffs, g)
        state = evolve.LagrangianState(
            mode="LocalGamma1", zeta=truth.zeta, V=truth.V, fm=truth.fm,
            t=0.0, zeta0=truth.zeta0, dtV=truth.dtV)
        F1 = evolve.nonlinearity_F1(state, g, params, dealias=False)
        F2 = evolve.nonlinearity_F2(state, truth.dtV, g, params,
                                    dealias=False, mutation=mutation)
        e1 = l2_norm(F1 - truth.F1, g) / max(l2_norm(truth.F1, g), 1e-300)
        e2 = l2_norm(F2 - truth.F2, g) / max(l2_norm(truth.F2, g), 1e-300)
        worst = max(worst, float(e1), float(e2))
    ok = worst <= 1e-6 * tol_scale
    return ok, f"max rel err vs chain-rule oracle {worst:.2e}"


def _verify_flowmap(tol_scale: float, mutation):
    g = make_grid(16, 16, 5)
    x = g.x[:, None]
    y = g.y[None, :]
    vbar = 0.05 * np.stack(
        [np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
         np.cos(2 * np.pi * x) * np.ones_like(x + y)], axis=-1)
    fm = flowmap.identity_map(g)
    for _ in range(4):
        fm = flowmap.advance_flow(fm, vbar, g, 0.05)
    Xpos = flowmap.positions(fm, g)
    ident = np.stack(np.meshgrid(g.x, g.y, indexing="ij"), axis=-1)
    dY = flowmap.invert_map(fm, g, inv_tol=1e-13) - ident
    comp = Xpos + flowmap.evaluate_at_points(dY, Xpos, g)
    round_err = float(np.max(np.abs(comp - ident)))
    dist = np.abs(fm.gradX - np.eye(2)).sum(axis=-1).max(axis=-1)
    zdist = np.abs(fm.Z - np.eye(2)).sum(axis=-1).max(axis=-1)
    neumann_ok = bool(np.all(zdist <= 2.0 * dist + 1e-14))
    ok = round_err <= 1e-10 * tol_scale and neumann_ok
    return ok, f"roundtrip {round_err:.2e}, Neumann bound holds: {neumann_ok}"


def _verify_fixed_point(tol_scale: float, mutation):
    params = PhysicalParams(mu=1.0, mu_prime=1.0, model="Gamma1", xi_bar=1.0)
    cfg = evolve.RunConfig(mode="GlobalGamma1", nx=8, ny=8, nz=7,
                           params=params, dt=1e-3, t_end=0.02,
                           preset="steady")
    result = evolve.run_simulation(cfg)
    rows = np.asarray(result.rows)
    sup = float(np.max(np.abs(rows[:, [4, 5]])))
    ok = result.status == "completed" and sup <= 1e-13 * tol_scale
    return ok, f"max perturbation norm over run {sup:.2e}"


def _verify_mass(tol_scale: float, mutation):
    params = PhysicalParams(mu=1.0, mu_prime=1.0, model="Gamma1",
                            M1=0.5, M2=2.0)
    cfg = evolve.RunConfig(mode="LocalGamma1", nx=12, ny=12, nz=7,
                           params=params, dt=1e-3, t_end=0.02,
                           preset="random_smooth", amplitude=0.1, seed=1)
    result = evolve.run_simulation(cfg)
    rows = np.asarray(result.rows)
    drift = float(np.max(np.abs(rows[:, 1] - rows[0, 1]))
                  / np.abs(rows[0, 1]))
    ok = result.status == "completed" and drift <= 1e-6 * tol_scale
    return ok, f"relative mass drift {drift:.2e}"


def _verify_determinism(tol_scale: float, mutation):
    params = PhysicalParams(mu=1.0, mu_prime=1.0, model="Gamma1",
                            M1=0.5, M2=2.0)
    cfg = evolve.RunConfig(mode="LocalGamma1", nx=8, ny=8, nz=5,
                           params=params, dt=1e-3, t_end=5e-3,
                           preset="random_smooth", amplitude=0.1, seed=4)
    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(2):
            result = evolve.run_simulation(cfg)
            path = os.path.join(tmp, f"d{i}.csv")
            diagnostics.write_diagnostics_csv(result.rows, path)
            with open(path, "rb") as fh:
                blobs.append(fh.read())
    ok = blobs[0] == blobs[1]
    return ok, "bitwise-identical CSV" if ok else "CSV outputs differ"


VERIFY_CHECKS = (
    ("symbol eigenvalues match dense 2x2 eigensolves", _verify_symbol),
    ("matrix-free operators match dense assemblies", _verify_operator_oracle),
    ("mean-free spectrum stable; exact null vector", _verify_spectrum),
    ("manufactured resolvent residuals", _verify_resolvent),
    ("steady compatibility rejection", _verify_compatibility),
    ("decomposed steady solve matches monolithic", _verify_steady_decomposed),
    ("nonlinearities match chain-rule oracle", _verify_oracle),
    ("flow-map roundtrip and Neumann bound", _verify_flowmap),
    ("global steady state is an exact fixed point", _verify_fixed_point),
    ("mass conservation on a short run", _verify_mass),
    ("determinism of diagnostics output", _verify_determinism),
)


def run(tol_scale: float, mutation: str | None) -> bool:
    """Run every check, print its table line, and say whether all passed."""
    all_ok = True
    width = max(len(name) for name, _ in VERIFY_CHECKS)
    for name, fn in VERIFY_CHECKS:
        ok, detail = fn(tol_scale, mutation)
        all_ok = all_ok and ok
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] {name:<{width}}  {detail}")
    print("verification " + ("passed" if all_ok else "FAILED"))
    return all_ok
