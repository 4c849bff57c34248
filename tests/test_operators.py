"""Viscous operators: symbols, matrix-free vs dense realizations, blocks.

The dense matrices are assembled from explicit DFT differentiation
matrices and Kronecker products while the applicators use FFTs — two
independent code paths that must agree.  Symbols are checked against
closed-form eigenvalues and dense 2x2 eigensolves.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from cpelab import evolve, operators, stokes_solver
from cpelab.grid import (
    _ddx,
    _ddy,
    div_h,
    grad_h,
    make_grid,
    vertical_derivative,
)
from cpelab.operators import (
    B1_MIN,
    DENSE_LIMIT,
    SYMBOL_KMAX,
    _dft_derivative_matrix,
    apply_chs,
    apply_hydrostatic_lame,
    dense_chs,
    dense_hydrostatic_lame,
    lame_symbol_eigs,
    mode_matrices,
    mode_wavevectors,
    pack_state,
    symbol_ellipticity_report,
    unpack_state,
    vertical_lame_block,
    vertical_reduction,
)
from cpelab.transforms import (
    DELTA,
    PhysicalParams,
    column_density,
    lame_weights,
    make_pressure_law,
)


def smooth_xi0(g, base=1.0, amp=0.2):
    x = g.x[:, None]
    y = g.y[None, :]
    out = base + amp * (np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)
                        + 0.5 * np.sin(2 * np.pi * y))
    assert np.all(out > 0)
    return out


def all_model_params():
    return [
        PhysicalParams(mu=1.0, mu_prime=0.7, model="Gamma1"),
        PhysicalParams(mu=0.8, mu_prime=-0.3, model="Gamma2"),
        PhysicalParams(mu=1.2, mu_prime=0.5, model="GeneralNoGravity",
                       **make_pressure_law("linear", c=1.0)),
    ]


# ---------------------------------------------------------------------------
# symbol
# ---------------------------------------------------------------------------

def test_symbol_worked_examples():
    mu, mup = 1.3, 0.4
    e = lame_symbol_eigs((1, 0), mu, mup)
    assert np.isclose(e.lam1, (mu + mup) * 4 * np.pi**2, atol=1e-12)
    assert np.isclose(e.lam2, mu * 4 * np.pi**2, atol=1e-12)
    e2 = lame_symbol_eigs((1, 1), mu, mup)
    assert np.isclose(e2.lam2, mu * 8 * np.pi**2, atol=1e-12)


def test_symbol_matrix_eigensolve_agreement():
    rng = np.random.default_rng(5)
    for _ in range(5):
        mu = float(rng.uniform(0.1, 3.0))
        mup = float(rng.uniform(-0.9 * mu, 3.0))
        k = rng.integers(-8, 9, size=2)
        if k[0] == 0 and k[1] == 0:
            k = np.array([1, 0])
        e = lame_symbol_eigs(k, mu, mup)
        dense = np.sort(np.linalg.eigvalsh(e.matrix))
        mine = np.sort([e.lam1, e.lam2])
        assert np.allclose(mine, dense, rtol=1e-12)
        assert np.all(mine > 0)


def test_ellipticity_report_admissible_and_inadmissible():
    rep = symbol_ellipticity_report(1.0, 1.0)
    assert rep.ok
    assert np.isclose(rep.min_lam2, 4 * np.pi**2, atol=1e-10)
    # inadmissible pairs are reported, not raised
    bad = symbol_ellipticity_report(1.0, -1.5)
    assert not bad.ok and min(bad.min_lam1, bad.min_lam2) < 0


def test_b1_constant_is_the_minimum_of_the_gamma1_weight_ratio():
    w_h, w_z = lame_weights("Gamma1", np.linspace(0.0, 1.0, 100001))
    assert B1_MIN == float(np.min(w_z / w_h))
    assert np.isclose(B1_MIN, np.exp(-2.0) / DELTA**2, rtol=1e-15)


@pytest.mark.parametrize("mu,mup", [(1.3, 0.4), (1.0, -1.5), (-0.5, 2.0),
                                    (0.0, 0.0)])
def test_ellipticity_report_table_matches_scalar_symbol(mu, mup):
    rep = symbol_ellipticity_report(mu, mup)
    axis = range(-SYMBOL_KMAX, SYMBOL_KMAX + 1)
    modes = [(k1, k2) for k1 in axis for k2 in axis if (k1, k2) != (0, 0)]
    assert [tuple(k) for k in rep.k.tolist()] == modes
    eigs = [lame_symbol_eigs(k, mu, mup) for k in modes]
    assert rep.lam1.tolist() == [e.lam1 for e in eigs]
    assert rep.lam2.tolist() == [e.lam2 for e in eigs]
    # the minimum over the disk |k_H| <= SYMBOL_KMAX, first in row-major
    # order
    disk = [(min(e.lam1, e.lam2), k) for k, e in zip(modes, eigs)
            if k[0] ** 2 + k[1] ** 2 <= SYMBOL_KMAX ** 2]
    least = min(m for m, _ in disk)
    argmin = next(k for m, k in disk if m == least)
    assert rep.argmin_k == argmin
    assert min(rep.min_lam1, rep.min_lam2) == least


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_lame_coefficients_values():
    # the coefficients w_H / rho and w_Z / rho of A = L / rho, per model
    g = make_grid(4, 4, 5)
    xi0 = smooth_xi0(g)

    def coefficients(params):
        wH, wZ = lame_weights(params.model, g.z)
        rho = column_density(params.model, xi0, g.z)
        assert rho.shape == (g.nx, g.ny, g.nz)
        return wH / rho, wZ / rho

    a, b = coefficients(all_model_params()[0])
    one_minus = 1.0 - DELTA * g.z
    assert np.allclose(a[2, 3], 1.0 / (one_minus * xi0[2, 3]), atol=1e-15)
    assert np.allclose(b[2, 3], one_minus / (DELTA**2 * xi0[2, 3]),
                       atol=1e-15)
    for params, c in ((all_model_params()[1], 1.0 / (xi0[1, 2] + g.z / 2.0)),
                      (all_model_params()[2], 1.0 / xi0[1, 2])):
        a, b = coefficients(params)
        assert np.allclose(a[1, 2], c, atol=1e-15)
        assert np.allclose(b[1, 2], c, atol=1e-15)
    V = np.zeros((g.nx, g.ny, g.nz, 2))
    with pytest.raises(ValueError, match="nonpositive"):
        apply_hydrostatic_lame(V, -1.0, g, all_model_params()[0])
    with pytest.raises(ValueError, match="nonpositive"):
        dense_hydrostatic_lame(-xi0, g, all_model_params()[1])


# ---------------------------------------------------------------------------
# matrix-free vs dense
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", all_model_params(),
                         ids=lambda p: p.model)
def test_dense_matches_matrix_free_lame(params):
    g = make_grid(4, 4, 5)
    xi0 = smooth_xi0(g)
    A = dense_hydrostatic_lame(xi0, g, params)
    rng = np.random.default_rng(2)
    for _ in range(5):
        V = rng.standard_normal((4, 4, 5, 2))
        ref = (A @ V.reshape(-1)).reshape(V.shape)
        out = apply_hydrostatic_lame(V, xi0, g, params)
        assert np.max(np.abs(out - ref)) <= 1e-10 * np.max(np.abs(ref))


def composed_lame(V, xi0, g, params):
    """The viscous operator composed from first derivatives, one at a time,
    with the coefficients of each model written out."""
    horiz = (params.mu * (_ddx(_ddx(V, g), g) + _ddy(_ddy(V, g), g))
             + params.mu_prime * grad_h(div_h(V, g), g))

    def dz(f):
        return vertical_derivative(f, g)

    xi = xi0[:, :, None]
    if params.model == "Gamma1":
        one_minus = 1.0 - DELTA * g.z
        a = 1.0 / (one_minus * xi)
        b = one_minus / (DELTA**2 * xi)
        return a[..., None] * horiz + params.mu * dz(b[..., None] * dz(V))
    if params.model == "Gamma2":
        c = 1.0 / (xi + g.z / 2.0)
    else:
        c = np.broadcast_to(1.0 / xi, xi0.shape + g.z.shape)
    return c[..., None] * (horiz + params.mu * dz(dz(V)))


@pytest.mark.parametrize("shape", ((8, 8, 5), (32, 32, 17)))
@pytest.mark.parametrize("params", all_model_params(),
                         ids=lambda p: p.model)
def test_one_pass_lame_matches_composed_derivatives(params, shape):
    g = make_grid(*shape)
    xi0 = smooth_xi0(g)
    rng = np.random.default_rng(32)
    V = rng.standard_normal(shape + (2,))
    for field in (V, V + 1j * rng.standard_normal(V.shape)):
        got = apply_hydrostatic_lame(field, xi0, g, params, bc="raw")
        ref = composed_lame(field, xi0, g, params)
        assert got.dtype == field.dtype
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_dense_matches_matrix_free_chs():
    g = make_grid(4, 4, 5)
    params = PhysicalParams(mu=1.0, mu_prime=0.7)
    B = dense_chs(1.3, g, params)
    rng = np.random.default_rng(3)
    for _ in range(5):
        zeta = rng.standard_normal((4, 4))
        V = rng.standard_normal((4, 4, 5, 2))
        ref = B @ pack_state(zeta, V)
        r1, r2 = apply_chs(zeta, V, 1.3, g, params)
        got = pack_state(r1, r2)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_boundary_row_replacement_semantics():
    g = make_grid(4, 4, 5)
    params = all_model_params()[0]
    rng = np.random.default_rng(4)
    V = rng.standard_normal((4, 4, 5, 2))
    out = apply_hydrostatic_lame(V, 1.0, g, params)
    assert np.allclose(out[:, :, -1, :], V[:, :, -1, :], atol=0)
    dzV = vertical_derivative(V, g)
    assert np.allclose(out[:, :, 0, :], dzV[:, :, 0, :], atol=1e-12)


def test_replaced_rows_are_written_into_the_raw_action():
    # the boundary layers replaced in place keep the bytes of the raw
    # action copied and then replaced
    g = make_grid(8, 8, 7)
    xi0 = smooth_xi0(g)
    rng = np.random.default_rng(35)
    zeta = rng.standard_normal((8, 8))
    V = rng.standard_normal((8, 8, 7, 2))
    for params in all_model_params():
        for z, v in ((zeta, V), (zeta * (1 + 2j), V * (1 - 1j))):
            rows = [apply_hydrostatic_lame(v, xi0, g, params, bc="raw"),
                    apply_chs(z, v, 1.3, g, params, bc="raw")[1]]
            for raw in rows:
                raw[:, :, -1, :] = v[:, :, -1, :]
                raw[:, :, 0, :] = g.Dz[0] @ v
            got = [apply_hydrostatic_lame(v, xi0, g, params),
                   apply_chs(z, v, 1.3, g, params)[1]]
            for a, b in zip(got, rows):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    out = np.zeros_like(V)
    assert operators._replace_bc_rows(out, V, g) is out
    assert out[:, :, -1].tobytes() == V[:, :, -1].tobytes()


def test_chs_null_vector_constant_zeta():
    g = make_grid(4, 4, 5)
    params = PhysicalParams(mu=1.0, mu_prime=1.0)
    B = dense_chs(1.0, g, params, bc="replace")
    null = np.zeros(B.shape[0])
    null[: 16] = 2.7
    assert np.max(np.abs(B @ null)) < 1e-12


@pytest.mark.parametrize("n", [4, 6, 8])
def test_dft_derivative_matrix_differentiates_trig_exactly(n):
    g = make_grid(n, n, 5)
    D = _dft_derivative_matrix(n, g.ikx)
    assert D.dtype == np.float64
    assert np.max(np.abs(D @ np.ones(n))) <= 1e-12
    for k in range(1, n // 2):  # the Nyquist line has no derivative
        w = 2 * np.pi * k
        s, c = np.sin(w * g.x), np.cos(w * g.x)
        assert np.max(np.abs(D @ s - w * c)) <= 1e-12 * w
        assert np.max(np.abs(D @ c + w * s)) <= 1e-12 * w


def test_dense_limit_enforced():
    g = make_grid(16, 16, 5)
    with pytest.raises(ValueError, match="too large"):
        dense_hydrostatic_lame(1.0, g, all_model_params()[0])


# ---------------------------------------------------------------------------
# per-mode vertical blocks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", all_model_params(),
                         ids=lambda p: p.model)
def test_vertical_block_matches_full_operator_on_single_mode(params):
    g = make_grid(8, 8, 7)
    xi0_value = 1.2
    k = np.array([2, -1])
    kt = 2 * np.pi * k.astype(float)
    blk = vertical_lame_block(
        kt, column_density(params.model, xi0_value, g.z), g, params)
    rng = np.random.default_rng(6)
    phi = rng.standard_normal(2 * g.nz) + 1j * rng.standard_normal(2 * g.nz)
    x = g.x[:, None, None]
    y = g.y[None, :, None]
    wave = np.exp(1j * (kt[0] * x + kt[1] * y))
    V = wave[..., None] * phi.reshape(g.nz, 2)[None, None, :, :]
    out = (apply_hydrostatic_lame(V.real, xi0_value, g, params, bc="raw")
           + 1j * apply_hydrostatic_lame(V.imag, xi0_value, g, params,
                                         bc="raw"))
    ref = wave[..., None] * (blk @ phi).reshape(g.nz, 2)[None, None, :, :]
    assert np.max(np.abs(out - ref)) < 1e-9 * np.max(np.abs(ref))


def loop_lame_block(kt, xi0_value, g, params):
    """The one-mode block written out with np.kron, as the reference."""
    k2 = float(kt @ kt)
    mu, mup = params.mu, params.mu_prime
    I2 = np.eye(2)
    kk = np.outer(kt, kt)
    if params.model == "Gamma1":
        one_minus = 1.0 - DELTA * g.z
        a = 1.0 / (one_minus * xi0_value)
        b = one_minus / (DELTA**2 * xi0_value)
        vert = g.Dz @ np.diag(b) @ g.Dz
        return (-mu * k2 * np.kron(np.diag(a), I2) + mu * np.kron(vert, I2)
                - mup * np.kron(np.diag(a), kk))
    if params.model == "Gamma2":
        c = 1.0 / (xi0_value + g.z / 2.0)
    else:
        c = np.full(g.nz, 1.0 / xi0_value)
    return (mu * np.kron(np.diag(c) @ (g.Dz @ g.Dz - k2 * np.eye(g.nz)), I2)
            - mup * np.kron(np.diag(c), kk))


@pytest.mark.parametrize("params", all_model_params(),
                         ids=lambda p: p.model)
def test_stacked_blocks_equal_single_mode_blocks(params):
    g = make_grid(8, 6, 7)
    K = mode_wavevectors(g)
    rng = np.random.default_rng(12)
    stacks = [
        rng.uniform(-40.0, 40.0, (3, 4, 2)),   # random wave vectors
        np.zeros((1, 2)),                      # k = 0
        K[g.nx // 2],                          # the Nyquist lines
        K[:, g.ny // 2],
        K,                                     # the whole grid
    ]
    rho = column_density(params.model, 1.3, g.z)
    for kt in stacks:
        blocks = vertical_lame_block(kt, rho, g, params)
        assert blocks.shape == kt.shape[:-1] + (2 * g.nz, 2 * g.nz)
        for idx in np.ndindex(kt.shape[:-1]):
            single = vertical_lame_block(kt[idx], rho, g, params)
            assert np.array_equal(blocks[idx], single)
            # the reference folds 1/rho into each coefficient first
            ref = loop_lame_block(kt[idx], 1.3, g, params)
            assert (np.max(np.abs(single - ref))
                    <= 1e-14 * np.max(np.abs(ref)))


def test_mode_matrices_border_and_boundary_rows():
    g = make_grid(6, 6, 5)
    params = PhysicalParams(mu=1.0, mu_prime=0.5)
    nz, iz = g.nz, np.arange(g.nz)
    K = mode_wavevectors(g)
    A = vertical_lame_block(K, 1.0, g, params)
    shift, scale, xi_bar = 0.5 + 2j, 0.3, 1.7
    bordered = mode_matrices(K, 1.0, g, params, shift, scale, xi_bar=xi_bar)
    plain = mode_matrices(K, 1.0, g, params, 2.0, scale)
    assert bordered.shape == (6, 6, 1 + 2 * nz, 1 + 2 * nz)
    assert plain.shape == (6, 6, 2 * nz, 2 * nz) and plain.dtype == float
    for ix, iy in np.ndindex(6, 6):
        kt = K[ix, iy]
        ref = np.zeros((1 + 2 * nz, 1 + 2 * nz), dtype=complex)
        ref[0, 0] = shift
        ref[1:, 1:] = shift * np.eye(2 * nz) - scale * A[ix, iy]
        ref_plain = 2.0 * np.eye(2 * nz) - scale * A[ix, iy]
        for c in range(2):
            ref[0, 1 + iz * 2 + c] = scale * xi_bar * 1j * kt[c] * g.wz
            ref[1 + iz * 2 + c, 0] = scale * 1j * kt[c]
        for M, off in ((ref, 1), (ref_plain, 0)):
            for c in range(2):
                top, bot = off + (nz - 1) * 2 + c, off + c
                M[top, :] = 0.0
                M[top, top] = 1.0
                M[bot, :] = 0.0
                M[bot, off + iz * 2 + c] = g.Dz[0]
        assert np.array_equal(bordered[ix, iy], ref)
        assert np.array_equal(plain[ix, iy], ref_plain)


def kron_lame_block(kt, rho, g, params):
    """The Lame blocks as one Kronecker formula broadcast over every mode."""
    def kron(A, B):
        out = A[..., :, None, :, None] * B[..., None, :, None, :]
        return out.reshape(out.shape[:-4] + (A.shape[-2] * B.shape[-2],
                                             A.shape[-1] * B.shape[-1]))

    kt = np.asarray(kt, dtype=float)
    k2 = kt[..., None, :] @ kt[..., :, None]
    kk = kt[..., :, None] * kt[..., None, :]
    wH, wZ = lame_weights(params.model, g.z)
    rho = np.broadcast_to(rho, g.z.shape)
    a = np.diag(wH / rho)
    vert = (g.Dz / rho[:, None]) @ np.diag(wZ) @ g.Dz
    I2 = np.eye(2)
    return (-params.mu * k2 * kron(a, I2) + params.mu * kron(vert, I2)
            - params.mu_prime * kron(a, kk))


def kron_mode_matrices(kt, rho, g, params, shift, scale, xi_bar=None):
    """:func:`mode_matrices` from :func:`kron_lame_block`, bordered and
    given boundary rows over whole blocks."""
    nz = g.nz
    kt = np.asarray(kt, dtype=float)
    M = shift * np.eye(2 * nz) - scale * kron_lame_block(kt, rho, g, params)
    off = 0
    if xi_bar is not None:
        B = np.zeros(M.shape[:-2] + (1 + 2 * nz,) * 2, dtype=complex)
        B[..., 0, 0] = shift
        B[..., 0, 1:] = (scale * xi_bar * 1j * kt[..., None, :]
                         * g.wz[:, None]).reshape(kt.shape[:-1] + (2 * nz,))
        B[..., 1:, 0] = np.tile(scale * 1j * kt, nz)
        B[..., 1:, 1:] = M
        M, off = B, 1
    comp = np.arange(2)
    top = off + 2 * (nz - 1) + comp
    bot = off + comp
    M[..., top, :] = 0.0
    M[..., top, top] = 1.0
    M[..., bot, :] = 0.0
    M[..., bot[:, None], off + 2 * np.arange(nz) + comp[:, None]] = g.Dz[0]
    return M


@pytest.mark.parametrize("params", all_model_params(),
                         ids=lambda p: p.model)
def test_block_builders_keep_the_bytes_of_the_kronecker_formula(params):
    # the shared off-diagonal part and the per-mode level-diagonal blocks
    # give every nonzero entry the bits of the whole-block formula; the
    # sign of a zero is not kept, and no output depends on it (see the
    # tests below)
    rng = np.random.default_rng(18)
    for nx, ny, nz in ((8, 12, 5), (12, 8, 7)):
        g = make_grid(nx, ny, nz)
        K = mode_wavevectors(g)
        stacks = [K[1, 3], K[0, 0], K[3], K[:, 2], K,
                  rng.uniform(-40.0, 40.0, (3, 4, 2))]
        rho = column_density(params.model, 1.3, g.z)
        # (shift, scale, xi_bar): the implicit step's local and coupled
        # blocks, the resolvent's and the steady recovery's
        systems = ((0.8, 0.05, None), (1.0, 0.02, 1.0),
                   (0.5 + 2j, 1.0, 1.3), (37j, 1.0, 0.7), (0.0, -1.0, None))
        for kt in stacks:
            for r in (1.0, rho):
                assert np.array_equal(vertical_lame_block(kt, r, g, params),
                                      kron_lame_block(kt, r, g, params))
                for shift, scale, xi_bar in systems:
                    got = mode_matrices(kt, r, g, params, shift, scale,
                                        xi_bar)
                    want = kron_mode_matrices(kt, r, g, params, shift,
                                              scale, xi_bar)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)


@pytest.fixture
def kron_blocks(monkeypatch):
    """Once called, every Lame block is built by :func:`kron_lame_block`,
    and every per-mode system by :func:`kron_mode_matrices`."""
    def use_kron():
        for module in (operators, stokes_solver):
            monkeypatch.setattr(module, "vertical_lame_block", kron_lame_block)
        for module in (stokes_solver, evolve):
            monkeypatch.setattr(module, "mode_matrices", kron_mode_matrices)
    return use_kron


def test_spectral_bound_keeps_the_bits_of_the_kronecker_blocks(kron_blocks):
    rng = np.random.default_rng(19)
    configs = []
    for params in all_model_params():
        for xi_bar in (1.0, 1.3):
            for nx, ny, nz in ((6, 6, 5), (8, 6, 5), (8, 8, 7), (6, 10, 5),
                               (10, 8, 5), (8, 12, 7), (12, 8, 5)):
                mu = float(rng.uniform(0.3, 2.0))
                mu_prime = float(rng.uniform(-0.5 * mu, 2.0))
                configs.append((make_grid(nx, ny, nz), xi_bar,
                                dataclasses.replace(params, mu=mu,
                                                    mu_prime=mu_prime)))
    assert len(configs) >= 40
    got = [stokes_solver.spectral_bound(g, p, xi_bar)
           for g, xi_bar, p in configs]
    kron_blocks()
    want = [stokes_solver.spectral_bound(g, p, xi_bar)
            for g, xi_bar, p in configs]
    assert got == want


def test_per_mode_solves_keep_the_bytes_of_the_kronecker_blocks(kron_blocks):
    rng = np.random.default_rng(19)
    problems = []
    for nx, ny, nz in ((8, 12, 5), (12, 8, 7)):
        g = make_grid(nx, ny, nz)
        for params in all_model_params():
            f1 = rng.standard_normal((nx, ny))
            f1 -= f1.mean()
            f2 = rng.standard_normal((nx, ny, nz, 2))
            # with zero data the solution is all zeros, whose signs must
            # match too
            for data in ((f1, f2), (0 * f1, 0 * f2)):
                for lam in (0.0, 3.7, 37j, 0.5 + 2j):
                    problems.append((stokes_solver.ResolventProblem(
                        lam, *data, xi_bar=1.3), g, params))
    got = [stokes_solver._solve_per_mode(*case) for case in problems]
    kron_blocks()
    for (zeta, V), case in zip(got, problems):
        zeta_k, V_k = stokes_solver._solve_per_mode(*case)
        assert zeta.tobytes() == zeta_k.tobytes()
        assert V.tobytes() == V_k.tobytes()


@pytest.mark.parametrize("mode", evolve.EVOLUTION_MODES)
def test_stepper_inverses_equal_those_of_the_kronecker_blocks(kron_blocks,
                                                              mode):
    params = {p.model: p for p in all_model_params()}[evolve.MODE_MODEL[mode]]
    grids = [make_grid(8, 8, 5), make_grid(12, 8, 7)]
    zeta0 = [None if mode == "GlobalGamma1" else smooth_xi0(g) for g in grids]

    def inverses():
        return [evolve.Stepper(mode, g, params, 0.02, zeta0=z)._inv_t
                for g, z in zip(grids, zeta0)]

    got = inverses()
    kron_blocks()
    for inv, want in zip(got, inverses()):
        assert np.array_equal(inv, want)


def test_vertical_reduction_properties():
    g = make_grid(4, 4, 9)
    S, R = vertical_reduction(g)
    assert S.shape == (7, 9) and R.shape == (9, 7)
    assert np.allclose(S @ R, np.eye(7), atol=0)
    # lifted vectors satisfy both boundary conditions exactly
    rng = np.random.default_rng(7)
    w = rng.standard_normal(7)
    v = R @ w
    assert v[-1] == 0.0
    assert abs(g.Dz[0, :] @ v) < 1e-12


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------

def test_pack_unpack_roundtrip():
    g = make_grid(4, 4, 5)
    rng = np.random.default_rng(9)
    zeta = rng.standard_normal((4, 4))
    V = rng.standard_normal((4, 4, 5, 2))
    z2, V2 = unpack_state(pack_state(zeta, V), g)
    assert np.array_equal(z2, zeta) and np.array_equal(V2, V)

