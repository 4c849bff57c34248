"""Grid construction, spectral derivatives and quadrature.

The differentiation machinery is checked against independent oracles:
the classical cotangent interpolation matrix for the periodic
directions, and exactness on the monomial basis (which determines the
matrices uniquely) for the vertical Chebyshev direction.
"""

from __future__ import annotations

import numpy as np
import pytest

from cpelab import grid
from cpelab.diagnostics import surface_h1_norm
from cpelab.flowmap import advance_flow, advance_flow_lagrangian, identity_map
from cpelab.grid import (
    _ddx,
    _ddy,
    _fft_h,
    _ifft_h,
    dealias,
    div_h,
    grad_h,
    grad_h_vec,
    integral,
    integrate_from_bottom,
    l2_norm,
    make_grid,
    validate_field,
    vertical_average,
    vertical_derivative,
)
from cpelab.operators import (
    _dft_derivative_matrix,
    _pack_modes,
    _unpack_modes,
    apply_chs,
    apply_hydrostatic_lame,
)
from cpelab.transforms import PhysicalParams


def fourier_diff_matrix(n: int) -> np.ndarray:
    """Cotangent differentiation matrix for n uniform nodes on [0, 1).

    D[i, j] = pi (-1)^(i-j) cot(pi (i-j) / n) for i != j; the derivative
    of the trigonometric interpolant (cosine convention at Nyquist).
    """
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (np.pi * (-1.0) ** (i - j)
                           / np.tan(np.pi * (i - j) / n))
    return D


def test_make_grid_rejects_small_or_odd_resolutions():
    with pytest.raises(ValueError, match="nx"):
        make_grid(3, 8, 5)
    with pytest.raises(ValueError, match="ny"):
        make_grid(8, 7, 5)
    with pytest.raises(ValueError, match="nz"):
        make_grid(8, 8, 2)


def test_make_grid_rejects_resolutions_above_the_ceiling():
    # 128 * 65 * 89^2 is within 2^26, 128 * 65 * 91^2 is not; 4 * 32769 * 7^2
    # is within it too, but the dense derivative matrices of a 65536-node
    # axis are not: the axis length bounds them
    assert make_grid(128, 128, 44).nz == 44
    assert make_grid(1024, 4, 3).nx == grid.MAX_HORIZONTAL_N == 1024
    for shape in ((128, 128, 45), (2**40, 8, 5), (8, 8, 10**9), (1026, 4, 3),
                  (4, 65536, 3)):
        with pytest.raises(ValueError, match="resolution too large"):
            make_grid(*shape)
    with pytest.raises(ValueError, match="ny=65536 exceeds 1024$"):
        make_grid(4, 65536, 3)


def test_grid_nodes_and_weights_basic_structure():
    g = make_grid(8, 6, 7)
    assert g.x.shape == (8,) and g.x[0] == 0.0
    assert np.allclose(np.diff(g.x), 1.0 / 8.0)
    assert g.z[0] == 0.0 and g.z[-1] == 1.0
    assert np.all(np.diff(g.z) > 0)
    assert np.isclose(g.wz.sum(), 1.0)


def test_horizontal_derivative_matches_cotangent_matrix():
    g = make_grid(12, 8, 5)
    rng = np.random.default_rng(0)
    f = rng.standard_normal((12, 8))
    Dx = fourier_diff_matrix(12)
    Dy = fourier_diff_matrix(8)
    got = grad_h(f, g)
    assert np.allclose(got[..., 0], Dx @ f, atol=1e-11)
    assert np.allclose(got[..., 1], f @ Dy.T, atol=1e-11)


def test_horizontal_derivative_exact_on_trigonometric_polynomials():
    g = make_grid(16, 16, 5)
    x = g.x[:, None]
    y = g.y[None, :]
    f = np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y) + np.cos(6 * np.pi * x)
    fx = (2 * np.pi * np.cos(2 * np.pi * x) * np.cos(4 * np.pi * y)
          - 6 * np.pi * np.sin(6 * np.pi * x))
    fy = -4 * np.pi * np.sin(2 * np.pi * x) * np.sin(4 * np.pi * y)
    got = grad_h(f, g)
    assert np.allclose(got[..., 0], fx, atol=1e-11)
    assert np.allclose(got[..., 1], fy, atol=1e-11)


def test_horizontal_derivative_of_complex_field():
    g = make_grid(8, 8, 3)
    rng = np.random.default_rng(1)
    f = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    got = grad_h(f, g)[..., 0]
    ref = grad_h(f.real, g)[..., 0] + 1j * grad_h(f.imag, g)[..., 0]
    assert np.iscomplexobj(got)
    assert np.allclose(got, ref, atol=1e-12)


def test_vertical_matrices_exact_on_monomials():
    # Exactness on 1, z, ..., z^(nz-1) determines Dz and wz uniquely.
    g = make_grid(4, 4, 9)
    for k in range(g.nz):
        p = np.tile(g.z**k, (4, 4, 1))
        dp = vertical_derivative(p, g)
        expect = k * g.z ** (k - 1) if k > 0 else np.zeros_like(g.z)
        assert np.allclose(dp[0, 0], expect, atol=1e-9), f"d/dz z^{k}"
        assert np.isclose(g.wz @ g.z**k, 1.0 / (k + 1), atol=1e-12), \
            f"int z^{k}"
    for k in range(g.nz - 1):
        p = np.tile(g.z**k, (4, 4, 1))
        ip = integrate_from_bottom(p, g)
        assert np.allclose(ip[0, 0], g.z ** (k + 1) / (k + 1), atol=1e-12)
        assert ip[0, 0, 0] == 0.0


def test_integration_matrix_is_made_once_and_never_written():
    g1, g2 = make_grid(4, 4, 7), make_grid(8, 6, 7)
    assert np.array_equal(g1.Iz, g2.Iz)
    g1.Iz[1, 1] = 7.0  # each grid scales the shared matrix into its own
    assert g2.Iz[1, 1] != 7.0
    with pytest.raises(ValueError, match="read-only"):
        grid._integration_from_one_matrix(6)[0, 0] = 1.0


def test_clenshaw_curtis_weights_exact_at_even_and_odd_nz():
    # exact for degree <= nz - 1; an even nz takes the odd-n branch
    for nz in range(4, 18):
        g = make_grid(4, 4, nz)
        err = max(abs(g.wz @ g.z**k - 1.0 / (k + 1)) for k in range(nz))
        assert err <= 1e-15, nz


def test_vertical_average_analytic():
    g = make_grid(4, 4, 9)
    f = np.tile(g.z**2, (4, 4, 1))
    assert np.allclose(vertical_average(f, g), 1.0 / 3.0, atol=1e-12)


def test_vertical_average_keeps_the_bytes_of_tensordot():
    g = make_grid(6, 8, 7)
    rng = np.random.default_rng(36)
    for shape in ((6, 8, 7), (6, 8, 7, 2)):
        re, im = rng.standard_normal((2,) + shape)
        for f in (re, re + 1j * im):
            assert same_bytes(vertical_average(f, g),
                              np.tensordot(f, g.wz, axes=([2], [0])))


def test_integral_analytic_example():
    g = make_grid(16, 12, 9)
    x = g.x[:, None, None]
    y = g.y[None, :, None]
    z = g.z[None, None, :]
    f = (2.0 + np.sin(2 * np.pi * x)) * (1.0 + np.cos(2 * np.pi * y)) * z**2
    assert np.isclose(integral(f, g), 2.0 / 3.0, atol=1e-12)
    f2d = 1.5 + np.cos(2 * np.pi * x[:, :, 0]) * np.ones((1, 12))
    assert np.isclose(integral(f2d, g), 1.5, atol=1e-12)


def test_l2_norm_parseval():
    g = make_grid(16, 16, 7)
    x = g.x[:, None]
    f = np.sin(2 * np.pi * x) * np.ones((1, 16))
    assert np.isclose(l2_norm(f, g), np.sqrt(0.5), atol=1e-12)
    v = np.stack([f, 2.0 * f], axis=-1)
    assert np.isclose(l2_norm(v, g), np.sqrt(0.5 + 2.0), atol=1e-12)


def test_dealias_removes_high_modes_and_keeps_low():
    g = make_grid(12, 12, 3)
    x = g.x[:, None]
    high = np.cos(2 * np.pi * 5 * x) * np.ones((1, 12))
    low = np.cos(2 * np.pi * 2 * x) * np.ones((1, 12))
    assert np.allclose(dealias(high, g), 0.0, atol=1e-13)
    assert np.allclose(dealias(low, g), low, atol=1e-13)


def test_grad_h_vec_index_convention():
    # [i, j] = d v_i / d y_j
    g = make_grid(16, 16, 3)
    x = g.x[:, None]
    y = g.y[None, :]
    v = np.stack([np.sin(2 * np.pi * y) * np.ones_like(x),
                  np.sin(2 * np.pi * x) * np.ones_like(y)], axis=-1)
    dv = grad_h_vec(v, g)
    assert np.allclose(dv[..., 0, 0], 0.0, atol=1e-12)
    assert np.allclose(dv[..., 0, 1], 2 * np.pi * np.cos(2 * np.pi * y)
                       * np.ones_like(x), atol=1e-11)
    assert np.allclose(dv[..., 1, 0], 2 * np.pi * np.cos(2 * np.pi * x)
                       * np.ones_like(y), atol=1e-11)
    assert np.allclose(div_h(v, g), 0.0, atol=1e-11)


def test_validate_field_classification_and_errors():
    g = make_grid(6, 4, 5)
    assert validate_field(np.zeros((6, 4)), g) == "scalar2d"
    assert validate_field(np.zeros((6, 4, 2)), g) == "vector2d"
    assert validate_field(np.zeros((6, 4, 5)), g) == "scalar3d"
    assert validate_field(np.zeros((6, 4, 5, 2)), g) == "vector3d"
    with pytest.raises(ValueError):
        validate_field(np.zeros((5, 4)), g)
    with pytest.raises(ValueError):
        grad_h(np.zeros((6, 4, 2)), g)
    with pytest.raises(ValueError):
        div_h(np.zeros((6, 4)), g)
    with pytest.raises(ValueError):
        vertical_average(np.zeros((6, 4)), g)
    # a kind outside the accepted ones is named, at every site that checks
    s2, v2 = np.zeros((6, 4)), np.zeros((6, 4, 2))
    s3, v3 = np.ones((6, 4, 5)), np.zeros((6, 4, 5, 2))
    assert validate_field(s2, g, "scalar2d", "vector3d") == "scalar2d"
    with pytest.raises(ValueError, match="^expected a 2D scalar or 3D scalar "
                                         "field, got a 2D vector field$"):
        validate_field(v2, g, "scalar2d", "scalar3d")
    params = PhysicalParams(mu=1.0, mu_prime=0.5, model="Gamma1")
    fm = identity_map(g)
    wrong_kind_calls = [
        (vertical_average, s2, g), (vertical_derivative, v2, g),
        (integrate_from_bottom, s2, g), (grad_h, v3, g), (div_h, s3, g),
        (grad_h_vec, s2, g), (integral, v2, g),
        (apply_hydrostatic_lame, s3, 1.0, g, params),
        (apply_chs, s3, v3, 1.0, g, params),
        (apply_hydrostatic_lame, v3, s3, g, params),  # the column density
        (advance_flow, fm, v3, g, 0.1),
        (advance_flow_lagrangian, fm, s2, g, 0.1),
        (surface_h1_norm, s3, g),
    ]
    for fn, *args in wrong_kind_calls:
        with pytest.raises(ValueError, match="expected a"):
            fn(*args)



# ---------------------------------------------------------------------------
# kernels against the forms they replaced
# ---------------------------------------------------------------------------

def rel_diff(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def fft_dealias(f, g):
    """The 2/3 rule through the full complex fft2."""
    mask = g.dealias_mask.reshape(g.dealias_mask.shape + (1,) * (f.ndim - 2))
    out = np.fft.ifft2(np.fft.fft2(f, axes=(0, 1)) * mask, axes=(0, 1))
    return out if np.iscomplexobj(f) else out.real


def real_and_complex(rng, shape):
    f = rng.standard_normal(shape)
    return f, f + 1j * rng.standard_normal(shape)


def test_vertical_products_match_einsum():
    g = make_grid(8, 6, 7)
    rng = np.random.default_rng(30)
    for shape in ((8, 6, 7), (8, 6, 7, 2)):
        for f in real_and_complex(rng, shape):
            for op, M in ((vertical_derivative, g.Dz),
                          (integrate_from_bottom, g.Iz)):
                got = op(f, g)
                ref = np.einsum("ij,abj...->abi...", M, f)
                assert got.dtype == f.dtype and got.shape == f.shape
                assert rel_diff(got, ref) <= 1e-12


@pytest.mark.parametrize("nz", (5, 17, 33))
def test_complex_vertical_products_are_two_real_products(nz):
    # a complex field is multiplied on its float view, Re and Im as more
    # columns: each part within a few ulps of its own real product, the
    # ulp taken of the sum of |terms|; a real field keeps its product
    g = make_grid(6, 4, nz)
    rng = np.random.default_rng(37)
    eps = np.finfo(float).eps

    def product(A, f):
        return A @ f if f.ndim == 4 else f @ A.T

    for shape in ((6, 4, nz), (6, 4, nz, 2)):
        re, im = rng.standard_normal((2,) + shape)
        for op, M in ((vertical_derivative, g.Dz),
                      (integrate_from_bottom, g.Iz)):
            assert same_bytes(op(re, g), product(M, re))
            for f in (re + 1j * im, np.asfortranarray(re + 1j * im)):
                got = op(f, g)
                assert got.dtype == complex and got.shape == f.shape
                for part, ref in ((got.real, re), (got.imag, im)):
                    bound = 4 * eps * product(np.abs(M), np.abs(ref))
                    assert np.all(np.abs(part - product(M, ref)) <= bound)


@pytest.mark.parametrize("dtype", (float, complex))
def test_l2_norm_sums_components_as_np_sum_does(dtype, monkeypatch):
    # the written-out component sum has np.sum's bits on every field kind,
    # signed zeros, infinities and nans included
    g = make_grid(16, 8, 3)
    rng = np.random.default_rng(38)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200,
                         -1e-310, 1.5])
    pairs = np.stack(np.meshgrid(specials, specials), axis=-1).reshape(-1, 2)
    summed = []
    monkeypatch.setattr(grid, "integral", lambda f, g: summed.append(f) or 0.0)
    for shape in ((16, 8), (16, 8, 2), (16, 8, 3), (16, 8, 3, 2)):
        parts = rng.standard_normal((2,) + shape)
        for part in parts:
            part.reshape(-1, 2)[:len(pairs)] = rng.permuted(pairs, axis=0)
        f = parts[0] if dtype is float else np.empty(shape, complex)
        if dtype is complex:
            f.real, f.imag = parts
        with np.errstate(over="ignore", invalid="ignore"):
            l2_norm(f, g)
            mag2 = np.abs(f) ** 2
        ref = mag2.sum(axis=-1) if shape[-1] == 2 else mag2
        assert same_bytes(summed[-1], ref), shape


@pytest.mark.parametrize("shape", ((8, 6, 5), (7, 9, 5)))
def test_real_input_transforms_match_complex_path(shape, grid_of_any_parity,
                                                  fft_derivative):
    g = grid_of_any_parity(*shape)
    nx, ny, nz = shape
    rng = np.random.default_rng(31)
    for fshape in ((nx, ny), (nx, ny, 2), (nx, ny, nz), (nx, ny, nz, 2)):
        for f in real_and_complex(rng, fshape):
            for got, ref in ((_ddx(f, g), fft_derivative(f, g.ikx, 0)),
                             (_ddy(f, g), fft_derivative(f, g.iky, 1)),
                             (dealias(f, g), fft_dealias(f, g))):
                # float64 stays float64, complex stays complex
                assert got.dtype == f.dtype and got.shape == f.shape
                assert rel_diff(got, ref) <= 1e-12


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def numpy_fft2(f, real):
    return np.fft.rfft2(f, axes=(0, 1)) if real else np.fft.fft2(f, axes=(0, 1))


def numpy_ifft2(fh, s, real):
    if real:
        return np.fft.irfft2(fh, s=s, axes=(0, 1))
    return np.fft.ifft2(fh, axes=(0, 1))


@pytest.mark.parametrize("shape", ((12, 12, 7), (12, 8, 7), (10, 14, 5),
                                   (7, 9, 5), (8, 5, 3)))
def test_one_axis_transforms_and_packing_are_numpy_2d_bit_for_bit(
        shape, grid_of_any_parity):
    # odd grids catch an inverse real transform that guesses its length
    g = grid_of_any_parity(*shape)
    nx, ny, nz = shape
    rng = np.random.default_rng(32)
    for fshape in ((nx, ny), (nx, ny, 2), (nx, ny, nz), (nx, ny, nz, 2)):
        for f in real_and_complex(rng, fshape):
            real = not np.iscomplexobj(f)
            fh = numpy_fft2(f, real)
            assert same_bytes(_fft_h(f), fh)
            assert same_bytes(_ifft_h(fh, g, real),
                              numpy_ifft2(fh, (nx, ny), real))
            if len(fshape) < 4:
                continue
            # the packing: boundary levels zeroed after the 2-D transform
            packed = fh.copy()
            packed[:, :, [0, -1]] = 0.0
            zh = numpy_fft2(f[:, :, 0, 0], real)
            flat = packed.reshape(packed.shape[:2] + (-1,))
            with_zeta = np.concatenate([zh[..., None], flat], axis=-1)
            assert same_bytes(_pack_modes(f), flat)
            assert same_bytes(_pack_modes(f, f[:, :, 0, 0]), with_zeta)
            V = numpy_ifft2(packed, (nx, ny), real)
            assert same_bytes(_unpack_modes(flat, g, real), V)
            got_zeta, got_V = _unpack_modes(with_zeta, g, real)
            assert same_bytes(got_zeta, numpy_ifft2(zh, (nx, ny), real))
            assert same_bytes(got_V, V)


# ---------------------------------------------------------------------------
# horizontal derivatives as matmuls
# ---------------------------------------------------------------------------

FIELD_GRIDS = ((8, 6, 5), (7, 9, 5), (12, 12, 7), (5, 16, 3), (24, 11, 9),
               (32, 20, 4))


def field_shapes(nx, ny, nz):
    return ((nx, ny), (nx, ny, 2), (nx, ny, nz), (nx, ny, nz, 2))


@pytest.mark.parametrize("shape", FIELD_GRIDS,
                         ids=["x".join(map(str, s)) for s in FIELD_GRIDS])
def test_dense_derivatives_match_pocketfft(shape, grid_of_any_parity,
                                           fft_derivative):
    g = grid_of_any_parity(*shape)
    rng = np.random.default_rng(33)
    fields = [f for s in field_shapes(*shape) for f in real_and_complex(rng, s)]
    ops = ((0, 1), (1, 1), (0, 2), (1, 2))  # (axis, order)
    for f in fields:
        got = grid._derivatives(f, ops)
        assert got.dtype == f.dtype and got.shape == f.shape + (4,)
        for j, (axis, order) in enumerate(ops):
            ik = (g.ikx, g.iky)[axis] ** order
            assert rel_diff(got[..., j], fft_derivative(f, ik, axis)) <= 1e-14


@pytest.mark.parametrize("n", (4, 7, 12, 15, 32))
def test_differentiation_matrices_match_the_dense_reference(
        n, grid_of_any_parity):
    # operators builds its matrix from the full complex DFT, on its own
    g = grid_of_any_parity(n, 4, 3)
    D1 = grid._fourier_matrix("d1", n)
    ref = _dft_derivative_matrix(n, g.ikx)
    assert np.abs(D1 - ref).max() <= 1e-13 * np.abs(ref).max()
    # the second derivative is the first applied twice
    assert (np.abs(grid._fourier_matrix("d2", n) - ref @ ref).max()
            <= 1e-12 * np.abs(ref @ ref).max())


# one gemm over all columns rounds a column by the field's size on some
# grids: with OpenBLAS 0.3.31, along x at ny = 12 and nx >= 16, and along
# y (a gemv for one column) on any grid
@pytest.mark.parametrize("shape", ((8, 8, 5), (12, 12, 7), (16, 12, 9),
                                   (32, 32, 17), (7, 9, 5), (64, 40, 3)))
def test_a_planes_derivative_bits_do_not_depend_on_its_field(
        shape, grid_of_any_parity):
    g = grid_of_any_parity(*shape)
    nx, ny, nz = shape
    rng = np.random.default_rng(34)
    for v in (rng.standard_normal((nx, ny, 2)),
              rng.standard_normal((nx, ny, nz, 2))):
        dv = grad_h_vec(v, g)
        assert np.array_equal(dv[..., 0, 0] + dv[..., 1, 1], div_h(v, g))
        for c in (0, 1):
            assert np.array_equal(grad_h(v[..., c], g), dv[..., c, :])
        if v.ndim == 4:
            for level in (0, nz // 2, nz - 1):
                plane = v[:, :, level, 1]
                assert np.array_equal(grad_h(plane, g), dv[:, :, level, 1])


def test_derivative_matrices_are_made_once_and_never_written():
    for kind in ("d1", "d2", "rfft", "fft", "ifft", "irfft"):
        m = grid._fourier_matrix(kind, 10)
        assert m is grid._fourier_matrix(kind, 10)
        with pytest.raises(ValueError, match="read-only"):
            m[0, ...] = 1.0


@pytest.mark.parametrize("axis", (0, 1))
def test_a_long_axis_is_differentiated_by_matmuls(axis, monkeypatch,
                                                  fft_derivative):
    shape = (130, 6) if axis == 0 else (6, 130)
    g = make_grid(*shape, 3)
    ik = (g.ikx, g.iky)[axis]
    rng = np.random.default_rng(35)
    fields = real_and_complex(rng, shape + (2,))
    grad_h_vec(fields[0], g)  # makes the cached matrices of both axes
    calls = []
    for name in np.fft.__all__:
        def counted(*args, fn=getattr(np.fft, name), **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    got = [grad_h_vec(f, g)[..., axis] for f in fields]
    assert calls == []
    monkeypatch.undo()
    for f, d in zip(fields, got):
        assert rel_diff(d, fft_derivative(f, ik, axis)) <= 1e-14
