"""Grid construction, spectral derivatives and quadrature.

The differentiation machinery is checked against independent oracles:
the classical cotangent interpolation matrix for the periodic
directions, and exactness on the monomial basis (which determines the
matrices uniquely) for the vertical Chebyshev direction.
"""

from __future__ import annotations

import numpy as np
import pytest

from cpelab.grid import (
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


def test_vertical_average_analytic():
    g = make_grid(4, 4, 9)
    f = np.tile(g.z**2, (4, 4, 1))
    assert np.allclose(vertical_average(f, g), 1.0 / 3.0, atol=1e-12)


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

