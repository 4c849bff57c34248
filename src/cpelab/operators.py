"""Viscous operators of the linearized system and their realizations.

One viscous operator serves every model: the compressible hydrostatic
Lame operator

    A(xi0) V = L V / rho(xi0, z),
    L V = w_H (mu Lap_H V + mu' grad_H div_H V) + mu d_z(w_Z d_z V),

with the vertical weights (w_H, w_Z) and the column density rho of the
model (:func:`cpelab.transforms.lame_weights`,
:func:`cpelab.transforms.column_density`); ``Gamma1`` lives in the
transformed vertical coordinate.  The compressible hydrostatic Stokes
block operator

    A_CHS (zeta, V) = ( -xi_bar * div_H avg(V),  -grad_H zeta + A(xi_bar) V )

acts on a surface scalar and a horizontal velocity; it generates the
linear evolution d/dt (zeta, V) = A_CHS (zeta, V) + forcing.

Boundary conditions are V = 0 at z = 1 and d_z V = 0 at z = 0.  Three
realizations are provided and must agree: a matrix-free applicator
(boundary rows replaced by the boundary residuals), a dense matrix built
from explicit DFT differentiation matrices and Kronecker products, and
per-horizontal-mode vertical blocks (constant coefficients are diagonal
in the horizontal Fourier basis, so solvers and eigensolvers work mode by
mode).  The applicators and ``dense_hydrostatic_lame`` take ``bc`` in
``raw`` / ``replace``; ``dense_chs`` also takes ``reduced``, which
eliminates the boundary degrees of freedom (Dirichlet layer dropped,
Neumann layer expressed through the interior) and is the realization
whose eigenvalues are meaningful.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import (
    Grid,
    _fft_h,
    _ifft_h,
    _multiplier,
    div_h,
    grad_h,
    validate_field,
    vertical_average,
    vertical_derivative,
)
from .transforms import DELTA, PhysicalParams, column_density, lame_weights

__all__ = [
    "SymbolEigs",
    "EllipticityReport",
    "apply_hydrostatic_lame",
    "apply_chs",
    "lame_symbol_eigs",
    "symbol_ellipticity_report",
    "B1_MIN",
    "dense_hydrostatic_lame",
    "dense_chs",
    "mode_wavevectors",
    "vertical_lame_block",
    "mode_matrices",
    "vertical_reduction",
    "pack_state",
    "unpack_state",
    "DENSE_LIMIT",
    "SolverBreakdown",
]

#: Largest resolution at which dense realizations are assembled.
DENSE_LIMIT = (8, 8, 9)
#: Largest |k_H|_inf of the symbol scan of :func:`symbol_ellipticity_report`.
SYMBOL_KMAX = 8
#: min over z of b1 = w_Z/w_H = (1 - delta z)^2/delta^2, the ratio of the
#: Gamma1 weights of L, taken at z = 1: exp(-2)/delta^2 > 0.
B1_MIN = math.exp(-2.0) / DELTA**2

_BC_MODES = ("raw", "replace", "reduced")


class SolverBreakdown(RuntimeError):
    """A solve or eigensolve of these operators broke down on finite input."""


@contextmanager
def _linalg_breakdown(where: str):
    """Turn a ``LinAlgError`` raised in the block into a
    :class:`SolverBreakdown` that names ``where`` (a mode row, a block)."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise SolverBreakdown(
            f"linear-algebra breakdown in {where}: {exc}") from exc


# ---------------------------------------------------------------------------
# column density
# ---------------------------------------------------------------------------

def _column_density(xi0, g: Grid, params: PhysicalParams) -> np.ndarray:
    """rho(xi0, z) shaped (nx, ny, nz) of a scalar or (nx, ny) xi0."""
    xi0 = np.asarray(xi0, dtype=float)
    if xi0.ndim == 0:
        xi0 = np.full((g.nx, g.ny), float(xi0))
    if xi0.shape != (g.nx, g.ny):
        raise ValueError(
            f"surface density must be scalar or shaped {(g.nx, g.ny)}, "
            f"got {xi0.shape}")
    if np.any(xi0 <= 0):
        raise ValueError(f"nonpositive surface density: min = {xi0.min()}")
    return column_density(params.model, xi0, g.z)


# ---------------------------------------------------------------------------
# matrix-free applications
# ---------------------------------------------------------------------------

def _lame_h(V: np.ndarray, g: Grid, params: PhysicalParams) -> np.ndarray:
    """mu Lap_H V + mu' grad_H div_H V from one horizontal transform of V.

    The multipliers are products of the first-derivative ``ikx``/``iky``,
    so their Nyquist lines are zero as for composed first derivatives.
    """
    real = not np.iscomplexobj(V)
    Vh = _fft_h(V)
    kx = _multiplier(g.ikx, 0, 3, False)
    ky = _multiplier(g.iky, 1, 3, real)
    lap = params.mu * (kx * kx + ky * ky)
    div = params.mu_prime * (kx * Vh[..., 0] + ky * Vh[..., 1])
    out = np.empty_like(Vh)
    out[..., 0] = lap * Vh[..., 0] + kx * div
    out[..., 1] = lap * Vh[..., 1] + ky * div
    return _ifft_h(out, g, real)


def _replace_bc_rows(out: np.ndarray, V: np.ndarray, g: Grid) -> np.ndarray:
    out = out.copy()
    out[:, :, -1, :] = V[:, :, -1, :]
    out[:, :, 0, :] = g.Dz[0] @ V
    return out


def apply_hydrostatic_lame(
    V: np.ndarray,
    xi0,
    g: Grid,
    params: PhysicalParams,
    bc: str = "replace",
) -> np.ndarray:
    """Apply the viscous operator A(xi0) = L / rho(xi0, z) to a velocity.

    Parameters
    ----------
    V : ndarray, shape (nx, ny, nz, 2)
    xi0 : float or ndarray (nx, ny)
        Surface density of the column density rho; a constant (such as
        the reference density xi_bar) gives the constant-coefficient
        operator.  ``params.xi_bar`` is not read.
    bc : {"replace", "raw"}
        ``replace`` overwrites the boundary layers with the boundary
        residuals (V at z = 1, d_z V at z = 0); ``raw`` returns the plain
        differential action everywhere.
    """
    if validate_field(V, g) != "vector3d":
        raise ValueError("expected a horizontal velocity field (nx, ny, nz, 2)")
    if bc not in ("replace", "raw"):
        raise ValueError(f"bc must be 'replace' or 'raw', got {bc!r}")
    rho = _column_density(xi0, g, params)[..., None]
    wH, wZ = lame_weights(params.model, g.z)
    vert = vertical_derivative(wZ[:, None] * vertical_derivative(V, g), g)
    out = ((wH[:, None] / rho) * _lame_h(V, g, params)
           + (params.mu / rho) * vert)
    if bc == "replace":
        out = _replace_bc_rows(out, V, g)
    return out


def apply_chs(
    zeta: np.ndarray,
    V: np.ndarray,
    xi_bar: float,
    g: Grid,
    params: PhysicalParams,
    bc: str = "replace",
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the Stokes block operator to a state (zeta, V).

    Row 1: -xi_bar * div_H of the vertical average of V.  Row 2:
    -grad_H zeta + A_{xi_bar} V with the constant-coefficient viscous
    operator; with ``bc="replace"`` the boundary layers of row 2 are the
    boundary residuals of V.
    """
    if validate_field(zeta, g) != "scalar2d":
        raise ValueError("expected a surface scalar (nx, ny)")
    row1 = -xi_bar * div_h(vertical_average(V, g), g)
    gz = grad_h(zeta, g)
    row2 = -gz[:, :, None, :] + apply_hydrostatic_lame(
        V, xi_bar, g, params, bc="raw")
    if bc == "replace":
        row2 = _replace_bc_rows(row2, V, g)
    elif bc != "raw":
        raise ValueError(f"bc must be 'replace' or 'raw', got {bc!r}")
    return row1, row2


# ---------------------------------------------------------------------------
# horizontal symbol
# ---------------------------------------------------------------------------

class SymbolEigs(NamedTuple):
    lam1: float
    lam2: float
    matrix: np.ndarray


def lame_symbol_eigs(k_H, mu: float, mu_prime: float) -> SymbolEigs:
    """Eigenvalues and matrix of the symbol of -(mu Lap_H + mu' grad_H div_H).

    For the integer mode k_H the wave vector is kt = 2 pi k_H; the symbol
    matrix is

        [[mu |kt|^2 + mu' kt1^2,  mu' kt1 kt2],
         [mu' kt1 kt2,  mu |kt|^2 + mu' kt2^2]]

    with eigenvalues lam1 = (mu + mu') |kt|^2 (eigenvector kt, the
    compressive direction) and lam2 = mu |kt|^2 (the shear direction).
    """
    k = np.asarray(k_H, dtype=float)
    kt = 2.0 * np.pi * k
    k2 = float(kt @ kt)
    mat = mu * k2 * np.eye(2) + mu_prime * np.outer(kt, kt)
    return SymbolEigs(lam1=(mu + mu_prime) * k2, lam2=mu * k2, matrix=mat)


@dataclass(frozen=True)
class EllipticityReport:
    """Scan of the horizontal symbol eigenvalues.

    ``k`` holds the integer modes with 0 < |k_H|_inf <= SYMBOL_KMAX in
    row-major order, and ``lam1``, ``lam2`` the symbol eigenvalues at each.
    """

    min_lam1: float
    min_lam2: float
    argmin_k: tuple[int, int]
    ok: bool
    k: np.ndarray
    lam1: np.ndarray
    lam2: np.ndarray


def symbol_ellipticity_report(mu: float, mu_prime: float) -> EllipticityReport:
    """Scan both symbol eigenvalues over 0 < |k_H| <= SYMBOL_KMAX.

    Reports the minima; ``ok`` requires every scanned eigenvalue to be
    positive (the vertical coefficient is bounded below by the constant
    :data:`B1_MIN`).  Accepts inadmissible viscosities on purpose so that
    failures are reported rather than raised; a symbol that overflows
    raises :class:`SolverBreakdown`.  The eigenvalues are those of
    :func:`lame_symbol_eigs`, bit for bit.
    """
    axis = np.arange(-SYMBOL_KMAX, SYMBOL_KMAX + 1)
    k = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    k = k[np.any(k != 0, axis=1)]
    k2 = _symbol_parts(2.0 * np.pi * k)[0][:, 0, 0]
    with np.errstate(over="ignore"):
        lam1 = (mu + mu_prime) * k2
        lam2 = mu * k2
    if not (np.all(np.isfinite(lam1)) and np.all(np.isfinite(lam2))):
        raise SolverBreakdown(
            f"operator breakdown: the symbol overflows (mu = {mu:.6g}, "
            f"mu_prime = {mu_prime:.6g})")
    # the first mode of the disk, in row-major order, with the least of
    # the two eigenvalues
    disk = np.flatnonzero(np.sum(k * k, axis=1) <= SYMBOL_KMAX**2)
    i = disk[np.argmin(np.minimum(lam1, lam2)[disk])]
    return EllipticityReport(
        min_lam1=float(lam1[i]), min_lam2=float(lam2[i]),
        argmin_k=tuple(k[i].tolist()),
        ok=bool(min(lam1[i], lam2[i]) > 0), k=k, lam1=lam1, lam2=lam2)


# ---------------------------------------------------------------------------
# dense realizations
# ---------------------------------------------------------------------------

def _check_dense_limit(g: Grid) -> None:
    if g.nx > DENSE_LIMIT[0] or g.ny > DENSE_LIMIT[1] or g.nz > DENSE_LIMIT[2]:
        raise ValueError(
            f"resolution {(g.nx, g.ny, g.nz)} too large for a dense "
            f"realization (limit {DENSE_LIMIT})")


def _dft_derivative_matrix(n: int, ik: np.ndarray) -> np.ndarray:
    """Real dense matrix of the spectral first derivative on n nodes."""
    F = np.fft.fft(np.eye(n))
    return ((F.conj().T / n) @ (ik[:, None] * F)).real


def _lifted_derivatives(g: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense d/dx, d/dy, d/dz acting on scalar 3D fields flattened C-order."""
    Dx = _dft_derivative_matrix(g.nx, g.ikx)
    Dy = _dft_derivative_matrix(g.ny, g.iky)
    Dx3 = np.kron(Dx, np.eye(g.ny * g.nz))
    Dy3 = np.kron(np.eye(g.nx), np.kron(Dy, np.eye(g.nz)))
    Dz3 = np.kron(np.eye(g.nx * g.ny), g.Dz)
    return Dx3, Dy3, Dz3


def vertical_reduction(g: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Interior selection S and boundary-eliminating lift R in z.

    R maps interior layers (iz = 1..nz-2) to all layers: the top layer is
    zero (Dirichlet) and the bottom layer solves d_z V|_0 = 0 for V_0,
    i.e. V_0 = -sum_{j>=1} Dz[0, j] V_j / Dz[0, 0].  S selects the
    interior layers; S @ R = I.  Eigenvalues of S @ A_raw @ R are the
    eigenvalues of the boundary-value operator.
    """
    eye = np.eye(g.nz)
    S, R = eye[1:-1], eye[:, 1:-1].copy()
    R[0] = -g.Dz[0, 1:-1] / g.Dz[0, 0]
    return S, R


def _replace_rows_dense(A: np.ndarray, g: Grid, offset: int = 0) -> np.ndarray:
    """Overwrite the boundary rows of a dense operator on V fields.

    The velocity (nx, ny, nz, 2) flattened C-order starts at row and column
    ``offset``; top rows become V = 0 at z = 1 and bottom rows d_z V = 0 at
    z = 0.
    """
    A = A.copy()
    nz = g.nz
    # (node2, comp, iz) -> flat index of V[node2, iz, comp]
    idx = (offset + 2 * (np.arange(g.nx * g.ny)[:, None, None] * nz
                         + np.arange(nz)) + np.arange(2)[:, None])
    top = idx[..., -1].ravel()
    bot = idx[..., :1]
    A[top, :] = 0.0
    A[top, top] = 1.0
    A[bot.ravel(), :] = 0.0
    A[bot, idx] = g.Dz[0]
    return A


def dense_hydrostatic_lame(
    xi0,
    g: Grid,
    params: PhysicalParams,
    bc: str = "replace",
) -> np.ndarray:
    """Dense matrix of the viscous operator on V fields flattened C-order.

    Assembled from explicit DFT differentiation matrices and Kronecker
    products — an independent code path from the matrix-free FFT
    applicator.  ``xi0`` as in :func:`apply_hydrostatic_lame`.  ``bc``:
    ``raw`` (no boundary handling) or ``replace`` (boundary rows set to
    the boundary residuals).
    """
    _check_dense_limit(g)
    if bc not in ("replace", "raw"):
        raise ValueError(f"bc must be 'replace' or 'raw', got {bc!r}")
    rho = np.repeat(_column_density(xi0, g, params).ravel(), 2)
    wH, wZ = (np.diag(np.tile(w, g.nx * g.ny))
              for w in lame_weights(params.model, g.z))
    mu, mup = params.mu, params.mu_prime
    Dx3, Dy3, Dz3 = _lifted_derivatives(g)
    D = (Dx3, Dy3)
    A = mu * np.kron(wH @ (Dx3 @ Dx3 + Dy3 @ Dy3) + Dz3 @ wZ @ Dz3, np.eye(2))
    for i in range(2):
        for j in range(2):
            E = np.zeros((2, 2))
            E[i, j] = 1.0
            A += mup * np.kron(wH @ D[i] @ D[j], E)
    A /= rho[:, None]
    if bc == "replace":
        return _replace_rows_dense(A, g)
    return A


def dense_chs(
    xi_bar: float, g: Grid, params: PhysicalParams, bc: str = "replace"
) -> np.ndarray:
    """Dense matrix of the Stokes block operator on packed states.

    The packed vector is (zeta.ravel(), V.ravel()) — see
    :func:`pack_state`.  ``bc``: ``raw``, ``replace`` or ``reduced`` (see
    :func:`vertical_reduction`); the zeta rows are never reduced or
    replaced.
    """
    _check_dense_limit(g)
    if bc not in _BC_MODES:
        raise ValueError(f"bc must be one of {_BC_MODES}, got {bc!r}")
    n2 = g.nx * g.ny
    Dx2 = _dft_derivative_matrix(g.nx, g.ikx)
    Dy2 = _dft_derivative_matrix(g.ny, g.iky)
    Dx2f = np.kron(Dx2, np.eye(g.ny))
    Dy2f = np.kron(np.eye(g.nx), Dy2)
    # divergence of a 2D vector field and vertical average of a 3D one
    div2 = np.kron(Dx2f, np.array([[1.0, 0.0]])) + np.kron(
        Dy2f, np.array([[0.0, 1.0]]))
    avg = np.kron(np.eye(n2), np.kron(g.wz[None, :], np.eye(2)))
    row1_V = -xi_bar * div2 @ avg
    # gradient of the surface scalar, broadcast over z, per component
    ones_z = np.ones((g.nz, 1))
    grad_bc = np.kron(np.kron(Dx2f, ones_z), np.array([[1.0], [0.0]])) + np.kron(
        np.kron(Dy2f, ones_z), np.array([[0.0], [1.0]]))
    A_V = dense_hydrostatic_lame(xi_bar, g, params, bc="raw")
    nV = A_V.shape[0]
    full = np.zeros((n2 + nV, n2 + nV))
    full[:n2, n2:] = row1_V
    full[n2:, :n2] = -grad_bc
    full[n2:, n2:] = A_V
    if bc == "raw":
        return full
    if bc == "replace":
        return _replace_rows_dense(full, g, offset=n2)
    S, R = vertical_reduction(g)
    lift = np.kron(np.eye(n2), np.kron(R, np.eye(2)))
    sel = np.kron(np.eye(n2), np.kron(S, np.eye(2)))
    nred = sel.shape[0]
    out = np.zeros((n2 + nred, n2 + nred))
    out[:n2, n2:] = row1_V @ lift
    out[n2:, :n2] = -(sel @ grad_bc)
    out[n2:, n2:] = sel @ A_V @ lift
    return out


# ---------------------------------------------------------------------------
# state packing
# ---------------------------------------------------------------------------

def pack_state(zeta: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Flatten (zeta, V) into the packed vector used by dense realizations."""
    return np.concatenate([np.asarray(zeta).ravel(), np.asarray(V).ravel()])


def unpack_state(u: np.ndarray, g: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_state`."""
    n2 = g.nx * g.ny
    zeta = u[:n2].reshape(g.nx, g.ny)
    V = u[n2:].reshape(g.nx, g.ny, g.nz, 2)
    return zeta, V


# ---------------------------------------------------------------------------
# per-mode vertical blocks
# ---------------------------------------------------------------------------

def mode_wavevectors(g: Grid) -> np.ndarray:
    """Angular wave vectors of all horizontal modes, shape (nx, ny, 2).

    These are the wavenumbers as the discrete derivative sees them, so
    the Nyquist entries are zero.
    """
    kx, ky = np.broadcast_arrays(g.ikx.imag[:, None], g.iky.imag[None, :])
    return np.stack([kx, ky], axis=-1)


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product over the last two axes, broadcast over the rest."""
    out = A[..., :, None, :, None] * B[..., None, :, None, :]
    rows = A.shape[-2] * B.shape[-2]
    cols = A.shape[-1] * B.shape[-1]
    return out.reshape(out.shape[:-4] + (rows, cols))


def _symbol_parts(kt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|kt|^2 shaped (..., 1, 1) and the outer products kt kt^T (..., 2, 2)."""
    kt = np.asarray(kt, dtype=float)
    # a matmul of one row and one column is the dot product ``kt @ kt``,
    # so a stack of modes gets the same bits as one mode at a time
    k2 = kt[..., None, :] @ kt[..., :, None]
    return k2, kt[..., :, None] * kt[..., None, :]


def vertical_lame_block(kt: np.ndarray, rho, g: Grid,
                        params: PhysicalParams) -> np.ndarray:
    """Vertical blocks of L / rho at horizontal modes ``kt``.

    ``rho`` is the column density at the vertical nodes, shape (nz,) or a
    scalar (:func:`cpelab.transforms.column_density`); rho = 1 gives the
    blocks of L itself, which the implicit step of the time integrator
    inverts with the density kept apart.  ``kt`` holds angular wave
    vectors (2 pi k_H) along its last axis, shape (..., 2).  Returns the
    real blocks, shape (..., 2 nz, 2 nz), each acting on V-hat(z)
    flattened as (iz, comp) C-order, without boundary handling (combine
    with :func:`vertical_reduction` for eigensolves; :func:`mode_matrices`
    builds them for solves).  A single (2,) wave vector gives a single
    block.  Blocks that overflow raise :class:`SolverBreakdown`.  Off the
    level diagonal every block is mu kron(vert, I2), built once and
    copied; only the 2 x 2 level-diagonal blocks are made per mode.
    """
    k2, kk = _symbol_parts(kt)
    wH, wZ = lame_weights(params.model, g.z)
    rho = np.broadcast_to(rho, g.z.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        a = (wH / rho)[:, None, None]
        vert = (g.Dz / rho[:, None]) @ np.diag(wZ) @ g.Dz
        v = np.diag(vert)[:, None, None]
        T = params.mu * _kron(vert - np.diag(np.diag(vert)), np.eye(2))
        D = (-params.mu * k2[..., None, :, :] * (a * np.eye(2))
             + params.mu * (v * np.eye(2))
             - params.mu_prime * (a * kk[..., None, :, :]))
    if not (np.all(np.isfinite(T)) and np.all(np.isfinite(D))):
        raise SolverBreakdown(
            f"operator breakdown: the Lame block overflows (mu = "
            f"{params.mu:.6g}, mu_prime = {params.mu_prime:.6g}, least "
            f"column density {rho.min():.6g})")
    M = np.broadcast_to(T, D.shape[:-3] + T.shape).copy()
    i = 2 * np.arange(g.nz)[:, None] + np.arange(2)
    M[..., i[:, :, None], i[:, None, :]] = D
    return M


def _bordered(vel: np.ndarray, kt: np.ndarray, weights: np.ndarray,
              shift: complex, scale: float, xi_bar: float) -> np.ndarray:
    """Add the zeta row and column of shift - scale * A_CHS to velocity blocks.

    ``vel`` (..., 2 m, 2 m) acts on m vertical unknowns per component at
    the wave vectors ``kt`` (..., 2), and ``weights`` (m,) is the vertical
    average on them.  Returns shape (..., 1 + 2 m, 1 + 2 m), complex.
    """
    kt = np.asarray(kt, dtype=float)
    m = len(weights)
    B = np.zeros(vel.shape[:-2] + (1 + 2 * m, 1 + 2 * m), dtype=complex)
    B[..., 0, 0] = shift
    with np.errstate(over="ignore", invalid="ignore"):
        B[..., 0, 1:] = (scale * xi_bar * 1j * kt[..., None, :]
                         * weights[:, None]).reshape(kt.shape[:-1] + (2 * m,))
    if not np.all(np.isfinite(B[..., 0, 1:])):
        raise SolverBreakdown(
            f"operator breakdown: the zeta row overflows (xi_bar * |k| "
            f"exceeds the float range at xi_bar = {xi_bar:.6g})")
    B[..., 1:, 0] = np.tile(scale * 1j * kt, m)
    B[..., 1:, 1:] = vel
    return B


def mode_matrices(
    kt: np.ndarray,
    rho,
    g: Grid,
    params: PhysicalParams,
    shift: complex,
    scale: float,
    xi_bar: float | None = None,
) -> np.ndarray:
    """Per-mode matrices of shift - scale * A_CHS with boundary rows replaced.

    The viscous part is ``vertical_lame_block(kt, rho, g, params)`` at the
    wave vectors ``kt`` (..., 2).  With ``xi_bar`` the matrices act on
    (zeta-hat, V-hat(z)), see :func:`_bordered`; without it on V-hat(z)
    alone, shape (..., 2 nz, 2 nz).  The top velocity rows hold V = 0 at
    z = 1 and the bottom rows d_z V = 0 at z = 0.
    """
    nz = g.nz
    M = shift * np.eye(2 * nz) - scale * vertical_lame_block(kt, rho, g, params)
    off = 0
    if xi_bar is not None:
        M, off = _bordered(M, kt, g.wz, shift, scale, xi_bar), 1
    comp = np.arange(2)
    top = off + 2 * (nz - 1) + comp
    bot = off + comp
    M[..., top, :] = 0.0
    M[..., top, top] = 1.0
    M[..., bot, :] = 0.0
    M[..., bot[:, None], off + 2 * np.arange(nz) + comp[:, None]] = g.Dz[0]
    return M


def _pack_modes(V: np.ndarray, zeta: np.ndarray | None = None) -> np.ndarray:
    """Per-mode right-hand sides of the blocks of :func:`mode_matrices`.

    The :func:`cpelab.grid._fft_h` spectrum (half for real fields) of V's
    interior levels, boundary levels zero, shape (nx, nk, 2 nz), or of (zeta,
    V) with zeta-hat first; the modes are ``mode_wavevectors(g)[:, :nk]``.
    """
    inner = _fft_h(V[:, :, 1:-1])
    Vh = np.zeros(inner.shape[:2] + V.shape[2:], dtype=inner.dtype)
    Vh[:, :, 1:-1] = inner
    Vh = Vh.reshape(Vh.shape[:2] + (-1,))
    if zeta is None:
        return Vh
    return np.concatenate([_fft_h(zeta)[..., None], Vh], axis=-1)


def _unpack_modes(sol: np.ndarray, g: Grid, real: bool):
    """Inverse of :func:`_pack_modes`; ``real`` says the fields are real.

    Returns V, or (zeta, V) when ``sol`` holds 1 + 2 nz entries per mode.
    """
    V = _ifft_h(sol[..., -2 * g.nz:].reshape(sol.shape[:2] + (g.nz, 2)),
                g, real)
    if sol.shape[-1] == 2 * g.nz:
        return V
    return _ifft_h(sol[..., 0], g, real), V
