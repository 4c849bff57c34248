"""Discretization of the periodic cylinder Omega = G x (0,1), G = (0,1)^2.

Horizontal directions are discretized by Fourier collocation on uniform
nodes (periodic boundary conditions), the vertical direction by
Chebyshev--Gauss--Lobatto (CGL) collocation mapped to [0,1] so that the
boundary planes z=0 (Gamma_b) and z=1 (Gamma_u) are grid nodes and nodal
boundary conditions can be imposed by row replacement.

Field layout conventions (all float64, C order), one per field kind that
:func:`validate_field` returns and names in its errors:

* 2D scalar field ``"scalar2d"``: shape (Nx, Ny)
* 2D vector field ``"vector2d"``: shape (Nx, Ny, 2)
* 3D scalar field ``"scalar3d"``: shape (Nx, Ny, Nz)
* 3D vector field ``"vector3d"``: shape (Nx, Ny, Nz, 2)

The horizontal axes always come first and FFTs act on axes (0, 1); the
vertical node axis is axis 2 for 3D fields; vector components sit on the
last axis.

Design notes
------------
* Wavenumbers follow the FFT ordering ``2*pi*fftfreq(N, 1/N)``.  The Nyquist
  column (even N) is zeroed in the first-derivative multiplier (derivative
  of the real trigonometric interpolant).  Every higher operator multiplies
  the spectrum by products of these first-derivative multipliers, so its
  Nyquist lines are zero exactly as for composed first derivatives, and
  spectral differentiation agrees with the classical dense Fourier
  differentiation matrix to machine precision.
* The horizontal derivatives are BLAS matmuls with real matrices
  ``irfft((ik)^p rfft(I))``, one per horizontal plane (level, component),
  on every axis (:data:`MAX_HORIZONTAL_N` bounds their size), so a plane's
  bits do not depend on the field it sits in.  The local fixed-point
  sweeps are matmuls too, up to :data:`DENSE_SWEEP_MAX_N`.  These real
  matrices (the derivatives and the sweeps' DFTs) are made from numpy's
  transforms of the identity once per size in a process and shared
  read-only, so the k = 0 and Nyquist columns are treated as ``irfft``
  treats them.
* Dealiasing and the other implicit solves transform: real fields with
  ``rfft``/``irfft`` on the half-spectrum ``k >= 0`` of the last
  transformed axis, complex fields (resolvent solutions at complex
  lambda) with the full ``fft``/``ifft``.  The horizontal transforms are
  numpy's one-axis transforms in the order its 2-D routines apply them,
  so they return the same bits without the 2-D routines' overhead.
* Vertical products are BLAS matmuls over the node axis.  A complex
  vector field enters one through its float view, Re and Im as two more
  columns of one real matmul: numpy would promote the real matrix and
  take a complex product, 3.5 times as long at 32x32x17 (one CPU, one
  BLAS thread).
* Sums over a component axis of length 2 (``l2_norm``, the energy's
  |V|^2, |d_z V|^2 and |grad V . Z|^2, the invertibility guard's row sums,
  |k|) and the flow map's 2 x 2 products are written out in numpy's own
  order: ``np.sum`` and ``einsum`` over so short an axis run numpy's
  generic loop, about 250 us against 11 us for one sum at 32x32x17, for
  the same bits.
* Vertical quadrature uses Clenshaw--Curtis weights on the CGL nodes,
  normalized so that the weights sum to 1 on [0,1].
* Dealiasing uses the 2/3 rule: modes with ``|k| > floor(N/3)`` in either
  direction are cut from products of the nonlinear terms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import numpy.polynomial.chebyshev as npcheb

__all__ = [
    "Grid",
    "make_grid",
    "vertical_average",
    "vertical_derivative",
    "integrate_from_bottom",
    "grad_h",
    "div_h",
    "grad_h_vec",
    "dealias",
    "integral",
    "l2_norm",
    "validate_field",
]


#: Resolution ceiling on nx (ny//2 + 1) (2 nz + 1)^2.  It bounds what the
#: implicit step's ``Stepper`` holds, with blocks of n <= 2 nz + 1 unknowns:
#: the kept inverses ``_inv_t``, nx (ny//2 + 1) blocks of n (n - 4) floats,
#: at most 2^26 floats (512 MiB), and while they are built the blocks of the
#: rows kx >= 0, (nx//2 + 1)(ny//2 + 1) of n^2 entries, about 2^25 (512 MiB
#: as GlobalGamma1's complex bordered blocks, 256 MiB as real ones).  It
#: does not bound the horizontal derivative matrices: :data:`MAX_HORIZONTAL_N`
#: does.
MAX_BLOCK_ENTRIES = 2**26

#: Largest nx, ny.  Every horizontal derivative is a matmul with dense
#: n x n matrices, cached per axis length: at 1024 nodes 8 MiB each, and
#: about 24 MiB traced while one is made; both grow as n^2.  Their time
#: over a transform's grows with n too: grad_h_vec at n x 8 x 3, one BLAS
#: thread, took 2.3 times pocketfft's at n = 512 and 4-5 times at 1024.
MAX_HORIZONTAL_N = 1024

#: Largest nx, ny with dense-DFT fixed-point sweeps, pocketfft above.  Dense
#: over pocketfft time of an iteration, one pinned CPU and BLAS thread, best
#: of 9-15 interleaved, at nz = 9 / 17: 16^2 0.48 / 0.65, 24^2 0.66 / 0.62,
#: 32^2 0.69-0.79 / 0.82-0.85, 40^2 0.86-0.87 / 0.90-0.91, 48^2 0.97-1.04 /
#: 1.01-1.02, 64^2 1.04-1.18 / 0.94-1.00; at nz = 9, 8x48 0.51, 48x12 0.77,
#: 8x64 0.61, 64x8 0.94, 64x16 1.01.  No measured grid that this bound sends
#: to the matrices was slower there.
DENSE_SWEEP_MAX_N = 40


# ---------------------------------------------------------------------------
# Chebyshev building blocks (Gauss--Lobatto nodes on [-1,1], descending)
# ---------------------------------------------------------------------------

def _cheb_matrix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev differentiation matrix on n+1 CGL nodes x_j = cos(j*pi/n)."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return d, x


def _clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Clenshaw--Curtis quadrature weights on n+1 CGL nodes, sum = 2."""
    theta = np.pi * np.arange(n + 1) / n
    w = np.zeros(n + 1)
    ii = np.arange(1, n)
    v = np.ones(n - 1)
    if n % 2 == 0:
        w[0] = w[n] = 1.0 / (n**2 - 1)
        for k in range(1, n // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k**2 - 1)
        v -= np.cos(n * theta[ii]) / (n**2 - 1)
    else:
        w[0] = w[n] = 1.0 / n**2
        for k in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k**2 - 1)
    w[ii] = 2.0 * v / n
    return w


@functools.cache
def _integration_from_one_matrix(n: int) -> np.ndarray:
    """Matrix I with (I f)_j = int_{x_j}^{1} f(x) dx on the n+1 CGL nodes.

    Column k integrates the Chebyshev interpolant of the k-th unit vector
    (exact for polynomials of degree <= n); all columns are fitted at
    once, once per n in a process, so the shared result is read-only.
    """
    x = _cheb_matrix(n)[1]
    anti = npcheb.chebint(npcheb.chebfit(x, np.eye(n + 1), n))
    out = (npcheb.chebval(1.0, anti)[:, None] - npcheb.chebval(x, anti)).T
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Discretized periodic cylinder.

    Attributes
    ----------
    nx, ny : int
        Horizontal resolutions (even, >= 4).
    nz : int
        Number of vertical collocation nodes (>= 3).
    x, y : ndarray, shape (nx,), (ny,)
        Uniform horizontal nodes on [0, 1).
    z : ndarray, shape (nz,)
        CGL nodes mapped to [0, 1], ascending; z[0] = 0 (Gamma_b),
        z[-1] = 1 (Gamma_u).
    kx, ky : ndarray
        Angular wavenumbers ``2*pi*fftfreq(N, 1/N)`` (Nyquist negative).
    ikx, iky : ndarray (complex)
        First-derivative multipliers ``i*k`` with the Nyquist entry zeroed.
    Dz : ndarray, shape (nz, nz)
        Vertical differentiation matrix (acts on values in z order).
    wz : ndarray, shape (nz,)
        Clenshaw--Curtis weights with sum(wz) = 1.
    Iz : ndarray, shape (nz, nz)
        Integration-from-bottom matrix, (Iz f)_j = int_0^{z_j} f dz;
        row 0 is exactly zero.
    dealias_mask : ndarray, shape (nx, ny), bool
        2/3-rule mask (True = keep), ``|k| <= floor(N/3)`` per direction.
    active_mask : ndarray, shape (nx, ny), bool
        Modes not on a Nyquist line in either direction.
    """

    nx: int
    ny: int
    nz: int
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)
    kx: np.ndarray = field(repr=False)
    ky: np.ndarray = field(repr=False)
    ikx: np.ndarray = field(repr=False)
    iky: np.ndarray = field(repr=False)
    Dz: np.ndarray = field(repr=False)
    wz: np.ndarray = field(repr=False)
    Iz: np.ndarray = field(repr=False)
    dealias_mask: np.ndarray = field(repr=False)
    active_mask: np.ndarray = field(repr=False)


def make_grid(nx: int, ny: int, nz: int) -> Grid:
    """Construct a :class:`Grid`.

    Parameters
    ----------
    nx, ny : int
        Horizontal resolutions; must be even and >= 4.
    nz : int
        Vertical node count; must be >= 3.

    Raises
    ------
    ValueError
        If the resolution is too small, above :data:`MAX_HORIZONTAL_N` or
        :data:`MAX_BLOCK_ENTRIES`, or a horizontal size is odd; checked
        before anything is allocated.
    """
    for name, n in (("nx", nx), ("ny", ny)):
        if n < 4 or n % 2 != 0:
            raise ValueError(
                f"resolution too small: {name}={n} must be an even integer >= 4"
            )
        if n > MAX_HORIZONTAL_N:
            raise ValueError(f"resolution too large: {name}={n} exceeds "
                             f"{MAX_HORIZONTAL_N}")
    if nz < 3:
        raise ValueError(f"resolution too small: nz={nz} must be >= 3")
    entries = nx * (ny // 2 + 1) * (2 * nz + 1) ** 2
    if entries > MAX_BLOCK_ENTRIES:
        raise ValueError(f"resolution too large: nx*(ny//2+1)*(2*nz+1)^2 = "
                         f"{entries} exceeds {MAX_BLOCK_ENTRIES}")

    x = np.arange(nx) / nx
    y = np.arange(ny) / ny

    kx = 2.0 * np.pi * np.fft.fftfreq(nx, d=1.0 / nx)
    ky = 2.0 * np.pi * np.fft.fftfreq(ny, d=1.0 / ny)
    ikx, iky = _ik(nx), _ik(ny)

    # CGL nodes descend from 1 to -1, so z = (1-x)/2 ascends from 0 to 1 and
    # the index order of nodal values is shared; d/dz = -2 d/dx.
    d_cheb, x_cheb = _cheb_matrix(nz - 1)
    z = (1.0 - x_cheb) / 2.0
    z[0] = 0.0
    z[-1] = 1.0
    dz_mat = -2.0 * d_cheb
    wz = _clenshaw_curtis_weights(nz - 1) / 2.0
    # int_0^z f dz' = (1/2) int_{x(z)}^{1} f dx'
    iz_mat = 0.5 * _integration_from_one_matrix(nz - 1)
    iz_mat[0, :] = 0.0

    kx_int = np.rint(kx / (2.0 * np.pi)).astype(int)
    ky_int = np.rint(ky / (2.0 * np.pi)).astype(int)
    keep_x = np.abs(kx_int) <= nx // 3
    keep_y = np.abs(ky_int) <= ny // 3
    dealias_mask = keep_x[:, None] & keep_y[None, :]

    active_x = np.ones(nx, dtype=bool)
    active_y = np.ones(ny, dtype=bool)
    active_x[nx // 2] = False
    active_y[ny // 2] = False
    active_mask = active_x[:, None] & active_y[None, :]

    return Grid(
        nx=nx, ny=ny, nz=nz,
        x=x, y=y, z=z,
        kx=kx, ky=ky, ikx=ikx, iky=iky,
        Dz=dz_mat, wz=wz, Iz=iz_mat,
        dealias_mask=dealias_mask, active_mask=active_mask,
    )


# ---------------------------------------------------------------------------
# Field validation
# ---------------------------------------------------------------------------

def validate_field(f: np.ndarray, g: Grid, *kinds: str) -> str:
    """Classify an array as one of the module docstring's four field kinds.

    Returns one of ``"scalar2d" | "vector2d" | "scalar3d" | "vector3d"``;
    raises ``ValueError`` on any other shape (``shape mismatch: ...``),
    and on a kind not among ``kinds`` when any are given, for example
    ``expected a 2D scalar or 3D scalar field, got a 2D vector field``
    (from :func:`integral`).  Every public function that takes a field
    checks its kind here.
    """
    shape = np.shape(f)
    if shape == (g.nx, g.ny):
        kind = "scalar2d"
    elif shape == (g.nx, g.ny, 2):  # nz >= 3, so never a 3D scalar
        kind = "vector2d"
    elif shape == (g.nx, g.ny, g.nz):
        kind = "scalar3d"
    elif shape == (g.nx, g.ny, g.nz, 2):
        kind = "vector3d"
    else:
        raise ValueError(
            f"shape mismatch: array of shape {shape} does not fit grid "
            f"({g.nx},{g.ny},{g.nz})")
    if kinds and kind not in kinds:
        words = [f"{k[-2:].upper()} {k[:-2]}" for k in (*kinds, kind)]
        raise ValueError(f"expected a {' or '.join(words[:-1])} field, "
                         f"got a {words[-1]} field")
    return kind


# ---------------------------------------------------------------------------
# Vertical operations
# ---------------------------------------------------------------------------

def vertical_average(f: np.ndarray, g: Grid) -> np.ndarray:
    """Vertical average ``int_0^1 f dz`` by Clenshaw--Curtis quadrature.

    Accepts a scalar or vector 3D field and returns the matching 2D field.
    """
    validate_field(f, g, "scalar3d", "vector3d")
    # np.tensordot's own product, without its wrapper: the node axis last
    at = (np.swapaxes(f, 2, 3) if f.ndim == 4 else f).reshape(-1, g.nz)
    return np.dot(at, g.wz.reshape(-1, 1)).reshape(f.shape[:2] + f.shape[3:])


def _vertical_product(M: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Apply the real (nz, nz) matrix M along the node axis of a 3D field.

    A vector field's trailing (nz, 2) slices already hold the node axis
    first, so ``M @ f`` is one batched matmul; a scalar field holds it
    last, so it is ``f @ M.T``.  A complex vector field is multiplied as
    real, through its float view (see the module docstring).
    """
    if f.ndim == 3:
        return f @ M.T
    if np.iscomplexobj(f):
        return (M @ np.ascontiguousarray(f, complex).view(float)).view(complex)
    return M @ f


def vertical_derivative(f: np.ndarray, g: Grid) -> np.ndarray:
    """Apply the vertical differentiation matrix along the node axis."""
    validate_field(f, g, "scalar3d", "vector3d")
    return _vertical_product(g.Dz, f)


def integrate_from_bottom(f: np.ndarray, g: Grid) -> np.ndarray:
    """Cumulative vertical integral ``int_0^{z_j} f dz'`` (exactly 0 at z=0)."""
    validate_field(f, g, "scalar3d", "vector3d")
    return _vertical_product(g.Iz, f)


# ---------------------------------------------------------------------------
# Horizontal spectral operations
# ---------------------------------------------------------------------------

def _ik(n: int) -> np.ndarray:
    """Multipliers ``i k`` on n nodes, the Nyquist entry of an even n zeroed."""
    ik = 1j * (2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n))
    if n % 2 == 0:
        ik[n // 2] = 0.0
    return ik


@functools.cache
def _fourier_matrix(kind: str, n: int) -> np.ndarray:
    """A real matrix acting along one horizontal axis of n nodes, made once
    per (kind, n) in a process from numpy's transforms of the identity and
    shared read-only: ``"d1"``, ``"d2"`` the first and second derivative
    with the multipliers of :func:`_ik`; the transforms, on real and
    imaginary parts with every spectrum in (k, Re/Im) order: ``"rfft"``
    from real nodes to the half-spectrum, ``"fft"`` from (Re/Im, node) and
    ``"ifft"`` back to (Re/Im, node), ``"irfft"`` from the half-spectrum
    to real nodes.
    """
    eye = np.eye(n)
    spectral = np.arange(2 * n).reshape(2, n).T.ravel()  # to (k, Re/Im)
    if kind in ("d1", "d2"):
        ik = _ik(n)[:n // 2 + 1, None] ** int(kind[1])
        out = np.fft.irfft(ik * np.fft.rfft(eye, axis=0), n=n, axis=0)
    elif kind == "rfft":
        f = np.fft.rfft(eye).T
        out = np.stack([f.real, f.imag], axis=1).reshape(-1, n)
    elif kind in ("fft", "ifft"):
        f = getattr(np.fft, kind)(eye).T
        out = np.block([[f.real, -f.imag], [f.imag, f.real]])
        out = out[spectral] if kind == "fft" else out[:, spectral]
    else:
        half = np.eye(n // 2 + 1)
        out = np.stack([np.fft.irfft(half, n=n),
                        np.fft.irfft(1j * half, n=n)], axis=1).reshape(-1, n).T
    out.flags.writeable = False
    return out


def _multiplier(ik: np.ndarray, axis: int, ndim: int,
                real: bool) -> np.ndarray:
    """``ik`` shaped to broadcast along ``axis`` of an ndim-array spectrum.

    For the half-spectrum of a real field (``real``) only the entries
    ``k >= 0`` are kept; the Nyquist entry, zero in ``ik``, stays zero.
    """
    shape = [1] * ndim
    shape[axis] = len(ik) // 2 + 1 if real else len(ik)
    return ik[:shape[axis]].reshape(shape)


def _derivatives(f: np.ndarray, ops) -> np.ndarray:
    """The spectral derivatives ``(axis, order)`` of f listed in ``ops``,
    order 1 or 2 along a horizontal axis, on a new trailing axis.

    Each is one matmul per horizontal plane (level, component) with the
    cached ``"d1"``/``"d2"`` matrix of its axis, whatever the axis' length,
    so a plane's bits are the same alone or in any field.
    """
    nx, ny = f.shape[:2]
    f3 = f.reshape(nx, ny, -1)
    out = np.empty(f3.shape + (len(ops),), np.result_type(f, float))
    planes = np.ascontiguousarray(f3.transpose(2, 0, 1))
    for j, (axis, order) in enumerate(ops):
        D = _fourier_matrix(f"d{order}", f.shape[axis])
        d = D @ planes if axis == 0 else planes @ D.T
        out[..., j] = d.transpose(1, 2, 0)
    return out.reshape(f.shape + (len(ops),))


def _ddx(f: np.ndarray, g: Grid) -> np.ndarray:
    return _derivatives(f, ((0, 1),))[..., 0]


def _ddy(f: np.ndarray, g: Grid) -> np.ndarray:
    return _derivatives(f, ((1, 1),))[..., 0]


def _gradient(f: np.ndarray) -> np.ndarray:
    """x and y derivatives of a field of any rank, on a new trailing axis."""
    return _derivatives(f, ((0, 1), (1, 1)))


def _fft_h(f: np.ndarray) -> np.ndarray:
    """The ``rfft2`` half-spectrum (ky >= 0) of a real field, the ``fft2`` of
    a complex one: their one-axis transforms, y then x, without their cost."""
    if np.iscomplexobj(f):
        return np.fft.fft(np.fft.fft(f, axis=1), axis=0)
    return np.fft.fft(np.fft.rfft(f, axis=1), axis=0)


def _ifft_h(fh: np.ndarray, g: Grid, real: bool) -> np.ndarray:
    """Inverse of :func:`_fft_h`; ``real`` says the field was real."""
    if real:
        return np.fft.irfft(np.fft.ifft(fh, axis=0), n=g.ny, axis=1)
    return np.fft.ifft(np.fft.ifft(fh, axis=1), axis=0)


def grad_h(f: np.ndarray, g: Grid) -> np.ndarray:
    """Horizontal gradient of a scalar field; appends a component axis."""
    validate_field(f, g, "scalar2d", "scalar3d")
    return _gradient(f)


def div_h(v: np.ndarray, g: Grid) -> np.ndarray:
    """Horizontal divergence of a 2-vector field; drops the component axis."""
    validate_field(v, g, "vector2d", "vector3d")
    return _ddx(v[..., 0], g) + _ddy(v[..., 1], g)


def grad_h_vec(v: np.ndarray, g: Grid) -> np.ndarray:
    """Horizontal gradient tensor of a 2-vector field.

    Returns an array with two trailing axes ``[i, j] = d v_i / d y_j``.
    """
    validate_field(v, g, "vector2d", "vector3d")
    return _gradient(v)


def dealias(f: np.ndarray, g: Grid) -> np.ndarray:
    """Apply the 2/3-rule mask to a field (used on products)."""
    validate_field(f, g)
    fh = _fft_h(f)
    shape = [1] * f.ndim
    shape[0], shape[1] = fh.shape[:2]
    fh *= g.dealias_mask[:, :fh.shape[1]].reshape(shape)
    return _ifft_h(fh, g, not np.iscomplexobj(f))


# ---------------------------------------------------------------------------
# Quadrature functionals
# ---------------------------------------------------------------------------

def integral(f: np.ndarray, g: Grid) -> float:
    """Integral over G (2D fields) or Omega (3D fields).

    Horizontal quadrature is the trapezoid/mean rule (exact for resolved
    trigonometric polynomials); vertical quadrature is Clenshaw--Curtis.
    Vector fields are not accepted (integrate components explicitly).
    """
    if validate_field(f, g, "scalar2d", "scalar3d") == "scalar2d":
        return float(np.mean(f))
    return float(np.mean(f, axis=(0, 1)) @ g.wz)


@np.errstate(over="ignore")
def l2_norm(f: np.ndarray, g: Grid) -> float:
    """Quadrature L^2 norm; components of vector fields are summed."""
    kind = validate_field(f, g)
    mag2 = np.abs(f) ** 2
    if kind in ("vector2d", "vector3d"):
        # np.sum's bits, without its generic loop over a length-2 axis
        mag2 = mag2[..., 0] + mag2[..., 1]
    return float(np.sqrt(integral(mag2, g)))

