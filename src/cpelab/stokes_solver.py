"""Resolvent and steady solvers for the hydrostatic Stokes block system.

The problems solved here read, for a spectral parameter lambda with
Re lambda >= 0 and data (f1, f2),

    lambda zeta + xi_bar div_H avg(V)          = f1   on G,
    lambda V - A_{xi_bar} V + grad_H zeta      = f2   on Omega,
    V|_{z=1} = 0,  d_z V|_{z=0} = 0,

i.e. (lambda - A_CHS) (zeta, V) = (f1, f2) with the block operator of
:mod:`cpelab.operators` at the problem's reference density xi_bar
(``spectral_bound`` defaults it to ``params.xi_bar``).  For lambda = 0 the
data must satisfy the compatibility condition int_G f1 = 0 and the
solution is unique in the mean-free class int_G zeta = 0.

Because the coefficients are constant, the system block-diagonalizes
over horizontal Fourier modes into small bordered vertical systems
(boundary rows replaced by the boundary conditions); as the Lame symbol
is isotropic, the resolvent solver factorizes one system per |k|^2
shell for all its modes.  A dense monolithic solve — at lambda = 0 with
its kernel, zeta in the mean and on the Nyquist lines, deflated — is
the tests' ground truth, and a decomposed solver mirrors the continuous
existence argument: vertical averaging reduces lambda = 0 to a 2D
Stokes-type saddle problem for (avg V, zeta-tilde) with zeta-tilde =
(1 - delta/2) zeta, whose right side carries boundary-trace terms of the
full velocity, handled by Picard iteration; the velocity is then
recovered from the 3D elliptic problem A V = grad_H zeta - f2.

The module also estimates the spectral bound eta0 (negative of the
largest real part of the mean-free spectrum) and sweeps the resolvent
norm along the imaginary axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    _ddx,
    _ddy,
    _fft_h,
    _ifft_h,
    dealias,
    div_h,
    grad_h,
    integral,
    l2_norm,
    validate_field,
    vertical_average,
    vertical_derivative,
)
from .operators import (
    SolverBreakdown,
    _bordered,
    _linalg_breakdown,
    _pack_modes,
    _real_form,
    _unpack_modes,
    _replace_bc_rows,
    apply_hydrostatic_lame,
    dense_chs,
    mode_matrices,
    mode_wavevectors,
    vertical_lame_block,
    vertical_reduction,
)
from .transforms import (
    PhysicalParams,
    _require_finite,
    column_density,
    lame_weights,
)

__all__ = [
    "MEAN_TOL",
    "CompatibilityError",
    "ResolventProblem",
    "check_spectral_parameter",
    "solve_resolvent",
    "solve_steady_decomposed",
    "spectral_bound",
    "imaginary_axis_resolvent_sweep",
    "ResolventSweepReport",
    "resolvent_residual",
]

#: Compatibility tolerance on |int_G f1| / ||f1|| for lambda = 0.
MEAN_TOL = 1e-10

#: Residual tolerance of the resolvent solves (relative).
LIN_TOL = 1e-8

#: Picard limit and relative update tolerance of solve_steady_decomposed.
PICARD_MAX_ITER = 50
PICARD_TOL = 1e-10

#: Spectral parameters of the imaginary-axis resolvent sweep.
SWEEP_LAMBDAS = (0.0, 1j, 10j, 100j, 1e3j, 1e4j, 1e5j, 1e6j)


def check_spectral_parameter(lam: complex) -> None:
    """Raise ``ValueError`` unless lambda is finite with Re lambda >= 0."""
    lam = complex(lam)
    _require_finite(("'lam'", lam))
    if lam.real < 0:
        raise ValueError(f"'lam' must satisfy Re lambda >= 0, got {lam}")


@dataclass(frozen=True)
class ResolventProblem:
    """Data (lambda, f1, f2) of one resolvent problem, xi_bar fixed."""

    lam: complex
    f1: np.ndarray
    f2: np.ndarray
    xi_bar: float = 1.0

    def __post_init__(self) -> None:
        check_spectral_parameter(self.lam)
        if not self.xi_bar > 0:
            raise ValueError(f"xi_bar must be positive, got {self.xi_bar}")


class CompatibilityError(ValueError):
    """Data of a lambda = 0 problem that is not mean-free."""


def _check_compatibility(f1: np.ndarray, g: Grid) -> None:
    mean = abs(integral(np.real(f1), g)) + abs(integral(np.imag(f1), g))
    scale = max(l2_norm(f1, g), 1e-300)
    if mean > MEAN_TOL * max(scale, 1.0):
        raise CompatibilityError(
            "compatibility violation: lambda = 0 requires a mean-free f1 "
            f"(|int f1| = {mean:.3e}, ||f1|| = {scale:.3e})")


def _state_norm(zeta: np.ndarray, V: np.ndarray, g: Grid):
    """sqrt(||zeta||^2 + ||V||^2), the norm of a state (zeta, V)."""
    return np.sqrt(l2_norm(zeta, g) ** 2 + l2_norm(V, g) ** 2)


def _shifted_chs(lam: complex, zeta: np.ndarray, V: np.ndarray,
                 xi_bar: float, g: Grid, params: PhysicalParams):
    """The two rows of (lambda - A_CHS)(zeta, V), boundary layers raw."""
    AV = apply_hydrostatic_lame(V, xi_bar, g, params, bc="raw")
    return (lam * zeta + xi_bar * div_h(vertical_average(V, g), g),
            lam * V - AV + grad_h(zeta, g)[:, :, None, :])


@np.errstate(over="ignore", invalid="ignore")
def resolvent_residual(
    lam: complex,
    zeta: np.ndarray,
    V: np.ndarray,
    f1: np.ndarray,
    f2: np.ndarray,
    xi_bar: float,
    g: Grid,
    params: PhysicalParams,
) -> float:
    """Relative residual of (lambda - A_CHS)(zeta, V) = (f1, f2).

    Interior rows carry the equations; the velocity boundary layers carry
    the boundary residuals V|_{z=1} and d_z V|_{z=0}.  A norm that
    overflows gives an inf or nan residual.
    """
    r1, r2 = _shifted_chs(lam, zeta, V, xi_bar, g, params)
    r2 = _replace_bc_rows(r2 - f2, V, g)
    scale = max(_state_norm(f1, f2, g), 1e-300)
    return float(_state_norm(r1 - f1, r2, g) / scale)


def manufactured_resolvent_problem(
    lam: complex,
    g: Grid,
    params: PhysicalParams,
) -> tuple[ResolventProblem, np.ndarray, np.ndarray]:
    """Build a resolvent problem whose exact solution is known.

    A smooth mean-free surface field and a velocity with polynomial
    vertical profile 1 - z^2 (zero at z = 1, zero slope at z = 0, so the
    boundary rows are satisfied exactly at the collocation points) are
    substituted into (lambda - A_CHS), at xi_bar = ``params.xi_bar``, to
    produce the right-hand side.

    Returns
    -------
    (problem, zeta_true, V_true)
    """
    x = g.x[:, None]
    y = g.y[None, :]
    zeta = (0.3 * np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y)
            + 0.2 * np.sin(2 * np.pi * y))
    phi = (1.0 - g.z ** 2)[None, None, :]
    psi1 = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.5 * np.cos(4 * np.pi * y)
    psi2 = np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y) - 0.3 * np.sin(2 * np.pi * x)
    V = np.stack([psi1[:, :, None] * phi, psi2[:, :, None] * phi], axis=-1)
    lam = complex(lam)
    if lam.imag != 0.0:
        zeta = zeta * (1.0 + 0.5j)
        V = V * (1.0 - 0.25j)
    xi_bar = params.xi_bar
    with np.errstate(over="ignore", invalid="ignore"):
        f1, f2 = _shifted_chs(lam, zeta, V, xi_bar, g, params)
        f2[:, :, -1, :] = 0.0
        f2[:, :, 0, :] = 0.0
        # the solve transforms the data, whose sums may overflow too
        finite = all(np.all(np.isfinite(_fft_h(f))) for f in (f1, f2))
    if not finite:
        raise SolverBreakdown(
            "operator breakdown: the manufactured data overflow")
    if lam.imag == 0.0:
        f1 = f1.real
        f2 = f2.real
        zeta = zeta.real
        V = V.real
    return ResolventProblem(lam, f1, f2, xi_bar=xi_bar), zeta, V


def _is_real(p: ResolventProblem) -> bool:
    """Whether the solution is real: real data at real lambda."""
    return (complex(p.lam).imag == 0 and not np.iscomplexobj(p.f1)
            and not np.iscomplexobj(p.f2))


def _shell_parts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two parts of a bordered block of order n at (|k|, 0), with no
    entries between them: zeta with the x velocity levels, and the y ones."""
    return np.r_[0, 1:n:2], np.r_[2:n:2]


def _rotate(u: np.ndarray, c: np.ndarray, s: np.ndarray) -> None:
    """Turn each level's velocity (x, y) of the packed modes u, one a row,
    by (cos, sin) = (c, s), in place."""
    x, y = u[:, 1::2], u[:, 2::2]
    t = s * y  # in place, at most two temporaries: peak memory
    y *= c
    y += s * x
    x *= c
    x -= t


def _shell_batches(keys: np.ndarray, ny: int, name: str):
    """Group modes by key: 2 q for the shell q = |k|^2 / (2 pi)^2 of integer k,
    2 q + 1 for a pinned lambda = 0 block.  Yields the shells by increasing
    key, at most ny/2 to a batch: their wave vectors (2 pi sqrt(q), 0), which
    are pinned, the batch's name in a breakdown, and per mode, in stable order,
    its index, its shell in the batch and its column in that shell."""
    shells, shell_of, count = np.unique(keys, return_inverse=True,
                                        return_counts=True)
    order = np.argsort(shell_of, kind="stable")
    first = np.r_[0, np.cumsum(count)]
    col = np.arange(len(keys)) - first[shell_of[order]]
    for lo in range(0, len(shells), ny // 2):
        key = shells[lo:lo + ny // 2]
        batch = np.s_[first[lo]:first[lo + len(key)]]
        at = order[batch]
        yield (2 * np.pi * np.sqrt(key // 2)[:, None] * [1.0, 0.0],
               key % 2 == 1, f"the {name} shells |k|^2 = " + ", ".join(
                   f"{h // 2}" + " (pinned)" * (h % 2) for h in key),
               at, shell_of[at] - lo, col[batch])


@np.errstate(over="ignore", invalid="ignore")
def _solve_per_mode(
    p: ResolventProblem, g: Grid, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray]:
    """Shell-by-shell bordered solve of (lambda - A_CHS) U = F.

    Real data at real lambda is solved on the half-spectrum ky >= 0, any
    other problem on every mode.  The Lame symbol is isotropic, so the
    block at k is Q B Q^T: B is the block at (|k|, 0), and Q = diag(1, I
    kron R_k) turns each level's velocity by the angle of k (boundary rows
    and a pinned zeta row keep their form).  Each shell of
    :func:`_shell_batches` builds B once and solves it for the data Q^T b
    of all its modes as columns, by :func:`_shell_parts`; at real lambda
    in its real form D^-1 B D, D = diag(i, 1, ..., 1), for -i zeta-hat, Re
    and Im as two columns.  Rows whose moduli sum to 1 or more are scaled
    down by powers of two to sums in [0.5, 1), so that partial pivoting
    weighs boundary rows against interior ones.  Fields that overflow fail
    the residual check.
    """
    lam = complex(p.lam)
    real = _is_real(p)
    dtype = float if real else complex
    rhs = _pack_modes(np.asarray(p.f2, dtype=dtype),
                      np.asarray(p.f1, dtype=dtype))
    nk, n = rhs.shape[1:]
    rhs = rhs.reshape(-1, n)  # one mode a row; the solutions replace it
    K = mode_wavevectors(g)[:, :nk].reshape(-1, 2)
    k = np.sqrt(np.sum(K * K, axis=-1))
    keys = 2 * np.rint((k / (2 * np.pi)) ** 2).astype(int)  # 2 q, q integer
    if lam == 0:
        # zeta is the normalized mean (or a Nyquist artifact): pin it to
        # zero and drop the continuity row.
        pin = ~g.active_mask[:, :nk].ravel()
        pin[0] = True
        rhs[pin, 0] = 0.0
        keys += pin  # a pinned block is a shell of its own
    kk = np.where(k > 0, k, 1.0)
    c, s = np.where(k > 0, K[:, 0] / kk, 1.0)[:, None], (K[:, 1] / kk)[:, None]
    _rotate(rhs, c, -s)  # Q^T b
    real_form = lam.imag == 0
    lead = rhs[:, :1].view(float)  # (Re, Im) of zeta-hat
    if real_form:
        lead[:] = lead[:, ::-1] * (1.0, -1.0)  # -i zeta-hat
    rho = column_density(params.model, p.xi_bar, g.z)
    parts = _shell_parts(n)
    for kt, pinned, where, at, row, col in _shell_batches(keys, g.ny,
                                                          "resolvent"):
        M = mode_matrices(kt, rho, g, params, lam, 1.0, xi_bar=p.xi_bar)
        M[pinned, 0, :] = 0.0
        M[pinned, 0, 0] = 1.0
        b = np.zeros((len(kt), n, col.max() + 1), dtype=complex)
        b[row, :, col] = rhs[at]
        if real_form:
            M, b = _real_form(M), b.view(float)
        # exact scaling: a power of two, and none that could overflow
        e = np.frexp(np.abs(M) @ np.ones(n))[1]
        w = np.ldexp(1.0, -np.maximum(e, 0))[..., None]
        M *= w
        b *= w
        u = np.empty_like(b)
        with _linalg_breakdown(where):
            for part in parts:
                u[:, part] = np.linalg.solve(M[:, part[:, None], part],
                                             b[:, part])
        rhs[at] = u.view(complex)[row, :, col]
    if real_form:
        lead[:] = lead[:, ::-1] * (-1.0, 1.0)
    _rotate(rhs, c, s)  # Q u
    return _unpack_modes(rhs.reshape(g.nx, nk, n), g, real)


def solve_resolvent(
    p: ResolventProblem,
    g: Grid,
    params: PhysicalParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (lambda - A_CHS)(zeta, V) = (f1, f2), one bordered vertical
    system per horizontal Fourier mode, factorized once per |k|^2 shell.

    The operator is taken at ``p.xi_bar``; ``params.xi_bar`` is not read.
    A singular block (named by its batch of |k|^2 shells), or a relative
    residual not within :data:`LIN_TOL`, raises :class:`SolverBreakdown`.
    Returns real fields for real data at real lambda and complex fields
    otherwise; for lambda = 0, zeta is returned mean-free.
    """
    return _solve_checked(p, g, params)[:2]


def _solve_checked(
    p: ResolventProblem, g: Grid, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`solve_resolvent`, also returning the checked relative residual."""
    validate_field(p.f1, g)
    validate_field(p.f2, g)
    if complex(p.lam) == 0:
        _check_compatibility(p.f1, g)
    zeta, V = _solve_per_mode(p, g, params)
    res = resolvent_residual(complex(p.lam), zeta, V, p.f1, p.f2, p.xi_bar,
                             g, params)
    if not res <= LIN_TOL:
        raise SolverBreakdown(
            f"linear-solver breakdown: relative residual {res:.3e} "
            f"exceeds {LIN_TOL:.1e}")
    return zeta, V, res


# ---------------------------------------------------------------------------
# decomposed steady solver (lambda = 0, model Gamma1, xi_bar = 1)
# ---------------------------------------------------------------------------

def solve_steady_decomposed(
    f1: np.ndarray,
    f2: np.ndarray,
    g: Grid,
    params: PhysicalParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Steady solve via vertical averaging plus an elliptic recovery.

    Multiplying the momentum equation by (1 - delta z) and integrating in
    z turns the lambda = 0 system into the 2D saddle problem

        mu (|kt|^2 - 1) vbar-hat + i kt ztilde-hat = R-hat,
        i kt . vbar-hat = f1-hat,        ztilde = (1 - delta/2) zeta,

    per nonzero mode, where R collects avg((1-delta z) f2), mu' grad f1
    and the boundary traces mu ((1-delta)^2/delta^2) d_z V|_{z=1}
    - (mu/delta) V|_{z=0} of the full velocity (the term mu avg(V) is
    folded into the left side).  The traces couple back to the 3D
    velocity, recovered per mode from A V = grad_H zeta - f2 on the
    half-spectrum; the loop is a Picard iteration on them, started from
    rest.  Complex data is solved for its real part.  Model ``Gamma1`` at
    xi_bar = 1, whatever ``params.xi_bar`` holds.

    One discrete correction is required on top of the continuous
    argument: the collocation solution satisfies the momentum equation at
    interior nodes only (the boundary rows hold the boundary conditions),
    so the quadrature of the weighted equation picks up the residual of
    the raw equation at the two boundary layers.  That tau term,
    w_0 r(0) + w_{nz-1} (1-delta) r(1) with r = -A V + grad zeta - f2, is
    lagged along with the traces; at the fixed point the decomposition
    reproduces the monolithic discrete solution exactly.
    """
    if params.model != "Gamma1":
        raise ValueError("the decomposed steady solver applies to model 'Gamma1'")
    validate_field(f1, g)
    validate_field(f2, g)
    _check_compatibility(f1, g)
    f1, f2 = np.real(f1), np.real(f2)  # the operator is real
    mu, mup = params.mu, params.mu_prime
    wH, wZ = lame_weights("Gamma1", g.z)
    one_minus = 1.0 / wH  # 1 - delta z
    delta = one_minus[0] - one_minus[-1]
    trace_top = mu * wZ[-1] * one_minus[-1]  # mu (1 - delta)^2 / delta^2
    trace_bot = -mu / delta
    # quadrature weights of the weighted equation at the boundary layers
    tau_bot, tau_top = g.wz[[0, -1]] * one_minus[[0, -1]]
    base = vertical_average(one_minus[None, None, :, None] * f2, g) \
        + mup * grad_h(f1, g)
    f1h = _fft_h(f1)
    K = mode_wavevectors(g)[:, :f1h.shape[1]]
    kx, ky = K[..., 0], K[..., 1]
    k2 = kx * kx + ky * ky
    nonzero = k2 != 0.0
    k2_safe = np.where(nonzero, k2, 1.0)
    # per-mode elliptic blocks A_k with boundary rows, inverted once
    with _linalg_breakdown("the velocity recovery blocks"):
        inv = np.linalg.inv(mode_matrices(K, 1.0, g, params, 0.0, -1.0))

    V, gz = np.zeros(f2.shape), 0.0  # from rest
    for it in range(PICARD_MAX_ITER):
        dzV = vertical_derivative(V, g)
        trace = trace_top * dzV[:, :, -1, :] + trace_bot * V[:, :, 0, :]
        # tau correction: residual of the raw equation at the boundary rows
        r_all = gz - f2 - apply_hydrostatic_lame(V, 1.0, g, params, bc="raw")
        tau = tau_bot * r_all[:, :, 0, :] + tau_top * r_all[:, :, -1, :]
        Rh = _fft_h(base + trace + tau)
        # saddle elimination: ztilde = (mu(k2-1) f1 - i kt . R)/k2
        zt = (mu * (k2 - 1.0) * f1h
              - 1j * (kx * Rh[..., 0] + ky * Rh[..., 1])) / k2_safe
        zetah = np.where(nonzero, zt / (g.wz @ one_minus), 0.0)
        zeta = _ifft_h(zetah, g, True)
        gz = grad_h(zeta, g)[:, :, None, :]
        sol = inv @ _pack_modes(gz - f2)[..., None]
        V_new = _unpack_modes(sol[..., 0], g, True)
        diff = np.abs(V_new - V).max() / max(np.abs(V_new).max(), 1e-300)
        V = V_new
        if diff <= PICARD_TOL:
            break
    else:
        raise SolverBreakdown(
            f"Picard iteration on the boundary traces did not reach "
            f"{PICARD_TOL} in {PICARD_MAX_ITER} iterations "
            f"(last update {diff:.3e})")
    return zeta, V


# ---------------------------------------------------------------------------
# spectral bound and resolvent sweep
# ---------------------------------------------------------------------------

def _active_filter(g: Grid, mean_free: bool) -> np.ndarray:
    """Dense projector onto the (nx, ny) fields, flattened C-order, without
    Nyquist content, and with ``mean_free`` without a mean."""
    n2 = g.nx * g.ny
    mask = g.active_mask.astype(float)
    if mean_free:
        mask[0, 0] = 0.0
    # column j filters the j-th unit field; one batched transform pair
    units = np.eye(n2).reshape(n2, g.nx, g.ny)
    return np.fft.ifft2(np.fft.fft2(units) * mask).real.reshape(n2, n2).T


def _mean_free_active_basis(g: Grid, nvert: int) -> np.ndarray:
    """Orthonormal basis of the mean-free active subspace (packed layout).

    The subspace keeps zeta modes that are active (no Nyquist content)
    and mean-free, and velocity modes that are active; it is invariant
    under the block operator because the coefficients are constant and
    the discrete derivatives vanish identically on the Nyquist lines
    (which is also why the dropped zeta directions carry artificial zero
    eigenvalues).  ``nvert`` is the number of vertical velocity degrees
    of freedom per horizontal node.
    """
    n2 = g.nx * g.ny
    P = np.zeros((n2 * (1 + nvert),) * 2)
    P[:n2, :n2] = _active_filter(g, mean_free=True)
    P[n2:, n2:] = np.kron(_active_filter(g, mean_free=False), np.eye(nvert))
    # P is an orthogonal projector: its range is spanned by the singular
    # vectors with singular value 1 (the others are 0).
    U, s, _ = np.linalg.svd(P)
    return U[:, s > 0.5 * s[0]]


def _max_real_part(M: np.ndarray, where: str):
    """Max real part and max modulus of the eigenvalues of M, or of each of
    its blocks; ``where`` names M in a breakdown."""
    with _linalg_breakdown(where):
        ev = np.linalg.eigvals(M)
    return ev.real.max(axis=-1), np.abs(ev).max(axis=-1)


def spectral_bound(
    g: Grid,
    params: PhysicalParams,
    xi_bar: float | None = None,
    method: str = "per_mode",
) -> float:
    """Spectral bound eta0 = -max Re sigma(A_CHS) on the mean-free subspace.

    A_CHS is taken at ``xi_bar``, which defaults to ``params.xi_bar``.
    ``per_mode`` takes the union of the per-mode eigenvalues over the
    active horizontal modes (the k = 0 block restricted to its velocity
    part, which is the mean-free restriction) of one mode of each conjugate
    pair +-k, since the block at -k is the complex conjugate of the block
    at k.  It runs in two passes.  A real filter pass ranks the blocks by
    the |k|^2 shells of :func:`_shell_batches`: the Lame symbol
    -mu |k|^2 - mu' k k^T is isotropic, so every bordered block B on a
    shell is a rotation of the one at (|k|, 0) and has its eigenvalues.
    There the real form D^-1 B D, D = diag(i, 1, ..., 1), splits into the
    parts of :func:`_shell_parts`, and one dgeev of each gives the shell an
    approximate max Re a and a size s = max|lambda|.  Only the candidates,
    blocks whose shell has a + sqrt(eps) s at or above both the k = 0
    block's max Re and every a - sqrt(eps) s, are eigensolved as B itself
    (zgeev), in one batch: the filter's rounding sits far inside that
    margin, so the result is the maximum over every block, bit for bit.
    ``dense`` projects the dense reduced realization onto the mean-free
    active subspace.  Raises :class:`SolverBreakdown` if an eigensolve
    fails (naming its block, or the shells of its filter batch) or the
    computed bound is not positive, or not resolved (within n eps
    max|lambda| of zero, max|lambda| over the k = 0 block and the shells).
    """
    xi_bar = params.xi_bar if xi_bar is None else xi_bar
    if method == "per_mode":
        return _located_bound(g, params, xi_bar)[0]
    if method != "dense":
        raise ValueError(f"method must be 'per_mode' or 'dense', got {method!r}")
    A = dense_chs(xi_bar, g, params, bc="reduced")
    Q = _mean_free_active_basis(g, 2 * (g.nz - 2))
    max_re, size = _max_real_part(Q.T @ A @ Q, "the dense block")
    return _checked_bound(max_re, size, Q.shape[1])


def _located_bound(g: Grid, params: PhysicalParams,
                   xi_bar: float) -> tuple[float, tuple[int, int], float]:
    """:func:`spectral_bound`'s per-mode pass at ``xi_bar``, also returning
    where its maximum lies: the integer (kx, ky) of the block that holds
    it, (0, 0) for the k = 0 block, and its gap, the maximum less the
    largest filter value on any other |k|^2 shell (the k = 0 block's max
    Re for shell 0)."""
    S, R = vertical_reduction(g)
    S2, R2 = np.kron(S, np.eye(2)), np.kron(R, np.eye(2))
    avg_row = g.wz @ R
    K = mode_wavevectors(g)
    # one mode of each pair +-k, whose blocks are complex conjugates; at
    # k = 0 the velocity part alone is the mean-free restriction
    ix, iy = np.indices((g.nx, g.ny))
    keep = g.active_mask & (ix <= g.nx // 2) & ((ix > 0) | (iy <= g.ny // 2))
    keep[0, 0] = False
    rho = column_density(params.model, xi_bar, g.z)

    def blocks(kt):  # A_CHS itself: shift 0, scale -1
        vel = S2 @ vertical_lame_block(kt, rho, g, params) @ R2
        return _bordered(vel, kt, avg_row, 0.0, -1.0, xi_bar)

    A0 = S2 @ vertical_lame_block(K[0, 0], rho, g, params) @ R2
    re0, size = _max_real_part(A0, "the k = 0 block")
    # The ky >= 0 blocks first, each kx row by |ky|: a tie between a block
    # and its reflection (kx, -ky), which zgeev may round apart from it by
    # < 1e-11 relative, names the ky >= 0 one.
    rx, ky = np.nonzero(keep)
    ky = np.where(ky > g.ny // 2, ky - g.ny, ky)  # signed; K[rx, ky] wraps
    order = np.lexsort((abs(ky), rx, ky < 0))
    rx, ky = rx[order], ky[order]
    # Filter pass: the two parts of a shell round within about n eps s of
    # zgeev on its every block, far inside the margin, so each block within
    # 1e-11 relative of the maximum is a candidate, one whose a + margin s
    # reaches floor, a lower bound on the maximum.
    q = rx * rx + ky * ky
    m = len(avg_row)
    parts = _shell_parts(1 + 2 * m)
    a, s = np.empty((2, len(q)))
    for kt, _, where, at, row, _ in _shell_batches(2 * q, g.ny, "filter"):
        B = _real_form(blocks(kt))
        a[at], s[at] = np.max(
            [_max_real_part(B[:, p[:, None], p], where) for p in parts],
            axis=0)[:, row]
    margin = np.sqrt(np.finfo(float).eps)
    floor, size = max(re0, (a - margin * s).max()), max(size, s.max())
    # Exact pass: zgeev on every candidate block (a NaN is kept)
    hit = ~(a + margin * s < floor)
    rx, ky = rx[hit], ky[hit]
    max_re, mode = re0, (0, 0)
    if rx.size:
        re = _max_real_part(blocks(K[rx, ky]), "the candidate blocks")[0]
        j = np.argmax(re)
        if re[j] > max_re:
            max_re, mode = re[j], (int(rx[j]), int(ky[j]))
    # the gap to the largest filter value off the maximum's shell
    others = np.r_[0, q] != mode[0] ** 2 + mode[1] ** 2
    gap = float(max_re - np.r_[re0, a][others].max())
    return _checked_bound(max_re, size, 1 + 2 * m), mode, gap


def _checked_bound(max_re: float, size: float, n: int) -> float:
    """eta0 = -max_re, unless it is not positive or not resolved: within
    the rounding n eps ``size`` of an eigensolve of order n."""
    eta0 = -max_re
    if not eta0 > 0:
        rounding = n * np.finfo(float).eps * size
        if max_re <= rounding:
            raise SolverBreakdown(
                f"spectral bound is not resolved: max Re = {max_re:.3e} is "
                f"within the eigensolver's rounding {rounding:.3e}")
        raise SolverBreakdown(
            f"spectral bound is not positive (max Re = {max_re}); the "
            "mean-free operator should be exponentially stable")
    return float(eta0)


def _h2_seminorms(V: np.ndarray, g: Grid) -> float:
    """Discrete H^2-type norm: L^2 norms of V and all 1st/2nd derivatives."""
    def dz(f):
        return vertical_derivative(f, g)

    firsts = [_ddx(V, g), _ddy(V, g), dz(V)]
    seconds = []
    for d in firsts:
        seconds.extend([_ddx(d, g), _ddy(d, g), dz(d)])
    total = l2_norm(V, g) ** 2
    for d in firsts + seconds:
        total += l2_norm(d, g) ** 2
    return float(np.sqrt(total))


@dataclass(frozen=True)
class ResolventSweepReport:
    """Norm ratios of resolvent solutions along the imaginary axis."""

    lambdas: tuple
    ratios: tuple          # sup over RHS draws of (||zeta|| + |lam| ||V|| + ||V||_H2)/||F||
    v_norms: tuple         # sup over draws of ||V|| / ||F||
    max_ratio: float
    slope: float           # log-log slope of ||V|| vs |lambda| over the tail

    @property
    def bounded(self) -> bool:
        return bool(np.isfinite(self.max_ratio))


def imaginary_axis_resolvent_sweep(
    g: Grid,
    params: PhysicalParams,
    n_rhs: int = 3,
    seed: int = 0,
) -> ResolventSweepReport:
    """Solve with random unit data for lambda on the imaginary axis.

    For each lambda of :data:`SWEEP_LAMBDAS` the reported ratio is the
    supremum over ``n_rhs`` random smooth right-hand sides (the same draws
    for every lambda) of (||zeta||_2 + |lambda| ||V||_2 + ||V||_{H2,discrete})
    / ||(f1, f2)||_2; lambda = 0 data is made mean-free before solving.
    The operator is taken at ``params.xi_bar``.  The slope is a
    least-squares fit of log ||V|| against log |lambda| over the samples
    with |lambda| >= 1e4 — far above the stiffest
    discrete eigenvalue, where the 1/|lambda| decay of the velocity is
    clean (expected slope -1).
    """
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n_rhs):
        f1 = dealias(rng.standard_normal((g.nx, g.ny)), g)
        f2 = dealias(rng.standard_normal((g.nx, g.ny, g.nz, 2)), g)
        draws.append((f1, f2))
    ratios = []
    v_norms = []
    for lam in SWEEP_LAMBDAS:
        worst = 0.0
        worst_v = 0.0
        for f1, f2 in draws:
            if complex(lam) == 0:
                f1 = f1 - integral(f1, g)
            prob = ResolventProblem(lam=lam, f1=f1, f2=f2,
                                    xi_bar=params.xi_bar)
            zeta, V = solve_resolvent(prob, g, params)
            fn = _state_norm(f1, f2, g)
            ratio = (l2_norm(zeta, g) + abs(complex(lam)) * l2_norm(V, g)
                     + _h2_seminorms(V, g)) / fn
            worst = max(worst, float(ratio))
            worst_v = max(worst_v, float(l2_norm(V, g) / fn))
        ratios.append(worst)
        v_norms.append(worst_v)
    lam_abs = np.array([abs(complex(l)) for l in SWEEP_LAMBDAS])
    tail = lam_abs >= 1e4
    slope = float(np.polyfit(np.log(lam_abs[tail]),
                             np.log(np.array(v_norms)[tail]), 1)[0])
    return ResolventSweepReport(
        lambdas=SWEEP_LAMBDAS,
        ratios=tuple(ratios),
        v_norms=tuple(v_norms),
        max_ratio=float(max(ratios)),
        slope=slope,
    )
