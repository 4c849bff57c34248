"""Time integration of the hydrostatic models in Lagrangian variables.

The evolved unknowns are the surface density ``zeta`` (or its perturbation
from the constant state), the horizontal velocity ``V`` and the horizontal
flow map, all sampled on the Lagrangian label grid.  One IMEX step treats
the stiff linear block implicitly -- the full surface/velocity coupling for
``GlobalGamma1``, the Lame operator L without its density for the local
modes -- and the nonlinear remainders ``F1``/``F2`` explicitly with
2/3-rule dealiasing.

Evolution modes
---------------
``LocalGamma1``
    Transformed shallow-atmosphere equations linearized at the initial
    surface density field; pressure gradient handled explicitly in ``F2``.
``GlobalGamma1``
    Same equations linearized at the constant state; the pressure gradient
    and depth-averaged divergence stay in the implicit coupled block.
``LocalGamma2``
    Affine vertical density profile with quadratic pressure, untransformed
    vertical coordinate, weighted depth average in the continuity equation.
``GeneralNoGravity``
    Uniform-in-z density with a general pressure law.

Terminal conditions (positivity loss, flow-map degeneration, blowup, a
failed implicit solve) raise distinct exceptions so a caller can attribute
the failure to the hypothesis that broke.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import diagnostics, flowmap
from .flowmap import (
    FlowMap,
    advance_flow_lagrangian,
    check_invertibility,
    identity_map,
)
from .grid import (
    DENSE_SWEEP_MAX_N,
    Grid,
    _derivatives,
    _fourier_matrix,
    _gradient,
    dealias as dealias_field,
    grad_h,
    grad_h_vec,
    integrate_from_bottom,
    l2_norm,
    make_grid,
    validate_field,
    vertical_average,
    vertical_derivative,
)
from .operators import (
    _linalg_breakdown,
    _real_form,
    mode_matrices,
    mode_wavevectors,
)
from .transforms import (
    PhysicalParams,
    _require_finite,
    column_density,
    lame_weights,
)

__all__ = [
    "EVOLUTION_MODES",
    "MODE_MODEL",
    "TerminalCondition",
    "PositivityLost",
    "MapNonInvertible",
    "BlowupDetected",
    "ImplicitSolveFailed",
    "LagrangianState",
    "RunConfig",
    "RunResult",
    "Stepper",
    "check_run_value",
    "full_surface_density",
    "nonlinearity_F1",
    "nonlinearity_F2",
    "reconstruct_w",
    "initial_state",
    "run_simulation",
]

EVOLUTION_MODES = ("LocalGamma1", "LocalGamma2", "GlobalGamma1",
                   "GeneralNoGravity")

#: Physical model backing each evolution mode.
MODE_MODEL = {
    "LocalGamma1": "Gamma1",
    "GlobalGamma1": "Gamma1",
    "LocalGamma2": "Gamma2",
    "GeneralNoGravity": "GeneralNoGravity",
}

FP_TOL_DEFAULT = 1e-12


class TerminalCondition(RuntimeError):
    """A run-ending event with a machine-readable ``status`` tag."""

    status = "terminal"


class PositivityLost(TerminalCondition):
    """Surface density left the admissible positivity interval."""

    status = "positivity_lost"


class MapNonInvertible(TerminalCondition):
    """The horizontal flow map stopped being a controlled diffeomorphism."""

    status = "map_noninvertible"


class BlowupDetected(TerminalCondition):
    """Non-finite values appeared in the state."""

    status = "blowup"


class ImplicitSolveFailed(TerminalCondition):
    """The implicit momentum fixed point did not converge."""

    status = "implicit_solve_failed"


@dataclass(frozen=True)
class LagrangianState:
    """Prognostic fields on the Lagrangian label grid at one instant.

    ``zeta`` is the surface density itself for the local modes and the
    perturbation from ``params.xi_bar`` for ``GlobalGamma1``.  ``zeta0`` is
    the frozen linearization baseline of the local modes (``None`` for the
    global mode).  ``dtV`` is the previous step's velocity increment per
    unit time, used to lag the time-derivative term of the momentum
    remainder; ``None`` means "treat as zero" (first step).

    Each velocity is differentiated once: ``_record`` holds V's depth
    average Vbar, V - Vbar, grad_H Vbar, grad_H V and d_z V, each taken
    when first asked (:func:`_derived`), and the remainders F1 and F2, the
    reconstructed W, the flow-map advance and the energy diagnostics read
    it.  A step hands the new velocity's record to the state it returns;
    ``dataclasses.replace`` starts an empty one.
    """

    mode: str
    zeta: np.ndarray
    V: np.ndarray
    fm: FlowMap
    t: float
    zeta0: np.ndarray | None = None
    dtV: np.ndarray | None = None
    _record: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_run_value("mode", self.mode)
        if self.mode != "GlobalGamma1" and self.zeta0 is None:
            raise ValueError(f"mode {self.mode} requires a zeta0 baseline")


def _check_mode_params(mode: str, params: PhysicalParams) -> None:
    check_run_value("mode", mode)
    want = MODE_MODEL[mode]
    if params.model != want:
        raise ValueError(
            f"mode {mode} needs params.model={want!r}, got {params.model!r}")
    if mode == "GlobalGamma1" and params.xi_bar != 1.0:
        raise ValueError(
            "GlobalGamma1 linearizes at the unit constant state; "
            f"set xi_bar=1, got {params.xi_bar}")


def full_surface_density(state: LagrangianState,
                         params: PhysicalParams) -> np.ndarray:
    """Actual (non-perturbative) surface density of a state."""
    if state.mode == "GlobalGamma1":
        return params.xi_bar + state.zeta
    return state.zeta


def _derived(state: LagrangianState, g: Grid, name: str) -> np.ndarray:
    """``state.V``'s depth average ``Vbar``, ``Vt`` = V - Vbar, ``dVbar`` =
    grad_H Vbar, ``dV`` = grad_H V or ``dzV`` = d_z V, taken once per
    state: F1, F2, W, the flow-map advance and the energy read them from
    the state's record."""
    record = state._record
    if name == "Vt" and name not in record:
        record[name] = state.V - _derived(state, g, "Vbar")[:, :, None, :]
    elif name not in record:
        take = {"Vbar": vertical_average, "dVbar": grad_h_vec,
                "dV": grad_h_vec, "dzV": vertical_derivative}[name]
        V = _derived(state, g, "Vbar") if name == "dVbar" else state.V
        record[name] = take(V, g)
    return record[name]


def _twisted_divergence(dU: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Eulerian divergence of a composed 3D 2-vector U from its gradient
    ``dU`` = grad_h_vec(U): sum Z[k,i] d_k U_i."""
    return np.einsum("abki,abzik->abz", Z, dU)


def _depth_moment(f: np.ndarray, g: Grid) -> np.ndarray:
    """Half the first vertical moment, 1/2 int_0^1 z f dz, of a 3D scalar."""
    return 0.5 * ((f * g.z) @ g.wz)


def reconstruct_w(state: LagrangianState, g: Grid,
                  params: PhysicalParams) -> np.ndarray:
    """Vertical velocity implied by the continuity equation, on labels.

    Integrates the composed horizontal mass flux from the bottom; vanishes
    identically at ``z=0`` and, up to quadrature error of the depth-mean
    constraint, at ``z=1``.  ``state.V`` must be a 3D vector field.
    Raises on nonpositive density.
    """
    validate_field(state.V, g, "vector3d")
    zf = full_surface_density(state, params)
    if np.min(zf) <= 0.0:
        raise ValueError(f"nonpositive surface density (min {np.min(zf):.3e})")
    Z = state.fm.Z
    Vt = _derived(state, g, "Vt")
    flux = _twisted_divergence(grad_h_vec(zf[:, :, None, None] * Vt, g), Z)
    if state.mode == "LocalGamma2":
        twdiv3 = _twisted_divergence(_derived(state, g, "dV"), Z)
        flux = flux + (0.5 * g.z * twdiv3
                       - _depth_moment(twdiv3, g)[:, :, None])
    return (-integrate_from_bottom(flux, g)
            / column_density(params.model, zf, g.z))


def _baseline_density(mode: str, zeta0: np.ndarray | None, g: Grid,
                      params: PhysicalParams) -> np.ndarray:
    """Column density rho0 of the linearization point.

    The local modes linearize at their frozen ``zeta0``, shape (nx, ny,
    nz); ``GlobalGamma1`` at the constant state ``xi_bar``, one column of
    shape (nz,) that broadcasts.
    """
    xi = params.xi_bar if mode == "GlobalGamma1" else zeta0
    return column_density(params.model, xi, g.z)


def nonlinearity_F1(state: LagrangianState, g: Grid, params: PhysicalParams,
                    dealias: bool = True) -> np.ndarray:
    """Nonlinear remainder of the surface-density equation.

    By construction the linear part plus this remainder reproduce the exact
    transport of the surface density along the depth-averaged flow; all
    terms carry a factor ``(Z - I)`` or ``(zeta - baseline)`` and vanish on
    the linearization point.
    """
    _check_mode_params(state.mode, params)
    Z = state.fm.Z
    ZmI = Z - np.eye(2)
    zf = full_surface_density(state, params)
    dVbar = _derived(state, g, "dVbar")
    div_bar = dVbar[..., 0, 0] + dVbar[..., 1, 1]
    colon_bar = np.einsum("abik,abki->ab", dVbar, ZmI)
    if state.mode == "GlobalGamma1":
        out = -state.zeta * div_bar - zf * colon_bar
    else:
        out = -(state.zeta - state.zeta0) * div_bar - zf * colon_bar
    if state.mode == "LocalGamma2":
        dV = _derived(state, g, "dV")
        colon3 = np.einsum("abzik,abki->abz", dV, ZmI)
        out = out - _depth_moment(colon3, g)
    return dealias_field(out, g) if dealias else out


F2_MUTATIONS = ("flip_w_advection",)


def _twisted_terms(Z: np.ndarray, dZ: np.ndarray, dV: np.ndarray,
                   H: np.ndarray, Vt: np.ndarray):
    """Twisted-minus-flat Laplacian and grad-div, and horizontal advection.

    ``Vt`` is the velocity minus its vertical average.  The z-independent
    products of ``Z`` and ``dZ`` are formed first, laid out so that each
    contraction over z is one batched matmul.
    """
    nx, ny, nz = Vt.shape[:3]
    Zn, Zm = Z[..., :, None, :], Z[..., None, :, :]
    C = Zn[..., 0] * Zm[..., 0] + Zn[..., 1] * Zm[..., 1] - np.eye(2)
    tau = np.einsum("abnk,abmkn->abm", Z, dZ)
    twlap = (np.einsum("abnm,abzinm->abzi", C, H)
             + np.einsum("abm,abzim->abzi", tau, dV))
    ZZ = np.einsum("abni,abmj->abjnmi", Z, Z).reshape(nx, ny, 8, 2)
    dZt = np.swapaxes(dZ, 2, 3)[..., None]      # [j, m, n, 1] = d_n Z[m, j]
    ZdZ = (Z[:, :, None, None, 0] * dZt[..., 0, :]
           + Z[:, :, None, None, 1] * dZt[..., 1, :]).reshape(nx, ny, 4, 2)
    twgd = (H.reshape(nx, ny, nz, 8) @ ZZ
            - np.einsum("abzjij->abzi", H)
            + dV.reshape(nx, ny, nz, 4) @ ZdZ)
    advH = np.einsum("abzl,abzil->abzi", Vt @ np.swapaxes(Z, -1, -2), dV)
    return twlap, twgd, advH


def _second_derivatives(V: np.ndarray, dV: np.ndarray) -> np.ndarray:
    """``H[i, n, m] = d_n d_m V_i`` of V, given ``dV`` = grad_h_vec(V).

    The mixed derivative is taken once, d_x of d_y V: H is symmetric.
    """
    d = _derivatives(V, ((0, 2), (1, 2)))
    dxy = _derivatives(dV[..., 1], ((0, 1),))[..., 0]
    H = np.stack([d[..., 0], dxy, dxy, d[..., 1]], axis=-1)
    return H.reshape(V.shape + (2, 2))


def nonlinearity_F2(state: LagrangianState, dtV: np.ndarray | None, g: Grid,
                    params: PhysicalParams, dealias: bool = True,
                    mutation: str | None = None) -> np.ndarray:
    """Nonlinear remainder of the momentum equation.

    ``dtV`` is the (lagged) time derivative of ``V``; ``None`` means zero.
    The remainder collects the twisted-minus-flat viscous terms, the
    (mode-appropriate) pressure contribution, the density defect acting on
    ``dtV`` and the full twisted advection.  ``mutation`` is a verification
    fixture: ``"flip_w_advection"`` flips the sign of the vertical advection
    term so oracle-based tests can prove they would catch a sign error.
    """
    _check_mode_params(state.mode, params)
    if mutation is not None and mutation not in F2_MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}")
    if dtV is None:
        dtV = np.zeros_like(state.V)
    V = state.V
    Z = state.fm.Z
    zf = full_surface_density(state, params)

    dV = _derived(state, g, "dV")
    H = _second_derivatives(V, dV)
    dZ = _gradient(Z)                           # [m, k, n] = d_n Z[m, k]

    # twisted-minus-flat viscous terms and the full twisted advection
    twlap, twgd, advH = _twisted_terms(Z, dZ, dV, H, _derived(state, g, "Vt"))
    W = reconstruct_w(state, g, params)
    advZ = W[..., None] * _derived(state, g, "dzV")

    # Z^T grad zeta; GlobalGamma1's linear part holds the flat gradient
    dzeta = grad_h(state.zeta, g)
    P = Z - np.eye(2) if state.mode == "GlobalGamma1" else Z
    press = np.einsum("abji,abj->abi", P, dzeta)[:, :, None, :]

    # the viscous remainder is that of L, divided by the baseline density
    rho = _baseline_density(state.mode, state.zeta0, g, params)[..., None]
    ratio = column_density(params.model, zf, g.z)[..., None] / rho
    wH = lame_weights(params.model, g.z)[0][:, None]
    out = (wH / rho) * (params.mu * twlap + params.mu_prime * twgd)
    if state.mode == "GlobalGamma1":
        out = out - press / params.xi_bar
    elif state.mode == "LocalGamma1":
        out = out - press / rho
    elif state.mode == "LocalGamma2":
        out = out - 2.0 * ratio * press
    else:  # GeneralNoGravity
        pp = params.pressure_derivative(zf)[:, :, None, None]
        out = out - (pp / rho) * press
    out = out + (1.0 - ratio) * dtV - ratio * (advH + advZ)
    if mutation == "flip_w_advection":
        out = out + 2.0 * ratio * advZ
    return dealias_field(out, g) if dealias else out


# ---------------------------------------------------------------------------
# IMEX stepping
# ---------------------------------------------------------------------------


class Stepper:
    """Precomputed implicit solves for repeated IMEX steps at fixed ``dt``.

    Every mode inverts the Lame operator L = rho A without its density
    (:func:`cpelab.operators.mode_matrices` at rho = 1).  For
    ``GlobalGamma1`` the implicit block is the full coupled surface/velocity
    operator M at the unit state, with boundary rows replaced, inverted in
    its real form D^-1 M D, D = diag(i, 1, ..., 1).  For the local modes it
    is rho_star - dt L; the baseline density rho0 multiplying the time
    derivative is handled by a contractive fixed-point iteration
    preconditioned with the midpoint density rho_star.

    The ``GlobalGamma1`` step is the resolvent at lambda = 1/dt, scaled by
    1/dt, on the data zeta + dt F1 and the interior levels of V + dt F2
    (both remainders dealiased, as in every mode), and it is the same sweep
    as one fixed-point iteration of the local modes.

    Only the ``rfft2`` half-spectrum ``ky >= 0`` is stored and solved, and
    only the rows kx >= 0 are inverted: the row at -kx is Dx inv Dx of the
    row at kx, Dx negating the x velocity unknowns, equal in value to its
    own inverse (only the sign of some zeros differs, and the stepped
    outputs keep their bits).  A singular block raises
    :class:`cpelab.operators.SolverBreakdown` naming its kx row.
    ``_inv_t`` (ny // 2 + 1, nx, c, n) keeps, transposed and contiguous,
    only the inverses' columns that a right-hand side fills: zeta's in
    ``GlobalGamma1`` (``_lead`` = 1, else 0), then the 2 (nz - 2) interior
    velocity unknowns; the boundary rows of a right-hand side are zero, so
    no other column is read.  ``fp_iterations`` lists the fixed-point
    iteration count of every step that returned.

    A sweep, the one implicit solve of every mode, takes the (ny, nx, c)
    data in four stages on one layout: y forward, x forward, through
    ``_inv_t`` with the real and imaginary parts of each mode's right-hand
    side side by side in one real matmul, then x back and y back.  zeta-hat
    passes the real inverses as -i zeta-hat: a swap and a sign on its (Re,
    Im) pair before them, and the opposite after.  The local modes skip
    these two steps, since each empty numpy call would add about 2 us to a
    21 us sweep at 12x12x7.  The fixed point holds its iterate in (y, x)
    order, as (ny, nx, nz, 2), and forms each right-hand side in one
    buffer, from full-shape copies of rho_star - rho0 and of the fixed part
    made once per solve.

    The transforms take one of two paths, picked once per ``Stepper`` from
    the grid.  Up to :data:`cpelab.grid.DENSE_SWEEP_MAX_N` points a side,
    where an FFT call costs more than its arithmetic, they are matmuls
    with no FFT call, each on a free reshape of the stage before, with
    nk = ny/2 + 1: ``rfft`` along y as one (2 nk x ny) gemm whose rows are
    (ky, Re/Im); ``fft`` along x as one (2 nx x 2 nx) gemm per ky, rows
    (kx, Re/Im); then ``ifft`` along x and ``irfft`` along y, mirrored,
    with the real DFT matrices of the :mod:`cpelab.grid` module.  Above it
    the same stages are numpy's one-axis ``rfft``, ``fft``, ``ifft`` and
    ``irfft``.  The two paths agree to about 1e-15 relative, not bit for
    bit, and gave the same iteration counts on every configuration
    checked.
    """

    fp_max_iter = 200

    def __init__(self, mode: str, g: Grid, params: PhysicalParams, dt: float,
                 zeta0: np.ndarray | None = None,
                 fp_tol: float = FP_TOL_DEFAULT,
                 det_floor: float = flowmap.DET_FLOOR_DEFAULT):
        _check_mode_params(mode, params)
        for key, value in zip(("dt", *TOLERANCES), (dt, fp_tol, det_floor)):
            check_run_value(key, value)
        self.mode = mode
        self.g = g
        self.params = params
        self.dt = float(dt)
        self.fp_tol = float(fp_tol)
        self.det_floor = float(det_floor)
        self.fp_iterations: list[int] = []
        # GlobalGamma1 solves the coupled block at its constant state, where
        # rho0 = xi_bar = 1; the local modes solve for V alone at zeta0
        coupled = mode == "GlobalGamma1"
        if zeta0 is None and not coupled:
            raise ValueError(f"mode {mode} requires the zeta0 baseline")
        rho0 = _baseline_density(mode, zeta0, g, params)
        if np.min(rho0) <= 0:
            raise ValueError("baseline density must be positive")
        self.rho0 = rho0[..., None]
        self.rho_star = 0.5 * (np.min(rho0) + np.max(rho0))
        xi_bar = params.xi_bar if coupled else None
        # the implicit operator rho_star - dt L on the rows kx >= 0 of the
        # half-spectrum, built in one call and inverted one row at a time
        # into the kept columns (all but the boundary levels') of _inv_t,
        # as (ky, kx, c, n); the block at -kx is D M D, D negating the
        # x-velocity unknowns, so its inverse D inv D is written as the
        # row's times the outer product of D's signs
        K = mode_wavevectors(g)[:g.nx // 2 + 1, :g.ny // 2 + 1]
        blocks = mode_matrices(K, 1.0, g, params, self.rho_star, dt, xi_bar)
        blocks = _real_form(blocks) if coupled else blocks
        n = blocks.shape[-1]
        self._lead = lead = int(coupled)
        keep = np.delete(np.arange(n), [lead, lead + 1, n - 2, n - 1])
        sign = np.ones(n)
        sign[-2 * g.nz::2] = -1.0
        mirror = np.outer(sign[keep], sign)
        self._inv_t = np.empty((K.shape[1], g.nx, len(keep), n))
        for ix, block in enumerate(blocks):
            row = self._inv_t[:, ix]
            with _linalg_breakdown(f"mode row {ix}"):
                row[:] = np.linalg.inv(block)[..., keep].swapaxes(1, 2)
            if 0 < ix < g.nx - ix:
                np.multiply(row, mirror, out=self._inv_t[:, g.nx - ix])
        self._dft = None  # the transforms of a dense sweep, as matrices
        if max(g.nx, g.ny) <= DENSE_SWEEP_MAX_N:
            self._dft = (_fourier_matrix("rfft", g.ny),
                         _fourier_matrix("fft", g.nx),
                         _fourier_matrix("ifft", g.nx),
                         _fourier_matrix("irfft", g.ny))

    # -- helpers ------------------------------------------------------------

    def _solve_coupled(self, zeta: np.ndarray, V: np.ndarray,
                       F1: np.ndarray, F2: np.ndarray):
        """(zeta, V) of the coupled block on (zeta + dt F1, V + dt F2)."""
        g, dt = self.g, self.dt
        Vi = (V + dt * F2).swapaxes(0, 1)[:, :, 1:-1].reshape(g.ny, g.nx, -1)
        sol = self._sweep(np.dstack([(zeta + dt * F1).T, Vi])).swapaxes(0, 1)
        return (np.ascontiguousarray(sol[..., 0]),
                np.ascontiguousarray(sol[..., 1:]).reshape(V.shape))

    def _sweep(self, rhs: np.ndarray) -> np.ndarray:
        """The (ny, nx, n) unknowns of the (ny, nx, ...) data, in (y, x)."""
        ny, nx = rhs.shape[:2]
        nk = ny // 2 + 1
        if self._dft is None:
            # Re and Im as the two columns of each mode's right-hand side
            a = np.fft.fft(np.fft.rfft(rhs, axis=0), axis=1)
            if self._lead:  # zeta-hat passes the real inverses as -i zeta-hat
                a[..., 0] *= -1j
            a = a.view(float).reshape(nk, nx, -1, 2)
            a = (np.swapaxes(self._inv_t, -1, -2) @ a).view(complex)[..., 0]
            if self._lead:
                a[..., 0] *= 1j
            return np.fft.irfft(np.fft.ifft(a, axis=1), n=ny, axis=0)
        ty, tx, bx, wy = self._dft
        # rows (ky, Re/Im), then (kx, Re/Im), Re and Im as each inverse's rows
        a = (ty @ rhs.reshape(ny, -1)).reshape(nk, 2 * nx, -1)
        a = (tx @ a).reshape(nk, nx, 2, -1)
        if self._lead:  # (Re, Im) of -i zeta-hat, then of i times its solve
            a[..., 0] = a[..., ::-1, 0] * (1.0, -1.0)
        a = a @ self._inv_t
        if self._lead:
            a[..., 0] = a[..., ::-1, 0] * (-1.0, 1.0)
        a = (bx @ a.reshape(nk, 2 * nx, -1)).reshape(2 * nk, -1)
        return (wy @ a).reshape(ny, nx, -1)

    def _solve_momentum(self, V: np.ndarray,
                        F2: np.ndarray) -> tuple[np.ndarray, int]:
        """Fixed-point solve of (rho0 - dt L) V_new = rho0 (V + dt F2).

        Returns the new velocity, C-contiguous, and the number of
        iterations it took.  The iterate is held in (y, x) order, as (ny,
        nx, nz, 2), and a sweep reads only its interior levels.
        """
        base = self.rho0 * (V + self.dt * F2)
        drho = np.broadcast_to(self.rho_star - self.rho0, V.shape)
        base, drho = (np.ascontiguousarray(a.swapaxes(0, 1)[:, :, 1:-1])
                      for a in (base, drho))
        rhs = np.empty_like(base)
        Vm = V.swapaxes(0, 1)
        scale = max(1.0, float(np.max(np.abs(V))))
        for it in range(1, self.fp_max_iter + 1):
            np.multiply(drho, Vm[:, :, 1:-1], out=rhs)
            rhs += base
            V_new = self._sweep(rhs).reshape(Vm.shape)
            change = float(np.abs(V_new - Vm).max())
            Vm = V_new
            if change <= self.fp_tol * scale:
                return np.ascontiguousarray(Vm.swapaxes(0, 1)), it
            if not math.isfinite(change):
                raise BlowupDetected(
                    f"non-finite implicit momentum iterate at iteration {it}:"
                    f" the explicit remainder F2 overflows the solve")
        raise ImplicitSolveFailed(
            f"implicit momentum fixed point did not converge in "
            f"{self.fp_max_iter} iterations (last change {change:.3e})")

    def _check_state(self, zeta: np.ndarray, V: np.ndarray,
                     fm: FlowMap) -> None:
        p = self.params
        if not (np.all(np.isfinite(zeta)) and np.all(np.isfinite(V))):
            raise BlowupDetected("non-finite values in the state")
        if self.mode == "GlobalGamma1":
            xi = p.xi_bar + zeta
            if np.min(xi) < 0.5 * p.xi_bar:
                raise PositivityLost(
                    f"surface density fell below xi_bar/2 "
                    f"(min {np.min(xi):.6g})")
        else:
            lo, hi = p.density_window
            if np.min(zeta) < lo or np.max(zeta) > hi:
                raise PositivityLost(
                    f"surface density left [{lo}, {hi}] "
                    f"(range [{np.min(zeta):.6g}, {np.max(zeta):.6g}])")
        rep = check_invertibility(fm, det_floor=self.det_floor)
        if not rep.ok:
            raise MapNonInvertible(
                f"flow map out of the diffeomorphism regime "
                f"(|gradX - I| = {rep.supnorm_dev:.3g}, "
                f"min det = {rep.min_det:.3g})")

    # -- one IMEX step -------------------------------------------------------

    @np.errstate(over="ignore", invalid="ignore")
    def step(self, state: LagrangianState) -> LagrangianState:
        """Advance the state by ``dt`` and re-check its invariants; an
        overflow ends the step as :class:`BlowupDetected`, not a warning."""
        if state.mode != self.mode:
            raise ValueError(f"stepper built for {self.mode}, got {state.mode}")
        g, params, dt = self.g, self.params, self.dt
        coupled = self.mode == "GlobalGamma1"
        F2 = _finite("F2", nonlinearity_F2(state, state.dtV, g, params))
        if coupled:
            F1 = _finite("F1", nonlinearity_F1(state, g, params))
            zeta_new, V_new = self._solve_coupled(state.zeta, state.V, F1, F2)
        else:
            V_new, iterations = self._solve_momentum(state.V, F2)
        # V_new's derived fields, taken once for this step, the energy and
        # the next step (the continuity divergence is grad_H Vbar's trace)
        mid = dataclasses.replace(state, V=V_new)
        dVbar = _derived(mid, g, "dVbar")
        if not coupled:
            F1 = _finite("F1", nonlinearity_F1(mid, g, params))
            lin = state.zeta0 * (dVbar[..., 0, 0] + dVbar[..., 1, 1])
            if self.mode == "LocalGamma2":
                dV = _derived(mid, g, "dV")  # F1 took it
                lin = lin + _depth_moment(dV[..., 0, 0] + dV[..., 1, 1], g)
            zeta_new = state.zeta + dt * (F1 - lin)
        try:
            fm_new = advance_flow_lagrangian(
                state.fm, _derived(mid, g, "Vbar"), g, dt, dVbar=dVbar)
        except ValueError as exc:  # the new Jacobian is singular
            raise MapNonInvertible(f"flow map degenerated: {exc}") from exc
        self._check_state(zeta_new, V_new, fm_new)
        if not coupled:
            self.fp_iterations.append(iterations)
        new = LagrangianState(
            mode=self.mode, zeta=zeta_new, V=V_new, fm=fm_new,
            t=state.t + dt, zeta0=state.zeta0, dtV=(V_new - state.V) / dt)
        new._record.update(mid._record)
        return new


def _finite(name: str, F: np.ndarray) -> np.ndarray:
    """``F``, unless the explicit remainder ``name`` overflowed."""
    if not np.all(np.isfinite(F)):
        raise BlowupDetected(
            f"non-finite explicit remainder {name}: its nonlinear terms "
            f"overflow")
    return F


# ---------------------------------------------------------------------------
# Simulation driver
# ---------------------------------------------------------------------------

PRESETS = ("steady", "fourier_perturbation", "random_smooth")
#: The tolerances a run reads.
TOLERANCES = ("fp_tol", "det_floor")


def _is_integer(k) -> bool:
    """Whether ``k`` is an integer, or a real number of integer value."""
    return isinstance(k, numbers.Integral) or (
        isinstance(k, numbers.Real) and float(k).is_integer())


def check_run_value(key: str, value) -> None:
    """Raise ``ValueError`` unless the run key ``key`` is valid on its own.

    Keys other than ``mode``, ``preset``, ``dt``, ``t_end``,
    ``output_every`` and ``amplitude`` are tolerances, finite and positive.
    The rules that relate keys to one another are :class:`RunConfig`'s.
    """
    if key in ("mode", "preset"):
        allowed = EVOLUTION_MODES if key == "mode" else PRESETS
        if value not in allowed:
            raise ValueError(
                f"unknown {key} {value!r}; expected one of {allowed}")
    elif key in ("dt", "t_end"):
        if not value > 0:
            raise ValueError(f"{key} must be positive, got {value}")
        _require_finite((key, value))
    elif key == "output_every":
        if value < 1:
            raise ValueError(f"output_every must be >= 1, got {value}")
    elif key == "amplitude":
        _require_finite((key, value))
    elif not (np.isfinite(value) and value > 0):
        raise ValueError(
            f"tolerance '{key}' must be finite and positive, got {value}")


@dataclass(frozen=True)
class RunConfig:
    """Validated simulation configuration.

    ``perturbation_mode`` is the horizontal integer wavevector of the
    ``fourier_perturbation`` preset.  The time stepper uses ``fp_tol``
    (implicit fixed point) and ``det_floor`` (Jacobian floor of the
    invertibility check); both must be finite and positive.
    """

    mode: str
    nx: int
    ny: int
    nz: int
    params: PhysicalParams
    dt: float
    t_end: float
    output_every: int = 1
    preset: str = "steady"
    amplitude: float = 0.0
    perturbation_mode: tuple[int, int] = (1, 0)
    seed: int = 0
    fp_tol: float = FP_TOL_DEFAULT
    det_floor: float = flowmap.DET_FLOOR_DEFAULT
    output_dir: str | None = None

    def __post_init__(self):
        _check_mode_params(self.mode, self.params)
        for key in ("preset", "dt", "t_end", "output_every", "amplitude",
                    *TOLERANCES):
            check_run_value(key, getattr(self, key))
        if self.t_end < self.dt:
            raise ValueError(
                f"t_end={self.t_end} is shorter than one step dt={self.dt}")
        if not np.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end / dt must be finite, got "
                             f"t_end={self.t_end}, dt={self.dt}")
        if self.preset != "steady" and not self.amplitude > 0:
            raise ValueError(
                f"preset {self.preset!r} needs amplitude > 0, "
                f"got {self.amplitude}")
        m = self.perturbation_mode
        if (len(m) != 2 or not all(map(_is_integer, m)) or tuple(m) == (0, 0)
                or abs(m[0]) > self.nx // 3 or abs(m[1]) > self.ny // 3):
            raise ValueError(
                f"perturbation_mode must be a nonzero integer pair within "
                f"the dealiased range, got {m}")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))

    @functools.cached_property
    def grid(self) -> Grid:
        """The run's grid, built once per config."""
        return make_grid(self.nx, self.ny, self.nz)

    @functools.cached_property
    def initial(self) -> LagrangianState:
        """The preset's initial state, built once per config."""
        return initial_state(self, self.grid)


@dataclass(frozen=True)
class RunResult:
    """Outcome of :func:`run_simulation`.

    ``fp_iterations`` holds the implicit fixed-point iteration count of each
    completed step; it is empty for ``GlobalGamma1``, whose implicit solve
    is direct.
    """

    status: str
    t_final: float
    n_steps: int
    rows: list
    state: LagrangianState
    message: str | None = None
    fp_iterations: tuple[int, ...] = ()


def _lowpass_random(rng: np.random.Generator, g: Grid) -> np.ndarray:
    """Random real surface field with spectrum confined to |k|_inf <= 2."""
    f = rng.standard_normal((g.nx, g.ny))
    fh = np.fft.fft2(f)
    kx = np.rint(g.kx / (2 * np.pi)).astype(int)
    ky = np.rint(g.ky / (2 * np.pi)).astype(int)
    mask = (np.abs(kx)[:, None] <= 2) & (np.abs(ky)[None, :] <= 2)
    fh *= mask
    fh[0, 0] = 0.0
    out = np.fft.ifft2(fh).real
    peak = np.max(np.abs(out))
    return out / peak if peak > 0 else out


def initial_state(cfg: RunConfig, g: Grid) -> LagrangianState:
    """Construct the preset initial data and check its initial density.

    Every preset meets the boundary conditions by construction: its V is
    0 or built from 1 - z^2 and its square, zero at z = 1, flat at z = 0.
    """
    params = cfg.params
    xb = params.xi_bar
    V = np.zeros((g.nx, g.ny, g.nz, 2))
    if cfg.preset == "steady":
        pert = np.zeros((g.nx, g.ny))
    elif cfg.preset == "fourier_perturbation":
        m1, m2 = cfg.perturbation_mode
        phase = 2 * np.pi * (m1 * g.x[:, None] + m2 * g.y[None, :])
        pert = cfg.amplitude * np.cos(phase)
    else:  # random_smooth
        rng = np.random.default_rng(cfg.seed)
        pert = cfg.amplitude * _lowpass_random(rng, g)
        q1 = 1.0 - g.z**2
        q2 = q1**2
        for i in range(2):
            V[:, :, :, i] = cfg.amplitude * (
                _lowpass_random(rng, g)[:, :, None] * q1[None, None, :]
                + 0.5 * _lowpass_random(rng, g)[:, :, None] * q2[None, None, :])
    if cfg.mode == "GlobalGamma1":
        zeta = pert
        zeta0 = None
        if np.min(xb + pert) <= 0:
            raise ValueError(
                f"initial surface density is not positive: min "
                f"{np.min(xb + pert):.6g}")
    else:
        zeta = xb + pert
        zeta0 = zeta.copy()
        if np.min(zeta) < params.M1 or np.max(zeta) > params.M2:
            raise ValueError(
                f"initial surface density leaves [M1, M2] = "
                f"[{params.M1}, {params.M2}]: range "
                f"[{np.min(zeta):.6g}, {np.max(zeta):.6g}]")
    return LagrangianState(mode=cfg.mode, zeta=zeta, V=V,
                           fm=identity_map(g), t=0.0, zeta0=zeta0)


def _diagnostics_row(state: LagrangianState, g: Grid, params: PhysicalParams,
                     energy: float, diss_integral: float) -> tuple:
    zf = full_surface_density(state, params)
    zeta_m = state.zeta - float(np.mean(state.zeta))
    mass = diagnostics.lagrangian_mass(zf, state.fm, g, params)
    return (
        float(state.t), mass, energy, float(diss_integral),
        diagnostics.surface_h1_norm(zeta_m, g), l2_norm(state.V, g),
        float(np.min(zf)), float(np.max(zf)), float(np.min(state.fm.detX)),
    )


def run_simulation(cfg: RunConfig) -> RunResult:
    """Run the configured simulation and collect diagnostics rows.

    Diagnostics are evaluated in the Lagrangian frame with flow-map Jacobian
    weights (the exact change of variables of the Eulerian functionals); the
    dissipation integral is accumulated with the trapezoid rule every step.
    Terminal conditions end the run early with the matching status.
    """
    g = cfg.grid
    params = cfg.params
    state = cfg.initial
    stepper = Stepper(cfg.mode, g, params, cfg.dt, zeta0=state.zeta0,
                      fp_tol=cfg.fp_tol, det_floor=cfg.det_floor)

    def energy(state: LagrangianState) -> diagnostics.EnergyEntry:
        return diagnostics.lagrangian_energy(
            full_surface_density(state, params), state.V,
            _derived(state, g, "dV"), _derived(state, g, "dzV"), state.fm, g,
            params)

    entry = energy(state)
    rows = [_diagnostics_row(state, g, params, entry.E, 0.0)]
    diss = 0.0
    d_prev = entry.D
    status, message = "completed", None
    cfl_warned = False
    n_done = 0
    for n in range(1, cfg.n_steps + 1):
        try:
            state = stepper.step(state)
        except TerminalCondition as exc:
            status, message = exc.status, str(exc)
            break
        n_done = n
        entry = energy(state)
        diss += 0.5 * cfg.dt * (d_prev + entry.D)
        d_prev = entry.D
        if not cfl_warned:
            speed = float(np.max(np.abs(state.V)))
            h = min(1.0 / g.nx, 1.0 / g.ny)
            if cfg.dt * speed > h:
                warnings.warn(
                    f"advective CFL advisory: dt*max|V| = {cfg.dt * speed:.3g}"
                    f" exceeds the grid spacing {h:.3g}", RuntimeWarning,
                    stacklevel=2)
                cfl_warned = True
        if n % cfg.output_every == 0 or n == cfg.n_steps:
            rows.append(_diagnostics_row(state, g, params, entry.E, diss))
    return RunResult(status=status, t_final=float(state.t), n_steps=n_done,
                     rows=rows, state=state, message=message,
                     fp_iterations=tuple(stepper.fp_iterations))
