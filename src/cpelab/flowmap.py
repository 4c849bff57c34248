"""Horizontal flow map driven by the vertically averaged velocity.

The Lagrangian reformulation rides on a purely two-dimensional flow map
X(t, y_H) solving dX/dt = vbar(t, X) on the periodic square, together
with its Jacobian gradX = grad_H X, the cofactor inverse Z = gradX^{-1},
and det gradX.  This module stores X as the displacement X - y_H (a
smooth periodic field), advances (X, gradX) jointly -- gradX by the
matrix ODE d(gradX)/dt = (grad_H vbar circ X) gradX rather than by
re-differentiating a wrapped field -- and provides spectral evaluation
of grid fields at arbitrary points, Newton inversion Y = X^{-1}, and an
invertibility report based on the Neumann-series criterion
||gradX - I||_inf <= 1/2.

Two advance paths exist: :func:`advance_flow` takes an Eulerian mean
velocity field frozen over the step and moves points with classical RK4
(stage velocities interpolated spectrally at the moving points), while
:func:`advance_flow_lagrangian` takes the mean Lagrangian velocity
Vbar(y_H) = vbar(X(y_H)) -- already sampled along the flow -- and applies
the explicit Euler update used inside the IMEX integrator.

Point evaluation uses trigonometric interpolants; the Nyquist mode is
represented by its cosine so the interpolant is real, smooth, and exact at
grid nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import Grid, grad_h_vec, validate_field

__all__ = [
    "FlowMap",
    "InvertibilityReport",
    "identity_map",
    "positions",
    "advance_flow",
    "advance_flow_lagrangian",
    "inverse_jacobian",
    "check_invertibility",
    "invert_map",
    "evaluate_at_points",
]

DET_FLOOR_DEFAULT = 0.1
INV_MAX_ITER = 50


@dataclass(frozen=True)
class FlowMap:
    """Value object holding one time slice of the horizontal flow map.

    Attributes
    ----------
    disp : ndarray, shape (nx, ny, 2)
        Displacement X - y_H (periodic; absolute positions follow by
        adding the grid nodes).
    gradX : ndarray, shape (nx, ny, 2, 2)
        Jacobian, [i, j] = d X_i / d y_j.
    Z : ndarray, shape (nx, ny, 2, 2)
        Pointwise inverse of gradX (2x2 cofactor formula).
    detX : ndarray, shape (nx, ny)
        Pointwise determinant of gradX.
    """

    disp: np.ndarray
    gradX: np.ndarray
    Z: np.ndarray
    detX: np.ndarray


class InvertibilityReport(NamedTuple):
    """Outcome of the Neumann-series invertibility check."""

    supnorm_dev: float
    min_det: float
    ok: bool


def identity_map(g: Grid) -> FlowMap:
    """Flow map at time zero: X = y_H, gradX = Z = I, detX = 1."""
    disp = np.zeros((g.nx, g.ny, 2))
    eye = np.broadcast_to(np.eye(2), (g.nx, g.ny, 2, 2)).copy()
    det = np.ones((g.nx, g.ny))
    return FlowMap(disp=disp, gradX=eye, Z=eye.copy(), detX=det)


def positions(fm: FlowMap, g: Grid) -> np.ndarray:
    """Absolute particle positions X = y_H + displacement, shape (nx, ny, 2)."""
    pts = fm.disp.copy()
    pts[:, :, 0] += g.x[:, None]
    pts[:, :, 1] += g.y[None, :]
    return pts


def inverse_jacobian(gradX: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise 2x2 inverse and determinant of a Jacobian field.

    Z = (1/det)[[d, -b], [-c, a]] for gradX = [[a, b], [c, d]].  Raises if
    the determinant vanishes (or is nonpositive) anywhere, or overflows
    on a finite gradX: an orientation-reversing, singular or overflowing
    map is outside the regime where the Lagrangian formulation is
    meaningful.  A gradX that is not finite is left to the caller's
    blowup check.
    """
    gradX = np.asarray(gradX, dtype=float)
    a = gradX[..., 0, 0]
    b = gradX[..., 0, 1]
    c = gradX[..., 1, 0]
    d = gradX[..., 1, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        det = a * d - b * c
    if np.all(np.isfinite(gradX)) and not np.all(np.isfinite(det)):
        raise ValueError("singular Jacobian: det overflows the float range")
    if np.any(det <= 1e-14):
        raise ValueError(
            f"singular Jacobian: min det = {det.min()} (must stay positive)")
    Z = np.empty_like(gradX)
    Z[..., 0, 0] = d
    Z[..., 0, 1] = -b
    Z[..., 1, 0] = -c
    Z[..., 1, 1] = a
    Z /= det[..., None, None]
    return Z, det


def _row_sum_norm(M: np.ndarray) -> np.ndarray:
    """The matrix infinity norm (largest absolute row sum) of each 2x2
    matrix of a field, its sums written out: numpy reduces a length-2 axis
    in its slow generic loop, to the same bits."""
    A = np.abs(M)
    return np.maximum(A[..., 0, 0] + A[..., 0, 1], A[..., 1, 0] + A[..., 1, 1])


def _product_2x2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for fields of 2x2 matrices, summed as einsum
    "...ik,...kj->...ij" sums it but written out as two outer products:
    10 us against einsum's 22 at 12x12, one CPU."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def check_invertibility(
    fm: FlowMap, det_floor: float = DET_FLOOR_DEFAULT
) -> InvertibilityReport:
    """Report sup-norm deviation of gradX from I and the minimum determinant.

    The deviation uses the matrix infinity norm (max absolute row sum)
    pointwise; ok requires both supnorm_dev <= 1/2 (Neumann-series
    invertibility) and min detX >= det_floor.
    """
    supnorm_dev = float(_row_sum_norm(fm.gradX - np.eye(2)).max())
    min_det = float(fm.detX.min())
    ok = bool(supnorm_dev <= 0.5 and min_det >= det_floor)
    return InvertibilityReport(supnorm_dev=supnorm_dev, min_det=min_det, ok=ok)


def _nyquist_safe_exponentials(
    k: np.ndarray, pts: np.ndarray, n: int
) -> np.ndarray:
    """Evaluation matrix E[m, j] for mode j at point m.

    Ordinary modes contribute exp(i k x); the Nyquist mode (index n//2)
    contributes cos(k x), which matches exp(i k x_grid) at grid nodes and
    keeps the interpolant real off the grid.
    """
    E = np.exp(1j * np.outer(pts, k))
    E[:, n // 2] = np.cos(k[n // 2] * pts)
    return E


def evaluate_at_points(f: np.ndarray, pts: np.ndarray, g: Grid) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at arbitrary points.

    Parameters
    ----------
    f : ndarray
        Field with leading dims (nx, ny); any trailing dims (z levels,
        vector components) ride along.
    pts : ndarray, shape (..., 2)
        Absolute horizontal positions (any values; periodicity is
        automatic).
    g : Grid

    Returns
    -------
    ndarray with shape pts.shape[:-1] + f.shape[2:], exact at grid nodes
    and for any field resolved on the grid.
    """
    f = np.asarray(f, dtype=float)
    pts = np.asarray(pts, dtype=float)
    lead = pts.shape[:-1]
    flat = pts.reshape(-1, 2)
    fhat = np.fft.fft2(f, axes=(0, 1)) / (g.nx * g.ny)
    Ex = _nyquist_safe_exponentials(g.kx, flat[:, 0], g.nx)
    Ey = _nyquist_safe_exponentials(g.ky, flat[:, 1], g.ny)
    fx = (Ex @ fhat.reshape(g.nx, -1)).reshape((-1,) + fhat.shape[1:])
    vals = np.einsum("ml,ml...->m...", Ey, fx)
    return vals.real.reshape(lead + f.shape[2:])


def advance_flow(fm: FlowMap, vbar: np.ndarray, g: Grid, dt: float) -> FlowMap:
    """One classical RK4 step of dX/dt = vbar(X), d(gradX)/dt = (grad vbar)(X) gradX.

    vbar is an Eulerian mean-velocity field (nx, ny, 2) held fixed over
    the step; stage values are obtained by spectral evaluation at the
    moving points.  Advancing gradX by its own ODE avoids differentiating
    the wrapped displacement.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    validate_field(vbar, g, "vector2d")
    gv = grad_h_vec(vbar, g)  # (nx, ny, 2, 2), [i, j] = d v_i / d y_j
    x0 = positions(fm, g)
    G0 = fm.gradX

    def rhs(x, G):
        v = evaluate_at_points(vbar, x, g)
        dv = evaluate_at_points(gv, x, g)
        return v, np.einsum("...ik,...kj->...ij", dv, G)

    k1x, k1G = rhs(x0, G0)
    k2x, k2G = rhs(x0 + 0.5 * dt * k1x, G0 + 0.5 * dt * k1G)
    k3x, k3G = rhs(x0 + 0.5 * dt * k2x, G0 + 0.5 * dt * k2G)
    k4x, k4G = rhs(x0 + dt * k3x, G0 + dt * k3G)
    disp = fm.disp + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    gradX = G0 + (dt / 6.0) * (k1G + 2.0 * k2G + 2.0 * k3G + k4G)
    Z, det = inverse_jacobian(gradX)
    return FlowMap(disp=disp, gradX=gradX, Z=Z, detX=det)


def advance_flow_lagrangian(
    fm: FlowMap, Vbar: np.ndarray, g: Grid, dt: float,
    dVbar: np.ndarray | None = None,
) -> FlowMap:
    """Euler update with the mean Lagrangian velocity Vbar(y_H) = vbar(X(y_H)).

    Since Vbar is already sampled along the flow, dX/dt = Vbar needs no
    interpolation; the Jacobian uses the chain rule
    (grad_H vbar) circ X = (grad_y Vbar) Z, giving
    gradX_new = (I + dt (grad_y Vbar) Z) gradX.  This is the frozen-
    coefficient update applied inside each IMEX step with the newly
    computed velocity; ``dVbar`` is grad_y Vbar, if the caller has it.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    validate_field(Vbar, g, "vector2d")
    disp = fm.disp + dt * Vbar
    gvZ = _product_2x2(grad_h_vec(Vbar, g) if dVbar is None else dVbar, fm.Z)
    gradX = fm.gradX + dt * _product_2x2(gvZ, fm.gradX)
    Z, det = inverse_jacobian(gradX)
    return FlowMap(disp=disp, gradX=gradX, Z=Z, detX=det)


def _wrap(d: np.ndarray) -> np.ndarray:
    """Wrap periodic differences into [-1/2, 1/2)."""
    return d - np.round(d)


def invert_map(fm: FlowMap, g: Grid, inv_tol: float) -> np.ndarray:
    """Inverse map Y with X(Y(x)) = x, as absolute positions (nx, ny, 2).

    Per target node x the equation X(y) = x is solved by Newton iteration
    on the smooth residual y + d(y) - x (d the displacement interpolant),
    with periodic wrapping and the spectrally interpolated Jacobian.  All
    node solves are independent; the loop below iterates them in lockstep,
    which is deterministic and equivalent to any per-node schedule.
    """
    rep = check_invertibility(fm)
    if not rep.ok:
        raise ValueError(
            "flow map failed the invertibility check "
            f"(supnorm_dev={rep.supnorm_dev}, min_det={rep.min_det})")
    target = positions(identity_map(g), g)
    dev = fm.gradX - np.eye(2)
    y = target.copy()
    for _ in range(INV_MAX_ITER):
        d = evaluate_at_points(fm.disp, y, g)
        res = _wrap(y + d - target)
        if np.abs(res).max() <= inv_tol:
            return target + _wrap(y - target)
        J = np.eye(2) + evaluate_at_points(dev, y, g)
        step = np.linalg.solve(J, res[..., None])[..., 0]
        y = y - step
    raise ValueError(
        f"Newton iteration for the inverse map did not reach {inv_tol} "
        f"in {INV_MAX_ITER} steps (residual {np.abs(res).max()})")
