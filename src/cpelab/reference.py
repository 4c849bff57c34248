"""Chain-rule reference values for the Lagrangian nonlinearities.

This module produces independent ground truth for the nonlinear remainders
``F1`` (continuity) and ``F2`` (momentum), the reconstructed vertical
velocity ``W``, and the instantaneous time derivative of ``V`` on
manufactured states.  It never uses the hand-coded remainder formulas in
:mod:`cpelab.evolve`.  Instead, starting from analytic Eulerian fields, the
Eulerian right-hand sides are formed by symbolic differentiation in the
Eulerian variables, composed with an analytic near-identity horizontal map,
and the linear frozen-coefficient parts are subtracted in the Lagrangian
variables.  Whatever remains is, by definition, the exact nonlinearity, so
the sampled values serve as an oracle for the grid-based implementations.

The manufactured fields are trigonometric polynomials horizontally and
cosine profiles vertically, with free amplitude symbols.  A template is
built (and its symbolic pipeline lambdified) once per mode; drawing random
states afterwards only requires numeric evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

from .flowmap import FlowMap, inverse_jacobian
from .grid import Grid

__all__ = [
    "MODES",
    "N_COEFFS",
    "ManufacturedTruth",
    "OracleTemplate",
    "build_oracle_template",
    "sample_coefficients",
]

#: Evolution modes covered by the oracle.  The two Gamma1 entries share the
#: same transformed equations but differ in the linear split: the local mode
#: freezes coefficients at a baseline surface density field, the global mode
#: linearizes around the constant state and keeps the pressure gradient in
#: the linear block.
MODES = ("LocalGamma1", "LocalGamma2", "GlobalGamma1", "GeneralNoGravity")

_N_DISP = 4  # horizontal displacement amplitudes
_N_SURF = 3  # surface-density perturbation amplitudes
_N_VEL = 8  # velocity amplitudes (4 per component)
_N_BASE = 2  # baseline (frozen-coefficient) perturbation amplitudes

#: Length of the coefficient vector accepted by :meth:`OracleTemplate.evaluate`.
N_COEFFS = _N_DISP + _N_SURF + _N_VEL + _N_BASE


@dataclass(frozen=True)
class ManufacturedTruth:
    """Grid samples of one manufactured state and its exact nonlinearities.

    ``dtV`` is the true instantaneous time derivative of ``V`` implied by
    the governing equations (it is what the lagged time-derivative argument
    of the momentum remainder should converge to).  ``F1``, ``F2`` and ``W``
    are the exact remainders/reconstruction for the mode's linear split.
    """

    mode: str
    zeta: np.ndarray
    zeta0: np.ndarray
    V: np.ndarray
    W: np.ndarray
    dtV: np.ndarray
    dtzeta: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    fm: FlowMap


@dataclass(frozen=True)
class OracleTemplate:
    """Lambdified symbolic pipeline for one evolution mode.

    Call :meth:`evaluate` with a coefficient vector (see
    :func:`sample_coefficients`) and a grid to obtain a
    :class:`ManufacturedTruth` sampled at the grid nodes.
    """

    mode: str
    mu: float
    mu_prime: float
    base: float
    pressure: str
    _fn: object

    def evaluate(self, coeffs: np.ndarray, g: Grid) -> ManufacturedTruth:
        """Sample the manufactured state and its exact remainders on ``g``."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (N_COEFFS,):
            raise ValueError(
                f"expected {N_COEFFS} coefficients, got shape {coeffs.shape}")
        shape3 = (g.nx, g.ny, g.nz)
        y1 = g.x[:, None, None]
        y2 = g.y[None, :, None]
        zz = g.z[None, None, :]
        raw = self._fn(*coeffs, y1, y2, zz)

        def f3(e):
            return np.ascontiguousarray(np.broadcast_to(e, shape3), dtype=float)

        def f2(e):
            return f3(e)[:, :, 0].copy()

        (zeta, zeta0, v1, v2, w, g1, g2, f1, f21, f22,
         d1, d2, a11, a12, a21, a22, dtz) = raw
        V = np.stack([f3(v1), f3(v2)], axis=-1)
        dtV = np.stack([f3(g1), f3(g2)], axis=-1)
        F2 = np.stack([f3(f21), f3(f22)], axis=-1)
        disp = np.stack([f2(d1), f2(d2)], axis=-1)
        gradX = np.empty((g.nx, g.ny, 2, 2))
        gradX[:, :, 0, 0] = f2(a11)
        gradX[:, :, 0, 1] = f2(a12)
        gradX[:, :, 1, 0] = f2(a21)
        gradX[:, :, 1, 1] = f2(a22)
        Z, detX = inverse_jacobian(gradX)
        fm = FlowMap(disp=disp, gradX=gradX, Z=Z, detX=detX)
        return ManufacturedTruth(
            mode=self.mode, zeta=f2(zeta), zeta0=f2(zeta0), V=V, W=f3(w),
            dtV=dtV, dtzeta=f2(dtz), F1=f2(f1), F2=F2, fm=fm)


def sample_coefficients(
    rng: np.random.Generator,
    mode: str,
    amplitude: float = 0.05,
    displacement: float = 0.006,
) -> np.ndarray:
    """Draw a random coefficient vector for :meth:`OracleTemplate.evaluate`.

    ``displacement`` scales the flow-map displacement (keep it a few times
    1e-2 at most so the map stays a near-identity diffeomorphism and the
    composed fields stay band-limited to high accuracy), ``amplitude``
    scales the density/velocity perturbations.  For ``GlobalGamma1`` the
    baseline coefficients are zeroed: that mode linearizes around the
    constant state, not around a manufactured baseline field.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    c = np.empty(N_COEFFS)
    u = rng.uniform(-1.0, 1.0, size=N_COEFFS)
    c[:_N_DISP] = displacement * u[:_N_DISP]
    c[_N_DISP:_N_DISP + _N_SURF + _N_VEL] = (
        amplitude * u[_N_DISP:_N_DISP + _N_SURF + _N_VEL])
    c[-_N_BASE:] = amplitude * u[-_N_BASE:]
    if mode == "GlobalGamma1":
        c[-_N_BASE:] = 0.0
    return c


def _pressure_expr(name: str, s, coefficient: float, alpha: float):
    """Symbolic pressure law P(s) matching :func:`transforms.make_pressure_law`."""
    if name == "linear":
        return coefficient * s
    if name == "tanh":
        return s + alpha * sp.log(sp.cosh(s - 1))
    raise ValueError(f"unknown pressure law {name!r}; expected 'linear' or 'tanh'")


def build_oracle_template(
    mode: str,
    mu: float = 1.0,
    mu_prime: float = 0.5,
    base: float = 1.0,
    pressure: str = "linear",
    pressure_c: float = 1.0,
    pressure_alpha: float = 0.5,
) -> OracleTemplate:
    """Derive the exact nonlinearities symbolically and lambdify them.

    The derivation path is: (i) write analytic Eulerian fields with free
    amplitude symbols; (ii) form each model's Eulerian momentum balance and
    surface-density tendency by symbolic differentiation in the Eulerian
    coordinates, including the vertical-velocity reconstruction integral;
    (iii) substitute the analytic horizontal map to obtain the Lagrangian
    fields and the true time derivatives; (iv) subtract the mode's linear
    frozen-coefficient part, differentiated directly in the Lagrangian
    variables.  Building a template takes a few seconds of symbolic work;
    evaluating it is pure numpy.

    ``pressure`` only matters for ``GeneralNoGravity`` and must match the
    numeric law used to build the corresponding ``PhysicalParams``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    mu = float(mu)
    mu_prime = float(mu_prime)
    base_v = sp.Float(float(base))
    y1, y2, zz = sp.symbols("y1 y2 z", real=True)
    x1, x2, s = sp.symbols("x1 x2 s", real=True)
    c = sp.symbols(f"c0:{N_COEFFS}", real=True)
    w = 2 * sp.pi
    delta = 1 - sp.exp(-1)

    # Analytic horizontal map (near-identity for small c0..c3) and frozen
    # baseline surface density on the Lagrangian labels.
    X1 = y1 + c[0] * sp.sin(w * y1) * sp.cos(w * y2) + c[1] * sp.sin(w * y2)
    X2 = y2 + c[2] * sp.cos(w * y1) * sp.sin(w * y2) + c[3] * sp.sin(w * y1)
    zeta0 = base_v + c[15] * sp.cos(w * y1) + c[16] * sp.sin(w * y2) * sp.cos(w * y1)

    # Analytic Eulerian fields: surface density and horizontal velocity.
    # Vertical profiles vanish at the top and have zero slope at the bottom.
    xi = (base_v + c[4] * sp.cos(w * x1) * sp.sin(w * x2)
          + c[5] * sp.sin(w * x2) + c[6] * sp.cos(w * x1))
    phi0 = sp.cos(sp.pi * zz / 2)
    phi1 = sp.cos(3 * sp.pi * zz / 2)
    v = (
        phi0 * (c[7] * sp.sin(w * x1) + c[8] * sp.cos(w * x2))
        + phi1 * (c[9] * sp.sin(w * x1) * sp.cos(w * x2) + c[10] * sp.cos(w * x1)),
        phi0 * (c[11] * sp.sin(w * x2) + c[12] * sp.cos(w * x1))
        + phi1 * (c[13] * sp.sin(w * x2) * sp.cos(w * x1) + c[14] * sp.sin(w * x2)),
    )

    def ddx(e, i):
        return sp.diff(e, (x1, x2)[i])

    def zint(e):
        """Exact integral of e over the full vertical extent."""
        return sp.integrate(e.subs(zz, s), (s, 0, 1))

    def zcum(e):
        """Exact integral of e from the bottom up to height z."""
        return sp.integrate(e.subs(zz, s), (s, 0, zz))

    vbar = tuple(zint(vi) for vi in v)
    vtil = tuple(vi - vb for vi, vb in zip(v, vbar))
    div_v = ddx(v[0], 0) + ddx(v[1], 1)
    div_vbar = ddx(vbar[0], 0) + ddx(vbar[1], 1)
    lap = [ddx(ddx(vi, 0), 0) + ddx(ddx(vi, 1), 1) for vi in v]
    gamma1 = mode in ("LocalGamma1", "GlobalGamma1")

    # Vertical velocity reconstruction and surface-density tendency along
    # trajectories of the depth-averaged velocity.
    flux = ddx(xi * vtil[0], 0) + ddx(xi * vtil[1], 1)
    if mode == "LocalGamma2":
        rho = xi + zz / 2
        baro = zint(zz * div_v)
        w_e = -(zcum(flux) + zcum(zz * div_v - baro) / 2) / rho
        dtxi_material = -xi * div_vbar - baro / 2
    else:
        rho = xi
        w_e = -zcum(flux) / xi
        dtxi_material = -xi * div_vbar

    # Eulerian momentum balance solved for the material derivative.  For the
    # Gamma1 models the equations are already in stretched vertical
    # coordinates, which weights the viscous terms and reduces the pressure
    # gradient to the surface-density gradient.
    G_e = []
    for i in range(2):
        if gamma1:
            visc = (mu * lap[i] / (1 - delta * zz)
                    + mu * sp.diff((1 - delta * zz) / delta**2
                                   * sp.diff(v[i], zz), zz)
                    + mu_prime * ddx(div_v, i) / (1 - delta * zz))
            press = ddx(xi, i)
        else:
            visc = mu * (lap[i] + sp.diff(v[i], zz, 2)) + mu_prime * ddx(div_v, i)
            if mode == "LocalGamma2":
                press = 2 * rho * ddx(xi, i)
            else:
                p_of = _pressure_expr(pressure, sp.Symbol("s_p", real=True),
                                      pressure_c, pressure_alpha)
                dp = sp.diff(p_of, sp.Symbol("s_p", real=True)).subs(
                    sp.Symbol("s_p", real=True), xi)
                press = dp * ddx(xi, i)
        adv = (vtil[0] * ddx(v[i], 0) + vtil[1] * ddx(v[i], 1)
               + w_e * sp.diff(v[i], zz))
        G_e.append((visc - press) / rho - adv)

    # Compose with the map: Lagrangian fields and true time derivatives.
    sub = {x1: X1, x2: X2}

    def comp(e):
        return e.subs(sub, simultaneous=True)

    V_L = [comp(vi) for vi in v]
    Vbar_L = [comp(vb) for vb in vbar]
    zeta_L = comp(xi)
    W_L = comp(w_e)
    G_L = [comp(gi) for gi in G_e]
    dtzeta = comp(dtxi_material)

    def ddy(e, i):
        return sp.diff(e, (y1, y2)[i])

    # Subtract the mode's linear part, differentiated in the Lagrangian
    # variables with frozen coefficients.
    div_Vbar_y = ddy(Vbar_L[0], 0) + ddy(Vbar_L[1], 1)
    div_V_y = ddy(V_L[0], 0) + ddy(V_L[1], 1)
    if mode == "GlobalGamma1":
        zeta_out = zeta_L - base_v
        F1 = dtzeta + base_v * div_Vbar_y
    elif mode == "LocalGamma2":
        zeta_out = zeta_L
        F1 = dtzeta + zeta0 * div_Vbar_y + zint(zz * div_V_y) / 2
    else:
        zeta_out = zeta_L
        F1 = dtzeta + zeta0 * div_Vbar_y

    F2 = []
    for i in range(2):
        lap_y = ddy(ddy(V_L[i], 0), 0) + ddy(ddy(V_L[i], 1), 1)
        if gamma1:
            coeff = base_v if mode == "GlobalGamma1" else zeta0
            a0 = 1 / ((1 - delta * zz) * coeff)
            b0 = (1 - delta * zz) / (delta**2 * coeff)
            lin = (mu * a0 * lap_y
                   + sp.diff(mu * b0 * sp.diff(V_L[i], zz), zz)
                   + mu_prime * a0 * ddy(div_V_y, i))
            if mode == "GlobalGamma1":
                lin = lin - ddy(zeta_out, i) / base_v
        elif mode == "LocalGamma2":
            c0 = 1 / (zeta0 + zz / 2)
            lin = (mu * c0 * (lap_y + sp.diff(V_L[i], zz, 2))
                   + mu_prime * c0 * ddy(div_V_y, i))
        else:
            lin = (mu * (lap_y + sp.diff(V_L[i], zz, 2))
                   + mu_prime * ddy(div_V_y, i)) / zeta0
        F2.append(G_L[i] - lin)

    exprs = [
        zeta_out, zeta0, V_L[0], V_L[1], W_L, G_L[0], G_L[1], F1, F2[0], F2[1],
        X1 - y1, X2 - y2,
        sp.diff(X1, y1), sp.diff(X1, y2), sp.diff(X2, y1), sp.diff(X2, y2),
        dtzeta,
    ]
    fn = sp.lambdify(list(c) + [y1, y2, zz], exprs, modules="numpy", cse=True)
    return OracleTemplate(mode=mode, mu=mu, mu_prime=mu_prime, base=float(base),
                          pressure=pressure, _fn=fn)
