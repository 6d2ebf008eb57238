"""Independent numerical checks.

Finite-difference residuals of the wave equation and its first-order system,
Lax-pair compatibility, mass conservation, and the synthesize -> scatter ->
recover round trip. Everything here deliberately avoids the analytic
machinery used to build the fields: derivatives come from FD stencils
(4th order in x, 2nd order in t) generated by the Fornberg recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from boussinesq_ist import scattering as sc
from boussinesq_ist import solitons as sol
from boussinesq_ist.spectral import SQRT3, _l_tilde, _z_tilde, dist_to_qhat, eval_l, lax_tilde


def fd_weights(order: int, offsets) -> np.ndarray:
    """Finite-difference weights for d^order/dx^order at 0 on given offsets.

    Fornberg recursion; exact in floating point for the small integer
    stencils used here.
    """
    x = np.asarray(offsets, dtype=float)
    n = x.size
    if order >= n:
        raise ValueError("stencil too short for requested derivative order")
    c = np.zeros((n, order + 1))
    c1 = 1.0
    c4 = x[0]
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for v in range(mn, 0, -1):
                    c[i, v] = c1 * (v * c[i - 1, v - 1] - c5 * c[i - 1, v]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for v in range(mn, 0, -1):
                c[j, v] = (c4 * c[j, v] - v * c[j, v - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


# 4th-order-accurate central stencils in x, 2nd-order in t.
_STENCILS_X = {
    1: (fd_weights(1, range(-2, 3)), 2),
    2: (fd_weights(2, range(-2, 3)), 2),
    3: (fd_weights(3, range(-3, 4)), 3),
    4: (fd_weights(4, range(-3, 4)), 3),
}
_STENCILS_T = {
    1: (fd_weights(1, range(-1, 2)), 1),
    2: (fd_weights(2, range(-1, 2)), 1),
}


def deriv_x(arr, order, hx):
    """Interior x-derivative of a (nt, nx) field; edges are left as zero."""
    weights, reach = _STENCILS_X[order]
    out = np.zeros_like(np.asarray(arr, dtype=float))
    nx = arr.shape[-1]
    core = slice(reach, nx - reach)
    for off, wgt in zip(range(-reach, reach + 1), weights):
        out[..., core] += wgt * arr[..., reach + off : nx - reach + off]
    out /= hx**order
    return out, reach


def deriv_t(arr, order, ht):
    """Interior t-derivative of a (nt, nx) field; edges are left as zero."""
    weights, reach = _STENCILS_T[order]
    arr = np.asarray(arr, dtype=float)
    out = np.zeros_like(arr)
    nt = arr.shape[0]
    core = slice(reach, nt - reach)
    for off, wgt in zip(range(-reach, reach + 1), weights):
        out[core, ...] += wgt * arr[reach + off : nt - reach + off, ...]
    out /= ht**order
    return out, reach


@dataclass
class ResidualReport:
    max_abs_residual: float
    hx: float
    ht: float
    stencil_orders: dict
    term_max: dict
    interior: tuple = ()

    def to_dict(self):
        return {
            "max_abs_residual": self.max_abs_residual,
            "hx": self.hx,
            "ht": self.ht,
            "stencil_orders": self.stencil_orders,
            "term_max": self.term_max,
        }


def _interior(nt, nx, reach_t, reach_x):
    return (slice(reach_t, nt - reach_t), slice(reach_x, nx - reach_x))


def pde_residual(fld: sol.SolutionField) -> ResidualReport:
    """Residual of u_tt = u_xx + (u^2)_xx + u_xxxx on interior points."""
    if fld.x.size < 9:
        raise ValueError("grid too coarse: need at least 9 x-points")
    if fld.t.size < 5:
        raise ValueError("need at least 5 time levels")
    u = fld.u
    utt, rt = deriv_t(u, 2, fld.ht)
    uxx, rx2 = deriv_x(u, 2, fld.hx)
    sqxx, _ = deriv_x(u**2, 2, fld.hx)
    uxxxx, rx4 = deriv_x(u, 4, fld.hx)
    reach_x = max(rx2, rx4)
    core = _interior(fld.t.size, fld.x.size, rt, reach_x)
    res = utt - uxx - sqxx - uxxxx
    terms = {
        "u_tt": float(np.max(np.abs(utt[core]))),
        "u_xx": float(np.max(np.abs(uxx[core]))),
        "(u^2)_xx": float(np.max(np.abs(sqxx[core]))),
        "u_xxxx": float(np.max(np.abs(uxxxx[core]))),
    }
    return ResidualReport(
        float(np.max(np.abs(res[core]))),
        fld.hx,
        fld.ht,
        {"x": 4, "t": 2},
        terms,
        core,
    )


def system_residual(fld: sol.SolutionField) -> dict:
    """Residuals of v_t = u_x + (u^2)_x + u_xxx and u_t = v_x."""
    if fld.v is None:
        raise ValueError("field carries no v samples")
    if fld.t.size < 3 or fld.x.size < 7:
        raise ValueError("system check needs at least 3 time levels and 7 x-points")
    u, v = fld.u, fld.v
    vt, rt = deriv_t(v, 1, fld.ht)
    ut, _ = deriv_t(u, 1, fld.ht)
    ux, _ = deriv_x(u, 1, fld.hx)
    sqx, _ = deriv_x(u**2, 1, fld.hx)
    uxxx, rx = deriv_x(u, 3, fld.hx)
    vx, _ = deriv_x(v, 1, fld.hx)
    core = _interior(fld.t.size, fld.x.size, rt, rx)
    res1 = vt - ux - sqx - uxxx
    res2 = ut - vx
    return {
        "first_equation": float(np.max(np.abs(res1[core]))),
        "second_equation": float(np.max(np.abs(res2[core]))),
    }


def lax_compatibility(fld: sol.SolutionField, ks) -> float:
    """Max entrywise residual of L_t - Z_x + [L, Z] over the grid and k list.

    Works with the companion-form pair, which is conjugate to the diagonal
    form by an x,t-independent matrix, so the vanishing is equivalent.
    """
    if fld.v is None:
        raise ValueError("field carries no v samples")
    if fld.t.size < 3 or fld.x.size < 7:
        raise ValueError("lax check needs at least 3 time levels and 7 x-points")
    u, v = fld.u, fld.v
    hx, ht = fld.hx, fld.ht
    ux, _ = deriv_x(u, 1, hx)
    uxx, _ = deriv_x(u, 2, hx)
    uxxx, rx = deriv_x(u, 3, hx)
    vx, _ = deriv_x(v, 1, hx)
    vxx, _ = deriv_x(v, 2, hx)
    ut, rt = deriv_t(u, 1, ht)
    uxt, _ = deriv_t(ux, 1, ht)
    vt, _ = deriv_t(v, 1, ht)
    core = _interior(fld.t.size, fld.x.size, rt, rx)

    # L~ and Z~ are affine in the fields, so L~_t = L~(f_t) - L~(0) and
    # Z~_x = Z~(f_x) - Z~(0); one time level at a time bounds the memory
    worst = 0.0
    for k in np.atleast_1d(ks):
        if dist_to_qhat(k) < 1e-3:
            raise ValueError("k too close to a sixth root of unity")
        l0, z0 = lax_tilde(k, 0.0, 0.0, 0.0, 0.0, 0.0)
        for n in range(fld.t.size)[core[0]]:
            xs = core[1]
            lt, zt = lax_tilde(k, u[n, xs], ux[n, xs], uxx[n, xs], v[n, xs], vx[n, xs])
            lt_t = _l_tilde(k, ut[n, xs], uxt[n, xs], 0.0, vt[n, xs], 0.0) - l0
            zt_x = _z_tilde(k, ux[n, xs], uxx[n, xs], uxxx[n, xs], vx[n, xs], vxx[n, xs]) - z0
            res = lt_t - zt_x + lt @ zt - zt @ lt
            worst = max(worst, float(np.max(np.abs(res))))
    return worst


@dataclass
class MassReport:
    integrals: np.ndarray
    max_deviation: float
    decaying: bool

    def to_dict(self):
        return {
            "integrals": [float(v) for v in self.integrals],
            "max_deviation": self.max_deviation,
            "decaying": self.decaying,
        }


def mass_conservation(fld: sol.SolutionField) -> MassReport:
    """Trapezoid mass per time level; flags fields with |u| >= 1e-8 at an x-edge."""
    edges = max(float(np.max(np.abs(fld.u[:, 0]))), float(np.max(np.abs(fld.u[:, -1]))))
    masses = np.trapezoid(fld.u, dx=fld.hx, axis=1)
    dev = float(np.max(np.abs(masses - masses[0]))) if masses.size else 0.0
    return MassReport(masses, dev, bool(edges < 1e-8))


@dataclass
class RoundTripReport:
    pole_errors: dict
    residue_errors: dict
    reflection_floor: float
    tolerances: dict
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "pole_errors": {str(k): v for k, v in self.pole_errors.items()},
            "residue_errors": {str(k): v for k, v in self.residue_errors.items()},
            "reflection_floor": self.reflection_floor,
            "tolerances": self.tolerances,
            "passed": self.passed,
            "details": {str(k): str(v) for k, v in self.details.items()},
        }


def _auto_extent(spec: sol.SolitonSpec) -> float:
    """Domain half-width that buries the slowest pole tail below ~1e-6."""
    lx = 35.0
    for p in spec.poles:
        if p.regularity == "zero":
            continue
        if p.kind == "soliton":
            k0 = p.k0.real
            rate = (k0**2 - 1.0) / (2.0 * k0)
            w = (k0**2 - 1.0) / (4.0 * k0)
            f = abs(sol.soliton_shape_factor(k0, p.c))
            center = abs(np.log(f) / w)
        else:
            rate = sol.breather_envelope_rate(p.k0)
            ct = abs(1j * (p.k0**2 - 1.0) / (2.0 * SQRT3 * p.k0**2) * p.c)
            center = abs(np.log(ct / abs(eval_l(1, p.k0) - eval_l(3, p.k0))) / rate)
        lx = max(lx, 14.0 / rate + center + 5.0)
    return min(lx, 120.0)


def round_trip(spec, lx: float | None = None) -> RoundTripReport:
    """Synthesize u(.,0), v(.,0) on [-lx, lx] with step DEFAULT_HX from the
    spectral data, rescatter, compare."""
    pole_tol, residue_tol, floor_tol = 1e-3, 1e-2, 1e-3
    if isinstance(spec, (list, tuple)):
        spec = sol.SolitonSpec.from_pairs(spec)
    spec.require_regular()
    if lx is None:
        lx = _auto_extent(spec)
    grid = sol.Grid(np.linspace(-lx, lx, int(round(2 * lx / sol.DEFAULT_HX)) + 1), [0.0])
    fld = sol.n_soliton(spec, grid)
    data = sc.InitialData(grid.x, fld.u[0], fld.v[0])

    regions = list(sc.DEFAULT_REGIONS)
    for p in spec.poles:
        if p.regularity == "zero":
            continue
        covered = any(
            r[0] <= p.k0.real <= r[1] and r[2] <= p.k0.imag <= r[3] for r in regions
        )
        if not covered:
            extra = sc.search_rectangle_around(p.k0)
            if extra is not None:
                regions.append(extra)
    found = sc.find_poles(data, regions=regions)
    pole_errors, residue_errors, details = {}, {}, {}
    ok = True
    for p in spec.poles:
        if p.regularity == "zero":
            continue
        if not found:
            ok = False
            details[p.k0] = "no pole recovered"
            continue
        nearest = min(found, key=lambda z: abs(z - p.k0))
        err = abs(nearest - p.k0)
        pole_errors[p.k0] = float(err)
        if err > pole_tol:
            ok = False
            details[p.k0] = f"pole error {err:.3e}"
            continue
        chat, fit_res = sc.residue_constant(data, nearest)
        rerr = abs(chat - p.c) / abs(p.c)
        residue_errors[p.k0] = float(rerr)
        details[p.k0] = f"fit residual {fit_res:.3e}"
        if rerr > residue_tol:
            ok = False
    extras = [z for z in found if all(abs(z - p.k0) > 0.05 for p in spec.poles)]
    if extras:
        ok = False
        details["spurious"] = extras

    floor = sc.reflection_floor(data)
    if floor > floor_tol:
        ok = False
    if not spec.poles and found:
        ok = False
    return RoundTripReport(
        pole_errors,
        residue_errors,
        float(floor),
        {"pole": pole_tol, "residue": residue_tol, "floor": floor_tol},
        ok,
        details,
    )
