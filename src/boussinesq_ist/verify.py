"""Independent numerical checks.

Finite-difference residuals of the wave equation and its first-order system,
Lax-pair compatibility (the two residual entries that can be nonzero), mass
conservation, and the synthesize -> scatter -> recover round trip; each field
check returns the dict ``verify.json`` holds for it. Everything here
deliberately avoids the analytic machinery used to build the fields:
derivatives come from fixed central FD stencils (4th order in x, 2nd order in
t) with exact rational weights.
"""

from __future__ import annotations

import numpy as np

from boussinesq_ist import scattering as sc
from boussinesq_ist import solitons as sol
from boussinesq_ist.spectral import SQRT3


# 4th-order-accurate central stencils in x, 2nd-order in t, on the offsets
# -reach..reach with reach = size // 2; each weight is the double nearest its
# rational value, so every stencil is exactly symmetric or antisymmetric
_STENCILS = {
    ("x", 1): np.array([1, -8, 0, 8, -1]) / 12,
    ("x", 2): np.array([-1, 16, -30, 16, -1]) / 12,
    ("x", 3): np.array([1, -8, 13, 0, -13, 8, -1]) / 8,
    ("x", 4): np.array([-1, 12, -39, 56, -39, 12, -1]) / 6,
    ("t", 1): np.array([-1, 0, 1]) / 2,
    ("t", 2): np.array([1.0, -2.0, 1.0]),
}
_AXES = {"t": 0, "x": 1}  # of a (nt, nx) field


def deriv(arr, along, order, h):
    """Interior derivative of a (nt, nx) field along "t" or "x"; edges are left as zero."""
    weights = _STENCILS[along, order]
    reach = weights.size // 2
    arr = np.asarray(arr, dtype=float)
    out = np.zeros_like(arr)
    src, dst = np.moveaxis(arr, _AXES[along], 0), np.moveaxis(out, _AXES[along], 0)
    n = src.shape[0]
    for off, wgt in zip(range(-reach, reach + 1), weights):
        dst[reach : n - reach] += wgt * src[reach + off : n - reach + off]
    out /= h**order
    return out


def _interior(fld: sol.SolutionField, what: str):
    """The (t, x) slices of the points where the widest stencil on each axis
    fits; ValueError naming the ``what`` check when the field has none."""
    reach = {along: max(w.size // 2 for (a, _), w in _STENCILS.items() if a == along)
             for along in _AXES}
    if fld.t.size <= 2 * reach["t"] or fld.x.size <= 2 * reach["x"]:
        raise ValueError(f"{what} check needs at least {2 * reach['t'] + 1} time levels"
                         f" and {2 * reach['x'] + 1} x-points")
    return slice(reach["t"], fld.t.size - reach["t"]), slice(reach["x"], fld.x.size - reach["x"])


def _max_abs(res, fld: sol.SolutionField, what: str, core) -> float:
    """Max |res| over res's (..., t, x) samples on the slices ``core`` of the
    grid; ArithmeticError naming ``what`` and the first (x, t) where one is
    not finite (numpy's max keeps a NaN, where Python's max may drop it)."""
    mag = np.abs(res).reshape(-1, *res.shape[-2:]).max(axis=0)
    worst = float(np.max(mag))
    if not np.isfinite(worst):
        it, ix = np.argwhere(~np.isfinite(mag))[0]
        x, t = fld.x[core[1]][ix], fld.t[core[0]][it]
        raise ArithmeticError(f"{what} is not finite at (x, t) = ({x:.6g}, {t:.6g})")
    return worst


@np.errstate(all="ignore")  # an overflow is refused by _max_abs, naming its point
def pde_residual(fld: sol.SolutionField) -> dict:
    """Residual of u_tt = u_xx + (u^2)_xx + u_xxxx on interior points."""
    core = _interior(fld, "pde")
    u = fld.u
    utt = deriv(u, "t", 2, fld.ht)
    uxx = deriv(u, "x", 2, fld.hx)
    sqxx = deriv(u**2, "x", 2, fld.hx)
    uxxxx = deriv(u, "x", 4, fld.hx)
    res = utt - uxx - sqxx - uxxxx
    terms = (("u_tt", utt), ("u_xx", uxx), ("(u^2)_xx", sqxx), ("u_xxxx", uxxxx))
    return {
        "max_abs_residual": _max_abs(res[core], fld, "pde residual", core),
        "hx": fld.hx,
        "ht": fld.ht,
        "stencil_orders": {"x": 4, "t": 2},
        "term_max": {name: float(np.max(np.abs(d[core]))) for name, d in terms},
    }


@np.errstate(all="ignore")  # an overflow is refused by _max_abs, naming its point
def system_residual(fld: sol.SolutionField) -> dict:
    """Residuals of v_t = u_x + (u^2)_x + u_xxx and u_t = v_x."""
    if fld.v is None:
        raise ValueError("field carries no v samples")
    core = _interior(fld, "system")
    u, v = fld.u, fld.v
    vt = deriv(v, "t", 1, fld.ht)
    ut = deriv(u, "t", 1, fld.ht)
    ux = deriv(u, "x", 1, fld.hx)
    sqx = deriv(u**2, "x", 1, fld.hx)
    uxxx = deriv(u, "x", 3, fld.hx)
    vx = deriv(v, "x", 1, fld.hx)
    res1 = vt - ux - sqx - uxxx
    res2 = ut - vx
    return {
        "first_equation": _max_abs(res1[core], fld, "system residual", core),
        "second_equation": _max_abs(res2[core], fld, "system residual", core),
    }


@np.errstate(all="ignore")  # an overflow is refused by _max_abs, naming its point
def lax_compatibility(fld: sol.SolutionField) -> dict:
    """Max entrywise residual R = L_t - Z_x + [L, Z] over the grid.

    Works with the companion-form pair, which is conjugate to the diagonal
    form by an x,t-independent matrix, so the vanishing is equivalent.
    Written out, seven of R's nine entries are zero for every field and
    lam(k) cancels from the other two, so R does not depend on k:
    R20 = ((v_xx - u_xt) + i (u_x + 2 u u_x + u_xxx - v_t) / sqrt(3)) / 4 and
    R21 = (v_x - u_t) / 2, evaluated one time level at a time.
    """
    if fld.v is None:
        raise ValueError("field carries no v samples")
    core = _interior(fld, "lax")
    u, v, hx, ht = fld.u, fld.v, fld.hx, fld.ht
    ux, uxxx = deriv(u, "x", 1, hx), deriv(u, "x", 3, hx)
    vx, vxx = deriv(v, "x", 1, hx), deriv(v, "x", 2, hx)
    ut, uxt, vt = deriv(u, "t", 1, ht), deriv(ux, "t", 1, ht), deriv(v, "t", 1, ht)
    xs, worst = core[1], 0.0
    for n in range(fld.t.size)[core[0]]:
        un, uxn = u[n, xs], ux[n, xs]
        r20 = ((vxx[n, xs] - uxt[n, xs])
               + 1j * (uxn + 2.0 * un * uxn + uxxx[n, xs] - vt[n, xs]) / SQRT3) / 4.0
        r21 = (vx[n, xs] - ut[n, xs]) / 2.0
        res = np.stack((r20, r21))[:, None]
        worst = max(worst, _max_abs(res, fld, "lax residual", (slice(n, n + 1), xs)))
    return {"max_residual": worst}


@np.errstate(all="ignore")  # an overflow is refused below, naming its level
def mass_conservation(fld: sol.SolutionField) -> dict:
    """Trapezoid mass per time level; flags fields with |u| >= 1e-8 at an x-edge.
    A level whose mass overflows is refused, named by its largest |u|."""
    edges = max(float(np.max(np.abs(fld.u[:, 0]))), float(np.max(np.abs(fld.u[:, -1]))))
    masses = np.trapezoid(fld.u, dx=fld.hx, axis=1)
    dev = np.abs(masses - masses[0])
    if not np.all(np.isfinite(dev)):
        it = int(np.flatnonzero(~np.isfinite(dev))[0])
        x = fld.x[np.argmax(np.abs(fld.u[it]))]
        raise ArithmeticError(f"mass integral is not finite at (x, t) = ({x:.6g}, {fld.t[it]:.6g})")
    return {"integrals": masses.tolist(), "max_deviation": float(np.max(dev)) if dev.size else 0.0,
            "decaying": bool(edges < 1e-8)}


def _auto_extent(poles) -> float:
    """Domain half-width that buries the slowest pole tail below ~1e-6."""
    lx = 35.0
    for p in poles:
        rate, centre = sol.pole_envelope(p)
        lx = max(lx, 14.0 / rate + centre + 5.0)
    return min(lx, 120.0)


def round_trip(pairs, lx: float | None = None) -> dict:
    """Synthesize u(.,0), v(.,0) on [-lx, lx] with step DEFAULT_HX from the
    (pole, residue constant) pairs, rescatter, compare. The per-pole entries
    are keyed by str(pole)."""
    pole_tol, residue_tol, floor_tol = 1e-3, 1e-2, 1e-3
    poles = sol.wave_poles(pairs)
    if lx is None:
        lx = _auto_extent(poles)
    grid = sol.Grid(np.linspace(-lx, lx, sol.point_count(2 * lx, sol.DEFAULT_HX)), [0.0])
    fld = sol.n_soliton(pairs, grid)
    data = sc.InitialData(grid.x, fld.u[0], fld.v[0])

    regions = list(sc.DEFAULT_REGIONS)
    for p in poles:
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
    for p in poles:
        key = str(p.k0)
        if not found:
            ok = False
            details[key] = "no pole recovered"
            continue
        nearest = min(found, key=lambda z: abs(z - p.k0))
        err = abs(nearest - p.k0)
        pole_errors[key] = float(err)
        if err > pole_tol:
            ok = False
            details[key] = f"pole error {err:.3e}"
            continue
        chat, fit_res = sc.residue_constant(data, nearest)
        rerr = abs(chat - p.c) / abs(p.c)
        residue_errors[key] = float(rerr)
        details[key] = f"fit residual {fit_res:.3e}"
        if rerr > residue_tol:
            ok = False
            details[key] += f", residue error {rerr:.3e}"
    extras = [z for z in found if all(abs(z - p.k0) > 0.05 for p in poles)]
    if extras:
        ok = False
        details["spurious"] = str(extras)

    floor = sc.reflection_floor(data)
    if floor > floor_tol:
        ok = False
        details["reflection_floor"] = f"reflection floor {floor:.3e}"
    return {
        "pole_errors": pole_errors,
        "residue_errors": residue_errors,
        "reflection_floor": float(floor),
        "tolerances": {"pole": pole_tol, "residue": residue_tol, "floor": floor_tol},
        "passed": ok,
        "details": details,
    }
