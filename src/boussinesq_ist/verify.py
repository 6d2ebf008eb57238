"""Independent numerical checks.

Finite-difference residuals of the wave equation and its first-order system,
Lax-pair compatibility, mass conservation, and the synthesize -> scatter ->
recover round trip. Everything here deliberately avoids the analytic
machinery used to build the fields: derivatives come from FD stencils
(4th order in x, 2nd order in t) generated by the Fornberg recursion.
"""

from __future__ import annotations

import numpy as np

from boussinesq_ist import scattering as sc
from boussinesq_ist import solitons as sol
from boussinesq_ist.spectral import dist_to_qhat, l_tilde, z_tilde


def fd_weights(order: int, offsets) -> np.ndarray:
    """Finite-difference weights for d^order/dx^order at 0 on given offsets.

    Fornberg recursion. For the small integer stencils used here every
    weight lies within one ulp of its rational value, but not always on
    the nearest double: the second-derivative weight at offset +1 is
    4/3 + 1 ulp, while its mirror at -1 is the double nearest 4/3.
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


# 4th-order-accurate central stencils in x, 2nd-order in t: (weights, reach)
_STENCILS = {
    ("x", 1): (fd_weights(1, range(-2, 3)), 2),
    ("x", 2): (fd_weights(2, range(-2, 3)), 2),
    ("x", 3): (fd_weights(3, range(-3, 4)), 3),
    ("x", 4): (fd_weights(4, range(-3, 4)), 3),
    ("t", 1): (fd_weights(1, range(-1, 2)), 1),
    ("t", 2): (fd_weights(2, range(-1, 2)), 1),
}
_AXES = {"t": 0, "x": 1}  # of a (nt, nx) field


def deriv(arr, along, order, h):
    """Interior derivative of a (nt, nx) field along "t" or "x"; edges are left as zero."""
    weights, reach = _STENCILS[along, order]
    arr = np.asarray(arr, dtype=float)
    out = np.zeros_like(arr)
    src, dst = np.moveaxis(arr, _AXES[along], 0), np.moveaxis(out, _AXES[along], 0)
    n = src.shape[0]
    for off, wgt in zip(range(-reach, reach + 1), weights):
        dst[reach : n - reach] += wgt * src[reach + off : n - reach + off]
    out /= h**order
    return out, reach


def _interior(nt, nx, reach_t, reach_x):
    return (slice(reach_t, nt - reach_t), slice(reach_x, nx - reach_x))


def pde_residual(fld: sol.SolutionField) -> dict:
    """Residual of u_tt = u_xx + (u^2)_xx + u_xxxx on interior points."""
    if fld.x.size < 9:
        raise ValueError("grid too coarse: need at least 9 x-points")
    if fld.t.size < 5:
        raise ValueError("need at least 5 time levels")
    u = fld.u
    utt, rt = deriv(u, "t", 2, fld.ht)
    uxx, rx2 = deriv(u, "x", 2, fld.hx)
    sqxx, _ = deriv(u**2, "x", 2, fld.hx)
    uxxxx, rx4 = deriv(u, "x", 4, fld.hx)
    reach_x = max(rx2, rx4)
    core = _interior(fld.t.size, fld.x.size, rt, reach_x)
    res = utt - uxx - sqxx - uxxxx
    terms = {
        "u_tt": float(np.max(np.abs(utt[core]))),
        "u_xx": float(np.max(np.abs(uxx[core]))),
        "(u^2)_xx": float(np.max(np.abs(sqxx[core]))),
        "u_xxxx": float(np.max(np.abs(uxxxx[core]))),
    }
    return {
        "max_abs_residual": float(np.max(np.abs(res[core]))),
        "hx": fld.hx,
        "ht": fld.ht,
        "stencil_orders": {"x": 4, "t": 2},
        "term_max": terms,
    }


def system_residual(fld: sol.SolutionField) -> dict:
    """Residuals of v_t = u_x + (u^2)_x + u_xxx and u_t = v_x."""
    if fld.v is None:
        raise ValueError("field carries no v samples")
    if fld.t.size < 3 or fld.x.size < 7:
        raise ValueError("system check needs at least 3 time levels and 7 x-points")
    u, v = fld.u, fld.v
    vt, rt = deriv(v, "t", 1, fld.ht)
    ut, _ = deriv(u, "t", 1, fld.ht)
    ux, _ = deriv(u, "x", 1, fld.hx)
    sqx, _ = deriv(u**2, "x", 1, fld.hx)
    uxxx, rx = deriv(u, "x", 3, fld.hx)
    vx, _ = deriv(v, "x", 1, fld.hx)
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
    ux, _ = deriv(u, "x", 1, hx)
    uxx, _ = deriv(u, "x", 2, hx)
    uxxx, rx = deriv(u, "x", 3, hx)
    vx, _ = deriv(v, "x", 1, hx)
    vxx, _ = deriv(v, "x", 2, hx)
    ut, rt = deriv(u, "t", 1, ht)
    uxt, _ = deriv(ux, "t", 1, ht)
    vt, _ = deriv(v, "t", 1, ht)
    core = _interior(fld.t.size, fld.x.size, rt, rx)

    # L~ and Z~ are affine in the fields, so L~_t = L~(f_t) - L~(0) and
    # Z~_x = Z~(f_x) - Z~(0); one time level at a time bounds the memory
    worst = 0.0
    for k in np.atleast_1d(ks):
        if dist_to_qhat(k) < 1e-3:
            raise ValueError("k too close to a sixth root of unity")
        l0, z0 = l_tilde(k, 0.0, 0.0, 0.0, 0.0, 0.0), z_tilde(k, 0.0, 0.0, 0.0, 0.0, 0.0)
        for n in range(fld.t.size)[core[0]]:
            xs = core[1]
            fields = (u[n, xs], ux[n, xs], uxx[n, xs], v[n, xs], vx[n, xs])
            lt, zt = l_tilde(k, *fields), z_tilde(k, *fields)
            lt_t = l_tilde(k, ut[n, xs], uxt[n, xs], 0.0, vt[n, xs], 0.0) - l0
            zt_x = z_tilde(k, ux[n, xs], uxx[n, xs], uxxx[n, xs], vx[n, xs], vxx[n, xs]) - z0
            res = lt_t - zt_x + lt @ zt - zt @ lt
            worst = max(worst, float(np.max(np.abs(res))))
    return worst


def mass_conservation(fld: sol.SolutionField) -> dict:
    """Trapezoid mass per time level; flags fields with |u| >= 1e-8 at an x-edge."""
    edges = max(float(np.max(np.abs(fld.u[:, 0]))), float(np.max(np.abs(fld.u[:, -1]))))
    masses = np.trapezoid(fld.u, dx=fld.hx, axis=1)
    dev = float(np.max(np.abs(masses - masses[0]))) if masses.size else 0.0
    return {"integrals": masses.tolist(), "max_deviation": dev, "decaying": bool(edges < 1e-8)}


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
    extras = [z for z in found if all(abs(z - p.k0) > 0.05 for p in poles)]
    if extras:
        ok = False
        details["spurious"] = str(extras)

    floor = sc.reflection_floor(data)
    if floor > floor_tol:
        ok = False
    return {
        "pole_errors": pole_errors,
        "residue_errors": residue_errors,
        "reflection_floor": float(floor),
        "tolerances": {"pole": pole_tol, "residue": residue_tol, "floor": floor_tol},
        "passed": ok,
        "details": details,
    }
