"""The paper's displayed formulas, stated in terms of the package's primitives.

No command-line path needs these. Each one is an independent reference that
a test compares the package against: the dense Vandermonde basis behind the
rank-one march, the conjugated Lax pair, whole eigenfunction matrices and the
sectionally analytic M2, the compact-support residue shortcut, the march one
x step at a time, the arc weight and its log-densities, and the pole-removal
matrices by their names.
"""

import math

import numpy as np

from boussinesq_ist import jumps as jp
from boussinesq_ist import scattering as sc
from boussinesq_ist import spectral as sp
from boussinesq_ist import volterra as vt


def vandermonde(k):
    """P(k): columns (1, l_j, l_j^2)."""
    ls = sp.eval_l_all(k)
    out = np.empty(ls.shape[:-1] + (3, 3), dtype=complex)
    out[..., 0, :] = 1.0
    out[..., 1, :] = ls
    out[..., 2, :] = ls**2
    return out


def vandermonde_det(k):
    """det P(k) = (l2-l1)(l3-l1)(l3-l2)."""
    ls = sp.eval_l_all(k)
    l1, l2, l3 = ls[..., 0], ls[..., 1], ls[..., 2]
    return (l2 - l1) * (l3 - l1) * (l3 - l2)


def vandermonde_inv(k):
    """P(k)^-1; refuses evaluation close to the sixth roots of unity."""
    if np.any(sp.dist_to_qhat(k) < sp.QHAT_EXCLUSION):
        raise sp.DomainError(
            f"P(k) is singular near the sixth roots of unity "
            f"(need dist >= {sp.QHAT_EXCLUSION:g})"
        )
    return np.linalg.inv(vandermonde(k))


def lax_residues(k, u, ux, uxx, v, vx):
    """Residues U = P^-1 L~ P - diag(l) and V = P^-1 Z~ P - diag(z) of the
    conjugated Lax pair at a point (k; u, ux, uxx, v, vx)."""
    k = complex(k)
    p = vandermonde(k)
    pinv = vandermonde_inv(k)
    lt, zt = sp.lax_tilde(k, u, ux, uxx, v, vx)
    cal_l = np.diag([sp.eval_l(j, k) for j in (1, 2, 3)])
    cal_z = np.diag([sp.eval_z(j, k) for j in (1, 2, 3)])
    return pinv @ lt @ p - cal_l, pinv @ zt @ p - cal_z


def solve_volterra(data: sc.InitialData, k: complex, which: str):
    """Matrix sequence of one eigenfunction over the grid.

    Columns whose dressing grows along the march are NaN-filled and reported
    in the accompanying mask rather than trusted.
    """
    nx = data.x.size
    out = np.full((nx, 3, 3), np.nan, dtype=complex)
    mask = np.zeros(3, dtype=bool)
    _, ls, _ = sc._plan([k])
    for col in (1, 2, 3):
        if not vt.column_stability(ls, col, which)[0]:
            continue
        out[:, :, col - 1] = sc._traj(data, k, which, col)
        mask[col - 1] = True
    return out, mask


def m2_matrix(data: sc.InitialData, k: complex):
    """The sectionally analytic 3x3 matrix on the pole sector, assembled from
    eigenfunction columns and connection entries; det = 1 where defined."""
    x1 = sc._traj(data, k, "X", 1)
    y2 = sc._traj(data, k, "Y", 2)
    w = sc._adjugate_cross(data, k)
    s11 = sc.s11_batch(data, [k])[0]
    sa22, _ = sc._s_entry_batch(data, [k], "XA", 2, 2)
    out = np.empty((data.x.size, 3, 3), dtype=complex)
    out[:, :, 0] = x1
    out[:, :, 1] = y2 / sa22[0]
    out[:, :, 2] = w / s11
    return out


def residue_constant_compact(data: sc.InitialData, k0: complex):
    """Compact-support shortcut -s_12/sdot_11 (real k0) or -s_13/sdot_11.

    The column's dressing grows, so the entry is marched with growth allowed;
    it is exact only when the data vanish outside a bounded window."""
    k0 = complex(k0)
    ds11 = sc._s11_derivative(data, k0)
    _, ls, c = sc._plan([k0])
    n1, n2 = data.potential_scalars
    sl = data.support_slice()
    col = 2 if sp.on_real_axis(k0) else 3
    res = vt.march_column(data.x[sl], n1[sl], n2[sl], c, ls, col, "X", s_rows=(1,), growth_ok=True)
    return -res["s"][0, 0] / ds11


def march_column_stepwise(x, n1, n2, c, ls, col, kind, want_traj, s_rows, growth_ok):
    """:func:`volterra.march_column` one x step at a time.

    Every step forms its own potential row, connection dressing, integrand
    and trapezoid term, where the package forms them once per block of
    DRESS_BLOCK steps; both give the same bits."""
    sign, d, side, transpose = vt.KINDS[kind]
    x = np.asarray(x, dtype=float)
    nx = x.size
    h = float(x[1] - x[0]) if nx > 1 else 0.0
    nk = ls.shape[0]
    j = col - 1

    stable = vt.column_stability(ls, col, kind)
    if not growth_ok and not np.all(stable):
        rows = vt.unstable_entries(ls, col, kind)
        raise vt.UnboundedExponentialError(
            f"column {col} of {kind} has growing dressing entries "
            f"(i, j) = {[(i, col) for i in rows]}"
        )

    ls, c = np.ascontiguousarray(ls.T), np.ascontiguousarray(c.T)  # (3, nk)
    delta = ls - ls[j]
    if side == "right":
        dx, order, start = -h, range(nx - 2, -1, -1), nx - 1
    else:
        dx, order, start = h, range(1, nx), 0
    prop = vt._clipped_exp(d * dx * delta)

    ej = np.zeros((3, nk), dtype=complex)
    ej[j] = 1.0
    row, rhs, tmp, mphi = (np.empty((3, nk), dtype=complex) for _ in range(4))
    # complex array operands skip numpy's per-call scalar conversion; same bits
    n1, n2 = (np.asarray(n, dtype=complex)[:, None, None] for n in (n1, n2))
    hh, half = np.array(0.5 * h, dtype=complex), np.array(0.5 * h * sign, dtype=complex)

    def apply_pot(m, phi):  # into mphi
        np.multiply(n2[m], ls, row)
        np.add(n1[m], row, row)
        if transpose:
            return np.multiply(row, np.einsum("jk,jk->k", c, phi), mphi)
        return np.multiply(c, np.einsum("jk,jk->k", row, phi), mphi)

    phi = ej.copy()
    apply_pot(start, phi)

    if want_traj:
        traj = np.empty((nx, nk, 3), dtype=complex)
        traj[start] = phi.T

    # connection rows: e_j + sign * integral of dressed potential term
    s_dress_sign = -1.0 if kind == "X" else +1.0
    if s_rows:
        rs = slice(s_rows[0] - 1, s_rows[-1])
        delta = delta[rs]
        block, rate = vt.DRESS_BLOCK, s_dress_sign * delta
        reach = np.abs(rate.real).max(axis=0) * (np.max(np.abs(x)) + block * h)
        exact = np.flatnonzero(reach >= vt.EXP_CLIP)
        rate[:, exact] = 0.0  # exact at every step; a zero rate keeps the table finite
        table = np.exp(rate * (np.arange(block)[:, None, None] * dx))  # (block, rows, nk)
        anchor = vt._clipped_exp(s_dress_sign * x[start] * delta)
        dressed = anchor * table  # the block's dressings, one pass per block
        s_sum = np.zeros_like(anchor)
        mrow = mphi[rs]
        f_prev = anchor * mrow
        s_edge_first = f_prev.copy()
        max_integrand = np.abs(f_prev)
        f_cur, fsum, fabs = (np.empty_like(a) for a in (f_prev, f_prev, max_integrand))

    for i, m in enumerate(order, 1):
        # rhs = ej + prop * ((phi - ej) + half * mphi)
        np.subtract(phi, ej, rhs)
        np.multiply(half, mphi, tmp)
        np.add(rhs, tmp, rhs)
        np.multiply(prop, rhs, rhs)
        np.add(ej, rhs, rhs)
        # nilpotency gives U phi_m = U rhs exactly, no recompute needed
        apply_pot(m, rhs)
        np.multiply(half, mphi, tmp)
        np.add(rhs, tmp, phi)
        if want_traj:
            traj[m] = phi.T
        if s_rows:
            if i % block == 0:
                anchor = dress = vt._clipped_exp(s_dress_sign * x[m] * delta)
                np.multiply(anchor, table, dressed)
            else:
                dress = dressed[i % block]
                if exact.size:
                    dress[:, exact] = vt._clipped_exp(s_dress_sign * x[m] * delta[:, exact])
            np.multiply(dress, mrow, f_cur)
            np.add(f_prev, f_cur, fsum)
            np.multiply(hh, fsum, fsum)
            np.add(s_sum, fsum, s_sum)
            max_integrand = np.maximum(max_integrand, np.abs(f_cur, fabs))
            f_prev, f_cur = f_cur, f_prev

    if not np.all(np.isfinite(phi[:, stable])):
        raise vt.UnboundedExponentialError(f"march for column {col} of {kind} overflowed")

    out = {"final": phi.T.copy(), "stable": stable}
    if want_traj:
        out["traj"] = traj
    if s_rows:
        # an entry is trustworthy when its integrand has visibly converged
        # inside the window (or carries no real exponential growth at all)
        ends = np.maximum(np.abs(f_prev), np.abs(s_edge_first))
        no_growth = np.abs((s_dress_sign * delta).real) < vt.STABILITY_TOL
        converged = ends <= 1e-8 * (max_integrand + 1e-300)
        out["s"] = (ej[rs] + sign * s_sum).T
        out["s_defined"] = (no_growth | converged).T
    return out


class InequalityViolatedError(ArithmeticError):
    """A log-density hit a nonpositive argument."""


def f_function(sd: sc.ScatteringData, k) -> float:
    """Arc weight as a real number; pure numerical imaginary parts are cut."""
    val = complex(jp.arc_weight(sd, k))
    if abs(val.imag) > 1e-8:
        raise InequalityViolatedError(f"arc weight has imaginary part {val.imag:.3e} at {k}")
    return val.real


def nu_functions(sd: sc.ScatteringData, k):
    """The four log-densities and the two sign-definite combinations.

    Returns (nu1, nu2, nu3, nu4, nuhat1, nuhat2); raises when a logarithm
    argument fails to be positive.
    """
    k = complex(k)
    w = sp.OMEGA

    def safe_log(val, what):
        val = complex(val)
        if abs(val.imag) > 1e-8 or val.real <= 0.0:
            raise InequalityViolatedError(f"inequality violated: {what} = {val:.6e} at k = {k}")
        return math.log(val.real)

    p1 = 1.0 + sd.eval_r1(w * k) * sd.eval_r2(w * k)
    p2 = 1.0 + sd.eval_r1(w**2 * k) * sd.eval_r2(w**2 * k)
    nu1 = -safe_log(p1, "1 + r1 r2 (rotated once)") / (2 * np.pi)
    nu2 = -safe_log(p2, "1 + r1 r2 (rotated twice)") / (2 * np.pi)
    nu3 = -safe_log(jp.arc_weight(sd, w * k), "arc weight (rotated once)") / (2 * np.pi)
    nu4 = -safe_log(jp.arc_weight(sd, w**2 * k), "arc weight (rotated twice)") / (2 * np.pi)
    return nu1, nu2, nu3, nu4, nu3 - nu1, nu2 + nu3 - nu4


def named_circle_jump(name: str, k0, c, x, t, k):
    """The explicitly displayed pole-removal matrices, by name."""
    w, a, ai, b, inv = sp.OMEGA, jp._A, jp._AI, jp._B, np.linalg.inv
    if name == "Q1":
        return jp._removal(3, k0, c, x, t, k)
    if name == "Q7":
        return jp._q7(k0, c, x, t, k)
    if name == "P1":
        return jp._removal(2, k0, c, x, t, k)
    if name == "Q2":
        return ai @ jp._removal(3, k0, c, x, t, w**2 * k) @ a
    if name == "Q5":
        return b @ ai @ inv(jp._removal(3, k0, c, x, t, 1.0 / (w * k))) @ a @ b
    if name == "Q11":
        r = sp.r_matrix(k)
        inner = np.conj(inv(named_circle_jump("Q5", k0, c, x, t, np.conj(k))))
        return r @ inner.T @ inv(r)
    if name == "P5":
        return b @ ai @ inv(jp._removal(2, k0, c, x, t, 1.0 / (w * k))) @ a @ b
    if name == "P6":
        return b @ a @ inv(jp._removal(2, k0, c, x, t, 1.0 / (w**2 * k))) @ ai @ b
    raise ValueError(f"unknown pole-removal matrix {name}")
