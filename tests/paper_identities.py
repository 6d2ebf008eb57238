"""The paper's displayed formulas, stated in terms of the package's primitives.

No command-line path needs these. Each one is an independent reference that
a test compares the package against: the dense Vandermonde basis behind the
rank-one march, the conjugated Lax pair, whole eigenfunction matrices and the
sectionally analytic M2, the compact-support residue shortcut, the arc weight
and its log-densities, and the pole-removal matrices by their names.
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
