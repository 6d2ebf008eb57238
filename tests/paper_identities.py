"""The paper's displayed formulas, stated in terms of the package's primitives.

No command-line path needs these. Each one is an independent reference that
a test compares the package against: the dense Vandermonde basis behind the
rank-one march, the companion-form Lax pair with its conjugation and its
compatibility residual by matrix products, whole eigenfunction matrices and the
sectionally analytic M2, whole connection matrices, the conjugation matrix
R(k), the compact-support residue shortcut, the closed-form s11 of pure-pole
data, the march one x step at a time, the arc family of a circle point, the
arc weight and its log-densities, the pole-removal matrices by their names,
the breather's 2x2 residue matrix with its determinant and trace formula for
the fields, the N-pole residue solve with one inverse and three solves per
block, and the CSV writer that formats one row at a time.
"""

import math

import numpy as np

import boussinesq_ist
from boussinesq_ist import jumps as jp
from boussinesq_ist import scattering as sc
from boussinesq_ist import solitons as sol
from boussinesq_ist import spectral as sp
from boussinesq_ist import verify as vf
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


def l_tilde(k, u, ux, uxx, v, vx):
    """Companion-form x-part L~ before conjugation by P(k), of shape
    ``np.broadcast(u, ux, uxx, v, vx).shape + (3, 3)``."""
    lt = np.zeros(np.broadcast(u, ux, uxx, v, vx).shape + (3, 3), dtype=complex)
    lt[..., 0, 1] = 1.0
    lt[..., 1, 2] = 1.0
    lt[..., 2, 0] = sp.lam(k) / (12j * sp.SQRT3) - ux / 4.0 - 1j * v / (4.0 * sp.SQRT3)
    lt[..., 2, 1] = -(1.0 + 2.0 * u) / 4.0
    return lt


def z_tilde(k, u, ux, uxx, v, vx):
    """Companion-form t-part Z~ before conjugation by P(k), shaped as L~."""
    la, s3 = sp.lam(k), sp.SQRT3
    zt = np.zeros(np.broadcast(u, ux, uxx, v, vx).shape + (3, 3), dtype=complex)
    zt[..., 0, 0] = -1j * (1.0 + 2.0 * u) / (2.0 * s3)
    zt[..., 0, 2] = -1j * s3
    zt[..., 1, 0] = -la / 12.0 - 1j * ux / (4.0 * s3) - v / 4.0
    zt[..., 1, 1] = 1j * (1.0 + 2.0 * u) / (4.0 * s3)
    zt[..., 2, 0] = -1j * uxx / (4.0 * s3) - vx / 4.0
    zt[..., 2, 1] = -la / 12.0 + 1j * ux / (4.0 * s3) - v / 4.0
    zt[..., 2, 2] = 1j * (1.0 + 2.0 * u) / (4.0 * s3)
    return zt


def lax_residual_matmul(fld, ks):
    """Max entrywise |L~_t - Z~_x + L~ Z~ - Z~ L~| over the interior of the
    field and the k list, by stacked 3x3 matrix products. L~ and Z~ are
    affine in the fields, so L~_t = L~(f_t) - L~(0) and Z~_x = Z~(f_x) -
    Z~(0), with the FD derivatives of :mod:`verify`."""
    core = vf._interior(fld, "lax")
    u, v, hx, ht = fld.u, fld.v, fld.hx, fld.ht
    ux, uxx, uxxx = (vf.deriv(u, "x", m, hx) for m in (1, 2, 3))
    vx, vxx = vf.deriv(v, "x", 1, hx), vf.deriv(v, "x", 2, hx)
    ut, uxt, vt = vf.deriv(u, "t", 1, ht), vf.deriv(ux, "t", 1, ht), vf.deriv(v, "t", 1, ht)
    worst = 0.0
    for k in np.atleast_1d(ks):
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


def lax_residues(k, u, ux, uxx, v, vx):
    """Residues U = P^-1 L~ P - diag(l) and V = P^-1 Z~ P - diag(z) of the
    conjugated Lax pair at a point (k; u, ux, uxx, v, vx)."""
    k = complex(k)
    p = vandermonde(k)
    pinv = vandermonde_inv(k)
    lt, zt = l_tilde(k, u, ux, uxx, v, vx), z_tilde(k, u, ux, uxx, v, vx)
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


def scattering_matrices(data: sc.InitialData, k: complex):
    """Connection matrices (s, sA) with entrywise definedness masks.

    Undefined entries (growing dressing whose integral does not converge in
    the window) are NaN with mask False.
    """
    s = np.full((3, 3), np.nan, dtype=complex)
    sa = np.full((3, 3), np.nan, dtype=complex)
    sdef = np.zeros((3, 3), dtype=bool)
    sadef = np.zeros((3, 3), dtype=bool)
    _, ls, _ = sc._plan([k])
    for col in (1, 2, 3):
        if vt.column_stability(ls, col, "X")[0]:
            res = sc._march(data, [k], "X", col, s_rows=(1, 2, 3))
            s[:, col - 1] = res["s"][0]
            sdef[:, col - 1] = res["s_defined"][0]
        if vt.column_stability(ls, col, "XA")[0]:
            res = sc._march(data, [k], "XA", col, s_rows=(1, 2, 3))
            sa[:, col - 1] = res["s"][0]
            sadef[:, col - 1] = res["s_defined"][0]
    s[~sdef] = np.nan
    sa[~sadef] = np.nan
    return s, sa, sdef, sadef


def r_matrix(k):
    """Conjugation matrix R(k) of the complex-conjugation symmetry."""
    w = sp.OMEGA
    k = np.asarray(k, dtype=complex)
    k2 = k**2
    for root in (1.0, -1.0, w, -w, w**2, -(w**2)):
        if np.any(np.abs(k - root) < 1e-13):
            raise sp.DomainError("R(k) is singular at k in {+-1, +-omega, +-omega^2}")
    out = np.zeros(k.shape + (3, 3), dtype=complex)
    pre = -4.0 * k2
    out[..., 0, 1] = pre * w / ((k2 - 1.0) * (k2 - w**2))
    out[..., 1, 0] = pre * w**2 / ((k2 - 1.0) * (k2 - w))
    out[..., 2, 2] = pre / ((k2 - w) * (k2 - w**2))
    return out


def m2_matrix(data: sc.InitialData, k: complex):
    """The sectionally analytic 3x3 matrix on the pole sector, assembled from
    eigenfunction columns and connection entries; det = 1 where defined."""
    x1 = sc._traj(data, k, "X", 1)
    y2 = sc._traj(data, k, "Y", 2)
    w = sc._adjugate_cross(data, k)
    s11 = sc.s11_batch(data, [k])[0]
    sa22 = sc._entry(data, [k], "XA", 2, 2)
    out = np.empty((data.x.size, 3, 3), dtype=complex)
    out[:, :, 0] = x1
    out[:, :, 1] = y2 / sa22[0]
    out[:, :, 2] = w / s11
    return out


def residue_constant_compact(data: sc.InitialData, k0: complex):
    """Compact-support shortcut -s_12/sdot_11 (real k0) or -s_13/sdot_11.

    The column's dressing grows, so the entry is marched step by step with
    growth allowed; it is exact only when the data vanish outside a bounded
    window."""
    k0 = complex(k0)
    ds11 = sc._s11_derivative(data, k0)
    _, ls, c = sc._plan([k0])
    n1, n2 = data.potential_scalars
    sl = data.support_slice()
    col = 2 if sp.on_real_axis(k0) else 3
    res = march_column_stepwise(data.x[sl], n1[sl], n2[sl], c, ls, col, "X", False, (1,), True)
    return -res["s"][0, 0] / ds11


def s11_reflectionless(poles, k):
    """s11(k) of pure-pole data: one rational factor per regular pole k0.

    With w = OMEGA, a soliton (real k0) contributes
        S(k) = (k - k0)(k - w/k0) / ((k - w k0)(k - 1/k0)),
    a breather (complex k0) contributes
        B(k) = (k - k0)(k - w^2 k0*)(k - w/k0)(k - w^2/k0*)
               / ((k - w k0*)(k - w^2 k0)(k - 1/k0*)(k - w^2/k0)).

    Half derived, half measured.  s11 has a zero at each pole (the residue
    condition) and tends to 1 as k -> oo.  Every factor F obeys
    F(w/k) = F(k), the identity test_s11_rotation_symmetry checks on computed
    s11, and two that the rotation and conjugation symmetries suggest for
    data without reflection: F(k) F(w k) F(w^2 k) = 1 and
    F(k) conj(F(w conj(k))) = 1.  Take F rational of the lowest degree those
    allow.  The first identity pairs the zero k0
    with w/k0, and the third gives each zero z the pole w conj(z): that
    is S for real k0.  For complex k0 the second also needs the zeros
    w^2 k0*, w^2/k0* and their poles, which is B.  That s11 is rational of
    the lowest degree is the measured part: rational fits to computed s11
    returned these zeros and poles to 1e-5 and no others (an extra pair of
    the breather fit cancelled at 0.9967).  Only k0 itself lies in D2.
    """
    k = np.asarray(k, dtype=complex)
    out = np.ones_like(k)
    for k0 in map(complex, poles):
        out *= (k - k0) * _pole_factor_quotient(k0, k)
    return out


def _pole_factor_quotient(k0: complex, k):
    """The factor S or B of the pole k0 in s11_reflectionless, divided by k - k0."""
    w = sp.OMEGA
    if k0.imag == 0.0:
        return (k - w / k0) / ((k - w * k0) * (k - 1 / k0))
    kb = k0.conjugate()
    return ((k - w**2 * kb) * (k - w / k0) * (k - w**2 / kb)
            / ((k - w * kb) * (k - w**2 * k0) * (k - 1 / kb) * (k - w**2 / k0)))


def s11_reflectionless_slope(poles, i):
    """d s11_reflectionless / dk at the pole poles[i], where s11 vanishes:
    the pole's own factor divided by k - k0 there, times the other factors.
    For a soliton the first is (k0 - w/k0) / ((k0 - w k0)(k0 - 1/k0))."""
    poles = [complex(p) for p in poles]
    k0 = poles[i]
    return complex(_pole_factor_quotient(k0, k0)
                   * s11_reflectionless(poles[:i] + poles[i + 1 :], k0))


def march_column_stepwise(x, n1, n2, c, ls, col, kind, want_traj, s_rows, growth_ok=False):
    """:func:`volterra.march_column` one x step at a time.

    Every step forms its own potential row, connection dressing, integrand
    and trapezoid term, where the package forms them once per block of
    DRESS_BLOCK steps; both give the same bits.  With ``growth_ok`` a column
    that grows at some samples is marched rather than refused, and only the
    stable samples must stay finite."""
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

    out = {"final": phi.T.copy()}
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


def segment_of_circle_point(k) -> int:
    """Which of the three arc families a unit-circle point belongs to."""
    phi = float(np.angle(k)) % (2 * np.pi)
    for j, arcs in jp._ARC_BOUNDS.items():
        for lo, hi in arcs:
            if lo <= phi < hi or lo <= phi - 2 * np.pi < hi:
                return j
    raise sp.DomainError(f"circle point {k} sits on an arc junction")


class InequalityViolatedError(ArithmeticError):
    """A log-density hit a nonpositive argument."""


def f_function(sd: jp.ExactReflection, k) -> float:
    """Arc weight as a real number; pure numerical imaginary parts are cut."""
    val = complex(jp.arc_weight(sd, k))
    if abs(val.imag) > 1e-8:
        raise InequalityViolatedError(f"arc weight has imaginary part {val.imag:.3e} at {k}")
    return val.real


def nu_functions(sd: jp.ExactReflection, k):
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
        r = r_matrix(k)
        inner = np.conj(inv(named_circle_jump("Q5", k0, c, x, t, np.conj(k))))
        return r @ inner.T @ inv(r)
    if name == "P5":
        return b @ ai @ inv(jp._removal(2, k0, c, x, t, 1.0 / (w * k))) @ a @ b
    if name == "P6":
        return b @ a @ inv(jp._removal(2, k0, c, x, t, 1.0 / (w**2 * k))) @ ai @ b
    raise ValueError(f"unknown pole-removal matrix {name}")


def breather_a_matrix(k0, c, x, t):
    """The breather's 2x2 residue matrix A in its bounded gauge on a
    broadcast (x, t) grid: A = a0 diag(ct e^(mu_1 x + nu_1 t),
    dt e^(mu_2 x + nu_2 t)) with a constant Cauchy matrix a0, the pole's
    rates first and its conjugate partner's second."""
    k0 = complex(k0)
    kb, w = np.conj(k0), sp.OMEGA
    ct = 1j * (k0**2 - 1.0) / (2.0 * sp.SQRT3 * k0**2) * c
    d = sol.derived_conjugate_constant(k0, c)
    dt = 1j * (kb**2 - w**2) / (2.0 * sp.SQRT3 * kb**2) * w**2 * d
    (mu1, nu1), (mu2, nu2) = sp.pole_rates(k0), sol._partner_rates(k0)
    a0 = np.array([[1.0 / mu1, 1.0 / (sp.eval_l(1, k0) - sp.eval_l(2, kb))],
                   [1.0 / (sp.eval_l(3, kb) - sp.eval_l(3, k0)), 1.0 / mu2]])
    e1 = ct * np.exp(mu1 * x + nu1 * t)
    e2 = dt * np.exp(mu2 * x + nu2 * t)
    a = np.empty(np.broadcast(x, t).shape + (2, 2), dtype=complex)
    a[..., 0, 0] = a0[0, 0] * e1
    a[..., 0, 1] = a0[0, 1] * e2
    a[..., 1, 0] = a0[1, 0] * e1
    a[..., 1, 1] = a0[1, 1] * e2
    return a


def det_i_minus_a(k0, c, x, t):
    """det(I - A) on a broadcast grid, via 1 - 2 Re A11 + h |A11|^2."""
    a11 = breather_a_matrix(k0, c, np.asarray(x), np.asarray(t))[..., 0, 0]
    return 1.0 - 2.0 * a11.real + sol.h_indicator(k0) * np.abs(a11) ** 2


def breather_trace_fields(k0, c, x, t):
    """(u, v, n31) of the breather by the 2x2 trace formula on a broadcast
    (x, t) grid, with K = (I - A)^-1, M = diag(mu), L = diag(lam_x) and
    W = A M + [L, A]: n31 = -2i sqrt(3) tr(K W) and u = -6 (tr(K W K W) +
    tr(K (W M + [L, W]))), v likewise in t. Complex; the imaginary parts are
    rounding."""
    k0 = complex(k0)
    kb = np.conj(k0)
    (mu1, nu1), (mu2, nu2) = sp.pole_rates(k0), sol._partner_rates(k0)
    mu, nu = np.array([mu1, mu2]), np.array([nu1, nu2])
    lam_x = np.array([sp.eval_l(1, k0), sp.eval_l(3, kb)])
    lam_t = np.array([sp.eval_z(1, k0), sp.eval_z(3, kb)])
    a = breather_a_matrix(k0, c, x, t)

    def brak(lam, m):  # [diag(lam), m]
        out = np.zeros_like(m)
        out[..., 0, 1] = (lam[0] - lam[1]) * m[..., 0, 1]
        out[..., 1, 0] = (lam[1] - lam[0]) * m[..., 1, 0]
        return out

    a_mu, a_nu = a * mu, a * nu
    w = a_mu + brak(lam_x, a)
    wt = a_nu + brak(lam_t, a)
    w_x = a_mu * mu + brak(lam_x, a_mu)
    w_t = a_nu * mu + brak(lam_x, a_nu)
    kinv = np.linalg.inv(np.eye(2) - a)
    kw = kinv @ w

    def tr(m):
        return np.trace(m, axis1=-2, axis2=-1)

    n31 = -2j * sp.SQRT3 * tr(kw)
    u = -6.0 * (tr(kw @ kw) + tr(kinv @ (w_x + brak(lam_x, w))))
    v = -6.0 * (tr(kinv @ wt @ kw) + tr(kinv @ (w_t + brak(lam_t, w))))
    return u, v, n31


def _check_condition_by_inverse(m_eq, x, t):
    """Every point's 1-norm condition number, from np.linalg.inv, held to
    CONDITION_LIMIT; an exact zero pivot is refused at the point of smallest
    |det|, a NaN |det| reading inf."""
    try:
        inv = np.linalg.inv(m_eq)
    except np.linalg.LinAlgError:
        det = np.fmin(np.abs(np.linalg.det(m_eq)), np.inf)
        i, cond_i = int(np.argmin(det)), np.inf
    else:
        cond = np.abs(m_eq).sum(axis=1).max(axis=1) * np.abs(inv).sum(axis=1).max(axis=1)
        i = int(np.argmax(cond))
        cond_i = cond[i]
    if not cond_i <= sol.CONDITION_LIMIT:
        raise sol.NearSingularSystemError(
            f"residue system condition number {cond_i:.3e} exceeds {sol.CONDITION_LIMIT:.0e}"
            f" at (x, t) = ({x[i].real:.6g}, {t[i].real:.6g})"
        )


def solve_residues_four_calls(entries, x, t):
    """:func:`solitons._solve_residues` with four LAPACK calls per block: an
    inverse for the condition guard, then one solve each for the residue
    vectors and their x- and t-derivatives, on complex copies of the whole
    grid. Returns (n31, n31_x, n31_t)."""
    npol = len(entries)
    shape = np.broadcast(x, t).shape
    pts = np.array([e.point for e in entries])
    cols = np.array([e.col for e in entries])
    srcs = np.array([e.src for e in entries])
    coef0 = np.array([e.coef0 for e in entries])
    rates_x = np.array([e.rate_x for e in entries])
    rates_t = np.array([e.rate_t for e in entries])
    mask3 = cols == 3

    s = np.zeros((npol, npol), dtype=complex)
    for i in range(npol):
        for j in range(npol):
            if i != j and cols[j] == srcs[i]:
                s[i, j] = 1.0 / (pts[i] - pts[j])

    xg, tg = np.broadcast_arrays(np.asarray(x, dtype=complex), np.asarray(t, dtype=complex))
    xf, tf = xg.reshape(-1), tg.reshape(-1)
    out = np.empty((3, xf.size), dtype=complex)
    step = max(1, sol.BLOCK_ENTRIES // (npol * npol))
    for lo in range(0, xf.size, step):
        blk = slice(lo, lo + step)
        expo = rates_x[None] * xf[blk, None] + rates_t[None] * tf[blk, None]
        coef = coef0[None] * np.exp(expo)
        if not np.all(np.isfinite(coef)):
            raise ArithmeticError("residue coefficients overflow on this grid")

        m = np.broadcast_to(np.eye(npol, dtype=complex), coef.shape[:1] + (npol, npol)).copy()
        m -= coef[:, :, None] * s[None]
        rhs = np.zeros(coef.shape + (3,), dtype=complex)
        rhs[:, np.arange(npol), srcs - 1] = coef

        scale = np.max(np.abs(m), axis=2)
        scale = np.where(scale > 1.0, scale, 1.0)
        m_eq = m / scale[:, :, None]
        rhs_eq = rhs / scale[:, :, None]
        _check_condition_by_inverse(m_eq, xf[blk], tf[blk])

        rho = np.linalg.solve(m_eq, rhs_eq)
        rho_x = np.linalg.solve(m_eq, (rates_x[None, :, None] * rho) / scale[:, :, None])
        rho_t = np.linalg.solve(m_eq, (rates_t[None, :, None] * rho) / scale[:, :, None])
        out[:, blk] = np.stack((rho, rho_x, rho_t))[:, :, mask3, :].sum(axis=(2, 3))
    return tuple(out.reshape((3,) + shape))


def write_csv_rowwise(path, command, params, columns):
    """The comment header, the column line, then one ``%.17g`` row per index
    of the equal-length 1-d arrays in the dict ``columns``, in its order."""
    cols = list(columns)
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# boussinesq-ist {boussinesq_ist.__version__}\n# command = {command}\n")
        for key in sorted(params):
            fh.write(f"# {key} = {params[key]}\n")
        fh.write("# columns = " + ",".join(cols) + "\n" + ",".join(cols) + "\n")
        for values in zip(*columns.values()):
            fh.write(row % values)
