"""Batched product-integration march for the x-part eigenfunction columns.

Each eigenfunction column obeys a Volterra equation whose kernel is a
diagonal exponential dressing of the conjugated potential, so a trapezoidal
product rule marches it exactly in the dressing and second order in the
potential, one implicit step per grid interval.  The potential is rank one,
U = c (n1 + n2 l)^T with c = P^-1 e3, so U^2 = 0: the implicit factor
(I + a U)^-1 equals I - a U, which keeps every step explicit, and applying U
(or U^T for the adjugate flows) costs two length-3 products per k.

The connection dressing exp(+-x (l_i - l_j)) is an exact exp every DRESS_BLOCK
steps times a per-march table over the block; samples reaching EXP_CLIP stay exact.
Everything is vectorized over a batch of spectral parameters k.
"""

from __future__ import annotations

import numpy as np

STABILITY_TOL = 1e-10
EXP_CLIP = 600.0
DRESS_BLOCK = 16  # steps between exact connection dressings

# (integral sign, dressing direction, march side, transpose potential)
KINDS = {
    "X": (-1.0, +1.0, "right", False),
    "XA": (+1.0, -1.0, "right", True),
    "Y": (+1.0, +1.0, "left", False),
    "YA": (-1.0, -1.0, "left", True),
}


def _clipped_exp(z, limit=EXP_CLIP):
    """exp with the real part saturated at +-limit to keep dressings finite."""
    z = np.asarray(z, dtype=complex)
    return np.exp(np.clip(z.real, -limit, limit) + 1j * z.imag)


class UnboundedExponentialError(ValueError):
    """Requested column has an exponentially growing dressing entry."""

    def __init__(self, msg, entry=None):
        super().__init__(msg)
        self.entry = entry


def _decay_rates(ls, col, kind):
    """Decay rate of each dressing entry along the march; negative grows."""
    _, d, side, _ = KINDS[kind]
    proj = d * (ls - ls[..., col - 1 : col]).real
    return proj if side == "right" else -proj


def column_stability(ls, col, kind):
    """Boolean mask over the k-batch: True where the march stays bounded."""
    return np.all(_decay_rates(ls, col, kind) >= -STABILITY_TOL, axis=-1)


def unstable_entries(ls, col, kind):
    """Row indices i whose dressing e^{...(l_i - l_col)} grows along the march."""
    bad = _decay_rates(ls, col, kind) < -STABILITY_TOL
    return [i + 1 for i in range(3) if np.any(bad[..., i])]


def march_column(
    x,
    n1,
    n2,
    c,
    ls,
    col,
    kind,
    want_traj=False,
    want_s=False,
    growth_ok=False,
):
    """March one eigenfunction column over a uniform x grid.

    Parameters
    ----------
    x : (nx,) ascending uniform grid
    n1, n2 : (nx,) potential scalars
    c : (nk, 3) factor P^-1 e3 of the conjugated potential
        U = c (n1 + n2 l)^T (:func:`spectral.potential_factor`); the kinds
        flagged in ``KINDS`` as transposed march with U^T
    ls : (nk, 3) exponential rates l_j(k)
    col : column index 1..3
    kind : "X" | "XA" | "Y" | "YA"

    Returns a dict with keys ``final`` (nk, 3), optional ``traj``
    (nx, nk, 3), optional ``s`` and ``s_defined`` (nk, 3) for the connection
    matrix column, and ``stable`` (nk,) the stability mask that was applied.
    """
    sign, d, side, transpose = KINDS[kind]
    x = np.asarray(x, dtype=float)
    nx = x.size
    h = float(x[1] - x[0]) if nx > 1 else 0.0
    nk = ls.shape[0]
    j = col - 1

    stable = column_stability(ls, col, kind)
    if not growth_ok and not np.all(stable):
        rows = unstable_entries(ls, col, kind)
        raise UnboundedExponentialError(
            f"column {col} of {kind} has growing dressing entries "
            f"(i, j) = {[(i, col) for i in rows]}",
            entry=(rows[0], col) if rows else None,
        )

    delta = ls - ls[..., j : j + 1]  # (nk, 3)
    if side == "right":
        dx, order, start = -h, range(nx - 2, -1, -1), nx - 1
    else:
        dx, order, start = h, range(1, nx), 0
    prop = _clipped_exp(d * dx * delta)

    ej = np.zeros((nk, 3), dtype=complex)
    ej[:, j] = 1.0

    def apply_pot(m, phi):
        row = n1[m] + n2[m] * ls
        if transpose:
            return row * np.einsum("kj,kj->k", c, phi)[:, None]
        return c * np.einsum("kj,kj->k", row, phi)[:, None]

    phi = ej.copy()
    mphi = apply_pot(start, phi)

    if want_traj:
        traj = np.empty((nx, nk, 3), dtype=complex)
        traj[start] = phi

    # connection column: e_j + sign * integral of dressed potential term
    s_dress_sign = -1.0 if kind == "X" else +1.0
    if want_s:
        block, rate = DRESS_BLOCK, s_dress_sign * delta
        reach = np.abs(rate.real).max(axis=1) * (np.max(np.abs(x)) + block * h)
        exact = np.flatnonzero(reach >= EXP_CLIP)
        rate[exact] = 0.0  # exact at every step; a zero rate keeps the table finite
        table = np.empty((block, nk, 3), dtype=complex)
        for r in range(block):
            table[r] = np.exp(rate * (r * dx))
        anchor = _clipped_exp(s_dress_sign * x[start] * delta)
        s_sum = np.zeros((nk, 3), dtype=complex)
        f_prev = anchor * mphi
        s_edge_first = f_prev.copy()
        max_integrand = np.abs(f_prev)

    half = 0.5 * h * sign
    for i, m in enumerate(order, 1):
        rhs = ej + prop * ((phi - ej) + half * mphi)
        # nilpotency gives U phi_m = U rhs exactly, no recompute needed
        mphi = apply_pot(m, rhs)
        phi = rhs + half * mphi
        if want_traj:
            traj[m] = phi
        if want_s:
            if i % block == 0:
                anchor = dress = _clipped_exp(s_dress_sign * x[m] * delta)
            else:
                dress = anchor * table[i % block]
                if exact.size:
                    dress[exact] = _clipped_exp(s_dress_sign * x[m] * delta[exact])
            f_cur = dress * mphi
            s_sum += 0.5 * h * (f_prev + f_cur)
            max_integrand = np.maximum(max_integrand, np.abs(f_cur))
            f_prev = f_cur

    if not np.all(np.isfinite(phi[stable])):
        raise UnboundedExponentialError(
            f"march for column {col} of {kind} overflowed", entry=(None, col)
        )

    out = {"final": phi, "stable": stable}
    if want_traj:
        out["traj"] = traj
    if want_s:
        # an entry is trustworthy when its integrand has visibly converged
        # inside the window (or carries no real exponential growth at all)
        ends = np.maximum(np.abs(f_prev), np.abs(s_edge_first))
        no_growth = np.abs((s_dress_sign * delta).real) < STABILITY_TOL
        converged = ends <= 1e-8 * (max_integrand + 1e-300)
        out["s"] = ej + sign * s_sum
        out["s_defined"] = no_growth | converged
    return out
