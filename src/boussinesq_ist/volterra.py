"""Batched product-integration march for the x-part eigenfunction columns.

Each eigenfunction column obeys a Volterra equation whose kernel is a
diagonal exponential dressing of the conjugated potential, so a trapezoidal
product rule marches it exactly in the dressing and second order in the
potential, one implicit step per grid interval.  The potential is rank one,
U = c (n1 + n2 l)^T with c = P^-1 e3, so U^2 = 0: the implicit factor
(I + a U)^-1 equals I - a U, which keeps every step explicit, and applying U
(or U^T for the adjugate flows) costs two length-3 products per k.

Only the connection rows a caller requests are integrated.  Their dressing
exp(+-x (l_i - l_j)) is an exact exp every DRESS_BLOCK steps times a
per-march table over the block; samples whose requested rows reach EXP_CLIP
stay exact.  The march runs in
blocks that start at those anchors.  Once per block it forms every step's
potential row n1 + n2 l and, from the U phi the steps left, the dressed
integrand, its trapezoid terms and its maximum, and adds the terms onto the
running integral as a running sum: one add per step, in step order.  Per step
it only updates the state, in eight ufunc calls with preallocated outputs
(the dot product through np.einsum's C kernel), straight into the step's
trajectory slot when one is kept.  So the bits are a step-by-step march's.
Everything is vectorized over a batch of spectral parameters k,
component-major.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

# np.einsum's kernel without its Python dispatch layers
from numpy._core.multiarray import c_einsum as _c_einsum

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


class UnboundedExponentialError(ArithmeticError):
    """Requested column has an exponentially growing dressing entry."""


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
    s_rows=(),
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
    s_rows : consecutive connection rows (1..3) to integrate; () for none

    The state is held component-major, (3, nk).  Returns a dict with keys
    ``traj`` (nx, nk, 3) when ``want_traj``, and ``s`` and ``s_defined``
    (nk, len(s_rows)) when rows are requested.  A column whose dressing
    grows at any sample is refused with UnboundedExponentialError.
    """
    sign, d, side, transpose = KINDS[kind]
    x = np.asarray(x, dtype=float)
    nx = x.size
    h = float(x[1] - x[0]) if nx > 1 else 0.0
    nk = ls.shape[0]
    j = col - 1

    if not np.all(column_stability(ls, col, kind)):
        rows = unstable_entries(ls, col, kind)
        raise UnboundedExponentialError(
            f"column {col} of {kind} has growing dressing entries "
            f"(i, j) = {[(i, col) for i in rows]}"
        )

    ls, c = np.ascontiguousarray(ls.T), np.ascontiguousarray(c.T)  # (3, nk)
    delta = ls - ls[j]
    if side == "right":
        dx, ms = -h, np.arange(nx - 1, -1, -1)  # grid index of each march step
    else:
        dx, ms = h, np.arange(nx)
    prop = _clipped_exp(d * dx * delta)

    block = DRESS_BLOCK
    ej = np.zeros((3, nk), dtype=complex)
    ej[j] = 1.0
    rhs, tmp = (np.empty((3, nk), dtype=complex) for _ in range(2))
    dot = np.empty(nk, dtype=complex)
    # per block: pot[r] is step r's potential row n1 + n2 l, then its U phi
    pot = np.empty((block, 3, nk), dtype=complex)
    # U v = c (row . v), or row (c . v) transposed: (dot operand, factor, row)
    steps = [(c, row, row) if transpose else (row, c, row) for row in pot]
    # complex array operands skip numpy's per-call scalar conversion; same bits
    n1, n2 = (np.asarray(n, dtype=complex)[ms, None, None] for n in (n1, n2))
    hh, half = np.array(0.5 * h, dtype=complex), np.array(0.5 * h * sign, dtype=complex)
    if want_traj:  # each step writes its state straight into its grid slot
        traj = np.empty((nx, nk, 3), dtype=complex)
        slots = traj.transpose(0, 2, 1)[::-1 if side == "right" else 1]  # march order
        phi = slots[0]
        phi[...] = ej
    else:
        phi = ej.copy()

    # connection rows: e_j + sign * integral of dressed potential term
    s_dress_sign = -1.0 if kind == "X" else +1.0
    if s_rows:
        rs = slice(s_rows[0] - 1, s_rows[-1])
        delta = delta[rs]
        rate = s_dress_sign * delta
        reach = np.abs(rate.real).max(axis=0) * (np.max(np.abs(x)) + block * h)
        exact = np.flatnonzero(reach >= EXP_CLIP)
        rate[:, exact] = 0.0  # exact at every step; a zero rate keeps the table finite
        table = np.exp(rate * (np.arange(block)[:, None, None] * dx))  # (block, rows, nk)
        # f[1 + r] is the integrand of block step r, f[0] that of the step before
        f = np.empty((block + 1,) + delta.shape, dtype=complex)
        # acc[0] is the running integral; acc[1 + r] holds block step r's
        # dressing, then the block's trapezoid terms
        acc = np.zeros_like(f)
        s_sum = acc[0]
        max_integrand = np.zeros(delta.shape)
        # where per-call costs dominate, a batch with no more entries than a
        # block has steps takes the exact dressings of `block` blocks in one
        # exp call and adds each block's terms in one accumulate, which runs
        # one C loop per entry
        per = block if delta.size <= block else 1
        anchors = np.empty((per,) + delta.shape, dtype=complex)

    mul, add, sub, einsum = np.multiply, np.add, np.subtract, _c_einsum
    for i0 in range(0, nx, block):  # blocks start at the exact dressing anchors
        nb = min(block, nx - i0)
        mul(n2[i0 : i0 + nb], ls, pot[:nb])
        add(n1[i0 : i0 + nb], pot[:nb], pot[:nb])
        lo = i0 == 0  # step 0 is the boundary value ej and opens no interval
        if lo:
            a, b, row = steps[0]
            einsum("jk,jk->k", a, ej, out=dot)  # phi is ej
            mul(b, dot, row)
            mul(half, row, tmp)
        outs = slots[i0 + lo : i0 + nb] if want_traj else repeat(phi)
        for (a, b, row), out in zip(steps[lo:nb], outs):
            # rhs = ej + prop * ((phi - ej) + half * mphi), tmp = half * mphi
            sub(phi, ej, rhs)
            add(rhs, tmp, rhs)
            mul(prop, rhs, rhs)
            add(ej, rhs, rhs)
            # nilpotency gives U phi_m = U rhs exactly, no recompute needed
            einsum("jk,jk->k", a, rhs, out=dot)
            mul(b, dot, row)
            mul(half, row, tmp)
            phi = add(rhs, tmp, out)
        if s_rows:
            nth = i0 // block % per
            if not nth:
                xa = s_dress_sign * x[ms[i0 : i0 + block * per : block]]
                anchors[: xa.size] = _clipped_exp(xa[:, None, None] * delta)
            anchor = anchors[nth]
            dress = mul(anchor, table[:nb], acc[1 : nb + 1])
            dress[0] = anchor  # the anchor step takes the exact dressing
            if exact.size:
                dress[1:, :, exact] = _clipped_exp(
                    (s_dress_sign * x[ms[i0 + 1 : i0 + nb]])[:, None, None] * delta[:, exact]
                )
            # out of place: numpy multiplies a lone complex element in place
            # without a fused multiply-add, which would change the bits
            mul(dress, pot[:nb, rs], f[1 : nb + 1])
            if not i0:
                s_edge_first = f[1].copy()
            terms = acc[: nb + 1 - lo]
            add(f[lo:nb], f[lo + 1 : nb + 1], terms[1:])
            mul(hh, terms[1:], terms[1:])
            # onto the running integral one add per step, in step order: a
            # pairwise block sum would change the bits
            if per > 1:
                add.accumulate(terms, axis=0, out=terms)
                s_sum[...] = terms[-1]
            else:
                for term in terms[1:]:
                    add(s_sum, term, s_sum)
            np.maximum(max_integrand, np.abs(f[1 : nb + 1]).max(axis=0), out=max_integrand)
            f[0] = f[nb]

    if not np.all(np.isfinite(phi)):
        raise UnboundedExponentialError(f"march for column {col} of {kind} overflowed")

    out = {"traj": traj} if want_traj else {}
    if s_rows:
        # an entry is trustworthy when its integrand has visibly converged
        # inside the window (or carries no real exponential growth at all)
        ends = np.maximum(np.abs(f[0]), np.abs(s_edge_first))
        no_growth = np.abs((s_dress_sign * delta).real) < STABILITY_TOL
        converged = ends <= 1e-8 * (max_integrand + 1e-300)
        out["s"] = (ej[rs] + sign * s_sum).T
        out["s_defined"] = (no_growth | converged).T
    return out
