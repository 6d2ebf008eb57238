"""Exact solution synthesis from spectral data.

One-solitons (sech^2 traveling waves) and single breathers as
log-derivatives u = 6 (log f)_xx of their Hirota tau-function f, a sum of
two or four exponentials evaluated by one routine, and general N-pole
solutions obtained by solving the residue conditions of the pole-only
reconstruction problem as a small dense linear system per grid point.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from boussinesq_ist.spectral import (
    OMEGA,
    SQRT3,
    DomainError,
    Subregion,
    classify,
    eval_l,
    eval_z,
    on_real_axis,
    pole_rates,
)

#: default synthesis grid: x in [-DEFAULT_LX, DEFAULT_LX] with step DEFAULT_HX
DEFAULT_LX = 30.0
DEFAULT_HX = 0.01
NONREAL_COMBO_TOL = 1e-10
CONDITION_LIMIT = 1e12
#: matrix entries per block of the residue solve, which bounds its memory
BLOCK_ENTRIES = 1 << 16
IM_U_TOL = 1e-9


def _complex_subregion(k0) -> Subregion:
    """The complex subregion of D2 holding the pole k0; DomainError when it
    lies in none of the four."""
    sub = classify(k0).subregion
    if sub not in (Subregion.REG_R, Subregion.REG_L, Subregion.SING_R, Subregion.SING_L):
        raise DomainError(f"pole {k0} lies outside the complex subregions of the pole sector")
    return sub


class SingularSolitonError(ArithmeticError):
    """Residue constant puts the real pole on the singular ray."""


class SingularBreatherError(ArithmeticError):
    """Complex pole in a singular subregion: det(I - A) vanishes somewhere."""


class NonRealComboError(ArithmeticError):
    """i(w^2 k0^2 - w) c is not real, contradicting the positivity law."""


class NearSingularSystemError(ArithmeticError):
    """Residue linear system is numerically near-singular."""


def point_count(extent: float, h: float) -> int:
    """Points of a uniform grid with step h over an interval of length extent;
    ValueError when that count is not finite."""
    steps = extent / h
    if not np.isfinite(steps):
        raise ValueError(f"a grid of extent {extent} and step {h} has no finite point count")
    return int(round(steps)) + 1


def uniform_step(v, what: str) -> float:
    """Step of the grid v; ValueError naming ``what`` unless v increases with
    every step within 1e-9 of the first, relative."""
    steps = np.diff(v)
    if not steps[0] > 0 or np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
        raise ValueError(f"{what} must be uniform and increasing")
    return float(steps[0])


@dataclass(frozen=True)
class Grid:
    x: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "t", np.atleast_1d(np.asarray(self.t, dtype=float)))


@dataclass
class SolutionField:
    """Real field u (and optionally v) sampled on a rectangular (x, t) grid."""

    x: np.ndarray
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray | None = None
    n31: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def hx(self) -> float:
        """The x step; ValueError unless the x grid is uniform."""
        return uniform_step(self.x, "x grid") if self.x.size > 1 else 0.0

    @property
    def ht(self) -> float:
        """The t step; ValueError unless the time levels are uniform."""
        return uniform_step(self.t, "t grid") if self.t.size > 1 else 0.0


def _realize(arr, what, grid):
    """Real part of the (nt, nx) field; refuses |Im| above IM_U_TOL at any grid point."""
    if not np.all(np.isfinite(arr)):
        raise ArithmeticError(f"{what} contains non-finite values")
    im = np.abs(arr.imag)
    if im.size and im.max() > IM_U_TOL:
        it, ix = np.unravel_index(np.argmax(im), im.shape)
        raise ArithmeticError(
            f"{what} has imaginary part {im[it, ix]:.3e} > {IM_U_TOL:g}"
            f" at (x, t) = ({grid.x[ix]:.6g}, {grid.t[it]:.6g})"
        )
    return np.ascontiguousarray(arr.real)


# ----------------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------------


def classify_one_soliton(k0: float, c: complex) -> str:
    """'zero' | 'regular' | 'singular' for a real pole in (-1,0) u (1,inf):
    the sign of i(w^2 k0^2 - w) c separates regular from singular."""
    k0 = float(k0)
    if not (-1.0 < k0 < 0.0 or k0 > 1.0):
        raise DomainError("real pole must lie in (-1, 0) or (1, oo)")
    if c == 0:
        return "zero"
    combo = 1j * (OMEGA**2 * k0**2 - OMEGA) * c
    if abs(combo.imag) > NONREAL_COMBO_TOL * max(1.0, abs(combo)):
        raise NonRealComboError(
            f"i(w^2 k0^2 - w) c = {combo:.6e} is not real for k0 = {k0}"
        )
    return "regular" if combo.real >= 0.0 else "singular"


@dataclass(frozen=True)
class PoleData:
    k0: complex
    c: complex
    kind: str  # "soliton" | "breather"


def wave_poles(pairs) -> tuple[PoleData, ...]:
    """The poles of (pole, residue constant) pairs that add a wave.

    Every pair is classified before any is refused, so a pole outside the
    pole sector or a non-real soliton combination is reported first; then
    the first singular pair is refused, and pairs with a zero constant,
    which add no wave, are dropped.
    """
    classified = []
    for k0, c in pairs:
        k0, c = complex(k0), complex(c)
        if on_real_axis(k0):
            singular = classify_one_soliton(k0.real, c) == "singular"
            classified.append((PoleData(complex(k0.real), c, "soliton"), singular))
        else:
            singular = h_indicator(k0) <= 1.0 and c != 0  # f > 0 everywhere iff h > 1
            classified.append((PoleData(k0, c, "breather"), singular))
    for p, singular in classified:
        if singular and p.kind == "soliton":
            raise SingularSolitonError(f"pole {p.k0.real} with c = {p.c} generates a singular wave")
        if singular:
            raise SingularBreatherError(f"pole {p.k0} lies in the singular subregion")
    return tuple(p for p, _ in classified if p.c != 0)


def derived_conjugate_constant(k0: complex, c: complex) -> complex:
    """Second residue constant of a complex pole, fixed by conjugation symmetry."""
    kb = np.conj(k0)
    return (kb**2 - 1.0) / (OMEGA**2 * (OMEGA**2 - kb**2)) * np.conj(c)


def _partner_rates(k0: complex):
    """(l_3 - l_2, z_3 - z_2) at conj(k0): the x- and t-rates of the residue
    at the conjugate partner of the complex pole k0."""
    kb = np.conj(k0)
    return eval_l(3, kb) - eval_l(2, kb), eval_z(3, kb) - eval_z(2, kb)


# ----------------------------------------------------------------------------
# one pole's tau-function
# ----------------------------------------------------------------------------


def soliton_shape_factor(k0: float, c: complex) -> complex:
    """Square root of i w^2 (k0^2 - w^2) c / (sqrt(3) k0 (k0^2 - 1)).

    Its square is >= 0 exactly for regular residue constants; the sign of the
    root never affects the field.
    """
    k0 = float(k0)
    val = 1j * OMEGA**2 * (k0**2 - OMEGA**2) * c / (SQRT3 * k0 * (k0**2 - 1.0))
    return complex(val) ** 0.5


def residue_constant_from_position(k0: float, x0: float) -> complex:
    """Residue constant whose one-soliton sits at x0 when t = 0."""
    k0 = float(k0)
    f2 = np.exp((k0**2 - 1.0) / (2.0 * k0) * x0)
    return complex(f2 * SQRT3 * k0 * (k0**2 - 1.0) / (1j * OMEGA**2 * (k0**2 - OMEGA**2)))


def h_indicator(k0: complex) -> float:
    """Hirota's coupling h in the breather's f = 1 - 2 Re A11 + h |A11|^2.

    f > 0 for every A11 exactly when h > 1. h exceeds 4 on the regular
    subregions and stays below -1/2 on the singular ones, which is what
    separates smooth breathers from blow-up.
    """
    k0 = complex(k0)
    _complex_subregion(k0)
    kr, ki = k0.real, k0.imag
    r2 = abs(k0) ** 2
    den = 2.0 * ki * (SQRT3 * kr - ki) * (r2 - 1.0) ** 2
    if abs(den) < 1e-300:
        raise DomainError("indicator has poles on |k0| = 1 and the sector boundary")
    return (ki + SQRT3 * kr) ** 2 * (1.0 + r2 + r2**2) / den


def breather_constant_for_position(k0: complex, x0: float, phase: float) -> complex:
    """Residue constant placing the breather envelope center near x0 at t=0."""
    k0 = complex(k0)
    rate = pole_rates(k0)[0]
    scale = abs(rate) * 2.0 * SQRT3 * abs(k0) ** 2 / abs(k0**2 - 1.0)
    return scale * np.exp(-rate.real * x0) * np.exp(1j * phase)


def _tau_terms(p: PoleData):
    """Hirota's tau-function f of the pole p as its exponentials' (x-rate,
    t-rate, log weight): f = 1 + e^eta for a soliton (real triples) and
    f = 1 + e^eta + e^conj(eta) + h e^(eta + conj(eta)) for a breather, with
    eta = rate_x x + rate_t t + delta from the pole's rates and
    h = h_indicator(k0); f = 1 when c = 0."""
    if p.c == 0:
        return [(0.0, 0.0, 0.0)]
    rate_x, rate_t = pole_rates(p.k0)
    if p.kind == "soliton":  # e^delta is the squared shape factor, > 0 for a regular constant
        delta = 2.0 * np.log(abs(soliton_shape_factor(p.k0.real, p.c).real))
        return [(0.0, 0.0, 0.0), (rate_x.real, rate_t.real, delta)]
    # e^eta = -A11, the breather's residue entry ct e^(rate_x x + rate_t t) / rate_x
    ct = 1j * (p.k0**2 - 1.0) / (2.0 * SQRT3 * p.k0**2) * p.c
    eta = (rate_x, rate_t, np.log(-ct / rate_x))
    log_h = np.log(complex(h_indicator(p.k0)))  # log(-|h|) = log|h| + i pi on the singular side
    both = (2.0 * rate_x.real, 2.0 * rate_t.real, 2.0 * eta[2].real + log_h)
    return [(0.0, 0.0, 0.0), eta, tuple(np.conj(eta)), both]


def _centre(terms):
    """The x where f's first exponential has modulus 1 at t = 0; None when f = 1."""
    return float(-np.real(terms[1][2]) / np.real(terms[1][0])) if len(terms) > 1 else None


def pole_envelope(p: PoleData):
    """(decay rate, |centre|) of the x-envelope that the regular pole p
    generates at t = 0: the wave decays like exp(-rate |x - centre|)."""
    terms = _tau_terms(p)
    return abs(np.real(terms[1][0])), abs(_centre(terms))


def _tau_field(terms, grid: Grid, what: str) -> SolutionField:
    """u = 6 (log f)_xx, v = 6 (log f)_xt and n31 = 2i sqrt(3) (log f)_x on
    the grid for f, the sum of w_i = e^(a_i x + b_i t + c_i) over the terms
    (a_i, b_i, c_i). f f_xx - f_x^2 and f f_xt - f_x f_t are sums over pairs,
    w_i w_j (a_i - a_j)^2 and w_i w_j (a_i - a_j)(b_i - b_j), so nothing
    cancels; each w_i is divided by its point's largest, so nothing
    overflows. A grid point where f <= 0 is refused by name."""
    expo = [a * grid.x[None, :] + b * grid.t[:, None] + c for a, b, c in terms]
    top = functools.reduce(np.maximum, (e.real for e in expo))
    w = [np.exp(e - top) for e in expo]
    del expo, top
    f = sum(w)
    bad = f.real <= 0.0  # never for a soliton, whose terms are positive
    if np.any(bad):
        it, ix = np.argwhere(bad)[0]
        raise SingularBreatherError(
            f"det(I - A) <= 0 at (x, t) = ({grid.x[ix]:.6g}, {grid.t[it]:.6g})")
    n31 = sum(a * wi for (a, _, _), wi in zip(terms, w)) / f * (2j * SQRT3)
    u, v = np.zeros_like(f), np.zeros_like(f)  # 6 (f f_xx - f_x^2), 6 (f f_xt - f_x f_t)
    for i, j in itertools.combinations(range(len(terms)), 2):
        (ai, bi, _), (aj, bj, _) = terms[i], terms[j]
        ww = w[i] * w[j]
        u += 6.0 * (ai - aj) ** 2 * ww
        v += 6.0 * (ai - aj) * (bi - bj) * ww
    del w
    u = _realize(u / f**2, f"{what} u", grid)
    v = _realize(v / f**2, f"{what} v", grid)
    return SolutionField(grid.x, grid.t, u, v=v, n31=n31)


def one_soliton(k0: float, c: complex, grid: Grid) -> SolutionField:
    """Traveling wave of a single real pole: u = 6 (log f)_xx with
    f = 1 + e^eta, the sech^2 profile (3/2) rate_x^2 sech^2(eta / 2).

    Speed (k0 + 1/k0)/2 and amplitude (3/8)(k0 - 1/k0)^2 are recorded in the
    metadata together with the position x0 encoded by the residue constant
    (None when c = 0, which gives u = 0).
    """
    k0 = float(k0)
    wave_poles([(k0, c)])  # refuses a singular constant
    terms = _tau_terms(PoleData(complex(k0), complex(c), "soliton"))
    fld = _tau_field(terms, grid, "soliton")
    fld.meta = {"amplitude": 0.375 * (k0 - 1.0 / k0) ** 2, "speed": 0.5 * (k0 + 1.0 / k0),
                "x0": _centre(terms)}
    return fld


def breather(k0: complex, c: complex, grid: Grid) -> SolutionField:
    """Localized oscillating two-parameter wave from a single complex pole:
    u = 6 (log f)_xx, v = 6 (log f)_xt and n31 = 2i sqrt(3) (log f)_x with
    f = det(I - A) = 1 + e^eta + e^conj(eta) + h e^(eta + conj(eta)), real
    and smooth exactly when f > 0 everywhere, that is when h > 1: for poles
    in the regular subregions. Poles in the singular subregions are refused,
    naming an (x, t) where f crosses zero when the grid holds one."""
    k0 = complex(k0)
    _complex_subregion(k0)
    fld = _tau_field(_tau_terms(PoleData(k0, complex(c), "breather")), grid, "breather")
    wave_poles([(k0, c)])  # a singular-subregion pole whose blow-up lies off the grid
    return fld


# ----------------------------------------------------------------------------
# general N-pole synthesis
# ----------------------------------------------------------------------------

#: pole images as (rotation power, inverted, col, src): the image of base b
#: sits at OMEGA**rot times b (1/b when inverted), and its residue multiplier
#: is OMEGA**rot (times -b**-2 when inverted)
_C_TABLE = ((0, False, 3, 1), (1, False, 2, 3), (2, False, 1, 2),
            (0, True, 3, 2), (2, True, 1, 3), (1, True, 2, 1))
_D_TABLE = ((0, False, 2, 3), (1, False, 1, 2), (2, False, 3, 1),
            (0, True, 1, 3), (2, True, 2, 1), (1, True, 3, 2))
_E_TABLE = ((0, False, 2, 1), (1, False, 1, 3), (2, False, 3, 2),
            (0, True, 1, 2), (2, True, 2, 3), (1, True, 3, 1))


@dataclass(frozen=True)
class _PoleEntry:
    point: complex
    col: int
    src: int
    coef0: complex
    rate_x: complex
    rate_t: complex


def _expand_pole_system(poles):
    """All simple poles of the reconstruction with their residue couplings."""
    entries = []
    for p in poles:
        # (base, residue constant, x-rate, t-rate, image table)
        groups = [(p.k0, p.c, *pole_rates(p.k0), _E_TABLE if p.kind == "soliton" else _C_TABLE)]
        if p.kind == "breather":
            groups.append((np.conj(p.k0), derived_conjugate_constant(p.k0, p.c),
                           *_partner_rates(p.k0), _D_TABLE))
        for base, const, rate_x, rate_t, table in groups:
            for rot, inv, col, src in table:
                pt = OMEGA**rot * (1.0 / base if inv else base)
                mult = OMEGA**rot * -(base**-2) if inv else OMEGA**rot
                entries.append(_PoleEntry(complex(pt), col, src, complex(mult * const),
                                          rate_x, rate_t))
    pts = [e.point for e in entries]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) < 1e-8:
                raise DomainError(
                    f"pole images collide: {pts[i]:.6g} vs {pts[j]:.6g}"
                )
    return entries


def _max_last(a):
    """a.max(axis=-1) as np.maximum over the views of a's last axis: the same
    bits, NaN included, without numpy's per-row loop over a short axis."""
    return functools.reduce(np.maximum, (a[..., j] for j in range(a.shape[-1])))


def _norm1(a):
    """Each stacked matrix's largest column sum, a.sum(axis=-2).max(axis=-1),
    as np.add over row views then _max_last: numpy sums that axis row after
    row, so the bits are the same."""
    return _max_last(functools.reduce(np.add, (a[..., i, :] for i in range(a.shape[-2]))))


def _solve_with_inverse(m_eq, rhs_eq, srcs, x, t):
    """rho with m_eq rho = rhs_eq at each row's source column, solved with
    the inverse as [rho | inv] = m_eq^-1 [rhs | I]; inv holds every point's
    1-norm condition number to CONDITION_LIMIT. An exact zero pivot is
    refused at the point of smallest |det|."""
    npts, npol = rhs_eq.shape
    b = np.zeros((npts, npol * (3 + npol)), dtype=complex)  # each point's [rhs | I], row-major
    b[:, np.arange(npol) * (3 + npol) + srcs - 1] = rhs_eq
    b[:, 3 :: 4 + npol] = 1.0  # the diagonal of I
    try:
        sol = np.linalg.solve(m_eq, b.reshape(npts, npol, 3 + npol))
    except np.linalg.LinAlgError:
        det = np.fmin(np.abs(np.linalg.det(m_eq)), np.inf)  # a NaN |det| reads inf
        i, cond_i = int(np.argmin(det)), np.inf
    else:
        del b  # freed before the guard's temporaries are made
        cond = _norm1(np.abs(m_eq)) * _norm1(np.abs(sol[:, :, 3:]))  # the inverse's columns
        i = int(np.argmax(cond))  # argmax stops at a NaN, which then fails the check
        cond_i = cond[i]
    if not cond_i <= CONDITION_LIMIT:
        raise NearSingularSystemError(
            f"residue system condition number {cond_i:.3e} exceeds {CONDITION_LIMIT:.0e}"
            f" at (x, t) = ({x[i]:.6g}, {t[i]:.6g})"
        )
    return sol[:, :, :3].copy()  # the inverse is not kept


def _solve_residues(entries, x, t):
    """n31 and its x- and t-derivatives from the residue vectors.

    Solves, per broadcast grid point, the coupling system
    R_p = coef_p(x,t) (e_src + sum_q R_q / (p - q)) in blocks of
    BLOCK_ENTRIES // npol**2 points, whose temporaries take about 72 bytes a
    matrix entry (4.7 MB for a soliton); the (3, grid) output is whole. A
    block makes one complex exp per distinct (x-rate, t-rate) pair, builds
    m = I - coef S in place and equilibrates its rows, so the guard measures
    pole-collision degeneracy, not exponential scaling, at every point. Two
    LAPACK solves follow: the residues with the inverse the guard reads,
    then both derivatives. Row maxima, the guard's column sums and the col-3
    sum into n31 keep numpy's reduction order, so no bit depends on blocks.
    """
    npol = len(entries)
    grid = np.broadcast(x, t)
    pts = np.array([e.point for e in entries])
    cols = np.array([e.col for e in entries])
    srcs = np.array([e.src for e in entries])
    coef0 = np.array([e.coef0 for e in entries])
    rates = np.array([(e.rate_x, e.rate_t) for e in entries])  # (npol, 2)
    rows3 = np.flatnonzero(cols == 3)
    # the distinct rate pairs, told apart by their bits, and each entry's pair
    distinct = {r.tobytes(): r for r in rates}
    which = np.array([list(distinct).index(r.tobytes()) for r in rates])
    rates_u = np.array(list(distinct.values()))

    # static Cauchy coupling: S[p,q] = [col(q) == src(p)] / (p - q)
    s = np.zeros((npol, npol), dtype=complex)
    for i in range(npol):
        for j in range(npol):
            if i != j and cols[j] == srcs[i]:
                s[i, j] = 1.0 / (pts[i] - pts[j])

    xg, tg = (g.flat for g in np.broadcast_arrays(x, t))  # a block copies only its points
    out = np.empty((3, grid.size), dtype=complex)
    step = max(1, BLOCK_ENTRIES // (npol * npol))
    for lo in range(0, grid.size, step):
        xb, tb = xg[lo : lo + step], tg[lo : lo + step]
        npts = len(xb)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            grow = np.exp(rates_u[:, :1] * xb + rates_u[:, 1:] * tb)
            coef = (coef0[:, None] * grow[which]).T
        if not np.all(np.isfinite(coef)):
            raise ArithmeticError("residue coefficients overflow on this grid")

        # coef and m keep the points innermost in memory, so the passes over
        # them run along the block, not along its npol-long rows
        m = np.empty((npol, npol, npts), dtype=complex).transpose(2, 0, 1)
        np.multiply(coef[:, :, None], s, out=m)
        np.subtract(np.eye(npol), m, out=m)  # m = I - coef S
        scale = np.maximum(_max_last(np.abs(m)), 1.0)
        m /= scale[:, :, None]
        rho = _solve_with_inverse(m, coef / scale, srcs, xb, tb)  # (npts, npol, 3)

        rhs = rates[None, :, :, None] * rho[:, :, None, :]  # (npts, npol, 2, 3): rates times rho
        rhs /= scale[:, :, None, None]
        rho_xt = np.linalg.solve(m, rhs.reshape(npts, npol, 6)).reshape(rhs.shape)
        # the col-3 rows, summed as np.stack((rho, rho_x, rho_t))[:, :, cols == 3, :]
        # .sum(axis=(2, 3)) adds them: from +0, each row's three entries left
        # to right, row after row
        for q, r in enumerate((rho, rho_xt[:, :, 0], rho_xt[:, :, 1])):
            acc = 0.0
            for j in rows3:
                acc = acc + (r[:, j, 0] + r[:, j, 1] + r[:, j, 2])
            out[q, lo : lo + npts] = acc
        del m, rho, rhs, rho_xt, r, acc  # not alive next to the next block's arrays
    return tuple(out.reshape((3,) + grid.shape))  # n31, n31_x, n31_t


def n_soliton(pairs, grid: Grid) -> SolutionField:
    """General multi-pole solution via the dense residue linear system, from
    (pole, residue constant) pairs.

    Matches the closed-form one-soliton and breather constructors for a
    single pole; arbitrary mixtures of distinct regular poles are assembled
    from the same residue table blockwise.
    """
    entries = _expand_pole_system(wave_poles(pairs))
    if not entries:
        zero = np.zeros((grid.t.size, grid.x.size))
        return SolutionField(grid.x, grid.t, zero, v=zero.copy(), n31=zero.astype(complex))

    xg = grid.x[None, :]
    tg = grid.t[:, None]
    n31, n31_x, n31_t = _solve_residues(entries, xg, tg)
    u = _realize(-1j * SQRT3 * n31_x, "n_soliton u", grid)
    v = _realize(-1j * SQRT3 * n31_t, "n_soliton v", grid)
    return SolutionField(grid.x, grid.t, u, v=v, n31=n31)
