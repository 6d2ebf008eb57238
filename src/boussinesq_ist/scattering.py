"""Direct scattering map: initial data, connection matrices, reflection
coefficients, the pole spectrum, residue constants, and the explicit time
evolution of the scattering data.

The eigenfunction columns are marched by the product-integration engine in
:mod:`boussinesq_ist.volterra`; everything else is assembled from those
columns: the connection matrices by dressed quadrature, reflection
coefficients as entry ratios on the sampling contours, poles by the argument
principle with Newton polish, and residue constants by weighted least-squares
fits of the column proportionality that defines them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from boussinesq_ist import volterra as vt
from boussinesq_ist.solitons import uniform_step
from boussinesq_ist.spectral import (
    QHAT_EXCLUSION,
    DomainError,
    Sector,
    classify,
    dist_to_gamma,
    dist_to_qhat,
    eval_l_all,
    on_real_axis,
    on_unit_circle,
    phase_rates,
    pole_rates,
    potential_entries,
    potential_factor,
)

DECAY_TOL = 1e-10
MASS_TOL = 1e-8
FIT_TOL = 1e-4
DERIV_STEP = 1e-5
NEWTON_TOL = 1e-10
NEWTON_MAXIT = 20
WINDING_TOL = 0.2
EVOLVE_EXP_CLIP = 700.0
MAX_POLES = 16
RAY_DECADES = (-2, 2)  # log10 of the smallest and largest ray modulus

#: rectangles (re_lo, re_hi, im_lo, im_hi) inside the pole sector whose
#: boundaries keep >= 0.05 distance from the contour and the roots of unity
DEFAULT_REGIONS = (
    (1.2, 4.0, -0.62, 0.62),
    (-0.85, -0.25, -0.05, 0.05),
)


class ZeroOnContourError(ArithmeticError):
    """The (1,1) connection entry vanishes at a contour sample."""


class UndefinedEntryError(ArithmeticError):
    """A connection entry that the direct map reads is undefined: its
    dressing grows across the window, so the integral does not converge."""


class WindingError(ArithmeticError):
    """Argument-principle count did not converge to an integer."""


class TooManyPolesError(ArithmeticError):
    pass


class NewtonError(ArithmeticError):
    """Newton refinement of a pole did not converge within NEWTON_MAXIT steps."""


class FitResidualError(ArithmeticError):
    """Column proportionality violated: not a genuine simple zero, or the
    quadrature is too coarse."""


# ----------------------------------------------------------------------------
# initial data
# ----------------------------------------------------------------------------


def _fd1(y, h):
    """4th-order first derivative with one-sided ends."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    out[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    out[0] = (-3 * y[0] + 4 * y[1] - y[2]) / (2 * h)
    out[1] = (y[2] - y[0]) / (2 * h)
    out[-2] = (y[-1] - y[-3]) / (2 * h)
    out[-1] = (3 * y[-1] - 4 * y[-2] + y[-3]) / (2 * h)
    return out


def _checked_grid(x):
    """x as floats; ValueError unless a finite, increasing, uniform 1-d grid of >= 9 points."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 9:
        raise ValueError("need a 1-d grid with at least 9 points")
    if not np.all(np.isfinite(x)):
        raise ValueError("initial data contains non-finite values")
    uniform_step(x, "grid")
    return x


@dataclass(frozen=True)
class InitialData:
    """Real-valued samples (u0, v0) on a uniform grid, plus derived entries."""

    x: np.ndarray
    u0: np.ndarray
    v0: np.ndarray
    warnings: tuple = field(init=False)

    def __post_init__(self):
        x = _checked_grid(self.x)
        u0 = np.asarray(self.u0, dtype=float)
        v0 = np.asarray(self.v0, dtype=float)
        if u0.shape != x.shape or v0.shape != x.shape:
            raise ValueError("u0, v0 must match the grid")
        if not (np.all(np.isfinite(u0)) and np.all(np.isfinite(v0))):
            raise ValueError("initial data contains non-finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "v0", v0)
        edge = max(abs(u0[0]), abs(u0[-1]), abs(v0[0]), abs(v0[-1]))
        warn = f"edge values {edge:.3e} exceed decay tolerance {DECAY_TOL:g}"
        object.__setattr__(self, "warnings", (warn,) if edge > DECAY_TOL else ())

    @staticmethod
    def from_u1(x, u0, u1) -> "InitialData":
        """Build v0 as the left cumulative integral of u1; u1 must have
        vanishing total integral for the system and the scalar equation to
        share initial data."""
        x = _checked_grid(x)
        u1 = np.asarray(u1, dtype=float)
        h = x[1] - x[0]
        total = np.trapezoid(u1, dx=h)
        if abs(total) > MASS_TOL:
            raise ValueError(
                f"total integral of u1 is {total:.3e}, above {MASS_TOL:g}"
            )
        v0 = np.concatenate([[0.0], np.cumsum(0.5 * h * (u1[1:] + u1[:-1]))])
        return InitialData(x, np.asarray(u0, dtype=float), v0)

    @property
    def hx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def potential_scalars(self):
        return potential_entries(self.u0, _fd1(self.u0, self.hx), self.v0)

    def support_slice(self) -> slice:
        """Grid slice outside of which the potential is below 1e-15 of its peak."""
        n1, n2 = self.potential_scalars
        env = np.maximum(np.abs(n1), np.abs(n2))
        top = float(np.max(env)) if env.size else 0.0
        if top == 0.0:
            return slice(0, 2)
        idx = np.nonzero(env > 1e-15 * top)[0]
        lo = max(0, int(idx[0]) - 2)
        hi = min(self.x.size, int(idx[-1]) + 3)
        return slice(lo, hi)


# ----------------------------------------------------------------------------
# march plumbing
# ----------------------------------------------------------------------------


def _plan(kbatch):
    k = np.atleast_1d(np.asarray(kbatch, dtype=complex))
    if np.any(dist_to_qhat(k) < QHAT_EXCLUSION):
        raise DomainError("k too close to a sixth root of unity (or zero)")
    ls = eval_l_all(k)
    return k, ls, potential_factor(ls)


def _march(data: InitialData, kbatch, kind, col, want_traj=False, s_rows=()):
    _, ls, c = _plan(kbatch)
    n1, n2 = data.potential_scalars
    # trajectories span the whole grid; other results need only the support
    sl = slice(0, data.x.size) if want_traj else data.support_slice()
    return vt.march_column(data.x[sl], n1[sl], n2[sl], c, ls, col, kind,
                           want_traj=want_traj, s_rows=s_rows)


def _traj(data: InitialData, k, kind, col):
    """(nx, 3) trajectory of one eigenfunction column at a single k."""
    return _march(data, [k], kind, col, want_traj=True)["traj"][:, 0, :]


def _entry(data: InitialData, ks, kind: str, col: int, row: int):
    """Connection entry (row, col) of s (kind "X") or sA (kind "XA") over a k
    batch; UndefinedEntryError names the first sample where it is undefined."""
    res = _march(data, ks, kind, col, s_rows=(row,))
    defined = res["s_defined"][:, 0]
    if not np.all(defined):
        name = "s" if kind == "X" else "sA"
        first = np.asarray(ks)[~defined][0]
        raise UndefinedEntryError(
            f"connection entry {name}_{row}{col} is undefined at sample {first}"
        )
    return res["s"][:, 0]


def s11_batch(data: InitialData, ks):
    return _entry(data, ks, "X", 1, 1)


def _adjugate_cross(data: InitialData, k):
    """Cross product of the adjugate columns YA_1 x XA_2 along the grid."""
    return np.cross(_traj(data, k, "YA", 1), _traj(data, k, "XA", 2))


# ----------------------------------------------------------------------------
# contours and reflection coefficients
# ----------------------------------------------------------------------------


def ray_moduli(per_decade: int):
    lo, hi = RAY_DECADES
    m = np.logspace(lo, hi, per_decade * (hi - lo) + 1)
    return m[~on_unit_circle(m)]


def _on_gamma1(m):
    """The points of the first ray contour with moduli m: i m inside the unit
    circle and -i m outside."""
    return np.where(m < 1.0, 1j * m, -1j * m)


def gamma1_samples(per_decade: int = 64):
    """Vertical-ray part of the first sampling contour: i(0,1) and -i(1,oo)."""
    return _on_gamma1(ray_moduli(per_decade))


def gamma4_samples(per_decade: int = 64):
    """Vertical-ray part of the fourth sampling contour: -i(0,1) and i(1,oo)."""
    m = ray_moduli(per_decade)
    return np.where(m < 1.0, -1j * m, 1j * m)


def circle_samples(n: int = 1536):
    """Uniform unit-circle grid, offset so no sample hits a root of unity and
    closed under rotation by 120 degrees and under conjugation."""
    if n % 6:
        raise ValueError("circle grid size must be divisible by 6")
    phi = (np.arange(n) + 0.5) * (2 * np.pi / n)
    return np.exp(1j * phi)


#: (values, points) of each sample set of ScatteringData, named as its file
SAMPLE_SETS = (
    ("r1_ray", "gamma1"),
    ("r2_ray", "gamma4"),
    ("r1_circle", "circle"),
    ("r2_circle", "circle"),
)


@dataclass
class ScatteringData:
    """Reflection-coefficient samples plus the pole spectrum at a time.

    r1 is sampled on its ray contour ``gamma1`` and r2 on ``gamma4``, and each
    on the unit ``circle``; every reader takes the values at these samples.
    ``residues`` maps each pole to its residue constant.
    """

    gamma1: np.ndarray
    r1_ray: np.ndarray
    gamma4: np.ndarray
    r2_ray: np.ndarray
    circle: np.ndarray
    r1_circle: np.ndarray
    r2_circle: np.ndarray
    residues: dict = field(default_factory=dict)
    time: float = 0.0

    @property
    def poles(self) -> tuple:
        return tuple(self.residues)


def _r_values(data: InitialData, kind: str, ks):
    """The (1,2) entry over the (1,1) entry of s (kind "X") or sA (kind "XA")
    at the samples ks; ZeroOnContourError names the first sample where the
    (1,1) entry vanishes."""
    den, num = _entry(data, ks, kind, 1, 1), _entry(data, ks, kind, 2, 1)
    zero = np.abs(den) < 1e-10
    if np.any(zero):
        raise ZeroOnContourError(f"(1,1) connection entry vanishes at contour sample {ks[zero][0]}")
    return num / den


def reflection_coefficients(
    data: InitialData,
    per_decade: int = 64,
    circle_n: int = 1536,
) -> ScatteringData:
    """Sample r1 on its ray contour and the circle, r2 likewise.

    Raises ZeroOnContourError when the (1,1) entries vanish at a sample and
    UndefinedEntryError when an entry of the ratio is undefined there.
    """
    g1k, g4k = gamma1_samples(per_decade), gamma4_samples(per_decade)
    ck = circle_samples(circle_n)
    return ScatteringData(
        gamma1=g1k, r1_ray=_r_values(data, "X", g1k),
        gamma4=g4k, r2_ray=_r_values(data, "XA", g4k),
        circle=ck, r1_circle=_r_values(data, "X", ck), r2_circle=_r_values(data, "XA", ck),
    )


def decay_report(sd: ScatteringData) -> dict:
    """Rapid-decay report of the ray tails |k| > 10: the largest |r| there and
    the sup of (1 + |k|)^n |r| for n = 0..4, for r1 and for r2."""
    report = {}
    for name, ks, vals in (("r1", sd.gamma1, sd.r1_ray), ("r2", sd.gamma4, sd.r2_ray)):
        outer = np.abs(ks) > 10.0
        mag, kk = np.abs(vals[outer]), np.abs(ks[outer])
        report[name] = {
            "tail_max": float(np.max(mag)) if mag.size else 0.0,
            "weighted_sup": {n: float(np.max((1.0 + kk) ** n * mag)) for n in range(5)},
        }
    return report


def unit_point_genericity(data: InitialData) -> dict:
    """Detector for non-generic behavior of the (1,1) entry at k = +-1.

    Generic data has a simple pole there, so (k -+ 1) s_11 stays away from
    zero on the circle points at angle +-1e-3; values below 1e-6 are flagged.
    """
    out = {}
    for kstar in (1.0, -1.0):
        ks = kstar * np.exp(np.array([1e-3j, -1e-3j]))
        vals = s11_batch(data, ks)
        m = float(np.min(np.abs((ks - kstar) * vals)))
        out[str(kstar)] = {"min_weighted_entry": m, "generic": bool(m > 1e-6)}
    return out


def reflection_floor(data: InitialData) -> float:
    """max |r1| over a coarse sample of its ray contour; the radiation content
    indicator. Refuses an undefined ratio as reflection_coefficients does."""
    m = np.logspace(-1.5, 1.5, 50)
    return float(np.max(np.abs(_r_values(data, "X", _on_gamma1(m[~on_unit_circle(m)])))))


# ----------------------------------------------------------------------------
# pole search
# ----------------------------------------------------------------------------


def _rect_boundary(rect, n_per_edge):
    a, b, c, d = rect
    top = np.linspace(a, b, n_per_edge, endpoint=False) + 1j * c
    right = b + 1j * np.linspace(c, d, n_per_edge, endpoint=False)
    bottom = np.linspace(b, a, n_per_edge, endpoint=False) + 1j * d
    left = a + 1j * np.linspace(d, c, n_per_edge, endpoint=False)
    pts = np.concatenate([top, right, bottom, left])
    return np.append(pts, pts[0])


def _winding_and_centroid(data, rect):
    """Winding number of s11 around rect (48 points per edge, <= 8 refinements)."""
    pts = _rect_boundary(rect, 48)
    vals = s11_batch(data, pts)
    for _ in range(8):
        dphase = np.angle(vals[1:] / vals[:-1])
        if np.all(np.abs(dphase) < np.pi / 2):
            break
        # subdivide intervals with large phase jumps
        bad = np.nonzero(np.abs(dphase) >= np.pi / 2)[0]
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        mvals = s11_batch(data, mids)
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, mvals)
    else:
        raise WindingError("insufficient quadrature: phase jumps on the boundary")
    if np.any(np.abs(vals) < 1e-14):
        raise WindingError("the (1,1) entry vanishes on the search boundary")
    dlog = np.log(np.abs(vals[1:] / vals[:-1])) + 1j * np.angle(vals[1:] / vals[:-1])
    total = np.sum(dlog) / (2j * np.pi)
    n = int(np.round(total.real))
    if abs(total - n) > WINDING_TOL:
        raise WindingError(f"winding estimate {total:.4f} is not close to an integer")
    centroid = None
    if n == 1:
        mid = 0.5 * (pts[1:] + pts[:-1])
        centroid = complex(np.sum(mid * dlog) / (2j * np.pi))
    return n, centroid


def _richardson(fn, k):
    """Two-step Richardson central difference of a batched function of k."""
    h = DERIV_STEP
    v = fn(np.array([k + h, k - h, k + 2 * h, k - 2 * h]))
    return (8.0 * (v[0] - v[1]) - (v[2] - v[3])) / (12.0 * h)


def _s11_derivative(data, k):
    return _richardson(lambda ks: s11_batch(data, ks), k)


def _newton_polish(data, k0):
    k = complex(k0)
    for _ in range(NEWTON_MAXIT):
        val = s11_batch(data, [k])[0]
        dv = _s11_derivative(data, k)
        dk = val / dv
        k = k - dk
        if abs(dk) < NEWTON_TOL:
            return k
    raise NewtonError(
        f"Newton refinement from {complex(k0):.6g} did not converge in {NEWTON_MAXIT} steps:"
        f" last |dk| = {abs(dk):.3e}, |s11| = {abs(val):.3e}"
    )


def find_poles(data: InitialData, regions=None):
    """Zeros of the (1,1) connection entry inside the search rectangles.

    Winding-number count on the boundary, recursive bisection until single
    zeros are isolated, then Newton refinement. Real-axis zeros come out with
    a tiny imaginary part and are snapped to the axis.
    """
    regions = DEFAULT_REGIONS if regions is None else regions
    zeros = []

    def recurse(rect, depth):
        n, centroid = _winding_and_centroid(data, rect)
        if n == 0:
            return
        if len(zeros) + n > MAX_POLES:
            raise TooManyPolesError(f"more than {MAX_POLES} zeros in the region")
        if n == 1:
            zeros.append(_newton_polish(data, centroid))
            return
        if depth > 12:
            raise WindingError("pole cluster too tight to separate")
        a, b, c, d = rect
        if (b - a) >= (d - c):
            m = a + (b - a) * 0.503
            recurse((a, m, c, d), depth + 1)
            recurse((m, b, c, d), depth + 1)
        else:
            m = c + (d - c) * 0.503
            recurse((a, b, c, m), depth + 1)
            recurse((a, b, m, d), depth + 1)

    for rect in regions:
        recurse(tuple(rect), 0)
    out = []
    for z in zeros:
        if on_real_axis(z):
            z = complex(z.real, 0.0)
        # regions may overlap; keep one copy of each zero
        if all(abs(z - prev) > 1e-6 for prev in out):
            out.append(z)
    return out


def search_rectangle_around(k0: complex):
    """A pole-search rectangle containing k0 that stays inside the pole
    sector with a 0.05 margin from the contour; None if k0 sits too close to
    the contour for any such rectangle to exist. The half-widths start at
    0.35 (real) and 0.25 (imaginary) and shrink by 0.72 per try."""
    k0 = complex(k0)
    half_re, half_im = 0.35, 0.25
    for _ in range(24):
        rect = (k0.real - half_re, k0.real + half_re, k0.imag - half_im, k0.imag + half_im)
        pts = _rect_boundary(rect, 16)
        ok = bool(np.all(dist_to_gamma(pts) >= 0.051)) and bool(
            np.all(dist_to_qhat(pts) >= 0.05)
        )
        if ok:
            ok = all(classify(p).sector is Sector.D2 for p in pts[:: 4])
        if ok:
            return rect
        half_re *= 0.72
        half_im *= 0.72
        if half_re < 2e-3 or half_im < 2e-3:
            break
    return None


# ----------------------------------------------------------------------------
# residue constants
# ----------------------------------------------------------------------------


def _sa22_derivative(data, k):
    return _richardson(lambda ks: _entry(data, ks, "XA", 2, 2), k)


def _weighted_ratio(pi_vec, x1_vec, weights):
    """argmin_c sum w |pi - c x1|^2 and the normalized fit residual."""
    w = weights[:, None]
    num = np.sum(w * np.conj(x1_vec) * pi_vec)
    den = np.sum(w * np.abs(x1_vec) ** 2)
    c = num / den
    resid = np.sqrt(
        float(np.sum(weights * np.sum(np.abs(pi_vec - c * x1_vec) ** 2, axis=1)))
        / float(np.sum(weights * np.sum(np.abs(pi_vec) ** 2, axis=1)) + 1e-300)
    )
    return complex(c), float(resid)


def residue_constant(data: InitialData, k0: complex):
    """Residue constant at a simple zero of the (1,1) connection entry.

    Real zeros use the proportionality between the second left-normalized
    column and the first right-normalized column; complex zeros use the
    cross-product vector built from the adjugate eigenfunctions. Returns
    (c, fit_residual); a fit residual above FIT_TOL signals that k0 is not a genuine
    simple zero or that the quadrature is too coarse.
    """
    k0 = complex(k0)
    x = data.x
    window = (x >= x[0] / 2.0) & (x <= x[-1] / 2.0)
    x1 = _traj(data, k0, "X", 1)

    if on_real_axis(k0):
        k0 = complex(k0.real, 0.0)
        vec = _traj(data, k0, "Y", 2)
        deriv = _sa22_derivative(data, k0)
    else:
        if abs(_entry(data, [k0], "XA", 2, 2)[0]) <= 1e-8:
            raise FitResidualError(
                "the adjugate (2,2) connection entry vanishes at the zero; "
                "the simple-pole normalization breaks down"
            )
        vec = _adjugate_cross(data, k0)
        deriv = _s11_derivative(data, k0)
    pi_vec = vec * np.exp(-pole_rates(k0)[0] * x)[:, None] / deriv

    weights = np.where(window & (np.abs(x1[:, 0]) > 0.1), np.abs(x1[:, 0]) ** 2, 0.0)
    if not np.any(weights > 0):
        raise FitResidualError("no usable fit window: |X_11| too small throughout")
    c, resid = _weighted_ratio(pi_vec, x1, weights)
    if resid > FIT_TOL:
        raise FitResidualError(
            f"linear dependence violated: fit residual {resid:.3e} > {FIT_TOL:g}"
        )
    return c, resid


# ----------------------------------------------------------------------------
# time evolution and blow-up horizon
# ----------------------------------------------------------------------------


def evolve_scattering(sd: ScatteringData, t: float) -> ScatteringData:
    """Dress the scattering data with its explicit time evolution.

    r1 samples pick up exp(theta_12(0,t,k)) and r2 samples exp(theta_21(0,t,k));
    the pole set is invariant; residue constants are dressed by their own
    phase rates.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    new_res = {k0: c * np.exp(pole_rates(k0)[1] * t) for k0, c in sd.residues.items()}

    def dress(vals, ks, i, j):
        rate = phase_rates(i, j, ks)[1]  # theta_ij(0, t, k) / t
        # The time dressing grows like exp(|k|^2 t / 4) toward the inner tip of
        # the ray contour (the instability of the equation); saturating at 700
        # keeps evolved samples ordered and finite instead of inf * 0 = nan.
        # An already evolved sample can still overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            r = vals * vt._clipped_exp(rate * t, EVOLVE_EXP_CLIP)
        bad = ~np.isfinite(r)
        if np.any(bad):
            raise OverflowError(f"evolved reflection sample at k = {ks[bad][0]} overflows")
        return r

    return replace(sd, residues=new_res, time=sd.time + t,
                   r1_ray=dress(sd.r1_ray, sd.gamma1, 1, 2), r2_ray=dress(sd.r2_ray, sd.gamma4, 2, 1),
                   r1_circle=dress(sd.r1_circle, sd.circle, 1, 2),
                   r2_circle=dress(sd.r2_circle, sd.circle, 2, 1))


def estimate_T(sd: ScatteringData, zero_floor: float) -> float:
    """Existence-horizon estimate from the decay of r1 toward 0 along its ray.

    Returns +inf when r1 vanishes (below ``zero_floor``) on the inner
    segment; otherwise the infimum over inner samples k of
    4 |k|^2 (-log |r1(k)|), a term taken as 0 where |r1| >= 1 and as +inf
    where |r1| < zero_floor. A heuristic estimate, not a certified bound.
    """
    inner = np.abs(sd.gamma1) < 1.0
    mag = np.abs(sd.r1_ray[inner])
    if float(np.max(mag)) < zero_floor:
        return float("inf")
    with np.errstate(divide="ignore"):
        terms = 4.0 * np.abs(sd.gamma1[inner]) ** 2 * (-np.log(mag))
    terms = np.where(mag >= 1.0, 0.0, terms)
    terms = np.where(mag < zero_floor, np.inf, terms)
    return float(np.min(terms))
