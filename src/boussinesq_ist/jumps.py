"""Jump matrices on the nine contour pieces and on the pole-removal circles,
the scalar arc weight f, a generator of synthetic admissible reflection
data, and the jump-matrix property battery run on it. The synthetic data is
exact: r1 and r2 are formulas in k, evaluated where a jump needs them.

The nine pieces live on six rays and three unit-circle arc families; the
circle jumps remove simple poles, one removal formula per residue group
(spectral.residue_groups), and extend to the full circle system by the
rotation and inversion symmetries of the reconstruction problem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from boussinesq_ist.spectral import (
    MAT_A,
    MAT_B,
    OMEGA,
    DomainError,
    dist_to_gamma,
    eval_theta,
    on_unit_circle,
    residue_groups,
    rtilde,
)
from boussinesq_ist.solitons import residue_constant_from_position

R2_POLE_GAP = 1e-3
CIRCLE_EPS_MAX = 0.1

_A = MAT_A
_AI = np.linalg.inv(MAT_A)
_B = MAT_B

#: segment containing omega*k when k runs over segment j
ROTATION_MAP = {1: 3, 2: 4, 3: 5, 4: 6, 5: 1, 6: 2, 7: 9, 8: 7, 9: 8}

# (inner-ray angle, outer-ray angle) for the six ray pieces; arcs for 7..9
_RAY_ANGLES = {
    1: (np.pi / 2, -np.pi / 2),
    2: (5 * np.pi / 6, -np.pi / 6),
    3: (-5 * np.pi / 6, np.pi / 6),
    4: (-np.pi / 2, np.pi / 2),
    5: (-np.pi / 6, 5 * np.pi / 6),
    6: (np.pi / 6, -5 * np.pi / 6),
}
_ARC_BOUNDS = {
    7: ((np.pi / 2, 5 * np.pi / 6), (-np.pi / 2, -np.pi / 6)),
    8: ((-np.pi / 6, np.pi / 6), (5 * np.pi / 6, 7 * np.pi / 6)),
    9: ((np.pi / 6, np.pi / 2), (7 * np.pi / 6, 3 * np.pi / 2)),
}


class NearPoleError(ArithmeticError):
    """An entry needs the second reflection coefficient too close to its pole."""


@dataclass(frozen=True)
class ExactReflection:
    """Reflection coefficients r1, r2 as functions on arrays of k, the only
    reflection data ``build_v`` and ``arc_weight`` read: ``eval_r1`` / ``eval_r2``
    give a Python complex at a scalar k, an array shaped like k otherwise."""

    r1: object
    r2: object

    @staticmethod
    def _at(fn, k):
        k = np.asarray(k, dtype=complex)
        out = np.asarray(fn(k), dtype=complex)
        return complex(out.reshape(-1)[0]) if k.ndim == 0 else out.reshape(k.shape)

    def eval_r1(self, k):
        return self._at(self.r1, k)

    def eval_r2(self, k):
        return self._at(self.r2, k)


def sample_segment(j: int, n: int, rng):
    """n points on contour piece j drawn with the generator rng."""
    if j in _RAY_ANGLES:
        inner, outer = _RAY_ANGLES[j]
        r_in = rng.uniform(0.15, 0.9, size=(n + 1) // 2)
        r_out = 1.0 / rng.uniform(0.15, 0.9, size=n // 2)
        return np.concatenate(
            [r_in * np.exp(1j * inner), r_out * np.exp(1j * outer)]
        )
    arcs = _ARC_BOUNDS[j]
    pick = rng.integers(0, 2, size=n)
    lo = np.array([arcs[p][0] for p in pick])
    hi = np.array([arcs[p][1] for p in pick])
    pad = 0.02
    phi = rng.uniform(lo + pad, hi - pad)
    return np.exp(1j * phi)


def _require_r2_ok(args):
    for z in np.atleast_1d(np.asarray(args, dtype=complex)):
        if abs(z - OMEGA**2) < R2_POLE_GAP or abs(z + OMEGA**2) < R2_POLE_GAP:
            raise NearPoleError(f"argument {z} is within {R2_POLE_GAP:g} of an r2 pole")


def arc_weight(sd, k) -> complex:
    """The scalar weight on the circle arcs: 1 + r1 r2 at k plus the same
    product at the conjugate-rotated point, for exact reflection data sd.
    Real and nonnegative for genuine data."""
    k = complex(k)
    if not on_unit_circle(k):
        raise DomainError("arc weight is defined on the unit circle")
    z = 1.0 / (OMEGA**2 * k)
    _require_r2_ok([k, z])
    return 1.0 + sd.eval_r1(k) * sd.eval_r2(k) + sd.eval_r1(z) * sd.eval_r2(z)


# ----------------------------------------------------------------------------
# jump matrices on the nine pieces
# ----------------------------------------------------------------------------


def build_v(sd, x, t, k, segment: int):
    """Jump matrix on contour piece ``segment`` evaluated at (x, t, k) for
    exact reflection data sd."""
    k = complex(k)
    r1, r2 = sd.eval_r1, sd.eval_r2
    w = OMEGA
    th21 = eval_theta(2, 1, x, t, k)
    th31 = eval_theta(3, 1, x, t, k)
    th32 = eval_theta(3, 2, x, t, k)
    e21m, e21p = np.exp(-th21), np.exp(th21)
    e31m, e31p = np.exp(-th31), np.exp(th31)
    e32m, e32p = np.exp(-th32), np.exp(th32)
    v = np.eye(3, dtype=complex)

    if segment == 1:
        a, b = r1(k), r1(1.0 / k)
        v[0, 1] = -a * e21m
        v[1, 0] = b * e21p
        v[1, 1] = 1.0 - a * b
    elif segment == 2:
        _require_r2_ok([w * k, 1.0 / (w * k)])
        a, b = r2(w * k), r2(1.0 / (w * k))
        v[1, 1] = 1.0 - a * b
        v[1, 2] = -b * e32m
        v[2, 1] = a * e32p
    elif segment == 3:
        a, b = r1(w**2 * k), r1(1.0 / (w**2 * k))
        v[0, 0] = 1.0 - a * b
        v[0, 2] = b * e31m
        v[2, 0] = -a * e31p
    elif segment == 4:
        _require_r2_ok([k, 1.0 / k])
        a, b = r2(k), r2(1.0 / k)
        v[0, 0] = 1.0 - a * b
        v[0, 1] = -b * e21m
        v[1, 0] = a * e21p
    elif segment == 5:
        a, b = r1(w * k), r1(1.0 / (w * k))
        v[1, 2] = -a * e32m
        v[2, 1] = b * e32p
        v[2, 2] = 1.0 - a * b
    elif segment == 6:
        _require_r2_ok([w**2 * k, 1.0 / (w**2 * k)])
        a, b = r2(w**2 * k), r2(1.0 / (w**2 * k))
        v[0, 2] = a * e31m
        v[2, 0] = -b * e31p
        v[2, 2] = 1.0 - a * b
    elif segment == 7:
        _require_r2_ok([k, w**2 * k, 1.0 / (w * k)])
        v[0, 1] = -r1(k) * e21m
        v[0, 2] = r2(w**2 * k) * e31m
        v[1, 0] = -r2(k) * e21p
        v[1, 1] = 1.0 + r1(k) * r2(k)
        v[1, 2] = (r2(1.0 / (w * k)) - r2(k) * r2(w**2 * k)) * e32m
        v[2, 0] = r1(w**2 * k) * e31p
        v[2, 1] = (r1(1.0 / (w * k)) - r1(k) * r1(w**2 * k)) * e32p
        v[2, 2] = arc_weight(sd, w**2 * k)
    elif segment == 8:
        _require_r2_ok([k, w * k, 1.0 / (w**2 * k)])
        v[0, 0] = arc_weight(sd, k)
        v[0, 1] = r1(k) * e21m
        v[0, 2] = (r1(1.0 / (w**2 * k)) - r1(k) * r1(w * k)) * e31m
        v[1, 0] = r2(k) * e21p
        v[1, 2] = -r1(w * k) * e32m
        v[2, 0] = (r2(1.0 / (w**2 * k)) - r2(w * k) * r2(k)) * e31p
        v[2, 1] = -r2(w * k) * e32p
        v[2, 2] = 1.0 + r1(w * k) * r2(w * k)
    elif segment == 9:
        _require_r2_ok([w * k, w**2 * k, 1.0 / k])
        v[0, 0] = 1.0 + r1(w**2 * k) * r2(w**2 * k)
        v[0, 1] = (r2(1.0 / k) - r2(w * k) * r2(w**2 * k)) * e21m
        v[0, 2] = -r2(w**2 * k) * e31m
        v[1, 0] = (r1(1.0 / k) - r1(w * k) * r1(w**2 * k)) * e21p
        v[1, 1] = arc_weight(sd, w * k)
        v[1, 2] = r1(w * k) * e32m
        v[2, 0] = -r1(w**2 * k) * e31p
        v[2, 1] = r2(w * k) * e32p
    else:
        raise ValueError("segment must be 1..9")
    return v


# ----------------------------------------------------------------------------
# pole-removal circles
# ----------------------------------------------------------------------------


def _removal(group, x, t, k):
    """Identity plus the (i, j) entry that removes the pole of the residue
    group (base, C, i, j): -C e^theta_ij(base) (k^2 - w^i) / ((k - base)
    (base^2 - w^i)), with w^3 read as 1. That is Q1 for a complex pole's
    group, P1 for a real pole's and Q7 for a complex pole's conjugate group."""
    base, const, i, j = group
    w = OMEGA ** (i % 3)
    v = np.eye(3, dtype=complex)
    cc = const * np.exp(eval_theta(i, j, x, t, base))
    v[i - 1, j - 1] = -cc / (k - base) * (k**2 - w) / (base**2 - w)
    return v


@dataclass(frozen=True)
class Circle:
    """One pole-removal circle: geometric data plus its symmetry coordinates."""

    center: complex
    radius: float
    k0: complex
    c: complex
    rot: int  # rotation power applied to the base disk
    kind: str  # "plain" | "star" | "inv" | "invstar"

    def point(self, angle: float) -> complex:
        return self.center + self.radius * np.exp(1j * angle)


def _inverted_circle(center, radius):
    d = abs(center) ** 2 - radius**2
    return np.conj(center) / d, radius / abs(d)


def circle_system(poles, residues):
    """All pole-removal circles for the given pole set.

    Six circles per real pole and twelve per complex pole; the radius is
    shrunk until all circles are pairwise disjoint and clear of the contour.
    """
    # (pole, circle kind, base point): a complex pole's conjugate group adds a star base
    bases = [(k0, kind, group[0]) for k0 in map(complex, poles)
             for kind, group in zip(("plain", "star"), residue_groups(k0, residues[k0]))]
    pts = np.array([p for _, _, b in bases for j in range(3) for p in (OMEGA**j * b, OMEGA**j / b)])
    gaps = [abs(a - b) for a, b in itertools.combinations(pts, 2)]
    epsilon = min(CIRCLE_EPS_MAX, min(gaps + [float(np.min(dist_to_gamma(pts)))]) / 3.0)

    def build(eps):
        out = []
        for k0, kind, base in bases:
            inv_kind = "inv" if kind == "plain" else "invstar"
            ic, ir = _inverted_circle(base, eps)
            for j in range(3):
                out.append(Circle(OMEGA**j * base, eps, k0, residues[k0], j, kind))
                out.append(Circle(OMEGA**j * ic, ir, k0, residues[k0], j, inv_kind))
        return out

    for _ in range(40):
        circles = build(epsilon)
        if all(dist_to_gamma(np.array([c.center]))[0] > c.radius for c in circles) and all(
            abs(a.center - b.center) > a.radius + b.radius
            for a, b in itertools.combinations(circles, 2)
        ):
            return circles
        epsilon /= 2.0
    raise DomainError("could not find disjoint pole-removal circles")


def circle_jump(circle: Circle, x, t, k):
    """Jump matrix on a pole-removal circle at a point k of that circle.

    Base disks carry the explicit removal matrices; every other circle is
    reached through v(k) = A v(w k) A^-1 and v(k) = B v(1/k)^-1 B.
    """
    group = residue_groups(circle.k0, circle.c)[circle.kind.endswith("star")]
    inverted = circle.kind.startswith("inv")

    def eval_at(rot, kk):
        if rot != 0:
            # kk lies on w^rot * (base); w*kk lies on w^(rot+1) * base
            return _A @ eval_at((rot + 1) % 3, OMEGA * kk) @ _AI
        if inverted:
            return _B @ np.linalg.inv(_removal(group, x, t, 1.0 / kk)) @ _B
        return _removal(group, x, t, kk)

    return eval_at(circle.rot, complex(k))


# ----------------------------------------------------------------------------
# synthetic admissible reflection data
# ----------------------------------------------------------------------------


def _window(s):
    """Smooth bump on (0,1), vanishing to second order at both ends."""
    s = np.clip(s, 0.0, 1.0)
    return np.sin(np.pi * s) ** 2


def synthetic_scattering_data(seed: int) -> ExactReflection:
    """Reflection data satisfying the two admissibility relations exactly.

    Free smooth values are drawn on three of the six 60-degree arcs; the
    remaining arcs are completed through the circle relation, and the second
    coefficient is defined by the conjugation symmetry. Ray values are a
    smooth super-polynomially decaying bump.
    """
    amplitude = 0.35
    rng = np.random.default_rng(seed)
    coefs = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ray_coefs = rng.normal(size=2) + 1j * rng.normal(size=2)

    third = 2 * np.pi / 3

    def free_arc(idx, s):
        # smooth complex profile on the fundamental arc, s in (0,1)
        base = (
            coefs[idx, 0]
            + coefs[idx, 1] * np.cos(2 * np.pi * s)
            + coefs[idx, 2] * np.sin(2 * np.pi * s)
        )
        return amplitude * _window(s) * base / 3.0

    def circle_r1(k):
        phi = np.mod(np.angle(k), 2 * np.pi)
        sector = np.floor(phi / (np.pi / 3)).astype(int) % 6
        # slots 0,2,4 hold free values a1,a2,a3; slots 5,1,3 take the
        # completed values b1,b2,b3 living at the reflected angles
        phi0 = np.select(
            [sector == 0, sector == 2, sector == 4, sector == 5, sector == 1],
            [phi, phi - third, phi - 2 * third, 2 * np.pi - phi, third - phi],
            default=2 * third - phi,
        )
        s = phi0 / (np.pi / 3)
        a1 = free_arc(0, s)
        a2 = free_arc(1, s)
        a3 = free_arc(2, s)
        base = np.exp(1j * phi0)
        rt1 = rtilde(base)
        rt2 = rtilde(OMEGA * base)
        rt3 = rtilde(OMEGA**2 * base)
        al1 = a2 * a3 - rt1 * np.conj(a1)
        be1 = rt1 * np.conj(a1) * a2
        al3 = a3 * a1 - rt2 * np.conj(a2)
        be3 = rt2 * np.conj(a2) * a3
        al2 = a1 * a2 - rt3 * np.conj(a3)
        be2 = rt3 * np.conj(a3) * a1
        b1 = (al1 + be1 * al3 + be1 * be3 * al2) / (1.0 - be1 * be3 * be2)
        b2 = al2 + be2 * b1
        b3 = al3 + be3 * b2
        return np.select(
            [sector == 0, sector == 2, sector == 4, sector == 5, sector == 1],
            [a1, a2, a3, b1, b2],
            default=b3,
        )

    def ray_r1(k):
        lm = np.log(np.abs(k))
        prof = ray_coefs[0] + ray_coefs[1] * np.tanh(lm)
        return amplitude * np.exp(-(lm**2)) * prof / 3.0

    def r1_fn(k):
        k = np.atleast_1d(np.asarray(k, dtype=complex))
        out = np.empty(k.shape, dtype=complex)
        on_circle = on_unit_circle(k)
        if np.any(on_circle):
            out[on_circle] = circle_r1(k[on_circle])
        if np.any(~on_circle):
            out[~on_circle] = ray_r1(k[~on_circle])
        return out

    def r2_fn(k):
        k = np.atleast_1d(np.asarray(k, dtype=complex))
        return rtilde(k) * np.conj(r1_fn(1.0 / np.conj(k)))

    return ExactReflection(r1_fn, r2_fn)


def battery(seed: int, samples: int):
    """The property battery on synthetic_scattering_data(seed), at samples
    random points per piece and per removal circle of the k0 = 2 soliton:
    the worst |det v - 1|, cyclic residual |v(k) - A v(w k) A^-1| / max(1,
    |v|) and |(v - I)^2| on a circle, passed below 1e-10, 1e-10 and 1e-12.
    Returns that report and the pieces' sample points with their v[0, 1]."""
    rng = np.random.default_rng(seed)
    sd = synthetic_scattering_data(seed=seed)
    worst_det = worst_cyc = worst_unip = 0.0
    ks, v01 = [], []
    for seg in range(1, 10):
        for k in sample_segment(seg, samples, rng):
            x, t = rng.uniform(-3, 3), rng.uniform(0, 2)
            v = build_v(sd, x, t, k, seg)
            worst_det = max(worst_det, abs(np.linalg.det(v) - 1.0))
            v2 = build_v(sd, x, t, OMEGA * k, ROTATION_MAP[seg])
            cyc = np.max(np.abs(v - _A @ v2 @ _AI))
            worst_cyc = max(worst_cyc, cyc / max(1.0, float(np.max(np.abs(v)))))
            ks.append(k)
            v01.append(v[0, 1])
    for cir in circle_system([2.0], {2.0: residue_constant_from_position(2.0, 0.0)}):
        for _ in range(samples):
            w = circle_jump(cir, 0.3, 0.2, cir.point(rng.uniform(0, 2 * np.pi))) - np.eye(3)
            worst_unip = max(worst_unip, float(np.max(np.abs(w @ w))))
    return {
        "max_abs_det_minus_1": worst_det,
        "max_cyclic_residual": worst_cyc,
        "max_unipotency_residual": worst_unip,
        "passed": bool(worst_det < 1e-10 and worst_cyc < 1e-10 and worst_unip < 1e-12),
        "seed": seed,
    }, (np.array(ks), np.array(v01))
