"""Spectral-plane primitives shared by every other layer.

Exact root-of-unity constants, the three exponential phase rates ``l_j`` /
``z_j`` and their phase differences ``theta_ij``, the permutation and
conjugation symmetries, the potential entries with the factor ``c = P^-1 e3``
of the Vandermonde change of basis ``P(k)``, and the geometry of the six
sectors of the complex spectral plane with their regular/singular
subregions.

All functions are pure and accept numpy-broadcastable complex input where it
makes sense.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)

# Primitive cube root of unity and the six sixth roots of unity.
OMEGA = cmath.exp(2j * cmath.pi / 3)
KAPPA = tuple(cmath.exp(1j * cmath.pi * j / 3) for j in range(6))
QHAT = KAPPA + (0j,)

# Cyclic column permutation (cube) and the 1<->2 swap (involution).
MAT_A = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
MAT_B = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)

#: tolerance for "sits on the contour / on the real axis / on the unit circle"
TOL_CONTOUR = 1e-9
#: points closer to a root of unity than this are rejected by P(k)^-1 users
QHAT_EXCLUSION = 1e-6


class DomainError(ArithmeticError):
    """Input lies outside the domain of the requested spectral quantity."""


def _check_nonzero(k):
    if np.any(np.asarray(k) == 0):
        raise DomainError("spectral parameter k must be nonzero")


def eval_l(j: int, k):
    """Exponential x-rate l_j(k), j in {1,2,3}."""
    _check_nonzero(k)
    w = OMEGA**j * np.asarray(k, dtype=complex)
    return 1j * (w + 1.0 / w) / (2.0 * SQRT3)


def eval_z(j: int, k):
    """Exponential t-rate z_j(k), j in {1,2,3}."""
    _check_nonzero(k)
    w = (OMEGA**j * np.asarray(k, dtype=complex)) ** 2
    return 1j * (w + 1.0 / w) / (4.0 * SQRT3)


def eval_l_all(k):
    """Stack (l_1, l_2, l_3)(k) along the last axis."""
    k = np.asarray(k, dtype=complex)
    return np.stack([eval_l(j, k) for j in (1, 2, 3)], axis=-1)


def phase_rates(i: int, j: int, k):
    """(l_i - l_j, z_i - z_j)(k): the x- and t-rates of theta_ij."""
    if i == j:
        raise DomainError("theta_ij requires i != j")
    return eval_l(i, k) - eval_l(j, k), eval_z(i, k) - eval_z(j, k)


def eval_theta(i: int, j: int, x, t, k):
    """Phase difference theta_ij = (l_i - l_j) x + (z_i - z_j) t."""
    rate_x, rate_t = phase_rates(i, j, k)
    return rate_x * x + rate_t * t


def rtilde(k):
    """Rational symmetry factor linking the two reflection coefficients.

    Poles at k = +-omega^2, zeros at k = +-omega.
    """
    k = np.asarray(k, dtype=complex)
    den = 1.0 - OMEGA**2 * k**2
    if np.any(np.abs(den) < 1e-13):
        raise DomainError("rtilde has poles at k = +-omega^2")
    return (OMEGA**2 - k**2) / den


def dist_to_qhat(k):
    """Distance to the nearest of the six sixth roots of unity or 0."""
    k = np.asarray(k, dtype=complex)
    return np.min(np.stack([np.abs(k - q) for q in QHAT]), axis=0)


def on_real_axis(k) -> bool:
    """True when |Im k| < TOL_CONTOUR max(1, |k|): the rule by which a pole is
    real (a soliton) rather than complex (a breather)."""
    k = complex(k)
    return abs(k.imag) < TOL_CONTOUR * max(1.0, abs(k))


def pole_partner(k0) -> int:
    """The index j whose rates a pole's residue couples with l_1 and z_1: 2
    for a real pole (a soliton), 3 for a complex one (a breather)."""
    return 2 if on_real_axis(k0) else 3


def pole_rates(k0):
    """The rates of the pole k0's residue, phase_rates(1, pole_partner(k0), k0)."""
    return phase_rates(1, pole_partner(k0), k0)


def derived_conjugate_constant(k0: complex, c: complex) -> complex:
    """Second residue constant of a complex pole, fixed by conjugation symmetry."""
    kb = np.conj(k0)
    return (kb**2 - 1.0) / (OMEGA**2 * (OMEGA**2 - kb**2)) * np.conj(c)


def residue_groups(k0, c):
    """The residue conditions of the pole k0 with constant c as groups (base,
    C, i, j): column j's residue at base is C e^theta_ij(base) times column
    i. A real pole has one, (k0, c, 1, pole_partner(k0)); a complex pole adds
    (conj(k0), derived_conjugate_constant(k0, c), 3, 2)."""
    groups = [(k0, c, 1, pole_partner(k0))]
    if not on_real_axis(k0):
        groups.append((np.conj(k0), derived_conjugate_constant(k0, c), 3, 2))
    return groups


def on_unit_circle(k):
    """Elementwise ||k| - 1| < TOL_CONTOUR."""
    return np.abs(np.abs(k) - 1.0) < TOL_CONTOUR


def dist_to_gamma(k):
    """Distance to the six rays (arg = +-30, +-90, +-150 deg) and unit circle."""
    k = np.asarray(k, dtype=complex)
    r = np.abs(k)
    d = np.abs(r - 1.0)
    phi = np.angle(k)
    for m in range(6):
        ray = -np.pi / 2 + m * np.pi / 3
        delta = np.angle(np.exp(1j * (phi - ray)))
        # distance to a full ray from the origin
        d_ray = np.where(np.abs(delta) < np.pi / 2, r * np.abs(np.sin(delta)), r)
        d = np.minimum(d, d_ray)
    return d


# ----------------------------------------------------------------------------
# Potential
# ----------------------------------------------------------------------------


def potential_entries(u, ux, v):
    """The two nonzero entries of the companion-form potential block."""
    n1 = -np.asarray(ux) / 4.0 - 1j * np.asarray(v) / (4.0 * SQRT3)
    n2 = -np.asarray(u) / 2.0
    return n1, n2


def potential_factor(ls):
    """c = P^-1 e3 from the rates ls = (l1, l2, l3), shape (..., 3).

    These are the Lagrange weights c_j = 1 / prod_{m != j} (l_j - l_m).
    The conjugated potential is the rank-one U = c (n1 + n2 l)^T.
    """
    l1, l2, l3 = ls[..., 0], ls[..., 1], ls[..., 2]
    d12, d13, d23 = l1 - l2, l1 - l3, l2 - l3
    return np.stack([1.0 / (d12 * d13), -1.0 / (d12 * d23), 1.0 / (d13 * d23)], axis=-1)


# ----------------------------------------------------------------------------
# Sector geometry
# ----------------------------------------------------------------------------


class Sector(enum.Enum):
    D1 = 1
    D2 = 2
    D3 = 3
    D4 = 4
    D5 = 5
    D6 = 6
    ON_CONTOUR = 0


class Subregion(enum.Enum):
    NONE = "none"
    REG_R = "RegR"
    REG_L = "RegL"
    SING_R = "SingR"
    SING_L = "SingL"
    REAL_RIGHT = "RealRight"
    REAL_LEFT = "RealLeft"


# Sector owning the outside-disk band centered at 60*m degrees; the
# inside-disk band at the same angles belongs to the antipodal sector.
_OUT_SECTOR = (2, 3, 4, 5, 6, 1)


@dataclass(frozen=True)
class SpectralPoint:
    """The classification of a point of the spectral plane."""

    sector: Sector
    subregion: Subregion


def classify(k) -> SpectralPoint:
    """Assign the sector D1..D6 and, inside D2, the finer subregion.

    Points within ``TOL_CONTOUR`` of the contour (six rays + unit circle) get the
    on-contour marker and no subregion; boundary rays are owned by no sector.
    """
    k = complex(k)
    if k == 0:
        raise DomainError("cannot classify k = 0")
    if dist_to_gamma(k) < TOL_CONTOUR:
        return SpectralPoint(Sector.ON_CONTOUR, Subregion.NONE)

    r = abs(k)
    phi = math.atan2(k.imag, k.real)
    m = int(math.floor((phi + math.pi / 6) / (math.pi / 3))) % 6
    if r > 1.0:
        sector = Sector(_OUT_SECTOR[m])
    else:
        sector = Sector(_OUT_SECTOR[(m + 3) % 6])

    sub = Subregion.NONE
    if sector is Sector.D2:
        if on_real_axis(k):
            sub = Subregion.REAL_RIGHT if k.real > 1.0 else Subregion.REAL_LEFT
        elif r > 1.0:
            sub = Subregion.REG_R if k.imag > 0 else Subregion.SING_R
        else:
            sub = Subregion.REG_L if k.imag < 0 else Subregion.SING_L
    return SpectralPoint(sector, sub)

