"""Spectral-plane primitives shared by every other layer.

Exact root-of-unity constants, the three exponential phase rates ``l_j`` /
``z_j`` and their phase differences ``theta_ij``, the Vandermonde change of
basis ``P(k)``, the Lax-pair matrices, the permutation symmetries, and the
geometry of the six sectors of the complex spectral plane with their
regular/singular subregions.

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


class DomainError(ValueError):
    """Input lies outside the domain of the requested spectral quantity."""


@dataclass(frozen=True)
class UnityRoots:
    """The cube root ``omega``, the six sixth roots, and their union with 0."""

    omega: complex
    kappa: tuple
    qhat: tuple


def unity_roots() -> UnityRoots:
    return UnityRoots(OMEGA, KAPPA, QHAT)


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


def eval_z_all(k):
    k = np.asarray(k, dtype=complex)
    return np.stack([eval_z(j, k) for j in (1, 2, 3)], axis=-1)


def eval_theta(i: int, j: int, x, t, k):
    """Phase difference theta_ij = (l_i - l_j) x + (z_i - z_j) t."""
    if i == j:
        raise DomainError("theta_ij requires i != j")
    return (eval_l(i, k) - eval_l(j, k)) * x + (eval_z(i, k) - eval_z(j, k)) * t


def lam(k):
    """The six-to-one spectral map (k^3 + k^-3)/2."""
    _check_nonzero(k)
    k = np.asarray(k, dtype=complex)
    return (k**3 + k**-3) / 2.0


def rtilde(k):
    """Rational symmetry factor linking the two reflection coefficients.

    Poles at k = +-omega^2, zeros at k = +-omega.
    """
    k = np.asarray(k, dtype=complex)
    den = 1.0 - OMEGA**2 * k**2
    if np.any(np.abs(den) < 1e-13):
        raise DomainError("rtilde has poles at k = +-omega^2")
    return (OMEGA**2 - k**2) / den


def r_matrix(k):
    """Conjugation matrix R(k) of the complex-conjugation symmetry."""
    k = np.asarray(k, dtype=complex)
    k2 = k**2
    for root in (1.0, -1.0, OMEGA, -OMEGA, OMEGA**2, -(OMEGA**2)):
        if np.any(np.abs(k - root) < 1e-13):
            raise DomainError("R(k) is singular at k in {+-1, +-omega, +-omega^2}")
    out = np.zeros(k.shape + (3, 3), dtype=complex)
    pre = -4.0 * k2
    out[..., 0, 1] = pre * OMEGA / ((k2 - 1.0) * (k2 - OMEGA**2))
    out[..., 1, 0] = pre * OMEGA**2 / ((k2 - 1.0) * (k2 - OMEGA))
    out[..., 2, 2] = pre / ((k2 - OMEGA) * (k2 - OMEGA**2))
    return out


def dist_to_qhat(k):
    """Distance to the nearest of the six sixth roots of unity or 0."""
    k = np.asarray(k, dtype=complex)
    return np.min(np.stack([np.abs(k - q) for q in QHAT]), axis=0)


def on_real_axis(k) -> bool:
    """True when |Im k| < TOL_CONTOUR max(1, |k|): the rule by which a pole is
    real (a soliton) rather than complex (a breather)."""
    k = complex(k)
    return abs(k.imag) < TOL_CONTOUR * max(1.0, abs(k))


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
# Vandermonde basis and Lax matrices
# ----------------------------------------------------------------------------


def vandermonde(k):
    """P(k): columns (1, l_j, l_j^2)."""
    ls = eval_l_all(k)
    out = np.empty(ls.shape[:-1] + (3, 3), dtype=complex)
    out[..., 0, :] = 1.0
    out[..., 1, :] = ls
    out[..., 2, :] = ls**2
    return out


def vandermonde_det(k):
    """det P(k) = (l2-l1)(l3-l1)(l3-l2)."""
    ls = eval_l_all(k)
    l1, l2, l3 = ls[..., 0], ls[..., 1], ls[..., 2]
    return (l2 - l1) * (l3 - l1) * (l3 - l2)


def vandermonde_inv(k):
    """P(k)^-1; refuses evaluation close to the sixth roots of unity."""
    if np.any(dist_to_qhat(k) < QHAT_EXCLUSION):
        raise DomainError(
            f"P(k) is singular near the sixth roots of unity "
            f"(need dist >= {QHAT_EXCLUSION:g})"
        )
    return np.linalg.inv(vandermonde(k))


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


def potential_generators(k):
    """G1 = P^-1 E31 P = c (1,1,1)^T and G2 = P^-1 E32 P = c (l1,l2,l3)^T.

    The conjugated potential is U(x,k) = n1(x) G1(k) + n2(x) G2(k); it is
    nilpotent of order two. The march applies it through the factor c alone
    (:func:`potential_factor`); the dense pair states the paper's identity.
    """
    ls = eval_l_all(k)
    c = potential_factor(ls)[..., :, None]
    return c * np.ones_like(ls)[..., None, :], c * ls[..., None, :]


@dataclass(frozen=True)
class LaxMatrices:
    """Both members of the Lax pair at a point (k; u, ux, uxx, v, vx)."""

    L: np.ndarray
    Z: np.ndarray
    calL: np.ndarray
    calZ: np.ndarray
    U: np.ndarray
    V: np.ndarray
    lam: complex


def _l_tilde(k, u, ux, uxx, v, vx):
    lt = np.zeros(np.broadcast(u, ux, uxx, v, vx).shape + (3, 3), dtype=complex)
    lt[..., 0, 1] = 1.0
    lt[..., 1, 2] = 1.0
    lt[..., 2, 0] = lam(k) / (12j * SQRT3) - ux / 4.0 - 1j * v / (4.0 * SQRT3)
    lt[..., 2, 1] = -(1.0 + 2.0 * u) / 4.0
    return lt


def _z_tilde(k, u, ux, uxx, v, vx):
    la = lam(k)
    zt = np.zeros(np.broadcast(u, ux, uxx, v, vx).shape + (3, 3), dtype=complex)
    zt[..., 0, 0] = -1j * (1.0 + 2.0 * u) / (2.0 * SQRT3)
    zt[..., 0, 2] = -1j * SQRT3
    zt[..., 1, 0] = -la / 12.0 - 1j * ux / (4.0 * SQRT3) - v / 4.0
    zt[..., 1, 1] = 1j * (1.0 + 2.0 * u) / (4.0 * SQRT3)
    zt[..., 2, 0] = -1j * uxx / (4.0 * SQRT3) - vx / 4.0
    zt[..., 2, 1] = -la / 12.0 + 1j * ux / (4.0 * SQRT3) - v / 4.0
    zt[..., 2, 2] = 1j * (1.0 + 2.0 * u) / (4.0 * SQRT3)
    return zt


def lax_tilde(k, u, ux, uxx, v, vx):
    """Companion-form pair (L~, Z~) before conjugation by P(k), each of shape
    ``np.broadcast(u, ux, uxx, v, vx).shape + (3, 3)``."""
    return _l_tilde(k, u, ux, uxx, v, vx), _z_tilde(k, u, ux, uxx, v, vx)


def build_lax(k, u, ux, uxx, v, vx) -> LaxMatrices:
    """Conjugated Lax pair L = P^-1 L~ P, Z = P^-1 Z~ P and the residues
    U = L - diag(l), V = Z - diag(z)."""
    k = complex(k)
    _check_nonzero(k)
    p = vandermonde(k)
    pinv = vandermonde_inv(k)
    lt, zt = lax_tilde(k, u, ux, uxx, v, vx)
    big_l = pinv @ lt @ p
    big_z = pinv @ zt @ p
    cal_l = np.diag(eval_l_all(k))
    cal_z = np.diag(eval_z_all(k))
    return LaxMatrices(big_l, big_z, cal_l, cal_z, big_l - cal_l, big_z - cal_z, lam(k))


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
    """A point of the spectral plane with its cached classification."""

    k: complex
    sector: Sector
    subregion: Subregion

    @property
    def on_contour(self) -> bool:
        return self.sector is Sector.ON_CONTOUR


def classify(k) -> SpectralPoint:
    """Assign the sector D1..D6 and, inside D2, the finer subregion.

    Points within ``TOL_CONTOUR`` of the contour (six rays + unit circle) get the
    on-contour marker and no subregion; boundary rays are owned by no sector.
    """
    k = complex(k)
    if k == 0:
        raise DomainError("cannot classify k = 0")
    if dist_to_gamma(k) < TOL_CONTOUR:
        return SpectralPoint(k, Sector.ON_CONTOUR, Subregion.NONE)

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
    return SpectralPoint(k, sector, sub)


def sector_after_rotation(sector: Sector) -> Sector:
    """Sector containing omega*k when k lies in ``sector`` (n -> n+2 mod 6)."""
    if sector is Sector.ON_CONTOUR:
        return sector
    return Sector((sector.value + 2 - 1) % 6 + 1)


def sector_after_inversion(sector: Sector) -> Sector:
    """Sector containing 1/k when k lies in ``sector`` (n -> 7 - n)."""
    if sector is Sector.ON_CONTOUR:
        return sector
    return Sector(7 - sector.value)
