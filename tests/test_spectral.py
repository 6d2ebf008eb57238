import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boussinesq_ist import jumps as jp
from boussinesq_ist import scattering as sc
from boussinesq_ist import solitons as sol
from boussinesq_ist import spectral as sp

import paper_identities as pi

RNG = np.random.default_rng(2024)
SAMPLES = RNG.normal(size=12) + 1j * RNG.normal(size=12)
SAMPLES = SAMPLES[np.abs(SAMPLES) > 0.2]


def test_unity_roots():
    assert abs(sp.OMEGA**3 - 1.0) < 1e-15
    for j, kap in enumerate(sp.KAPPA):
        assert abs(kap - np.exp(1j * np.pi * j / 3)) < 1e-15
        assert abs(abs(kap) - 1.0) < 1e-15
    assert len(sp.QHAT) == 7 and 0j in sp.QHAT


def test_l_at_unit_argument():
    # symmetry forces the third rate at k=1 to i/sqrt(3)
    assert abs(sp.eval_l(3, 1.0) - 1j / np.sqrt(3.0)) < 1e-14


def test_l_sum_vanishes():
    for k in SAMPLES:
        assert abs(sum(sp.eval_l(j, k) for j in (1, 2, 3))) < 1e-12


def test_l_inversion_swaps_first_two():
    for k in SAMPLES:
        assert abs(sp.eval_l(1, 1.0 / k) - sp.eval_l(2, k)) < 1e-12
        assert abs(sp.eval_l(2, 1.0 / k) - sp.eval_l(1, k)) < 1e-12
        assert abs(sp.eval_l(3, 1.0 / k) - sp.eval_l(3, k)) < 1e-12


def test_z_rates_share_the_root_of_unity_algebra():
    for k in SAMPLES:
        assert abs(sum(sp.eval_z(j, k) for j in (1, 2, 3))) < 1e-12
        assert abs(sp.eval_z(1, 1.0 / k) - sp.eval_z(2, k)) < 1e-12
        assert abs(sp.eval_z(3, 1.0 / k) - sp.eval_z(3, k)) < 1e-12
        # rotation shifts the index cyclically
        assert abs(sp.eval_z(1, sp.OMEGA * k) - sp.eval_z(2, k)) < 1e-12


def test_theta_zero_args_and_cocycle():
    for k in SAMPLES[:5]:
        assert sp.eval_theta(2, 1, 0.0, 0.0, k) == 0
        th = sp.eval_theta(3, 1, 0.7, 0.3, k)
        assert abs(th - sp.eval_theta(3, 2, 0.7, 0.3, k) - sp.eval_theta(2, 1, 0.7, 0.3, k)) < 1e-13


def test_theta21_real_on_real_axis():
    for k0 in (1.5, 2.0, 37.0, -0.3, -0.9):
        th = sp.eval_theta(2, 1, 1.3, 0.4, k0)
        assert abs(th.imag) < 1e-13
        assert np.exp(-th).real > 0


def test_lambda_invariance():
    for k in SAMPLES:
        assert abs(pi.lam(sp.OMEGA * k) - pi.lam(k)) < 1e-12 * max(1, abs(pi.lam(k)))
        assert abs(pi.lam(1.0 / k) - pi.lam(k)) < 1e-12 * max(1, abs(pi.lam(k)))


def test_diagonal_conjugation_symmetries():
    for k in SAMPLES:
        d = np.diag(sp.eval_l_all(k))
        dw = np.diag(sp.eval_l_all(sp.OMEGA * k))
        di = np.diag(sp.eval_l_all(1.0 / k))
        np.testing.assert_allclose(d, sp.MAT_A @ dw @ np.linalg.inv(sp.MAT_A), atol=1e-12)
        np.testing.assert_allclose(d, sp.MAT_B @ di @ sp.MAT_B, atol=1e-12)


def test_permutation_matrices():
    np.testing.assert_allclose(np.linalg.matrix_power(sp.MAT_A, 3), np.eye(3), atol=0)
    np.testing.assert_allclose(sp.MAT_B @ sp.MAT_B, np.eye(3), atol=0)


def test_vandermonde_symmetries_and_det():
    for k in SAMPLES:
        p = pi.vandermonde(k)
        np.testing.assert_allclose(
            p, pi.vandermonde(sp.OMEGA * k) @ np.linalg.inv(sp.MAT_A), atol=1e-10
        )
        np.testing.assert_allclose(p, pi.vandermonde(1.0 / k) @ sp.MAT_B, atol=1e-10)
        assert abs(np.linalg.det(p) - pi.vandermonde_det(k)) < 1e-10


def test_vandermonde_inverse_identity():
    for k in SAMPLES:
        if sp.dist_to_qhat(k) < 0.05:
            continue
        p = pi.vandermonde(k)
        pinv = pi.vandermonde_inv(k)
        np.testing.assert_allclose(pinv @ p, np.eye(3), atol=1e-12)


def test_vandermonde_inverse_refuses_near_roots():
    with pytest.raises(sp.DomainError):
        pi.vandermonde_inv(1.0 + 1e-8)


def test_eval_l_rejects_zero():
    with pytest.raises(sp.DomainError):
        sp.eval_l(1, 0.0)
    with pytest.raises(sp.DomainError):
        sp.eval_theta(1, 1, 0.0, 0.0, 2.0)


def test_rtilde_values():
    w = sp.OMEGA
    assert abs(sp.rtilde(0.0) - w**2) < 1e-15
    assert abs(sp.rtilde(1.0) - (-1.0)) < 1e-14
    # unimodular exactly at the four points k = +-1, +-i
    for k in (1.0, -1.0, 1j, -1j):
        assert abs(abs(sp.rtilde(k)) - 1.0) < 1e-13
    with pytest.raises(sp.DomainError):
        sp.rtilde(w**2)
    # pole/zero structure: zeros at +-omega
    assert abs(sp.rtilde(w)) < 1e-14
    assert abs(sp.rtilde(-w)) < 1e-14


def test_r_matrix_invertible_off_roots():
    for k in SAMPLES:
        if sp.dist_to_qhat(k) < 0.05:
            continue
        r = pi.r_matrix(k)
        assert abs(np.linalg.det(r)) > 1e-12
    with pytest.raises(sp.DomainError):
        pi.r_matrix(sp.OMEGA)


# ---------------------------------------------------------------------------
# Lax matrices
# ---------------------------------------------------------------------------


def test_lax_zero_potential():
    big_u, big_v = pi.lax_residues(1.7 + 0.3j, 0, 0, 0, 0, 0)
    assert np.max(np.abs(big_u)) < 1e-13
    assert np.max(np.abs(big_v)) < 1e-13


def test_lax_trace_free_potential():
    rng = np.random.default_rng(7)
    for _ in range(5):
        k = rng.normal() + 1j * rng.normal()
        if abs(k) < 0.3 or sp.dist_to_qhat(k) < 0.05:
            continue
        args = rng.normal(size=5)
        big_u, big_v = pi.lax_residues(k, *args)
        assert abs(np.trace(big_u)) < 1e-12
        assert abs(np.trace(big_v)) < 1e-11


def _generators(k):
    """G1 = P^-1 E31 P = c (1,1,1)^T and G2 = P^-1 E32 P = c (l1,l2,l3)^T."""
    ls = sp.eval_l_all(k)
    c = sp.potential_factor(ls)[..., :, None]
    return c * np.ones_like(ls)[..., None, :], c * ls[..., None, :]


def test_lax_matches_reduced_potential_form():
    # the conjugated x-part potential must equal the two-entry companion block
    k = 1.7 + 0.3j
    u, ux, uxx, v, vx = 0.5, -0.2, 0.1, 0.3, 0.05
    big_u, _ = pi.lax_residues(k, u, ux, uxx, v, vx)
    n1, n2 = sp.potential_entries(u, ux, v)
    g1, g2 = _generators(k)
    np.testing.assert_allclose(big_u, n1 * g1 + n2 * g2, atol=1e-13)



def test_lax_tilde_broadcasts_over_fields():
    # each entry of the field-array call is the scalar call (numpy's array
    # loops may round complex division differently in the last bit)
    k = 1.3 + 0.4j
    rng = np.random.default_rng(3)
    cols = rng.normal(size=(4, 2, 1))  # u, ux, uxx, v down a column
    row = rng.normal(size=(1, 4))  # vx along a row
    lt, zt = pi.l_tilde(k, *cols, row), pi.z_tilde(k, *cols, row)
    assert lt.shape == zt.shape == (2, 4, 3, 3)
    for i in range(2):
        for j in range(4):
            point = (*(float(f) for f in cols[:, i, 0]), float(row[0, j]))
            ls, zs = pi.l_tilde(k, *point), pi.z_tilde(k, *point)
            np.testing.assert_allclose(lt[i, j], ls, rtol=0, atol=1e-15)
            np.testing.assert_allclose(zt[i, j], zs, rtol=0, atol=1e-15)

def test_potential_is_nilpotent():
    k = 0.8 - 0.6j
    n1, n2 = sp.potential_entries(0.4, 0.3, -0.2)
    g1, g2 = _generators(k)
    u = n1 * g1 + n2 * g2
    assert np.max(np.abs(u @ u)) < 1e-14


# ---------------------------------------------------------------------------
# sector geometry
# ---------------------------------------------------------------------------


def test_classification_examples():
    assert sp.classify(2 * np.exp(1j * np.pi / 12)).subregion is sp.Subregion.REG_R
    assert sp.classify(2 * np.exp(-1j * np.pi / 12)).subregion is sp.Subregion.SING_R
    assert sp.classify(2.0).subregion is sp.Subregion.REAL_RIGHT
    assert sp.classify(-0.5).subregion is sp.Subregion.REAL_LEFT
    assert sp.classify(0.5 * np.exp(1j * 13 * np.pi / 12)).subregion is sp.Subregion.REG_L
    assert sp.classify(0.5 * np.exp(1j * 11 * np.pi / 12)).subregion is sp.Subregion.SING_L


def test_on_contour_marker():
    pt = sp.classify(np.exp(1j * 0.4))
    assert pt.sector is sp.Sector.ON_CONTOUR and pt.subregion is sp.Subregion.NONE
    pt = sp.classify(2.0 * np.exp(1j * np.pi / 6))
    assert pt.sector is sp.Sector.ON_CONTOUR


def test_sector_rotation_is_cyclic_successor():
    # deterministic sample set covering all six sectors, inside and outside
    pts = []
    for m in range(6):
        ang = -np.pi / 6 + (m + 0.5) * np.pi / 3
        pts += [1.7 * np.exp(1j * ang), 0.55 * np.exp(1j * ang)]
    for k in pts:
        # rotation by omega takes D_n to D_{n+2 mod 6}, inversion D_n to D_{7-n}
        s = sp.classify(k).sector
        assert sp.classify(sp.OMEGA * k).sector is sp.Sector((s.value + 1) % 6 + 1)
        assert sp.classify(1.0 / k).sector is sp.Sector(7 - s.value)


def test_sector_labels_match_roots():
    # just outside the unit circle, between consecutive roots of unity
    assert sp.classify(1.1 * np.exp(1j * 0.01)).sector is sp.Sector.D2
    assert sp.classify(1.1 * np.exp(1j * (np.pi / 3))).sector is sp.Sector.D3
    assert sp.classify(0.9 * np.exp(1j * np.pi)).sector is sp.Sector.D2


def test_classify_rejects_zero():
    with pytest.raises(sp.DomainError):
        sp.classify(0.0)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(st.floats(1.1, 4.0), st.floats(-0.9, -0.1)),
    st.floats(-2.0, 2.0),
)
def test_every_layer_shares_the_real_axis_rule(re, frac):
    # |Im k| spans both sides of the threshold 1e-9 max(1, |k|)
    k = complex(re, frac * 1e-9 * max(1.0, abs(re)))
    real = sp.on_real_axis(k)
    c = sol.residue_constant_from_position(re, 0.0)
    try:
        kind = sol.wave_poles([(k, c)])[0].kind
    except sol.SingularBreatherError:  # a breather pole in a singular subregion
        kind = "breather"
    assert (kind == "soliton") == real
    real_sub = sp.classify(k).subregion in (sp.Subregion.REAL_RIGHT, sp.Subregion.REAL_LEFT)
    assert real_sub == real
    assert len(jp.circle_system([k], {k: c})) == (6 if real else 12)
    g1, g4, circle = sc.gamma1_samples(2), sc.gamma4_samples(2), sc.circle_samples(6)
    sd = sc.ScatteringData(g1, 0 * g1, g4, 0 * g4, circle, 0 * circle, 0 * circle, residues={k: 1.0})
    evolved = sc.evolve_scattering(sd, 1.0).residues[k]
    partner = 2 if real else 3
    assert evolved == np.exp((sp.eval_z(1, k) - sp.eval_z(partner, k)) * 1.0)
