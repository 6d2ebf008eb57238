import numpy as np
import pytest

from boussinesq_ist import jumps as jp
from boussinesq_ist import solitons as sol
from boussinesq_ist import spectral as sp

import paper_identities as pi

W = sp.OMEGA


@pytest.fixture(scope="module")
def sd():
    return jp.synthetic_scattering_data(seed=3)


def test_synthetic_data_satisfies_both_relations(sd):
    rng = np.random.default_rng(7)
    ks = np.exp(1j * rng.uniform(0.02, 2 * np.pi - 0.02, size=48))
    r1, r2 = sd.eval_r1, sd.eval_r2
    assert np.max(np.abs(r2(ks) - sp.rtilde(ks) * np.conj(r1(ks)))) < 1e-12
    worst = 0.0
    for k in ks:
        worst = max(
            worst,
            abs(r1(1 / (W * k)) + r2(W * k) + r1(W**2 * k) * r2(1 / k)),
        )
    assert worst < 1e-12


def test_synthetic_data_continuous_at_junctions(sd):
    for m in range(6):
        ang = m * np.pi / 3
        va = sd.eval_r1(np.exp(1j * (ang - 1e-6)))
        vb = sd.eval_r1(np.exp(1j * (ang + 1e-6)))
        assert abs(va - vb) < 1e-4


def test_zero_data_gives_identity_jumps():
    sd0 = jp.ExactReflection(np.zeros_like, np.zeros_like)
    rng = np.random.default_rng(0)
    for seg in range(1, 10):
        k = jp.sample_segment(seg, 1, rng)[0]
        v = jp.build_v(sd0, 0.3, 0.1, k, seg)
        np.testing.assert_allclose(v, np.eye(3), atol=1e-14)
    assert pi.f_function(sd0, np.exp(0.4j)) == pytest.approx(1.0)
    nus = pi.nu_functions(sd0, np.exp(0.4j))
    assert max(abs(x) for x in nus) == 0.0


def test_unit_determinants_all_segments(sd):
    rng = np.random.default_rng(11)
    worst = 0.0
    for seg in range(1, 10):
        ks = jp.sample_segment(seg, 25, rng)
        for k in ks:
            x, t = rng.uniform(-3, 3), rng.uniform(0, 2)
            v = jp.build_v(sd, x, t, k, seg)
            worst = max(worst, abs(np.linalg.det(v) - 1.0))
    assert worst < 1e-10


def test_cyclic_consistency(sd):
    rng = np.random.default_rng(13)
    worst = 0.0
    for seg in range(1, 10):
        for k in jp.sample_segment(seg, 8, rng):
            x, t = rng.uniform(-2, 2), rng.uniform(0, 1)
            lhs = jp.build_v(sd, x, t, k, seg)
            rhs = (
                sp.MAT_A
                @ jp.build_v(sd, x, t, W * k, jp.ROTATION_MAP[seg])
                @ np.linalg.inv(sp.MAT_A)
            )
            worst = max(
                worst, np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(lhs)))
            )
    assert worst < 1e-10


def test_conjugation_symmetry_on_arcs(sd):
    rng = np.random.default_rng(17)
    worst = 0.0
    done = 0
    while done < 40:
        phi = rng.uniform(0.05, 2 * np.pi - 0.05)
        if min(abs(phi - m * np.pi / 3) for m in range(7)) < 0.05:
            continue
        k = np.exp(1j * phi)
        x, t = rng.uniform(-2, 2), rng.uniform(0, 1)
        vk = jp.build_v(sd, x, t, k, pi.segment_of_circle_point(k))
        vkb = jp.build_v(sd, x, t, np.conj(k), pi.segment_of_circle_point(np.conj(k)))
        r = pi.r_matrix(k)
        worst = max(
            worst,
            np.max(np.abs(np.conj(np.linalg.inv(vkb)).T - np.linalg.inv(r) @ vk @ r)),
        )
        done += 1
    assert worst < 1e-9


def test_near_pole_guard(sd):
    with pytest.raises(jp.NearPoleError):
        jp.build_v(sd, 0.0, 0.0, W**2 * (1 + 2e-4), 4)


def test_nu_log_guard():
    bad = jp.ExactReflection(
        lambda k: 2j * np.ones(np.shape(k)),
        lambda k: 2j * np.ones(np.shape(k)),
    )
    with pytest.raises(pi.InequalityViolatedError):
        pi.nu_functions(bad, np.exp(0.3j))


def test_f_requires_circle(sd):
    with pytest.raises(sp.DomainError):
        pi.f_function(sd, 1.2)


# ---------------------------------------------------------------------------
# circle system
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def circles():
    k0r = 2.0
    cr = sol.residue_constant_from_position(2.0, 0.5)
    k0c = 2 * np.exp(1j * np.pi / 12)
    cc = 0.3 + 0.2j
    return jp.circle_system([k0r, k0c], {k0r: cr, k0c: cc}), (k0r, cr), (k0c, cc)


def test_circle_counts_and_disjointness(circles):
    sys, _, _ = circles
    assert len(sys) == 6 + 12
    for i, a in enumerate(sys):
        assert sp.dist_to_gamma(np.array([a.center]))[0] > a.radius
        for b in sys[i + 1 :]:
            assert abs(a.center - b.center) > a.radius + b.radius


def test_circle_jumps_unipotent(circles):
    sys, _, _ = circles
    rng = np.random.default_rng(5)
    worst = 0.0
    for c in sys:
        for _ in range(4):
            k = c.point(rng.uniform(0, 2 * np.pi))
            v = jp.circle_jump(c, rng.uniform(-2, 2), rng.uniform(0, 1), k)
            w = v - np.eye(3)
            worst = max(worst, float(np.max(np.abs(w @ w))))
            assert abs(np.linalg.det(v) - 1.0) < 1e-12
    assert worst < 1e-12


def _find(sys, rot, kind, k0):
    for c in sys:
        if c.rot == rot and c.kind == kind and abs(c.k0 - k0) < 1e-12:
            return c
    raise KeyError((rot, kind, k0))


def test_named_forms_match_symmetry_extension(circles):
    sys, (k0r, cr), (k0c, cc) = circles
    x, t = 0.7, 0.4
    cases = [
        ("Q1", 0, "plain", k0c, cc),
        ("Q7", 0, "star", k0c, cc),
        ("Q2", 1, "plain", k0c, cc),
        ("Q5", 2, "inv", k0c, cc),
        ("Q11", 1, "invstar", k0c, cc),
        ("P1", 0, "plain", k0r, cr),
        ("P5", 2, "inv", k0r, cr),
        ("P6", 1, "inv", k0r, cr),
    ]
    for name, rot, kind, k0, c0 in cases:
        cir = _find(sys, rot, kind, k0)
        k = cir.point(0.9)
        a = pi.named_circle_jump(name, k0, c0, x, t, k)
        b = jp.circle_jump(cir, x, t, k)
        assert np.max(np.abs(a - b)) < 1e-10, name


def test_zero_constant_gives_identity_circles():
    sys = jp.circle_system([2.0], {2.0: 0.0})
    for c in sys:
        v = jp.circle_jump(c, 0.3, 0.1, c.point(1.0))
        np.testing.assert_allclose(v, np.eye(3), atol=0)


def test_conjugation_symmetry_on_circles(circles):
    sys, (k0r, cr), (k0c, cc) = circles
    x, t = 0.7, 0.4
    rng = np.random.default_rng(9)
    plain = _find(sys, 0, "plain", k0c)
    star = _find(sys, 0, "star", k0c)
    worst = 0.0
    for _ in range(10):
        k = plain.point(rng.uniform(0, 2 * np.pi))
        vk = jp.circle_jump(plain, x, t, k)
        vkb = jp.circle_jump(star, x, t, np.conj(k))
        r = pi.r_matrix(k)
        worst = max(
            worst,
            np.max(np.abs(np.conj(np.linalg.inv(vkb)).T - np.linalg.inv(r) @ vk @ r)),
        )
    # a real pole pairs with itself; needs conj(c) = -rtilde(k0) c
    real_cir = _find(sys, 0, "plain", k0r)
    assert abs(np.conj(cr) + sp.rtilde(k0r) * cr) < 1e-12
    for _ in range(10):
        k = real_cir.point(rng.uniform(0, 2 * np.pi))
        vk = jp.circle_jump(real_cir, x, t, k)
        vkb = jp.circle_jump(real_cir, x, t, np.conj(k))
        r = pi.r_matrix(k)
        worst = max(
            worst,
            np.max(np.abs(np.conj(np.linalg.inv(vkb)).T - np.linalg.inv(r) @ vk @ r)),
        )
    assert worst < 1e-9


def test_circle_residue_integral(circles):
    # -(1/2 pi i) times the contour integral of the (1,3) entry over the base
    # circle recovers the dressed residue coefficient, validating the
    # rational factor in the removal matrix
    sys, _, (k0c, cc) = circles
    plain = _find(sys, 0, "plain", k0c)
    x, t = 0.7, 0.4
    nq = 600
    ang = 2 * np.pi * (np.arange(nq) + 0.5) / nq
    pts = plain.point(ang)
    vals = np.array([jp.circle_jump(plain, x, t, k)[0, 2] for k in pts])
    dk = 1j * (pts - plain.center) * 2 * np.pi / nq
    integral = np.sum(vals * dk) / (2j * np.pi)
    expected = cc * np.exp(-sp.eval_theta(3, 1, x, t, k0c))
    assert abs(-integral - expected) < 1e-8
