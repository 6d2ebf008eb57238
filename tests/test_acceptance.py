"""Acceptance battery.

One test per numbered criterion; each prints a single PASS line with the
measured figures once its assertions hold, and fails loudly otherwise.
Stated runtime budgets are asserted too. Run with ``pytest -s`` to see the
lines as they appear.
"""

import json
import time

import numpy as np
import pytest

from boussinesq_ist import fileio
from boussinesq_ist import jumps as jp
from boussinesq_ist import scattering as sc
from boussinesq_ist import solitons as sol
from boussinesq_ist import spectral as sp
from boussinesq_ist import verify as vf
from boussinesq_ist.cli import main

import paper_identities as pi

W = sp.OMEGA


def _report(num, elapsed, budget, detail):
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.2f}s / budget {budget:.0f}s) {detail}")
    assert elapsed < budget


# ---------------------------------------------------------------------------


def test_criterion_1_one_soliton_reproduction(tmp_path):
    start = time.time()
    out = tmp_path / "sol"
    assert main(["soliton", "--k0", "2", "--x0", "0", "--tvals", "0,0.5,1",
                 "--out", str(out)]) == 0
    fld = fileio.read_field(str(out / "solution.csv"))
    amp, speed = 27.0 / 32.0, 5.0 / 4.0
    xi = fld.x[None, :] - speed * fld.t[:, None]
    oracle = amp / np.cosh(np.sqrt(amp / 6.0) * xi) ** 2
    sup = float(np.max(np.abs(fld.u - oracle)))
    assert fld.x[0] == -30.0 and fld.x[-1] == 30.0
    assert sup < 1e-10
    _report(1, time.time() - start, 1.0, f"sup error {sup:.2e} vs sech^2 normal form")


def test_criterion_2_singularity_classification():
    start = time.time()
    k0 = 2.0
    chi = 1.0 / (1j * (W**2 * k0**2 - W))  # unit of the positivity combination
    taus = np.linspace(1e-6, 50.0, 100)
    neg = [sol.classify_one_soliton(k0, -t * chi) for t in taus]
    assert all(r == "singular" for r in neg)
    pos = [sol.classify_one_soliton(k0, t * chi) for t in taus]
    pos.append(sol.classify_one_soliton(k0, 0.0))
    assert all(r in ("regular", "zero") for r in pos)
    _report(2, time.time() - start, 1.0,
            "100 singular-ray constants refused, 101 regular-ray accepted")


def test_criterion_3_breather_regularity():
    start = time.time()
    k0 = 2 * np.exp(1j * np.pi / 12)
    cs = [
        sol.breather_constant_for_position(k0, 0.0, 0.0),
        sol.breather_constant_for_position(k0, 3.0, 1.2),
        0.05 * (1.0 + 2.0j),
    ]
    xg = np.linspace(-50, 50, 1000)[None, :]
    tg = np.linspace(0, 5, 100)[:, None]
    min_det = np.inf
    max_im = 0.0
    worst_res = 0.0
    for c in cs:
        det = pi.det_i_minus_a(k0, c, xg, tg)
        assert det.shape == (100, 1000)
        min_det = min(min_det, float(det.min()))
        assert np.all(det > 0)
        grid = sol.Grid(np.linspace(-18, 18, 3601), 0.5 + 0.001 * np.arange(-2, 3))
        fld = sol.breather(k0, c, grid)  # raises if |Im u| > 1e-9
        worst_res = max(worst_res, vf.pde_residual(fld)["max_abs_residual"])
    assert worst_res < 1e-3
    # singular side: the determinant changes sign in x for each fixed t
    ks = 2 * np.exp(-1j * np.pi / 12)
    x = np.linspace(-90, 90, 20001)
    for t in (0.0, 1.0, 2.0):
        det = pi.det_i_minus_a(ks, 0.3 + 0.2j, x, t)
        assert det.min() < 0.0 < det.max()
    _report(3, time.time() - start, 30.0,
            f"min det(I-A) = {min_det:.3e} over 1e5 points x 3 constants, "
            f"max residual {worst_res:.2e}, sign change found at t=0,1,2")


def test_criterion_4_h_indicator_inequalities():
    start = time.time()
    rng = np.random.default_rng(12345)
    n = 1000
    # regular subregions: outer upper wedge and inner lower wedge
    r_out = np.exp(rng.uniform(np.log(1.001), np.log(6.0), n // 2))
    a_out = rng.uniform(1e-3, np.pi / 6 - 1e-3, n // 2)
    r_in = 1.0 / np.exp(rng.uniform(np.log(1.001), np.log(6.0), n - n // 2))
    a_in = np.pi + rng.uniform(1e-3, np.pi / 6 - 1e-3, n - n // 2)
    reg = np.concatenate([r_out * np.exp(1j * a_out), r_in * np.exp(1j * a_in)])
    h_reg = np.array([sol.h_indicator(k) for k in reg])
    assert np.all(h_reg > 4.0 - 1e-10)
    sing = np.concatenate([r_out * np.exp(-1j * a_out), r_in * np.exp(1j * (2 * np.pi - a_in))])
    h_sing = np.array([sol.h_indicator(k) for k in sing])
    assert np.all(h_sing < -0.5 + 1e-10)
    _report(4, time.time() - start, 1.0,
            f"1000 regular points: min h = {h_reg.min():.3f} > 4; "
            f"1000 singular points: max h = {h_sing.max():.3f} < -1/2")


def test_criterion_5_n_soliton_oracle_equivalence(tmp_path):
    start = time.time()
    # single real pole through the CLI vs the closed form
    c = sol.residue_constant_from_position(2.0, 0.5)
    o1 = tmp_path / "n1"
    assert main(["nsoliton", "--pole", f"2,0,{c.real!r},{c.imag!r}",
                 "--tvals", "0,0.5,1", "--out", str(o1)]) == 0
    grid = sol.Grid(np.linspace(-30, 30, 6001), [0.0, 0.5, 1.0])
    ref = sol.one_soliton(2.0, c, grid)
    got = fileio.read_field(str(o1 / "solution.csv"))
    err_real = float(np.max(np.abs(got.u - ref.u)))
    assert err_real < 1e-8

    # single complex pole vs the closed form from the breather's tau-function
    k0 = 2 * np.exp(1j * np.pi / 12)
    cb = sol.breather_constant_for_position(k0, 0.0, 0.7)
    o2 = tmp_path / "n2"
    assert main(["nsoliton", "--pole",
                 f"{float(k0.real)!r},{float(k0.imag)!r},{float(cb.real)!r},{float(cb.imag)!r}",
                 "--tvals", "0,0.5,1", "--out", str(o2)]) == 0
    refb = sol.breather(k0, cb, grid)
    gotb = fileio.read_field(str(o2 / "solution.csv"))
    err_cplx = float(np.max(np.abs(gotb.u - refb.u)))
    assert err_cplx < 1e-8

    # two-pole run satisfies the wave equation
    cl = sol.residue_constant_from_position(-0.5, 12.0)
    cr = sol.residue_constant_from_position(2.0, -12.0)
    o3 = tmp_path / "n3"
    assert main(["nsoliton",
                 f"--pole=2,0,{cr.real!r},{cr.imag!r}",
                 f"--pole=-0.5,0,{cl.real!r},{cl.imag!r}",
                 "--tvals", "0.498,0.499,0.5,0.501,0.502", "--out", str(o3)]) == 0
    f2 = fileio.read_field(str(o3 / "solution.csv"))
    res = vf.pde_residual(f2)["max_abs_residual"]
    assert res < 1e-3
    _report(5, time.time() - start, 120.0,
            f"closed-form agreement {err_real:.2e} (real) / {err_cplx:.2e} (complex); "
            f"two-pole residual {res:.2e}")


def test_criterion_6_direct_scattering_identities():
    start = time.time()
    x = np.linspace(-30, 30, 6001)
    data = sc.InitialData(x, np.exp(-(x**2)), np.zeros_like(x))
    sd = sc.reflection_coefficients(data)
    n = sd.circle.size
    i = np.arange(n)
    rot = lambda idx, m: (idx + m * (n // 3)) % n
    conj = lambda idx: (n - 1 - idx) % n
    r1c, r2c = sd.r1_circle, sd.r2_circle

    # connection determinants on a circle subsample
    det_dev = 0.0
    for k in sd.circle[:: n // 24]:
        s, sa, sdef, sadef = pi.scattering_matrices(data, k)
        assert sdef.all() and sadef.all()
        det_dev = max(det_dev, abs(np.linalg.det(s) - 1), abs(np.linalg.det(sa) - 1))
    assert det_dev < 1e-5

    # values at the unit points
    i_p = np.argmin(np.abs(sd.circle - 1.0))
    i_m = np.argmin(np.abs(sd.circle + 1.0))
    r1_at_1 = max(abs(r1c[i_p] - 1.0), abs(r1c[i_m] - 1.0))
    r2_at_1 = max(abs(r2c[i_p] + 1.0), abs(r2c[i_m] + 1.0))
    assert r1_at_1 < 2e-2 and r2_at_1 < 2e-2

    # circle relation on every sample
    circ = r1c[conj(rot(i, 1))] + r2c[rot(i, 1)] + r1c[rot(i, 2)] * r2c[conj(i)]
    circ_res = float(np.max(np.abs(circ)))
    assert circ_res < 1e-4

    # conjugation relation away from the excluded points
    away = sp.dist_to_qhat(sd.circle) > 0.05
    kbar_res = float(np.max(np.abs((r2c - sp.rtilde(sd.circle) * np.conj(r1c))[away])))
    assert kbar_res < 1e-4

    # both equivalent circle-relation forms agree with the sampled r2
    den = 1.0 - r1c[rot(i, 1)] * r1c[conj(rot(i, 1))]
    num = r1c[rot(i, 1)] * r1c[rot(i, 2)] - r1c[conj(i)]
    okd = away & (np.abs(den) > 1e-3)
    eq_res = float(np.max(np.abs((r2c - num / den)[okd])))
    assert eq_res < 1e-6

    # arc weight: real, nonnegative, vanishing exactly at the four points
    f_vals = 1.0 + r1c * r2c + r1c[conj(rot(i, 2))] * r2c[conj(rot(i, 2))]
    assert float(np.max(np.abs(f_vals.imag))) < 1e-8
    f_min = float(np.min(f_vals.real))
    assert f_min > -1e-6
    for target in (1.0, -1.0, W, -W):
        sel = np.abs(sd.circle - target) < 0.1
        assert np.min(f_vals.real[sel]) < 1e-3
    ang = np.mod(np.angle(sd.circle), 2 * np.pi)
    arcs = ((ang > 2 * np.pi / 3) & (ang < np.pi)) | ((ang > 5 * np.pi / 3) & (ang < 2 * np.pi))
    assert float(np.max(f_vals.real[arcs])) <= 1.0 + 1e-8

    # log-density sign reports on their arcs
    nu1 = -np.log(np.abs(1 + r1c[rot(i, 1)] * r2c[rot(i, 1)])) / (2 * np.pi)
    nu2 = -np.log(np.abs(1 + r1c[rot(i, 2)] * r2c[rot(i, 2)])) / (2 * np.pi)
    nu3 = -np.log(np.abs(f_vals[rot(i, 1)])) / (2 * np.pi)
    nu4 = -np.log(np.abs(f_vals[rot(i, 2)])) / (2 * np.pi)
    sel1 = (ang > 5 * np.pi / 3 + 0.01) & (ang < 2 * np.pi - 0.01)
    sel2 = (ang > np.pi + 0.01) & (ang < 4 * np.pi / 3 - 0.01)
    assert float(np.min((nu3 - nu1)[sel1])) > -1e-8
    assert float(np.min((nu2 + nu3 - nu4)[sel2])) > -1e-8

    _report(6, time.time() - start, 300.0,
            f"det dev {det_dev:.1e}; r1(+-1) off by {r1_at_1:.1e}; circle rel "
            f"{circ_res:.1e}; conj rel {kbar_res:.1e}; min f {f_min:.1e}")


def test_criterion_7_round_trip():
    start = time.time()
    c = sol.residue_constant_from_position(2.0, -3.0)
    rep_s = vf.round_trip([(2.0, c)])
    assert rep_s["passed"]
    k0 = 2 * np.exp(1j * np.pi / 12)
    cb = sol.breather_constant_for_position(k0, 0.0, 0.7)
    rep_b = vf.round_trip([(k0, cb)])
    assert rep_b["passed"]
    _report(7, time.time() - start, 300.0,
            f"soliton pole err {min(rep_s['pole_errors'].values()):.1e}, residue err "
            f"{min(rep_s['residue_errors'].values()):.1e}, floor {rep_s['reflection_floor']:.1e}; "
            f"breather pole err {min(rep_b['pole_errors'].values()):.1e}, residue err "
            f"{min(rep_b['residue_errors'].values()):.1e}")


def test_criterion_8_time_evolution_consistency():
    start = time.time()
    k0 = 2.0
    c = sol.residue_constant_from_position(k0, -2.0)
    grid = sol.Grid(np.linspace(-35, 35, 7001), [0.0, 1.0])
    fld = sol.n_soliton([(k0, c)], grid)
    # 50 samples on the first ray contour where the dressing stays bounded
    m = np.logspace(np.log10(0.5), 1.0, 50)
    m = m[np.abs(m - 1.0) > 1e-9]
    ks = np.where(m < 1.0, 1j * m, -1j * m)

    def r1_of(u, v):
        return sc._r_values(sc.InitialData(grid.x, u, v), "X", ks)

    r1_t1 = r1_of(fld.u[1], fld.v[1])
    r1_t0 = r1_of(fld.u[0], fld.v[0])
    dress = np.exp(-(sp.eval_z(2, ks) - sp.eval_z(1, ks)) * 1.0)
    dev = float(np.max(np.abs(r1_t1 - r1_t0 * dress)))
    assert dev < 1e-3
    # the pole set is invariant and the residue constant evolves by its phase
    d1 = sc.InitialData(grid.x, fld.u[1], fld.v[1])
    poles = sc.find_poles(d1)
    assert len(poles) == 1 and abs(poles[0] - k0) < 1e-3
    chat, _ = sc.residue_constant(d1, poles[0])
    c_expect = c * np.exp((sp.eval_z(1, k0) - sp.eval_z(2, k0)) * 1.0)
    rel = abs(chat - c_expect) / abs(c_expect)
    assert rel < 1e-3
    _report(8, time.time() - start, 300.0,
            f"50-sample dressing deviation {dev:.2e}; pole invariant; "
            f"residue evolution error {rel:.2e}")


def test_criterion_9_jump_matrix_properties():
    start = time.time()
    rng = np.random.default_rng(99)
    sd = jp.synthetic_scattering_data(seed=5)
    worst_det = 0.0
    for _ in range(1000):
        seg = int(rng.integers(1, 10))
        k = jp.sample_segment(seg, 1, rng)[0]
        x, t = rng.uniform(-3, 3), rng.uniform(0, 2)
        v = jp.build_v(sd, x, t, k, seg)
        worst_det = max(worst_det, abs(np.linalg.det(v) - 1.0))
    assert worst_det < 1e-10

    worst_rsym = 0.0
    done = 0
    while done < 200:
        phi = rng.uniform(0.05, 2 * np.pi - 0.05)
        if min(abs(phi - mm * np.pi / 3) for mm in range(7)) < 0.05:
            continue
        k = np.exp(1j * phi)
        x, t = rng.uniform(-2, 2), rng.uniform(0, 1)
        vk = jp.build_v(sd, x, t, k, pi.segment_of_circle_point(k))
        vkb = jp.build_v(sd, x, t, np.conj(k), pi.segment_of_circle_point(np.conj(k)))
        r = pi.r_matrix(k)
        worst_rsym = max(worst_rsym, float(np.max(np.abs(
            np.conj(np.linalg.inv(vkb)).T - np.linalg.inv(r) @ vk @ r))))
        done += 1

    k0r, k0c = 2.0, 2 * np.exp(1j * np.pi / 12)
    residues = {k0r: sol.residue_constant_from_position(2.0, 0.5), k0c: 0.3 + 0.2j}
    circles = jp.circle_system([k0r, k0c], residues)
    worst_unip = 0.0
    by_tag = {(c.rot, c.kind, c.k0): c for c in circles}
    for cir in circles:
        for _ in range(10):
            k = cir.point(rng.uniform(0, 2 * np.pi))
            x, t = rng.uniform(-2, 2), rng.uniform(0, 1)
            v = jp.circle_jump(cir, x, t, k)
            w = v - np.eye(3)
            worst_unip = max(worst_unip, float(np.max(np.abs(w @ w))))
    # conjugation symmetry on the circle pairs
    plain = by_tag[(0, "plain", k0c)]
    star = by_tag[(0, "star", k0c)]
    realc = by_tag[(0, "plain", k0r)]
    for _ in range(50):
        x, t = rng.uniform(-2, 2), rng.uniform(0, 1)
        k = plain.point(rng.uniform(0, 2 * np.pi))
        r = pi.r_matrix(k)
        worst_rsym = max(worst_rsym, float(np.max(np.abs(
            np.conj(np.linalg.inv(jp.circle_jump(star, x, t, np.conj(k)))).T
            - np.linalg.inv(r) @ jp.circle_jump(plain, x, t, k) @ r))))
        k = realc.point(rng.uniform(0, 2 * np.pi))
        r = pi.r_matrix(k)
        worst_rsym = max(worst_rsym, float(np.max(np.abs(
            np.conj(np.linalg.inv(jp.circle_jump(realc, x, t, np.conj(k)))).T
            - np.linalg.inv(r) @ jp.circle_jump(realc, x, t, k) @ r))))
    assert worst_rsym < 1e-9
    assert worst_unip < 1e-12
    _report(9, time.time() - start, 10.0,
            f"1000 dets off by {worst_det:.1e}; R-symmetry {worst_rsym:.1e}; "
            f"unipotency {worst_unip:.1e}")


def test_criterion_10_conservation_and_lax():
    start = time.time()
    c = sol.residue_constant_from_position(2.0, 0.0)
    grid5 = sol.Grid(np.linspace(-30, 30, 6001), np.linspace(0, 1, 5))
    fld5 = sol.one_soliton(2.0, c, grid5)
    mass = vf.mass_conservation(fld5)
    assert mass["max_deviation"] < 1e-6
    kb = 8 * np.exp(1j * np.pi / 12)
    cb = sol.breather_constant_for_position(kb, 0.0, 0.4)
    fldb = sol.breather(kb, cb, sol.Grid(np.linspace(-30, 30, 6001), np.linspace(0, 1, 5)))
    massb = vf.mass_conservation(fldb)
    assert massb["max_deviation"] < 1e-5

    grid = sol.Grid(np.linspace(-30, 30, 6001), 0.5 + 0.001 * np.arange(-2, 3))
    fld = sol.one_soliton(2.0, c, grid)
    lax_exact = vf.lax_compatibility(fld)["max_residual"]
    assert lax_exact < 1e-3
    wobble = 0.1 * np.cos(4 * grid.x[None, :]) * np.exp(-((grid.x[None, :] - 1.0) ** 2))
    bad = sol.SolutionField(fld.x, fld.t, fld.u + wobble, v=fld.v)
    lax_bad = vf.lax_compatibility(bad)["max_residual"]
    assert lax_bad >= 1e-1
    _report(10, time.time() - start, 60.0,
            f"mass deviation {mass['max_deviation']:.1e} (soliton) / "
            f"{massb['max_deviation']:.1e} (breather); Lax {lax_exact:.1e} exact vs "
            f"{lax_bad:.1e} control")
