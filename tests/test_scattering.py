import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boussinesq_ist import scattering as sc
from boussinesq_ist import solitons as sol
from boussinesq_ist import spectral as sp
from boussinesq_ist import volterra as vt

import paper_identities as pi

W = sp.OMEGA


@pytest.fixture(scope="module")
def gauss():
    x = np.linspace(-12, 12, 2401)
    return sc.InitialData(x, 0.8 * np.exp(-(x**2)), np.zeros_like(x))


@pytest.fixture(scope="module")
def soliton_data():
    k0 = 2.0
    c = sol.residue_constant_from_position(k0, -2.0)
    grid = sol.Grid(np.linspace(-35, 35, 7001), [0.0])
    fld = sol.n_soliton([(k0, c)], grid)
    return sc.InitialData(grid.x, fld.u[0], fld.v[0]), k0, c


# ---------------------------------------------------------------------------
# initial data validation
# ---------------------------------------------------------------------------


def test_initial_data_rejects_nonuniform():
    x = np.linspace(-5, 5, 101).copy()
    x[50] += 1e-3
    with pytest.raises(ValueError):
        sc.InitialData(x, np.zeros(101), np.zeros(101))


def test_initial_data_rejects_nan():
    x = np.linspace(-5, 5, 101)
    u = np.zeros(101)
    u[3] = np.nan
    with pytest.raises(ValueError):
        sc.InitialData(x, u, np.zeros(101))


def test_initial_data_from_u1():
    x = np.linspace(-10, 10, 801)
    u1 = -2 * x * np.exp(-(x**2))  # derivative of a gaussian: zero mean
    data = sc.InitialData.from_u1(x, np.exp(-(x**2)), u1)
    # trapezoid accumulation is second order in the grid step
    np.testing.assert_allclose(data.v0, np.exp(-(x**2)) - np.exp(-100.0), atol=5e-4)


def test_initial_data_u1_mass_violation():
    x = np.linspace(-10, 10, 801)
    with pytest.raises(ValueError):
        sc.InitialData.from_u1(x, np.exp(-(x**2)), np.exp(-(x**2)) * 1e-3)


def test_initial_data_decay_warning():
    x = np.linspace(-3, 3, 61)
    data = sc.InitialData(x, np.exp(-(x**2)), np.zeros_like(x))
    assert data.warnings  # edges ~ 1e-4 exceed the decay tolerance


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------


def test_zero_data_gives_identity_everywhere():
    x = np.linspace(-10, 10, 401)
    zero = sc.InitialData(x, np.zeros_like(x), np.zeros_like(x))
    traj, mask = pi.solve_volterra(zero, 1.4 + 0.2j, "X")
    assert mask[0]
    assert np.nanmax(np.abs(traj - np.eye(3))) == 0.0
    s, sa, sdef, sadef = pi.scattering_matrices(zero, np.exp(0.7j))
    np.testing.assert_allclose(s, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(sa, np.eye(3), atol=1e-14)


def test_unimodular_eigenfunction_on_circle(gauss):
    k = np.exp(0.4j)
    traj, mask = pi.solve_volterra(gauss, k, "X")
    assert mask.all()
    np.testing.assert_allclose(np.linalg.det(traj), 1.0, atol=1e-10)
    # normalized at the right infinity
    np.testing.assert_allclose(traj[-1], np.eye(3), atol=1e-12)
    trajy, _ = pi.solve_volterra(gauss, k, "Y")
    np.testing.assert_allclose(trajy[0], np.eye(3), atol=1e-12)


def test_column_masks_in_pole_sector(gauss):
    # ordering of the three rates in the pole sector: l1 < l3 < l2 (real parts)
    _, mask = pi.solve_volterra(gauss, 1.8 + 0.3j, "X")
    assert mask.tolist() == [True, False, False]
    _, mask = pi.solve_volterra(gauss, 1.8 + 0.3j, "XA")
    assert mask.tolist() == [False, True, False]
    _, mask = pi.solve_volterra(gauss, 1.8 + 0.3j, "Y")
    assert mask.tolist() == [False, True, False]
    _, mask = pi.solve_volterra(gauss, 1.8 + 0.3j, "YA")
    assert mask.tolist() == [True, False, False]


def test_unbounded_exponential_error_names_entry(gauss):
    ls = sp.eval_l_all(np.array([1.8 + 0.3j]))
    rows = vt.unstable_entries(ls, 2, "X")
    assert rows  # the growing row indices are reported
    with pytest.raises(vt.UnboundedExponentialError) as err:
        sc._march(gauss, [1.8 + 0.3j], "X", 2, want_traj=True)
    assert "(i, j)" in str(err.value)


def test_eigenfunction_rotation_symmetry(gauss):
    # X(x, k) = A X(x, w k) A^-1 on the unit circle where all columns exist
    k = np.exp(0.35j)
    xa, _ = pi.solve_volterra(gauss, k, "X")
    xb, _ = pi.solve_volterra(gauss, W * k, "X")
    conj = np.einsum("ij,xjl,lm->xim", sp.MAT_A, xb, np.linalg.inv(sp.MAT_A))
    assert np.max(np.abs(xa - conj)) < 1e-10


# ---------------------------------------------------------------------------
# connection matrices
# ---------------------------------------------------------------------------


def test_connection_determinants_on_circle(gauss):
    for k in (np.exp(0.4j), np.exp(2.2j), np.exp(-1.9j)):
        s, sa, sdef, sadef = pi.scattering_matrices(gauss, k)
        assert sdef.all() and sadef.all()
        assert abs(np.linalg.det(s) - 1) < 1e-6
        assert abs(np.linalg.det(sa) - 1) < 1e-6


def test_s11_rotation_symmetry(gauss):
    for k in (2.0 + 0.3j, 1.7 - 0.25j, -0.5 + 0.02j):
        a = sc.s11_batch(gauss, [k])[0]
        b = sc.s11_batch(gauss, [W / k])[0]
        assert abs(a - b) < 1e-12


def test_conjugation_symmetry_of_connection(gauss):
    k = np.exp(0.4j)
    s, _, _, _ = pi.scattering_matrices(gauss, k)
    _, sa_c, _, _ = pi.scattering_matrices(gauss, np.conj(k))
    r = pi.r_matrix(k)
    np.testing.assert_allclose(
        np.conj(sa_c), np.linalg.inv(r) @ s @ r, atol=2e-4
    )


def test_conjugate_derivative_relation(soliton_data):
    # derivative of the (1,1) entry at a zero matches the conjugate of the
    # adjugate (2,2) derivative at the mirror point
    data, k0, _ = soliton_data
    ds11 = sc._s11_derivative(data, k0)
    dsa22 = sc._sa22_derivative(data, k0)
    assert abs(np.conj(dsa22) - ds11) < 1e-6 * abs(ds11)


def test_m2_is_unimodular(gauss):
    m2 = pi.m2_matrix(gauss, 2.0 + 0.3j)
    np.testing.assert_allclose(np.linalg.det(m2), 1.0, atol=1e-10)


def test_eigenfunction_bundle(gauss):
    # on the circle all four eigenfunctions and both connection matrices exist
    k = np.exp(0.4j)
    mats = {}
    for kind in ("X", "XA", "Y", "YA"):
        mats[kind], mask = pi.solve_volterra(gauss, k, kind)
        assert mask.all()
    np.testing.assert_allclose(mats["X"][-1], np.eye(3), atol=1e-12)
    np.testing.assert_allclose(mats["Y"][0], np.eye(3), atol=1e-12)
    _, _, sdef, sadef = pi.scattering_matrices(gauss, k)
    assert sdef.all() and sadef.all()


# ---------------------------------------------------------------------------
# reflection coefficients
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gauss_sd(gauss):
    return sc.reflection_coefficients(gauss, per_decade=24, circle_n=384)


def test_reflection_decay_report(gauss_sd):
    rep = sc.decay_report(gauss_sd)["r1"]["weighted_sup"]
    assert all(np.isfinite(v) for v in rep.values())
    # the outer tail decays to the quadrature noise floor
    assert sc.decay_report(gauss_sd)["r1"]["tail_max"] < 1e-4


def test_undefined_ratio_entry_is_a_numeric_error(gauss, monkeypatch):
    # an undefined (1,2) entry at one sample must not pass into r1 or the floor
    march = sc._march

    def one_undefined(data, ks, kind, col, want_traj=False, s_rows=()):
        res = march(data, ks, kind, col, want_traj, s_rows)
        if col != 1:
            res["s_defined"][3] = False
        return res

    monkeypatch.setattr(sc, "_march", one_undefined)
    first = re.escape(f"s_12 is undefined at sample {sc.gamma1_samples(24)[3]}")
    with pytest.raises(sc.UndefinedEntryError, match=first):
        sc.reflection_coefficients(gauss, per_decade=24, circle_n=384)
    with pytest.raises(sc.UndefinedEntryError, match="s_12 is undefined"):
        sc.reflection_floor(gauss)
    assert issubclass(sc.UndefinedEntryError, ArithmeticError)  # exit 2 in the CLI

    # a vanishing (1,1) entry leaves the ratio undefined just the same
    def one_zero(data, ks, kind, col, want_traj=False, s_rows=()):
        res = march(data, ks, kind, col, want_traj, s_rows)
        if col == 1:
            res["s"][3] = 0.0
        return res

    monkeypatch.setattr(sc, "_march", one_zero)
    first = re.escape(f"vanishes at contour sample {sc.gamma1_samples(24)[3]}")
    with pytest.raises(sc.ZeroOnContourError, match=first):
        sc.reflection_coefficients(gauss, per_decade=24, circle_n=384)
    first = re.escape(f"vanishes at contour sample {1j * np.logspace(-1.5, 1.5, 50)[3]}")
    with pytest.raises(sc.ZeroOnContourError, match=first):
        sc.reflection_floor(gauss)
    assert issubclass(sc.ZeroOnContourError, ArithmeticError)


def test_undefined_diagonal_entry_is_a_numeric_error(gauss, monkeypatch):
    # s11 (pole search) and sA22 (residue normalisation) pass the same check
    # as the entries of r1 and r2: an undefined sample is named, not used
    march = sc._march
    marked = []

    def last_undefined(data, ks, kind, col, want_traj=False, s_rows=()):
        res = march(data, ks, kind, col, want_traj, s_rows)
        if s_rows == (col,):  # a diagonal entry
            res["s_defined"][-1] = False
            marked.append(np.atleast_1d(ks)[-1])
        return res

    monkeypatch.setattr(sc, "_march", last_undefined)
    with pytest.raises(sc.UndefinedEntryError) as err:
        sc.find_poles(gauss)
    assert str(err.value) == f"connection entry s_11 is undefined at sample {marked[-1]}"
    for k0 in (2.0, 1.8 + 0.3j):  # the real and the complex residue path
        with pytest.raises(sc.UndefinedEntryError) as err:
            sc.residue_constant(gauss, k0)
        assert str(err.value) == f"connection entry sA_22 is undefined at sample {marked[-1]}"


def test_circle_relation_on_samples(gauss_sd):
    n = gauss_sd.circle.size
    i = np.arange(n)
    rot = lambda idx, m: (idx + m * (n // 3)) % n
    conj = lambda idx: (n - 1 - idx) % n
    r1c, r2c = gauss_sd.r1_circle, gauss_sd.r2_circle
    lhs = r1c[conj(rot(i, 1))] + r2c[rot(i, 1)] + r1c[rot(i, 2)] * r2c[conj(i)]
    good = sp.dist_to_qhat(gauss_sd.circle) > 0.05
    assert np.max(np.abs(lhs[good])) < 1e-8


def test_kbar_relation_on_samples(gauss_sd):
    r1c, r2c = gauss_sd.r1_circle, gauss_sd.r2_circle
    rt = sp.rtilde(gauss_sd.circle)
    good = sp.dist_to_qhat(gauss_sd.circle) > 0.05
    assert np.max(np.abs((r2c - rt * np.conj(r1c))[good])) < 2e-4


def test_kbar_relation_on_rays(gauss_sd):
    # r2(k) = rtilde(k) conj(r1(1/conj k)); gamma4 = -gamma1 on a log-symmetric
    # grid, so the mirror 1/conj k of gamma4[j] is gamma1[-1 - j]
    ks = gauss_sd.gamma4
    assert np.array_equal(ks, -gauss_sd.gamma1)
    np.testing.assert_allclose(1.0 / np.conj(ks), gauss_sd.gamma1[::-1], rtol=1e-14, atol=0)
    pred = sp.rtilde(ks) * np.conj(gauss_sd.r1_ray[::-1])
    assert np.max(np.abs(gauss_sd.r2_ray - pred)) < 2e-4


_GAUSSIAN = st.tuples(st.floats(-0.5, 0.5), st.floats(-3.0, 3.0), st.floats(0.7, 2.0))


def _gaussians(x, terms):
    return sum((a * np.exp(-(((x - c) / w) ** 2)) for a, c, w in terms), np.zeros_like(x))


# Tolerances measured on this grid (2401 points on [-12, 12], 24 samples per
# decade, 384 on the circle) over 30 random examples and the 8 corners of the
# strategy (three equal terms of amplitude +-0.5 and width 0.7 or 2, stacked
# or spread): the circle relation holds to 1.8e-10 on every sample. The
# conjugation relation holds to quadrature accuracy, which tracks the size of
# r2: |r2 - rtilde conj(r1)| <= 2.8e-6 + 3e-5 |rtilde conj(r1)| on the rays
# and on the circle away from qhat, where r2 reaches 38. det s = det sA = 1
# is checked at 4 circle samples, one in the middle of each quarter (15
# degrees from the nearest of qhat). Over those 8 corners, each with v0 = 0
# and with v0 = u0, and 24 random examples it held to 6.0e-11 there, and to
# 5.4e-9 at the quarter points next to qhat. r1(+-1) = 1 and
# r2(+-1) = -1 are left out: the nearest circle samples lie 5e-2 to 8e-2 off.
@settings(max_examples=10, deadline=None)
@given(st.lists(_GAUSSIAN, min_size=1, max_size=3), st.lists(_GAUSSIAN, max_size=3))
def test_contour_relations_hold_by_sample_index_on_gaussian_data(u_terms, v_terms):
    x = np.linspace(-12, 12, 2401)
    data = sc.InitialData(x, _gaussians(x, u_terms), _gaussians(x, v_terms))
    sd = sc.reflection_coefficients(data, per_decade=24, circle_n=384)
    n = sd.circle.size
    i = np.arange(n)
    rot = lambda idx, m: (idx + m * (n // 3)) % n
    conj = lambda idx: (n - 1 - idx) % n
    r1c, r2c = sd.r1_circle, sd.r2_circle
    circ = r1c[conj(rot(i, 1))] + r2c[rot(i, 1)] + r1c[rot(i, 2)] * r2c[conj(i)]
    assert np.max(np.abs(circ)) < 1e-9
    away = sp.dist_to_qhat(sd.circle) > 0.05
    np.testing.assert_allclose(r2c[away], (sp.rtilde(sd.circle) * np.conj(r1c))[away],
                               rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(sd.r2_ray, sp.rtilde(sd.gamma4) * np.conj(sd.r1_ray[::-1]),
                               rtol=1e-4, atol=1e-5)
    for k in sd.circle[n // 8 :: n // 4]:
        s, sa, sdef, sadef = pi.scattering_matrices(data, k)
        assert sdef.all() and sadef.all()
        assert abs(np.linalg.det(s) - 1) < 1e-9 and abs(np.linalg.det(sa) - 1) < 1e-9


# ---------------------------------------------------------------------------
# the exact s11 of pure-pole data
# ---------------------------------------------------------------------------

# twelve points of D2 outside the unit circle, on three moduli
_D2_SAMPLES = np.array([r * np.exp(1j * a)
                        for r in (1.4, 2.2, 3.2) for a in (-0.4, -0.15, 0.15, 0.4)])
_REGULAR_POLE = st.one_of(
    st.tuples(st.floats(1.4, 3.0), st.just(0.0), st.floats(-5, 5), st.just(0.0)),
    st.tuples(st.floats(2.0, 3.0), st.floats(np.pi / 24, np.pi / 12), st.floats(-5, 5),
              st.floats(0, 2 * np.pi)),
)


# C = 2.5: over 25 random draws from these ranges the largest
# max |s11_h - closed form| / h^2 was 1.22 (two breathers near 2.6+0.6i),
# the smallest 0.004 (a soliton at 1.45), and the error ratio between h and
# h/2 stayed within 3.99-4.04.  The slope _s11_derivative takes at each pole
# converges the same way to the exact slope: C = 0.25, against a largest
# max error / h^2 of 0.108 over 25 random draws (two breathers near
# 2.72+0.41i and 2.13+0.51i), a smallest of 0.003 (a soliton at 1.52) and
# ratios of 3.97-4.04.  Each case gets its own extent, 16 envelope
# decay lengths (solitons.pole_envelope) past the farthest centre plus 5.
@settings(max_examples=8, deadline=None)
@given(st.lists(_REGULAR_POLE, min_size=1, max_size=2))
def test_s11_of_pure_pole_data_converges_to_its_closed_form(drawn):
    pairs = []
    for modulus, angle, x0, phase in drawn:
        if angle:
            k0 = modulus * np.exp(1j * angle)
            pairs.append((k0, sol.breather_constant_for_position(k0, x0, phase)))
        else:
            pairs.append((modulus, sol.residue_constant_from_position(modulus, x0)))
    k0s = [complex(k0) for k0, _ in pairs]
    assume(len(k0s) == 1 or abs(k0s[0] - k0s[1]) > 0.1)
    envelopes = map(sol.pole_envelope, sol.wave_poles(pairs))
    lx = max(16.0 / rate + centre + 5.0 for rate, centre in envelopes)
    exact = pi.s11_reflectionless(k0s, _D2_SAMPLES)
    slopes = [pi.s11_reflectionless_slope(k0s, i) for i in range(len(k0s))]
    errors, slope_errors = [], []
    for h in (0.08, 0.04):
        grid = sol.Grid(np.linspace(-lx, lx, sol.point_count(2 * lx, h)), [0.0])
        fld = sol.n_soliton(pairs, grid)
        data = sc.InitialData(grid.x, fld.u[0], fld.v[0])
        errors.append(np.max(np.abs(sc.s11_batch(data, _D2_SAMPLES) - exact)))
        assert errors[-1] <= 2.5 * h**2
        slope_errors.append(max(abs(sc._s11_derivative(data, k0) - slope)
                                for k0, slope in zip(k0s, slopes)))
        assert slope_errors[-1] <= 0.25 * h**2
    assert 3.5 <= errors[0] / errors[1] <= 4.5
    assert 3.5 <= slope_errors[0] / slope_errors[1] <= 4.5


def test_concurrent_reads_of_shared_data(gauss):
    # per-k computations run concurrently against shared read-only data
    from concurrent.futures import ThreadPoolExecutor

    ks = [np.exp(1j * a) for a in (0.4, 0.9, 2.2, -1.7)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda k: sc.s11_batch(gauss, [k])[0], ks))
    serial = [sc.s11_batch(gauss, [k])[0] for k in ks]
    np.testing.assert_allclose(parallel, serial, atol=0)


def test_reflection_values_at_unit_points(gauss_sd):
    for target, r_arr, want in ((1.0, gauss_sd.r1_circle, 1.0), (-1.0, gauss_sd.r1_circle, 1.0)):
        i0 = np.argmin(np.abs(gauss_sd.circle - target))
        assert abs(r_arr[i0] - want) < 5e-2
    for target in (1.0, -1.0):
        i0 = np.argmin(np.abs(gauss_sd.circle - target))
        assert abs(gauss_sd.r2_circle[i0] + 1.0) < 5e-2


# ---------------------------------------------------------------------------
# poles, residues, evolution
# ---------------------------------------------------------------------------


def test_no_poles_for_zero_data():
    x = np.linspace(-10, 10, 801)
    zero = sc.InitialData(x, np.zeros_like(x), np.zeros_like(x))
    assert sc.find_poles(zero) == []


def test_soliton_pole_and_residue(soliton_data):
    data, k0, c = soliton_data
    poles = sc.find_poles(data)
    assert len(poles) == 1
    assert abs(poles[0] - k0) < 1e-3
    assert poles[0].imag == 0.0
    chat, resid = sc.residue_constant(data, poles[0])
    assert abs(chat - c) / abs(c) < 1e-3
    assert resid < 1e-4


def test_compact_support_residue_shortcut():
    # hard-truncated soliton data: the entry-ratio shortcut agrees with the fit
    k0 = 2.0
    c = sol.residue_constant_from_position(k0, 0.0)
    grid = sol.Grid(np.linspace(-14, 14, 2801), [0.0])
    fld = sol.n_soliton([(k0, c)], grid)
    u, v = fld.u[0].copy(), fld.v[0].copy()
    cut = np.abs(grid.x) > 12.0
    u[cut] = 0.0
    v[cut] = 0.0
    data = sc.InitialData(grid.x, u, v)
    poles = sc.find_poles(data)
    c_fit, _ = sc.residue_constant(data, poles[0])
    c_short = pi.residue_constant_compact(data, poles[0])
    assert abs(c_short - c_fit) / abs(c_fit) < 1e-2


def test_breather_pole_recovery():
    k0 = 2 * np.exp(1j * np.pi / 12)
    c = sol.breather_constant_for_position(k0, 0.0, 0.7)
    grid = sol.Grid(np.linspace(-75, 75, 15001), [0.0])
    fld = sol.breather(k0, c, grid)
    data = sc.InitialData(grid.x, fld.u[0], fld.v[0])
    poles = sc.find_poles(data)
    assert len(poles) == 1
    assert abs(poles[0] - k0) < 1e-3
    assert sp.classify(poles[0]).subregion is sp.Subregion.REG_R
    chat, resid = sc.residue_constant(data, poles[0])
    assert abs(chat - c) / abs(c) < 1e-2
    # conjugation pairing of the derivatives at a complex zero: the adjugate
    # (2,2) entry vanishes at the mirror point with the conjugate slope
    ds11 = sc._s11_derivative(data, poles[0])
    dsa22 = sc._sa22_derivative(data, np.conj(poles[0]))
    assert abs(np.conj(dsa22) - ds11) < 1e-5 * abs(ds11)


def test_find_poles_respects_pole_budget(soliton_data, monkeypatch):
    data, _, _ = soliton_data
    monkeypatch.setattr(sc, "MAX_POLES", 0)
    with pytest.raises(sc.TooManyPolesError):
        sc.find_poles(data)


def test_newton_reports_non_convergence(soliton_data, monkeypatch):
    data, _, _ = soliton_data
    monkeypatch.setattr(sc, "NEWTON_MAXIT", 1)
    with pytest.raises(sc.NewtonError, match=r"\|dk\| = .*\|s11\| = "):
        sc._newton_polish(data, 2.05)
    assert issubclass(sc.NewtonError, ArithmeticError)  # exit code 2


def test_newton_converges_from_nearby_start(soliton_data):
    data, k0, _ = soliton_data
    k = sc._newton_polish(data, 2.05)
    assert abs(sc.s11_batch(data, [k])[0]) < 1e-12
    # the sampled data's zero sits 2.0e-6 from k0 at hx = 0.01
    assert abs(k - k0) < 1e-5


def test_residue_fit_rejects_non_zero_point(soliton_data):
    data, _, _ = soliton_data
    with pytest.raises(sc.FitResidualError):
        sc.residue_constant(data, 2.5)


def test_residue_positivity_of_recovered_constant(soliton_data):
    data, k0, _ = soliton_data
    poles = sc.find_poles(data)
    chat, _ = sc.residue_constant(data, poles[0])
    combo = 1j * (W**2 * poles[0] ** 2 - W) * chat
    assert abs(combo.imag) < 1e-4 * abs(combo)
    assert combo.real > 0


def test_evolution_identity_at_t0(gauss_sd):
    out = sc.evolve_scattering(gauss_sd, 0.0)
    np.testing.assert_allclose(out.r1_ray, gauss_sd.r1_ray, atol=0)
    np.testing.assert_allclose(out.r2_circle, gauss_sd.r2_circle, atol=0)


def test_evolution_dressing(gauss_sd):
    t = 0.7
    out = sc.evolve_scattering(gauss_sd, t)
    k = gauss_sd.gamma1[5]
    dress = np.exp(-(sp.eval_z(2, k) - sp.eval_z(1, k)) * t)
    assert abs(out.r1_ray[5] - gauss_sd.r1_ray[5] * dress) < 1e-14
    k4 = gauss_sd.gamma4[5]
    dress4 = np.exp((sp.eval_z(2, k4) - sp.eval_z(1, k4)) * t)
    assert abs(out.r2_ray[5] - gauss_sd.r2_ray[5] * dress4) < 1e-14


def test_evolution_dresses_residues():
    g1, g4, circle = sc.gamma1_samples(2), sc.gamma4_samples(2), sc.circle_samples(6)
    sdat = sc.ScatteringData(g1, 0 * g1, g4, 0 * g4, circle, 0 * circle, 0 * circle,
                             residues={2.0: 0.5 + 0.1j})
    out = sc.evolve_scattering(sdat, 1.0)
    rate = sp.eval_z(1, 2.0) - sp.eval_z(2, 2.0)
    assert abs(out.residues[2.0] - (0.5 + 0.1j) * np.exp(rate)) < 1e-14
    with pytest.raises(ValueError):
        sc.evolve_scattering(sdat, -1.0)


_EVOLVE_T = st.floats(0.0, 0.13)
_LEVEL = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0)


@settings(max_examples=100, deadline=None)
@given(_EVOLVE_T, _EVOLVE_T, st.lists(_LEVEL, min_size=4, max_size=4))
def test_chained_evolution_adds_the_times(t1, t2, levels):
    """Evolving by t1 and then by t2 is evolving by t1 + t2.

    On the default ray contours the rate of the dressing is real and reaches
    2500 at both ends, |k| = 1e-2 and 1e2, so a single evolve by t >= 700 /
    2500 = 0.28 saturates at EVOLVE_EXP_CLIP and the identity stops holding;
    with t1, t2 <= 0.13 no step clips. On the circle the rate is imaginary.
    Rounding rate * t costs eps |rate| t in the argument of exp, which is that
    relative error in the dressed value. Over
    3,000 random draws of the levels and times the worst relative error was
    2.8 eps (1 + |rate| (t1 + t2)); the test allows 8.
    """
    kb = 1.93185 + 0.51764j
    g1, g4, circle = sc.gamma1_samples(64), sc.gamma4_samples(64), sc.circle_samples(1536)
    sdat = sc.ScatteringData(
        g1, np.full(g1.size, levels[0]), g4, np.full(g4.size, levels[1]), circle,
        np.full(circle.size, levels[2]), np.full(circle.size, levels[3]),
        residues={2.0: sol.residue_constant_from_position(2.0, 0.0),
                  kb: sol.breather_constant_for_position(kb, 0.0, 0.7)},
    )
    chained = sc.evolve_scattering(sc.evolve_scattering(sdat, t1), t2)
    single = sc.evolve_scattering(sdat, t1 + t2)
    eps = np.finfo(float).eps
    assert chained.time == single.time == t1 + t2
    for vals, pts in sc.SAMPLE_SETS:
        rate = np.abs(sc._theta21_rate(getattr(sdat, pts)))
        err = np.abs(getattr(chained, vals) - getattr(single, vals))
        assert np.all(err <= 8 * eps * (1 + rate * (t1 + t2)) * np.abs(getattr(single, vals)))
    for k0, c in single.residues.items():
        rate = abs(sp.pole_rates(k0)[1])
        assert abs(chained.residues[k0] - c) <= 8 * eps * (1 + rate * (t1 + t2)) * abs(c)


def test_estimate_T_synthetic():
    g1 = sc.gamma1_samples()
    inner = np.abs(g1) < 1
    r1 = np.full(g1.size, 1e-30, dtype=complex)
    r1[inner] = np.exp(-1.0 / np.abs(g1[inner]) ** 2)  # r1(1/k) = exp(-|k|^2)
    zeros = np.zeros(1536, complex)
    sdat = sc.ScatteringData(
        gamma1=g1, r1_ray=r1, gamma4=sc.gamma4_samples(), r2_ray=0 * r1,
        circle=sc.circle_samples(), r1_circle=zeros, r2_circle=zeros,
    )
    assert sc.estimate_T(sdat, zero_floor=1e-12) == pytest.approx(4.0, abs=1e-9)
    sdz = sc.ScatteringData(
        gamma1=g1, r1_ray=0 * r1, gamma4=sc.gamma4_samples(), r2_ray=0 * r1,
        circle=sc.circle_samples(), r1_circle=zeros, r2_circle=zeros,
    )
    assert sc.estimate_T(sdz, zero_floor=1e-12) == np.inf


def test_estimate_T_reflectionless_with_noise_floor(soliton_data):
    data, _, _ = soliton_data
    sdat = sc.reflection_coefficients(data, per_decade=16, circle_n=192)
    assert sc.estimate_T(sdat, zero_floor=1e-4) == np.inf
