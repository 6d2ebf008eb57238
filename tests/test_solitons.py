import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from boussinesq_ist import solitons as sol
from boussinesq_ist import spectral as sp
from boussinesq_ist import verify as vf

import paper_identities as pi

W = sp.OMEGA


def sech2_oracle(k0, x0, x, t):
    amp = 0.375 * (k0 - 1.0 / k0) ** 2
    speed = 0.5 * (k0 + 1.0 / k0)
    return amp / np.cosh(np.sqrt(amp / 6.0) * (x[None, :] - x0 - speed * t[:, None])) ** 2


def test_one_soliton_matches_sech2():
    k0 = 2.0
    c = sol.residue_constant_from_position(k0, 0.0)
    grid = sol.Grid(np.linspace(-30, 30, 6001), [0.0, 0.5, 1.0])
    fld = sol.one_soliton(k0, c, grid)
    np.testing.assert_allclose(fld.u, sech2_oracle(2.0, 0.0, grid.x, grid.t), atol=1e-12)
    assert fld.meta["amplitude"] == pytest.approx(27.0 / 32.0)
    assert fld.meta["speed"] == pytest.approx(5.0 / 4.0)
    # second equation closed form: v = -speed * u
    np.testing.assert_allclose(fld.v, -1.25 * fld.u, atol=1e-12)


def test_one_soliton_position_encoding():
    grid = sol.Grid(np.linspace(-30, 30, 3001), [0.0])
    c = sol.residue_constant_from_position(2.0, 3.5)
    fld = sol.one_soliton(2.0, c, grid)
    np.testing.assert_allclose(fld.u, sech2_oracle(2.0, 3.5, grid.x, grid.t), atol=1e-12)
    assert fld.meta["x0"] == pytest.approx(3.5, abs=1e-12)


def test_one_soliton_translation_covariance():
    # traveling-wave identity u(x, t) = u(x - c*delta, t - delta)
    k0, delta = 2.0, 0.5
    c = sol.residue_constant_from_position(k0, -1.0)
    x = np.linspace(-20, 20, 4001)
    f1 = sol.one_soliton(k0, c, sol.Grid(x, [1.0]))
    f2 = sol.one_soliton(k0, c, sol.Grid(x - 1.25 * delta, [1.0 - delta]))
    np.testing.assert_allclose(f1.u, f2.u, atol=1e-10)


def test_one_soliton_speed_signs():
    grid = sol.Grid(np.linspace(-10, 10, 101), [0.0])
    fr = sol.one_soliton(2.0, sol.residue_constant_from_position(2.0, 0.0), grid)
    fl = sol.one_soliton(-0.5, sol.residue_constant_from_position(-0.5, 0.0), grid)
    assert fr.meta["speed"] > 1.0
    assert fl.meta["speed"] < -1.0


def test_shape_factor_sign_is_immaterial():
    # the displayed field is an even function of the square-root branch
    k0 = 2.0
    c = sol.residue_constant_from_position(k0, 1.0)
    f = abs(sol.soliton_shape_factor(k0, c).real)
    y = np.linspace(-8, 8, 200)
    up = 1.5 * (k0 - 1 / k0) ** 2 / (f * np.exp(-y) + np.exp(y) / f) ** 2
    um = 1.5 * (k0 - 1 / k0) ** 2 / (-f * np.exp(-y) + np.exp(y) / -f) ** 2
    np.testing.assert_allclose(up, um, rtol=1e-14)


def test_classification_rays():
    chi = 1.0 / (1j * (W**2 * 4.0 - W))  # direction with real positivity combo
    assert sol.classify_one_soliton(2.0, 5.0 * chi) == "regular"
    assert sol.classify_one_soliton(2.0, -0.1 * chi) == "singular"
    assert sol.classify_one_soliton(2.0, 0.0) == "zero"
    with pytest.raises(sol.NonRealComboError):
        sol.classify_one_soliton(2.0, 1.0 + 0.5j)
    with pytest.raises(sp.DomainError):
        sol.classify_one_soliton(0.5, 1.0)


def test_singular_soliton_refused():
    chi = 1.0 / (1j * (W**2 * 4.0 - W))
    grid = sol.Grid(np.linspace(-5, 5, 51), [0.0])
    with pytest.raises(sol.SingularSolitonError):
        sol.one_soliton(2.0, -1.0 * chi, grid)


def test_zero_constant_gives_zero_field():
    grid = sol.Grid(np.linspace(-5, 5, 51), [0.0])
    fld = sol.one_soliton(2.0, 0.0, grid)
    assert np.all(fld.u == 0.0)
    fb = sol.breather(2 * np.exp(1j * np.pi / 12), 0.0, grid)
    assert np.all(fb.u == 0.0)


# ---------------------------------------------------------------------------
# breather
# ---------------------------------------------------------------------------


def test_breather_regular_real_and_finite():
    k0 = 2 * np.exp(1j * np.pi / 12)
    grid = sol.Grid(np.linspace(-25, 25, 2501), [0.0, 0.7, 1.4])
    fld = sol.breather(k0, 0.3 + 0.2j, grid)
    assert np.all(np.isfinite(fld.u))
    assert fld.u.dtype == np.float64  # imaginary part already checked < 1e-9


def _n31_of_tau(pole, grid):
    """n31 = 2i sqrt(3) (log f)_x = 2i sqrt(3) sum a_i w_i / sum w_i over
    the pole's tau terms (a_i, b_i, c_i), w_i = e^(a_i x + b_i t + c_i)."""
    terms = sol._tau_terms(pole)
    w = [np.exp(a * grid.x[None, :] + b * grid.t[:, None] + c) for a, b, c in terms]
    return 2j * sp.SQRT3 * sum(a * wi for (a, _, _), wi in zip(terms, w)) / sum(w)


def test_breather_derivatives_match_fd():
    # u = -i sqrt(3) d/dx n31 and v = -i sqrt(3) d/dt n31
    k0 = 2 * np.exp(1j * np.pi / 12)
    c = 0.3 + 0.2j
    c_sol = sol.residue_constant_from_position(2.0, 0.5)
    hx = 0.005
    ht = 0.002
    grid = sol.Grid(np.arange(-4, 4 + hx / 2, hx), np.array([0.5 - ht, 0.5, 0.5 + ht]))
    for (pole, const), synth in (((k0, c), sol.breather), ((2.0, c_sol), sol.one_soliton)):
        fld = synth(pole, const, grid)
        n31 = _n31_of_tau(sol.wave_poles([(pole, const)])[0], grid)
        ux_fd = (-1j * np.sqrt(3)) * (n31[:, 2:] - n31[:, :-2]) / (2 * hx)
        assert np.max(np.abs(ux_fd - fld.u[:, 1:-1])) < 5e-5
        ut_fd = (-1j * np.sqrt(3)) * (n31[2] - n31[0]) / (2 * ht)
        assert np.max(np.abs(ut_fd - fld.v[1])) < 5e-4


def test_breather_det_positive_and_formula():
    k0 = 2 * np.exp(1j * np.pi / 12)
    c = 0.4 - 0.1j
    x = np.linspace(-40, 40, 401)[None, :]
    t = np.linspace(0, 3, 11)[:, None]
    det = pi.det_i_minus_a(k0, c, x, t)
    assert np.all(det > 0)
    a = pi.breather_a_matrix(k0, c, x, t)
    np.testing.assert_allclose(np.linalg.det(np.eye(2) - a), det, atol=1e-12)


def test_breather_det_identity_between_gauges():
    # the bounded gauge and the display gauge share the determinant
    k0 = 2 * np.exp(1j * np.pi / 12)
    c = 0.3 + 0.2j
    kb = np.conj(k0)
    d = sp.derived_conjugate_constant(k0, c)
    ct = 1j * (k0**2 - 1) / (2 * np.sqrt(3) * k0**2) * c
    dt = 1j * (kb**2 - W**2) / (2 * np.sqrt(3) * kb**2) * W**2 * d
    el, ez = sp.eval_l, sp.eval_z
    for (x, t) in [(0.5, 0.2), (-2.0, 1.3), (4.0, 0.0)]:
        b = np.array(
            [
                [
                    ct * np.exp((el(1, k0) - el(3, k0)) * x + (ez(1, k0) - ez(3, k0)) * t)
                    / (el(1, k0) - el(3, k0)),
                    dt * np.exp((el(1, k0) - el(2, kb)) * x + (ez(1, k0) - ez(2, kb)) * t)
                    / (el(1, k0) - el(2, kb)),
                ],
                [
                    ct * np.exp((el(3, kb) - el(3, k0)) * x + (ez(3, kb) - ez(3, k0)) * t)
                    / (el(3, kb) - el(3, k0)),
                    dt * np.exp((el(3, kb) - el(2, kb)) * x + (ez(3, kb) - ez(2, kb)) * t)
                    / (el(3, kb) - el(2, kb)),
                ],
            ]
        )
        a = pi.breather_a_matrix(k0, c, np.array([[x]]), np.array([[t]]))[0, 0]
        assert abs(np.linalg.det(np.eye(2) - b) - np.linalg.det(np.eye(2) - a)) < 1e-10


def test_breather_singular_pole_detected():
    k0 = 2 * np.exp(-1j * np.pi / 12)
    grid = sol.Grid(np.linspace(-60, 60, 1201), [0.0])
    with pytest.raises(sol.SingularBreatherError) as err:
        sol.breather(k0, 0.3 + 0.2j, grid)
    assert err.match(r"det\(I - A\) <= 0 at \(x, t\) = ")
    # determinant changes sign along x for each fixed t
    x = np.linspace(-80, 80, 4001)
    for t in (0.0, 1.0, 2.0):
        det = pi.det_i_minus_a(k0, 0.3 + 0.2j, x, t)
        assert det.min() < 0 < det.max()


def test_breather_refuses_a_singular_pole_whose_blow_up_lies_off_the_grid():
    k0, c = 2 * np.exp(-1j * np.pi / 12), 0.3 + 0.2j
    grid = sol.Grid(np.linspace(20, 30, 101), [0.0])
    assert pi.det_i_minus_a(k0, c, grid.x, 0.0).min() > 0  # det changes sign near x = -2.48
    with pytest.raises(sol.SingularBreatherError, match="lies in the singular subregion"):
        sol.breather(k0, c, grid)


def test_breather_rejects_points_outside_sector():
    grid = sol.Grid(np.linspace(-5, 5, 51), [0.0])
    with pytest.raises(sp.DomainError):
        sol.breather(1.5 * np.exp(1j * np.pi / 2), 0.1, grid)


def test_fast_breather_decays_on_default_grid():
    # envelope rate ~ 1.04, so the default half-width of 30 buries the tails
    k0 = 8 * np.exp(1j * np.pi / 12)
    assert abs(sp.pole_rates(k0)[0].real) > 0.6
    c = sol.breather_constant_for_position(k0, 0.0, 0.3)
    grid = sol.Grid(np.linspace(-30, 30, 3001), [0.0, 0.5])
    fld = sol.breather(k0, c, grid)
    assert np.max(np.abs(fld.u[:, [0, -1]])) < 1e-8


# Tolerance: u and v agree with the 2x2 trace formula to 5e-14 relative to
# max(1, max |u|). On this grid, over 2,000 random examples and the 48 with
# r, angle and x0 at their bounds and phase 0, pi/2 or pi, the errors stayed
# below 1.4e-14 (u) and 1.8e-14 (v), with max |u| up to 22.4.
@settings(max_examples=50, deadline=None)
@given(
    st.floats(1.2, 4.0),
    st.floats(np.pi / 60, np.pi / 6 - np.pi / 60),
    st.booleans(),
    st.floats(-4.0, 4.0),
    st.floats(0.0, 2 * np.pi, exclude_max=True),
)
def test_breather_matches_the_trace_formula(r, angle, inside, x0, phase):
    # a regular pole: RegR outside the unit disk, or its RegL image inside
    k0 = np.exp(1j * (np.pi + angle)) / r if inside else r * np.exp(1j * angle)
    c = sol.breather_constant_for_position(k0, x0, phase)
    grid = sol.Grid(np.linspace(-12, 12, 241), [0.0, 0.3])
    fld = sol.breather(k0, c, grid)
    u, v = pi.breather_trace_fields(k0, c, grid.x[None, :], grid.t[:, None])
    scale = max(1.0, np.max(np.abs(fld.u)))
    for got, want in ((fld.u, u), (fld.v, v)):
        assert np.max(np.abs(got - want)) < 5e-14 * scale


# With f = 1 + E + conj(E) + h |E|^2, u = 6 (log f)_xx tends to
# 12 Re(mu^2 E) where E = e^eta -> 0, and to 12 Re(mu^2 / E) / h where
# E -> oo. With s = |E|, or 1 / (h |E|) in the second tail, the next order
# is at most 2 h s relative to the leading term's modulus 12 |mu|^2 s; the
# 1e-12 covers rounding, which stayed below 3.2e-14 against a 60-digit
# evaluation of 6 (log f)_xx on x in [-300, 300].
@settings(max_examples=50, deadline=None)
@given(
    st.floats(1.2, 4.0),
    st.floats(np.pi / 60, np.pi / 6 - np.pi / 60),
    st.booleans(),
    st.floats(-4.0, 4.0),
    st.floats(0.0, 2 * np.pi, exclude_max=True),
)
def test_breather_tails_match_their_leading_terms(r, angle, inside, x0, phase):
    # a regular pole: RegR outside the unit disk, or its RegL image inside
    k0 = np.exp(1j * (np.pi + angle)) / r if inside else r * np.exp(1j * angle)
    c = sol.breather_constant_for_position(k0, x0, phase)
    grid = sol.Grid(np.linspace(-300, 300, 601), [0.0, 0.4])
    fld = sol.breather(k0, c, grid)
    h, (mu, nu) = sol.h_indicator(k0), sp.pole_rates(k0)
    ct = 1j * (k0**2 - 1) / (2 * np.sqrt(3) * k0**2) * c  # E = -A11 = -ct e^(mu x + nu t) / mu
    e = -ct / mu * np.exp(mu * grid.x[None, :] + nu * grid.t[:, None])
    small = np.abs(e) < 1
    s = np.where(small, np.abs(e), 1 / (h * np.abs(e)))
    lead = np.where(small, 12 * (mu**2 * e).real, 12 * (mu**2 / e).real / h)
    tail = s < 1e-3
    assume(np.any(tail))
    err = np.abs(fld.u - lead)[tail]
    assert np.all(err <= 12 * abs(mu) ** 2 * s[tail] * (2 * h * s[tail] + 1e-12))


# ---------------------------------------------------------------------------
# h indicator
# ---------------------------------------------------------------------------


def test_h_examples():
    # h(r e^{i alpha}) factors into a radial and an angular part
    def h_radial(r):
        return (r**4 + r**2 + 1.0) / (r**2 - 1.0) ** 2

    def h_angular(alpha):
        s, co = np.sin(alpha), np.cos(alpha)
        return (s + sp.SQRT3 * co) ** 2 / (2.0 * s * (sp.SQRT3 * co - s))

    assert h_radial(2.0) == pytest.approx(21.0 / 9.0)
    k0 = 2 * np.exp(1j * np.pi / 12)
    prod = h_radial(2.0) * h_angular(np.pi / 12)
    assert sol.h_indicator(k0) == pytest.approx(prod, rel=1e-12)
    assert prod > 4.0
    assert sol.h_indicator(2 * np.exp(-1j * np.pi / 12)) < -0.5


def test_h_symmetry_between_halves():
    # f(r) g(alpha) = f(1/r) g(alpha + pi) extends the bounds to the inner half
    r, alpha = 1.7, 0.31
    outer = sol.h_indicator(r * np.exp(1j * alpha))
    inner = sol.h_indicator((1.0 / r) * np.exp(1j * (alpha + np.pi)))
    assert outer == pytest.approx(inner, rel=1e-12)


def test_h_domain_errors():
    with pytest.raises(sp.DomainError):
        sol.h_indicator(2.0)  # real axis
    with pytest.raises(sp.DomainError):
        sol.h_indicator(np.exp(1j * 0.1))  # unit circle
    with pytest.raises(sp.DomainError):
        sol.h_indicator(2 * np.exp(1j * np.pi / 4))  # outside the pole sector


# ---------------------------------------------------------------------------
# general N-pole synthesis
# ---------------------------------------------------------------------------


def test_n_soliton_empty_is_zero():
    grid = sol.Grid(np.linspace(-5, 5, 101), [0.0])
    fld = sol.n_soliton([], grid)
    assert np.all(fld.u == 0.0) and np.all(fld.v == 0.0)


def test_n_soliton_matches_one_soliton():
    k0 = 2.0
    c = sol.residue_constant_from_position(k0, -1.0)
    grid = sol.Grid(np.linspace(-30, 30, 3001), [0.0, 0.5, 1.0])
    fn = sol.n_soliton([(k0, c)], grid)
    f1 = sol.one_soliton(k0, c, grid)
    np.testing.assert_allclose(fn.u, f1.u, atol=1e-10)
    np.testing.assert_allclose(fn.v, f1.v, atol=1e-10)


def test_n_soliton_matches_breather():
    k0 = 2 * np.exp(1j * np.pi / 12)
    c = 0.3 + 0.2j
    grid = sol.Grid(np.linspace(-20, 20, 2001), [0.0, 0.7])
    fn = sol.n_soliton([(k0, c)], grid)
    fb = sol.breather(k0, c, grid)
    np.testing.assert_allclose(fn.u, fb.u, atol=1e-10)
    np.testing.assert_allclose(fn.v, fb.v, atol=1e-10)


def test_n_soliton_single_real_pole_matches_six_by_six_display():
    # the general residue assembly reduces to the explicit 6x6 system, here
    # differentiated exactly in x: with M = I - e a0^T, d(M^-1) = M^-1 (e_x
    # a0^T) M^-1
    k0, x, t = 2.0, 0.7, 0.3
    c = sol.residue_constant_from_position(k0, 1.0)
    e = c * np.exp(-sp.eval_theta(2, 1, x, t, k0))  # the dressed constant E(x, t)
    e_x = (sp.eval_l(1, k0) - sp.eval_l(2, k0)) * e
    iw = 1.0 / k0
    a0 = np.array(
        [
            [0, 0, 0, -k0**-2 / (k0 - iw), W / (k0 - W * k0), 0],
            [0, 0, 0, -k0**-2 / (W * iw - iw), W / (W * iw - W * k0), 0],
            [1 / (W**2 * k0 - k0), 0, 0, 0, 0, -(W**2) * k0**-2 / (W**2 * k0 - W**2 * iw)],
            [1 / (iw - k0), 0, 0, 0, 0, -(W**2) * k0**-2 / (iw - W**2 * iw)],
            [0, -W * k0**-2 / (W * k0 - W * iw), W**2 / (W * k0 - W**2 * k0), 0, 0, 0],
            [0, -W * k0**-2 / (W**2 * iw - W * iw), W**2 / (W**2 * iw - W**2 * k0), 0, 0, 0],
        ],
        dtype=complex,
    )
    proj = np.array([[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]], dtype=complex)
    m_inv = np.linalg.inv(np.eye(6) - e * a0.T)
    b6, b6_x = proj @ m_inv, proj @ m_inv @ (e_x * a0.T) @ m_inv
    # n31 = W^2 e sum(b6[:, 2]) - W k0^-2 e sum(b6[:, 1]), by the product rule
    n31_x_display = (W**2 * (e_x * np.sum(b6[:, 2]) + e * np.sum(b6_x[:, 2]))
                     - W * k0**-2 * (e_x * np.sum(b6[:, 1]) + e * np.sum(b6_x[:, 1])))
    entries = sol._expand_pole_system(sol.wave_poles([(k0, c)]))
    n31_x, _ = sol._solve_residues(entries, np.array([x]), np.array([t]))
    assert abs(n31_x_display - n31_x[0]) < 1e-12


def test_n_soliton_two_poles_superpose_ahead_of_the_interaction():
    # the leading hump is position-exact; the trailing one carries the usual
    # constant interaction offset, so raw additivity holds on the forward side
    c_fast = sol.residue_constant_from_position(2.0, -15.0)
    c_left = sol.residue_constant_from_position(-0.5, 15.0)
    grid = sol.Grid(np.linspace(-40, 40, 8001), [0.0])
    f2 = sol.n_soliton([(2.0, c_fast), (-0.5, c_left)], grid)
    fr = sol.one_soliton(2.0, c_fast, grid)
    fl = sol.one_soliton(-0.5, c_left, grid)
    diff = f2.u[0] - fr.u[0] - fl.u[0]
    assert np.max(np.abs(diff[grid.x >= 0.0])) < 1e-4
    # and the whole field is two humps with one constant offset
    i = np.argmax(np.where(grid.x < 0, f2.u[0], 0.0))
    h = grid.x[1] - grid.x[0]
    a, b, cc = f2.u[0][i - 1 : i + 2]
    shift = grid.x[i] + 0.5 * (a - cc) / (a - 2 * b + cc) * h + 15.0
    fr_shift = sol.one_soliton(2.0, sol.residue_constant_from_position(2.0, -15.0 + shift), grid)
    assert np.max(np.abs(f2.u[0] - fr_shift.u[0] - fl.u[0])) < 1e-6


def test_n_soliton_rejects_colliding_pole_images():
    c = sol.residue_constant_from_position(2.0, 0.0)
    grid = sol.Grid(np.linspace(-5, 5, 51), [0.0])
    with pytest.raises(sp.DomainError):
        sol.n_soliton([(2.0, c), (2.0 + 1e-10, c)], grid)


def test_n_soliton_rejects_singular_spec():
    chi = 1.0 / (1j * (W**2 * 4.0 - W))
    grid = sol.Grid(np.linspace(-5, 5, 51), [0.0])
    with pytest.raises(sol.SingularSolitonError):
        sol.n_soliton([(2.0, -1.0 * chi)], grid)
    with pytest.raises(sol.SingularBreatherError):
        sol.n_soliton([(2 * np.exp(-1j * np.pi / 12), 0.2 + 0.1j)], grid)


#: zero-constant pairs, which add no wave: a real pole, and a complex pole in
#: the singular subregion SING_R
ZERO_PAIRS = [(1.5, 0.0), (2 * np.exp(-1j * np.pi / 12), 0.0)]


@pytest.mark.parametrize("zero", ZERO_PAIRS, ids=["real", "sing-r"])
def test_a_zero_constant_pair_adds_nothing_to_n_soliton(zero):
    k0 = 2 * np.exp(1j * np.pi / 12)
    pairs = [(2.0, sol.residue_constant_from_position(2.0, 1.0)),
             (k0, sol.breather_constant_for_position(k0, -2.0, 0.0))]
    grid = sol.Grid(np.linspace(-10, 10, 201), [0.0, 0.3])
    assert sol.wave_poles(pairs + [zero]) == sol.wave_poles(pairs)
    whole, more = sol.n_soliton(pairs, grid), sol.n_soliton(pairs + [zero], grid)
    assert more.u.tobytes() == whole.u.tobytes()
    assert more.v.tobytes() == whole.v.tobytes()


@pytest.mark.parametrize("singular", [(2.0, -sol.residue_constant_from_position(2.0, 0.0)),
                                      (2 * np.exp(-1j * np.pi / 12), 0.3 + 0.2j)],
                         ids=["soliton", "breather"])
def test_a_pole_outside_the_sector_is_refused_before_a_singular_one(singular):
    # every pair is classified before the first singular pair is refused
    with pytest.raises(sp.DomainError):
        sol.wave_poles([singular, (0.5, 1.0)])
    with pytest.raises(sp.DomainError):
        sol.n_soliton([singular, (0.5, 1.0)], sol.Grid(np.linspace(-5, 5, 51), [0.0]))


def _guard_grid(x1):
    # every point sits at x = 30 (condition <= 2) except index 1
    x = np.full(170_001, 30.0)
    x[1] = x1
    return sol.Grid(x, [0.0])


def test_condition_guard_covers_every_point(monkeypatch):
    # index 1 (condition ~11.5 in the 1-norm) lies between the strides of a
    # sampled probe, so only a check of every point sees it
    pole = [(2.0, sol.residue_constant_from_position(2.0, 0.0))]
    monkeypatch.setattr(sol, "CONDITION_LIMIT", 5.0)
    with pytest.raises(sol.NearSingularSystemError, match=r"\(0, 0\)"):
        sol.n_soliton(pole, _guard_grid(0.0))
    fld = sol.n_soliton(pole, _guard_grid(30.0))
    assert np.all(np.isfinite(fld.u))


def test_imaginary_part_refusal_names_its_point(monkeypatch):
    k0 = 1.93185 + 0.51764j
    c = sol.breather_constant_for_position(k0, 0.0, 0.0)
    grid = sol.Grid(np.linspace(-10, 10, 201), [0.0, 0.1, 0.2])
    monkeypatch.setattr(sol, "IM_U_TOL", 0.0)
    with pytest.raises(ArithmeticError, match=r"n_soliton u has imaginary part .* at \(x, t\) = ") as err:
        sol.n_soliton([(k0, c)], grid)
    entries = sol._expand_pole_system(sol.wave_poles([(k0, c)]))
    n31_x, _ = sol._solve_residues(entries, grid.x[None, :], grid.t[:, None])
    it, ix = np.unravel_index(np.argmax(np.abs((-1j * sp.SQRT3 * n31_x).imag)), n31_x.shape)
    assert str(err.value).endswith(f"at (x, t) = ({grid.x[ix]:.6g}, {grid.t[it]:.6g})")


def test_exactly_singular_system_is_near_singular_error():
    # two coupled images whose system is [[1, -1], [-1, 1]] at every point
    entries = [sol._PoleEntry(0.5, 1, 2, 1.0, 0.0, 0.0), sol._PoleEntry(-0.5, 2, 1, -1.0, 0.0, 0.0)]
    with pytest.raises(sol.NearSingularSystemError, match="inf"):
        sol._solve_residues(entries, np.linspace(-1, 1, 5)[None, :], np.zeros((1, 1)))


def test_zero_pivot_is_refused_next_to_a_nan_determinant():
    # x = 0 gives the exactly singular system [[1, -2], [-0.5, 1]]; at
    # x = log(1e308) coef S overflows, so that point's |det| is NaN
    entries = [sol._PoleEntry(0.25, 1, 2, 1.0, 1.0, 0.0), sol._PoleEntry(-0.25, 2, 1, -0.25, -1.0, 0.0)]
    x, t = np.array([[0.0, np.log(1e308)]]), np.zeros((1, 1))
    for solve in (sol._solve_residues, pi.solve_residues_four_calls):
        with np.errstate(all="ignore"), pytest.raises(
                sol.NearSingularSystemError, match=r"number inf exceeds .* at \(x, t\) = \(0, 0\)$"):
            solve(entries, x, t)


_NONNEGATIVE = st.one_of(st.floats(0.0, 1e300), st.sampled_from([0.0, np.inf, np.nan]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 18), st.integers(1, 18), st.data())
def test_reductions_over_views_match_numpys_bit_for_bit(rows, mid, n, data):
    # the shapes the residue solve reduces, (points, npol, npol) and (points,
    # npol), in C order and with the points innermost in memory
    a = data.draw(hnp.arrays(np.float64, (rows, mid, n), elements=_NONNEGATIVE))
    for arr in (a, a[:, 0], np.asfortranarray(a), np.asfortranarray(a[:, 0])):
        assert sol._max_last(arr).tobytes() == arr.max(axis=-1).tobytes()
    for arr in (a, np.asfortranarray(a)):
        assert sol._norm1(arr).tobytes() == arr.sum(axis=-2).max(axis=-1).tobytes()


def test_blocked_residue_solve_is_bit_identical(monkeypatch):
    k0 = 1.93185 + 0.51764j
    pairs = [(2.0, sol.residue_constant_from_position(2.0, 1.0)),
             (k0, sol.breather_constant_for_position(k0, -2.0, 0.0))]
    grid = sol.Grid(np.linspace(-10, 10, 201), [0.0, 0.3])
    whole = sol.n_soliton(pairs, grid)
    npol = 18
    for points in (1, 7, 401):  # down to one-point blocks, and a one-point tail
        monkeypatch.setattr(sol, "BLOCK_ENTRIES", points * npol**2)
        fld = sol.n_soliton(pairs, grid)
        for a, b in ((fld.u, whole.u), (fld.v, whole.v)):
            assert a.tobytes() == b.tobytes()


def _outcome(solve, entries, x, t):
    """The bytes of (n31_x, n31_t), or the type and message of the refusal."""
    try:
        return tuple(a.tobytes() for a in solve(entries, x, t))
    except ArithmeticError as exc:
        return type(exc), str(exc)


@st.composite
def regular_pairs(draw):
    """One to three (pole, residue constant) pairs of regular solitons and
    breathers whose pole images stay apart."""
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        x0 = draw(st.floats(-4.0, 4.0))
        if draw(st.booleans()):
            k0 = draw(st.one_of(st.floats(1.2, 5.0), st.floats(-0.85, -0.2)))
            pairs.append((k0, sol.residue_constant_from_position(k0, x0)))
        else:
            r, angle = draw(st.floats(1.2, 4.0)), draw(st.floats(np.pi / 60, np.pi / 6 - np.pi / 60))
            k0 = np.exp(1j * (np.pi + angle)) / r if draw(st.booleans()) else r * np.exp(1j * angle)
            phase = draw(st.floats(0.0, 2 * np.pi, exclude_max=True))
            pairs.append((k0, sol.breather_constant_for_position(k0, x0, phase)))
    try:
        sol._expand_pole_system(sol.wave_poles(pairs))
    except sp.DomainError:
        assume(False)
    return pairs


@settings(max_examples=10, deadline=None)
@given(regular_pairs(), st.integers(2, 40), st.integers(1, 3), st.integers(1, 120),
       st.integers(0, 10**6), st.booleans())
def test_residue_solve_is_byte_identical_to_four_lapack_calls(pairs, nx, nt, points, extra, tail):
    # random blocks, down to one-point blocks and one-point tails
    entries = sol._expand_pole_system(sol.wave_poles(pairs))
    npol = len(entries)
    x, t = np.linspace(-8.0, 8.0, nx)[None, :], 0.1 * np.arange(nt)[:, None]
    if tail:
        points = max(1, nx * nt - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sol, "BLOCK_ENTRIES", points * npol**2 + extra % npol**2)
        got = _outcome(sol._solve_residues, entries, x, t)
        want = _outcome(pi.solve_residues_four_calls, entries, x, t)
    assert got == want


def test_residue_solve_refuses_as_four_lapack_calls_do(monkeypatch):
    # a lowered CONDITION_LIMIT (the soliton's 1-norm condition is ~11.5 at
    # x = 0) and the exactly singular system [[1, -1], [-1, 1]]
    soliton = sol._expand_pole_system(
        sol.wave_poles([(2.0, sol.residue_constant_from_position(2.0, 0.0))]))
    singular = [sol._PoleEntry(0.5, 1, 2, 1.0, 0.0, 0.0), sol._PoleEntry(-0.5, 2, 1, -1.0, 0.0, 0.0)]
    monkeypatch.setattr(sol, "CONDITION_LIMIT", 5.0)
    for entries, x in ((soliton, np.linspace(-5, 5, 51)), (singular, np.linspace(-1, 1, 5))):
        got = _outcome(sol._solve_residues, entries, x[None, :], np.zeros((1, 1)))
        want = _outcome(pi.solve_residues_four_calls, entries, x[None, :], np.zeros((1, 1)))
        assert got == want
        assert got[0] is sol.NearSingularSystemError


_SINGULAR_2X2 = [sol._PoleEntry(0.5, 1, 2, 1.0, 0.0, 0.0), sol._PoleEntry(-0.5, 2, 1, -1.0, 0.0, 0.0)]


def _exact_condition(m_eq):
    """Each point's ||m_eq||_1 ||m_eq^-1||_1 from np.linalg.inv, inf where
    m_eq is exactly singular."""
    cond = np.full(len(m_eq), np.inf)
    for i, m in enumerate(m_eq):
        try:
            cond[i] = np.linalg.norm(m, 1) * np.linalg.norm(np.linalg.inv(m), 1)
        except np.linalg.LinAlgError:
            pass
    return cond


def _residue_systems():
    """The residue entries of regular_pairs(), or the exactly singular 2x2 system."""
    return st.one_of(regular_pairs().map(lambda p: sol._expand_pole_system(sol.wave_poles(p))),
                     st.just(_SINGULAR_2X2))


# The grids reach x = +-30, where a k0 = 2 soliton's coefficients are e^-22
# and e^22 times their value at its centre, so their points straddle bound
# (a), bound (b) and the band between them that neither proves. Where the
# coefficients are tiny both values read 1 up to rounding: over 3,000 random
# draws the exact value exceeded the bound by at most 2 ulp, so 8 eps is
# allowed.
@settings(max_examples=100, deadline=None)
@given(_residue_systems(), st.floats(0.5, 30.0), st.integers(2, 60), st.integers(1, 3),
       st.integers(1, 120))
def test_condition_bound_holds_the_guard_and_the_guard_refuses_as_the_inverse_does(
        entries, lx, nx, nt, points):
    x, t = np.linspace(-lx, lx, nx)[None, :], 0.1 * np.arange(nt)[:, None]
    coef, s, scale, m_eq = pi.residue_system(entries, x, t)
    s_inv_cols = np.abs(np.linalg.inv(s)).sum(axis=0)
    bound = sol._condition_bound(coef, scale, np.abs(s), s_inv_cols)
    assert np.all(_exact_condition(m_eq) <= bound * (1.0 + 8 * np.finfo(float).eps))
    npol = len(entries)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sol, "BLOCK_ENTRIES", points * npol**2)
        for limit in (1.5, 5.0):  # no bound is below 1, so nothing is proven at 1.5
            mp.setattr(sol, "CONDITION_LIMIT", limit)
            got = _outcome(sol._solve_residues, entries, x, t)
            want = _outcome(pi.solve_residues_four_calls, entries, x, t)
            assert got == want


def _traced_peak(synth, *args):
    tracemalloc.start()
    try:
        synth(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_BREATHER_K0 = 2.0 * np.exp(1j * np.pi / 12)
_SOLITON_C = sol.residue_constant_from_position(2.0, 0.0)
_BREATHER_C = sol.breather_constant_for_position(_BREATHER_K0, 0.0, 0.7)
_SYNTH_GRID = sol.Grid(np.linspace(-30, 30, 2001), np.linspace(0.0, 1.0, 101))


# Bounds: the traced peaks plus 10%. On this grid n_soliton peaks at
# 14.6 MB, one_soliton at 11.5 MB and breather at 27.8 MB. Each once also
# returned the complex n31 = 2i sqrt(3) (log f)_x, 3.2 MB here, and then
# peaked at 17.8, 14.8 and 31.1 MB, above each bound. The residue solve's
# blocks of BLOCK_ENTRIES matrix entries hold at most about 4.7 MB of
# temporaries; blocks of 2^18 entries would peak at 25.2 MB.
def test_n_soliton_memory_is_bounded():
    assert _traced_peak(sol.n_soliton, [(2.0, _SOLITON_C)], _SYNTH_GRID) <= 16.0e6


@pytest.mark.parametrize("synth, k0, c, bound", [
    (sol.one_soliton, 2.0, _SOLITON_C, 12.7e6),
    (sol.breather, _BREATHER_K0, _BREATHER_C, 30.6e6),
], ids=["one_soliton", "breather"])
def test_tau_synthesis_memory_is_bounded(synth, k0, c, bound):
    assert _traced_peak(synth, k0, c, _SYNTH_GRID) <= bound


# Bounds: the traced peaks, 4.43 MB (breather) and 4.93 MB (soliton), plus
# 10%. Blocks of 2^18 entries would peak at 16.2 MB and 18.3 MB.
@pytest.mark.parametrize("pairs, nx, bound", [
    ([(_BREATHER_K0, _BREATHER_C)], 15_425, 4.87e6),
    ([(2.0, sol.residue_constant_from_position(2.0, -3.0))], 7_001, 5.42e6),
], ids=["breather", "soliton"])
def test_n_soliton_memory_on_the_roundtrip_grids(pairs, nx, bound):
    lx = vf._auto_extent(sol.wave_poles(pairs))
    grid = sol.Grid(np.linspace(-lx, lx, sol.point_count(2 * lx, sol.DEFAULT_HX)), [0.0])
    assert grid.x.size == nx
    assert _traced_peak(sol.n_soliton, pairs, grid) <= bound


# Tolerances: the centre is recovered to 1e-12 absolute and the rates agree
# to 1e-12 relative; over 3,000 random poles of each kind the errors stayed
# below 3e-14 and 2e-15.
@settings(max_examples=100, deadline=None)
@given(st.one_of(st.floats(1.1, 6.0), st.floats(-0.9, -0.15)), st.floats(-20.0, 20.0))
def test_soliton_envelope_and_rates_match_the_closed_form(k0, x0):
    c = sol.residue_constant_from_position(k0, x0)
    pole = sol.wave_poles([(k0, c)])[0]
    rate, centre = sol.pole_envelope(pole)
    assert centre == pytest.approx(abs(x0), rel=0, abs=1e-12)
    rate_x, rate_t = sp.pole_rates(pole.k0)
    assert rate == pytest.approx(abs(rate_x.real), rel=1e-12)
    speed = sol.one_soliton(k0, c, sol.Grid([0.0], [0.0])).meta["speed"]
    assert complex(-rate_t / rate_x) == pytest.approx(speed, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(1.2, 4.0),
    st.floats(np.pi / 60, np.pi / 6 - np.pi / 60),
    st.booleans(),
    st.floats(-20.0, 20.0),
    st.floats(0.0, 2 * np.pi),
)
def test_breather_envelope_centre_is_the_requested_position(r, angle, inside, x0, phase):
    # a regular pole: RegR outside the unit disk, or its RegL image inside
    k0 = np.exp(1j * (np.pi + angle)) / r if inside else r * np.exp(1j * angle)
    c = sol.breather_constant_for_position(k0, x0, phase)
    pole = sol.wave_poles([(k0, c)])[0]
    assert pole.kind == "breather"
    rate, centre = sol.pole_envelope(pole)
    assert centre == pytest.approx(abs(x0), rel=0, abs=1e-12)
    assert rate == abs(sp.pole_rates(k0)[0].real)


def test_spec_classification():
    poles = sol.wave_poles(
        [
            (2.0, sol.residue_constant_from_position(2.0, 0.0)),
            (-0.5, sol.residue_constant_from_position(-0.5, 0.0)),
            (2 * np.exp(1j * np.pi / 12), 0.1),
            (0.5 * np.exp(1j * 13 * np.pi / 12), 0.1),
        ]
    )
    assert [p.kind for p in poles] == ["soliton", "soliton", "breather", "breather"]


#: whether a breather pole in each complex subregion of D2 gives a singular wave
SINGULAR_SUBREGION = {sp.Subregion.REG_R: False, sp.Subregion.REG_L: False,
                      sp.Subregion.SING_R: True, sp.Subregion.SING_L: True}


def _near(edge):
    """Floats within 1e-1 to 1e-9 of edge, on either side."""
    return st.builds(lambda side, e: edge + side * 10.0**-e, st.sampled_from([-1.0, 1.0]),
                     st.floats(1.0, 9.0))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.floats(0.05, 20.0), _near(1.0)),
    st.one_of(st.floats(-np.pi, np.pi), *(_near(m * np.pi / 6) for m in (0, 1, -1, 6, 5, -5))),
    st.floats(0.0, 2 * np.pi),
)
def test_wave_poles_refuses_exactly_the_singular_subregions(r, angle, phase):
    k0 = r * np.exp(1j * angle)
    assume(not sp.on_real_axis(k0))
    sub = sp.subregion(k0)
    pair = [(k0, np.exp(1j * phase))]
    if sub not in SINGULAR_SUBREGION:
        with pytest.raises(sp.DomainError):
            sol.wave_poles(pair)
    elif SINGULAR_SUBREGION[sub]:
        with pytest.raises(sol.SingularBreatherError, match="lies in the singular subregion"):
            sol.wave_poles(pair)
    else:
        assert [p.kind for p in sol.wave_poles(pair)] == ["breather"]


def test_dressed_residue_positivity():
    # the real-pole dressing is a positive multiple of the constant
    k0 = 2.0
    c = sol.residue_constant_from_position(k0, 0.3)
    vals = c * np.exp(-sp.eval_theta(2, 1, np.linspace(-3, 3, 7), 0.4, k0))
    ratios = vals / c
    assert np.max(np.abs(ratios.imag)) < 1e-12
    assert np.all(ratios.real > 0)
