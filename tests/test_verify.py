import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boussinesq_ist import solitons as sol
from boussinesq_ist import spectral as sp
from boussinesq_ist import verify as vf

import paper_identities as pi


def test_fd_weights_exact_on_polynomials():
    # each stencil must differentiate monomials x^p exactly for all p below
    # the stencil size: the m-th derivative of x^p at 0 is m! when p = m
    # and 0 otherwise
    for (_, order), w in vf._STENCILS.items():
        offsets = range(-(w.size // 2), w.size // 2 + 1)
        for p in range(len(offsets)):
            vals = np.array([float(o) ** p for o in offsets])
            exact = math.factorial(order) if p == order else 0.0
            assert abs(np.dot(w, vals) - exact) < 1e-8, (order, p)


def test_fd_convergence_order():
    # cos, not sin: a symmetric stencil is exactly 0 on an odd function, so
    # the errors on sin would both be rounding noise
    f = lambda x: np.cos(1.3 * x)
    errs = []
    for h in (0.1, 0.05):
        x = h * np.arange(-3, 4)
        approx = np.dot(vf._STENCILS["x", 4], f(x)) / h**4
        errs.append(abs(approx - 1.3**4 * np.cos(0.0)))
    # fourth derivative of cos(1.3 x) at 0 is 1.3^4; error should drop ~16x
    assert errs[1] < errs[0] / 8


def _rational_weights(order, offsets):
    """The stencil's weights in exact arithmetic: sum_j w_j x_j^m = order!
    when m = order and 0 otherwise, solved by Gauss-Jordan elimination."""
    n = len(offsets)
    rows = [[Fraction(x) ** m for x in offsets] + [Fraction(math.factorial(order) * (m == order))]
            for m in range(n)]
    for i in range(n):
        piv = next(r for r in range(i, n) if rows[r][i] != 0)
        rows[i], rows[piv] = rows[piv], rows[i]
        rows[i] = [v / rows[i][i] for v in rows[i]]
        for r in range(n):
            if r != i:
                rows[r] = [a - rows[r][i] * b for a, b in zip(rows[r], rows[i])]
    return [row[-1] for row in rows]


def test_stencil_weights_are_the_nearest_doubles_of_their_rational_values():
    # the nearest doubles, so even orders are exactly symmetric, odd ones antisymmetric
    for (_, order), w in vf._STENCILS.items():
        exact = _rational_weights(order, range(-(w.size // 2), w.size // 2 + 1))
        assert w.tolist() == [float(q) for q in exact], order
        assert w[::-1].tolist() == ((-1) ** order * w).tolist(), order


@pytest.fixture(scope="module")
def soliton_field():
    c = sol.residue_constant_from_position(2.0, 0.0)
    grid = sol.Grid(np.linspace(-30, 30, 6001), 0.5 + 0.001 * np.arange(-2, 3))
    return sol.one_soliton(2.0, c, grid)


def test_pde_residual_zero_field():
    zero = sol.SolutionField(
        np.linspace(-5, 5, 101), np.linspace(0, 0.04, 5), np.zeros((5, 101))
    )
    rep = vf.pde_residual(zero)
    assert rep["max_abs_residual"] == 0.0


def test_pde_residual_grid_guards():
    small = sol.SolutionField(np.linspace(-1, 1, 5), np.linspace(0, 1, 5), np.zeros((5, 5)))
    with pytest.raises(ValueError):
        vf.pde_residual(small)
    short_t = sol.SolutionField(np.linspace(-1, 1, 21), np.array([0.0, 0.1]), np.zeros((2, 21)))
    with pytest.raises(ValueError):
        vf.pde_residual(short_t)


def test_pde_residual_exact_soliton(soliton_field):
    rep = vf.pde_residual(soliton_field)
    assert rep["max_abs_residual"] < 1e-4
    assert set(rep["term_max"]) == {"u_tt", "u_xx", "(u^2)_xx", "u_xxxx"}


def test_pde_negative_control(soliton_field):
    rep_good = vf.pde_residual(soliton_field)
    bad = sol.SolutionField(
        soliton_field.x,
        soliton_field.t,
        soliton_field.u + 0.1 * np.exp(-((soliton_field.x[None, :] - 1.0) ** 2)),
        v=soliton_field.v,
    )
    rep_bad = vf.pde_residual(bad)
    assert rep_bad["max_abs_residual"] > 100 * rep_good["max_abs_residual"]


def test_system_residual_exact_soliton(soliton_field):
    res = vf.system_residual(soliton_field)
    assert res["first_equation"] < 1e-3
    assert res["second_equation"] < 1e-4


def test_lax_compatibility(soliton_field):
    assert vf.lax_compatibility(soliton_field)["max_residual"] < 1e-3
    zero = sol.SolutionField(
        soliton_field.x, soliton_field.t, 0 * soliton_field.u, v=0 * soliton_field.v
    )
    assert vf.lax_compatibility(zero)["max_residual"] < 1e-12
    wobble = 0.1 * np.cos(4 * soliton_field.x[None, :]) * np.exp(
        -((soliton_field.x[None, :] - 1.0) ** 2)
    )
    bad = sol.SolutionField(
        soliton_field.x, soliton_field.t, soliton_field.u + wobble, v=soliton_field.v
    )
    assert vf.lax_compatibility(bad)["max_residual"] > 1e-1



def _random_field(rng, smooth):
    """u and v on a random grid (steps 0.05-1): sums of three O(1) plane
    waves, or uniform noise in [-1, 1]."""
    nx, nt = rng.integers(7, 40), rng.integers(3, 8)
    x, t = rng.uniform(0.05, 1.0) * np.arange(nx), rng.uniform(0.05, 1.0) * np.arange(nt)

    def wave():
        if not smooth:
            return rng.uniform(-1.0, 1.0, (nt, nx))
        amp, kx, kt = rng.uniform(-1, 1, 3), rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
        phase = rng.uniform(0, 2 * np.pi, 3)
        return sum(a * np.cos(p * x[None, :] + q * t[:, None] + ph)
                   for a, p, q, ph in zip(amp, kx, kt, phase))

    return sol.SolutionField(x, t, wave(), v=wave())


# Tolerance: the closed form and the stacked 3x3 products round differently.
# Over 3,000 such fields (max residual R up to 2.5 on the plane waves and
# 4.1e3 on the noise) they stayed within 3.0 eps max(1, R); the bound is
# four units of roundoff.
def test_closed_form_lax_residual_matches_the_matrix_products():
    rng = np.random.default_rng(11)
    for i in range(200):
        fld = _random_field(rng, smooth=i % 2 == 0)
        ks = []
        while len(ks) < 3:
            k = 1.5 * complex(rng.normal(), rng.normal())
            if abs(k) > 0.2 and sp.dist_to_qhat(k) > 0.05:
                ks.append(k)
        want = pi.lax_residual_matmul(fld, ks)
        got = vf.lax_compatibility(fld)["max_residual"]
        assert abs(got - want) <= 4 * np.finfo(float).eps * max(1.0, want)


_AWAY_FROM_QHAT = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)).filter(
    lambda k: abs(k) > 0.2 and sp.dist_to_qhat(k) > 0.05)


# The residual does not depend on k in exact arithmetic (the lam(k) terms
# cancel), so `verify` writes it without k. Tolerance: over 3,000 fields of
# either kind, each at one k of parts normal (sd 3) and one uniform in
# [-4, 4], the matrix products stayed within 2.0 eps max(1, R, |lam(k)|) of
# the k-free residual; the bound is four units of roundoff.
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), _AWAY_FROM_QHAT)
def test_lax_residual_is_the_same_at_every_k(seed, smooth, k):
    fld = _random_field(np.random.default_rng(seed), smooth)
    without_k = vf.lax_compatibility(fld)["max_residual"]
    for at in (1.3 + 0.4j, 0.7 - 0.2j, 2.2 + 0.1j, k):
        scale = max(1.0, without_k, abs(pi.lam(at)))
        assert abs(pi.lax_residual_matmul(fld, [at]) - without_k) <= 4 * np.finfo(float).eps * scale


def test_lax_compatibility_needs_an_interior(soliton_field):
    two_levels = sol.SolutionField(
        soliton_field.x, soliton_field.t[:2], soliton_field.u[:2], v=soliton_field.v[:2]
    )
    with pytest.raises(ValueError, match="at least 3 time levels"):
        vf.lax_compatibility(two_levels)

@pytest.mark.parametrize("levels, points", [(2, 101), (3, 5)])
def test_system_residual_names_its_minimum_grid(soliton_field, levels, points):
    fld = sol.SolutionField(soliton_field.x[:points], soliton_field.t[:levels],
                            soliton_field.u[:levels, :points], v=soliton_field.v[:levels, :points])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="system check needs at least 3 time levels and 7 x-points"):
            vf.system_residual(fld)


def test_mass_conservation():
    c = sol.residue_constant_from_position(2.0, 0.0)
    grid = sol.Grid(np.linspace(-30, 30, 6001), np.linspace(0, 1, 5))
    fld = sol.one_soliton(2.0, c, grid)
    rep = vf.mass_conservation(fld)
    assert rep["decaying"]
    assert rep["max_deviation"] < 1e-6
    # sech^2 mass in closed form: 2 sqrt(6 A)
    assert rep["integrals"][0] == pytest.approx(2 * np.sqrt(6 * 27 / 32), rel=1e-6)


def test_mass_flags_nondecaying():
    x = np.linspace(-5, 5, 201)
    fld = sol.SolutionField(x, np.array([0.0]), np.ones((1, 201)))
    assert not vf.mass_conservation(fld)["decaying"]


def test_round_trip_soliton(soliton_round_trip):
    _, rep = soliton_round_trip
    assert rep["passed"]
    assert min(rep["pole_errors"].values()) < 1e-3
    assert min(rep["residue_errors"].values()) < 1e-2
    assert rep["reflection_floor"] < 1e-3


# Round trips over the paper's parameters: the soliton's position and the
# breather's phase, each on its automatic extent.
@settings(max_examples=4, deadline=None)
@given(st.floats(-4.0, 4.0))
def test_soliton_round_trip_passes_at_any_position(x0):
    rep = vf.round_trip([(2.0, sol.residue_constant_from_position(2.0, x0))])
    assert rep["passed"], rep["details"]


@settings(max_examples=3, deadline=None)
@given(st.floats(0.0, 2 * np.pi, exclude_max=True))
def test_breather_round_trip_passes_at_any_phase(phase):
    k0 = 2 * np.exp(1j * np.pi / 12)
    rep = vf.round_trip([(k0, sol.breather_constant_for_position(k0, 0.0, phase))])
    assert rep["passed"], rep["details"]


@pytest.fixture(scope="module")
def soliton_round_trip():
    pairs = [(2.0, sol.residue_constant_from_position(2.0, -3.0))]
    return pairs, vf.round_trip(pairs)


@pytest.mark.parametrize("zero", [(1.5, 0.0), (2 * np.exp(-1j * np.pi / 12), 0.0)],
                         ids=["real", "sing-r"])
def test_a_zero_constant_pair_leaves_the_round_trip_unchanged(soliton_round_trip, zero):
    # a real pole, and a complex pole in the singular subregion SING_R
    pairs, rep = soliton_round_trip
    assert vf.round_trip(pairs + [zero]) == rep


def test_round_trip_names_a_failing_reflection_floor(monkeypatch, soliton_round_trip):
    # every pole passes and only the floor fails: the report says which
    # tolerance failed, and each pole's entry stays its fit residual
    pairs, good = soliton_round_trip
    monkeypatch.setattr(vf.sc, "reflection_floor", lambda data: 0.25)
    rep = vf.round_trip(pairs)
    assert not rep["passed"]
    assert rep["details"] == dict(good["details"], reflection_floor="reflection floor 2.500e-01")
    assert {k: rep[k] for k in ("pole_errors", "residue_errors")} == {
        k: good[k] for k in ("pole_errors", "residue_errors")}


def test_round_trip_states_a_residue_error_next_to_its_fit_residual(monkeypatch,
                                                                    soliton_round_trip):
    pairs, good = soliton_round_trip
    fit = vf.sc.residue_constant

    def half_off(data, k0):
        chat, res = fit(data, k0)
        return 1.5 * chat, res

    monkeypatch.setattr(vf.sc, "residue_constant", half_off)
    rep = vf.round_trip(pairs)
    assert not rep["passed"]
    (key, detail), = rep["details"].items()
    rerr = rep["residue_errors"][key]
    assert rerr > 1e-2
    assert detail == f"{good['details'][key]}, residue error {rerr:.3e}"


def test_round_trip_empty():
    rep = vf.round_trip([])
    assert rep["passed"]
    assert rep["reflection_floor"] < 1e-10


def test_round_trip_left_breather_uses_adaptive_region():
    # the pole sits outside the default search rectangles; a fitted one is
    # added around it automatically
    k0 = 0.5 * np.exp(1j * 13 * np.pi / 12)
    c = sol.breather_constant_for_position(k0, 0.0, 0.4)
    rep = vf.round_trip([(k0, c)])
    assert rep["passed"]
    assert min(rep["pole_errors"].values()) < 1e-3
