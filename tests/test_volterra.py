import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boussinesq_ist import scattering as sc
from boussinesq_ist import solitons as sol
from boussinesq_ist import spectral as sp
from boussinesq_ist import volterra as vt

import paper_identities as pi


def _setup(kbatch):
    k = np.atleast_1d(np.asarray(kbatch, dtype=complex))
    ls = sp.eval_l_all(k)
    return k, ls, sp.potential_factor(ls)


def test_stability_masks_match_rate_ordering():
    k = np.array([1.8 + 0.3j])  # pole sector: Re l1 < Re l3 < Re l2
    ls = sp.eval_l_all(k)
    assert vt.column_stability(ls, 1, "X")[0]
    assert not vt.column_stability(ls, 2, "X")[0]
    assert vt.column_stability(ls, 2, "XA")[0]
    assert vt.column_stability(ls, 2, "Y")[0]
    assert vt.column_stability(ls, 1, "YA")[0]
    assert vt.unstable_entries(ls, 2, "X") == [1, 3]


def test_march_zero_potential_is_exact():
    x = np.linspace(-8, 8, 321)
    n = np.zeros_like(x)
    k, ls, c = _setup([np.exp(0.3j), 1.5 + 0.2j])
    out = vt.march_column(x, n, n, c, ls, 1, "X", want_traj=True, s_rows=(1, 2, 3))
    assert np.max(np.abs(out["traj"][:, :, 0] - 1.0)) == 0.0
    np.testing.assert_allclose(out["s"], [[1, 0, 0], [1, 0, 0]], atol=0)
    assert out["s_defined"].all()


def test_march_second_order_self_convergence():
    # halving the step should cut the connection-entry error fourfold
    def r1_at(nx):
        x = np.linspace(-10, 10, nx)
        data = sc.InitialData(x, 0.6 * np.exp(-(x**2)), np.zeros_like(x))
        k = np.array([np.exp(0.45j)])
        return sc._r_values(data, "X", k)[0]

    coarse, mid, fine = r1_at(501), r1_at(1001), r1_at(4001)
    e_coarse = abs(coarse - fine)
    e_mid = abs(mid - fine)
    assert e_mid < e_coarse / 3.2


def test_march_refuses_growing_columns():
    x = np.linspace(-5, 5, 101)
    n = np.exp(-(x**2))
    k, ls, c = _setup([1.8 + 0.3j])
    with pytest.raises(vt.UnboundedExponentialError):
        vt.march_column(x, n, n, c, ls, 2, "X")


def test_connection_entry_definedness():
    # off-contour entries with real exponential dressing are only trusted
    # when the integrand visibly converges inside the window
    x = np.linspace(-10, 10, 801)
    data = sc.InitialData(x, 0.6 * np.exp(-(x**2)), np.zeros_like(x))
    s, sa, sdef, sadef = pi.scattering_matrices(data, 1.8 + 0.3j)
    assert sdef[0, 0]  # diagonal entry of the stable column
    assert not sdef[:, 1].any()  # unstable column entirely masked
    assert np.all(np.isnan(s[:, 1]))


@pytest.fixture(scope="module")
def soliton_data():
    # the k0 = 2 soliton on the default CLI grid, as in scatter --poles
    grid = sol.Grid(np.linspace(-sol.DEFAULT_LX, sol.DEFAULT_LX, 6001), [0.0])
    fld = sol.n_soliton([(2.0, sol.residue_constant_from_position(2.0, 0.0))], grid)
    return sc.InitialData(grid.x, fld.u[0], fld.v[0])


def _connection_columns(monkeypatch, data, ks, kind, block):
    monkeypatch.setattr(vt, "DRESS_BLOCK", block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return [sc._march(data, ks, kind, col, s_rows=(1, 2, 3)) for col in (1, 2)]


@pytest.mark.parametrize(
    "kind, ks",
    [
        ("X", sc.gamma1_samples()[::4]),
        ("XA", sc.gamma4_samples()[::4]),
        ("X", sc.circle_samples(192)),
        ("XA", sc.circle_samples(192)),
    ],
    ids=["X-gamma1", "XA-gamma4", "X-circle", "XA-circle"],
)
def test_blocked_dressing_matches_the_exact_dressing(monkeypatch, soliton_data, kind, ks):
    # anchors every DRESS_BLOCK steps against an exact exp at every step
    blocked = _connection_columns(monkeypatch, soliton_data, ks, kind, vt.DRESS_BLOCK)
    exact = _connection_columns(monkeypatch, soliton_data, ks, kind, 1)
    for j, (new, ref) in enumerate(zip(blocked, exact)):
        assert np.array_equal(new["s_defined"], ref["s_defined"])
        scale = np.abs(ref["s"][:, j : j + 1])
        dev = np.where(ref["s_defined"], np.abs(new["s"] - ref["s"]), 0.0)
        assert np.all(dev <= 1e-12 * scale)
    assert np.array_equal(blocked[0]["s"][:, 0], exact[0]["s"][:, 0])  # delta = 0


def test_clipping_samples_keep_the_exact_dressing(monkeypatch, soliton_data):
    # on the outer gamma1 ray, |Re rate| (max|x| + DRESS_BLOCK h) reaches
    # EXP_CLIP from |k| ~ 35; at |k| = 100 the dressing itself saturates, and
    # at |k| = 2e4 a table entry exp(rate r h), r < DRESS_BLOCK, would overflow
    ks = np.array([-2e4j, -100j, -50j, -3j, 0.5j, np.exp(0.45j)])
    ls = sp.eval_l_all(ks)
    rate = np.abs((ls - ls[:, :1]).real).max(axis=1)
    reach = rate * (np.max(np.abs(soliton_data.x)) + vt.DRESS_BLOCK * soliton_data.hx)
    assert list(reach >= vt.EXP_CLIP) == [True, True, True, False, False, False]
    assert reach[1] > 2 * vt.EXP_CLIP and rate[0] * (vt.DRESS_BLOCK - 1) * soliton_data.hx > 710
    blocked = _connection_columns(monkeypatch, soliton_data, ks, "X", vt.DRESS_BLOCK)
    exact = _connection_columns(monkeypatch, soliton_data, ks, "X", 1)
    for new, ref in zip(blocked, exact):
        assert np.array_equal(new["s"][:3], ref["s"][:3], equal_nan=True)
        assert np.array_equal(new["s_defined"], ref["s_defined"])
        # only those samples take the exact path: the others round differently
        assert not any(np.array_equal(new["s"][i], ref["s"][i]) for i in (3, 4, 5))


def _outcome(march, args):
    # the bytes of each result of one march, or its refusal
    try:
        out = march(*args)
    except vt.UnboundedExponentialError as err:
        return str(err)
    return {key: (val.shape, val.dtype, val.tobytes()) for key, val in out.items()}


def _spectral_batch(rng, nk):
    # unit circle, both imaginary rays out to |k| = 2e4 (clipped dressings,
    # overflowing growth), and the plane around the pole sector
    pick = rng.integers(0, 4, nk)
    ray = 10.0 ** rng.uniform(-1, 4.3, nk)
    return np.select(
        [pick == 0, pick == 1, pick == 2],
        [np.exp(1j * rng.uniform(0, 2 * np.pi, nk)), -1j * ray, 1j * ray],
        rng.uniform(-3, 3, nk) + 1j * rng.uniform(-3, 3, nk),
    )


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(sorted(vt.KINDS)),
    col=st.integers(1, 3),
    s_rows=st.sampled_from([(), (1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3)]),
    want_traj=st.booleans(),
    data=st.sampled_from(["bounded", "overflow", "nan"]),
    nk=st.one_of(st.integers(1, 9), st.sampled_from([50, 193, 256, 1536])),
    nx=st.one_of(st.sampled_from([1, 2, 3, 15, 16, 17, 33]), st.integers(2, 120)),
    block=st.sampled_from([1, 16]),
    seed=st.integers(0, 2**32 - 1),
    growing=st.booleans(),
)
def test_blocked_march_equals_the_stepwise_march(
    kind, col, s_rows, want_traj, data, nk, nx, block, seed, growing
):
    # byte for byte, signed zeros, infinities and NaN included.  Without
    # `growing` the samples whose column grows are redrawn on the unit circle,
    # where every column is bounded: a random batch of 50 or more is refused
    # before it marches
    rng = np.random.default_rng(seed)
    x = np.linspace(-1.0, 1.0, nx) * rng.uniform(1, 10)
    amp = {"bounded": 1.0, "overflow": 1e200, "nan": 1.0}[data]
    n1 = amp * rng.normal() * np.exp(-(x**2))
    n2 = amp * rng.normal() * x * np.exp(-(x**2))
    if data == "nan":
        n1[rng.integers(nx)] = np.nan
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(vt, "DRESS_BLOCK", block)
        ks = _spectral_batch(rng, nk)
        if not growing:
            grows = ~vt.column_stability(sp.eval_l_all(ks), col, kind)
            ks[grows] = np.exp(1j * rng.uniform(0, 2 * np.pi, grows.sum()))
        _, ls, c = _setup(ks)
        args = (x, n1, n2, c, ls, col, kind, want_traj, s_rows)
        assert _outcome(vt.march_column, args) == _outcome(pi.march_column_stepwise, args)


@pytest.mark.parametrize("block", [3, 16])
@pytest.mark.parametrize("kind", sorted(vt.KINDS))
def test_blocked_march_equals_the_stepwise_march_over_many_blocks(kind, block):
    # a batch of at most `block` connection entries takes its anchor
    # dressings `block` blocks at a time: a grid of more than block**2 steps
    # crosses those chunks.  The ray samples at |k| = 1e3 take the exact
    # dressing at every step
    x = np.linspace(-6.0, 6.0, 2 * block * block + 7)
    n1, n2 = 0.8 * np.exp(-(x**2)), 0.3 * x * np.exp(-(x**2))
    ks = np.array([np.exp(0.45j), np.exp(2.0j), 1.8 + 0.3j, -1e3j, 1e3j, 0.5j, -3j])
    _, ls, c = _setup(ks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vt, "DRESS_BLOCK", block)
        for col in (1, 2, 3):
            stable = np.flatnonzero(vt.column_stability(ls, col, kind))
            for batch in (stable, stable[:1], stable[-1:]):
                for s_rows in ((1, 2, 3), (col,)):
                    args = (x, n1, n2, c[batch], ls[batch], col, kind, True, s_rows)
                    expected = _outcome(pi.march_column_stepwise, args)
                    assert _outcome(vt.march_column, args) == expected


def _exact_path(ls, col, kind, rows, data):
    # the samples a march sends down the per-step exp path for these rows;
    # a march that keeps its trajectory integrates over the whole grid
    delta = (ls - ls[:, col - 1 : col])[:, [r - 1 for r in rows]]
    reach = np.abs(delta.real).max(axis=1) * (np.max(np.abs(data.x)) + vt.DRESS_BLOCK * data.hx)
    return reach >= vt.EXP_CLIP


@pytest.mark.parametrize(
    "kind, ks",
    [
        ("X", sc.gamma1_samples()[::4]),
        ("XA", sc.gamma4_samples()[::4]),
        ("X", sc.circle_samples(192)),
        ("XA", sc.circle_samples(192)),
    ],
    ids=["X-gamma1", "XA-gamma4", "X-circle", "XA-circle"],
)
def test_one_requested_row_matches_the_full_column(soliton_data, kind, ks):
    # a march that integrates only row r keeps the state bits at every step,
    # and row r's connection entry moves only where the two marches choose
    # different samples for the exact per-step dressing
    _, ls, _ = sc._plan(ks)
    for col in (1, 2, 3):
        stable = vt.column_stability(ls, col, kind)
        if not stable.any():
            continue
        full = sc._march(soliton_data, ks[stable], kind, col, want_traj=True, s_rows=(1, 2, 3))
        scale = np.abs(full["s"][:, col - 1])
        for r in (1, 2, 3):
            one = sc._march(soliton_data, ks[stable], kind, col, want_traj=True, s_rows=(r,))
            assert np.array_equal(one["traj"], full["traj"])
            assert one["s"].shape == one["s_defined"].shape == (int(stable.sum()), 1)
            same = ~(_exact_path(ls[stable], col, kind, (1, 2, 3), soliton_data)
                     | _exact_path(ls[stable], col, kind, (r,), soliton_data))
            s, sdef = one["s"][:, 0], one["s_defined"][:, 0]
            assert np.array_equal(s[same], full["s"][same, r - 1])
            assert np.array_equal(sdef[same], full["s_defined"][same, r - 1])
            assert np.all(np.abs(s - full["s"][:, r - 1])[~same] <= 1e-12 * scale[~same])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-6, 6), st.floats(-6, 6)), min_size=1, max_size=6),
       st.sampled_from([("X", 1), ("XA", 2)]))
def test_diagonal_entries_are_defined_by_construction(pts, kind_col):
    # s11 (pole search, Newton) and sA22 (residue normalisation) read a
    # diagonal entry, whose dressing rate l_j - l_j is exactly 0: the mask
    # is True at every sample of the stable set, whatever the data
    kind, col = kind_col
    ks = np.array([complex(a, b) for a, b in pts])
    ks = ks[sp.dist_to_qhat(ks) >= sc.QHAT_EXCLUSION]
    assume(ks.size)
    ks = ks[vt.column_stability(sp.eval_l_all(ks), col, kind)]
    assume(ks.size)
    x = np.linspace(-6, 6, 241)
    data = sc.InitialData(x, 0.7 * np.exp(-(x**2)), 0.2 * x * np.exp(-(x**2)))
    assert sc._march(data, ks, kind, col, s_rows=(col,))["s_defined"].all()


def _dense_march(x, n1, n2, k, col, kind):
    """Trajectory of the trapezoidal march with the dense generators
    G1 = P^-1 E31 P and G2 = P^-1 E32 P from a numerical inverse of P,
    transposed for the adjugate kinds."""
    sign, d, side, transpose = vt.KINDS[kind]
    p, pinv = pi.vandermonde(k), pi.vandermonde_inv(k)
    g1 = pinv[:, :, 2, None] * p[:, None, 0, :]
    g2 = pinv[:, :, 2, None] * p[:, None, 1, :]
    if transpose:
        g1, g2 = np.swapaxes(g1, 1, 2), np.swapaxes(g2, 1, 2)
    ls = sp.eval_l_all(k)
    h = x[1] - x[0]
    delta = ls - ls[:, col - 1 : col]
    if side == "right":
        prop, order, start = np.exp(-d * h * delta), range(x.size - 2, -1, -1), x.size - 1
    else:
        prop, order, start = np.exp(d * h * delta), range(1, x.size), 0
    ej = np.zeros((k.size, 3), dtype=complex)
    ej[:, col - 1] = 1.0

    def apply_pot(m, phi):
        return np.einsum("kij,kj->ki", n1[m] * g1 + n2[m] * g2, phi)

    traj = np.empty((x.size, k.size, 3), dtype=complex)
    phi = traj[start] = ej
    mphi = apply_pot(start, phi)
    for m in order:
        rhs = ej + prop * ((phi - ej) + 0.5 * h * sign * mphi)
        mphi = apply_pot(m, rhs)
        phi = traj[m] = rhs + 0.5 * h * sign * mphi
    return traj


@pytest.mark.parametrize("kind", ["X", "XA", "Y", "YA"])
def test_rank_one_march_matches_dense_generators(kind):
    # pole sector, both vertical rays inside and outside the circle, and the
    # unit circle away from the roots of unity
    k = np.array([1.8 + 0.3j, -0.6 + 0.02j, 0.5j, -3j, -0.5j, 2.5j, np.exp(0.45j), np.exp(2.0j)])
    x = np.linspace(-4, 4, 161)
    data = sc.InitialData(x, 0.8 * np.exp(-(x**2)), 0.3 * x * np.exp(-(x**2)))
    n1, n2 = data.potential_scalars
    k, ls, c = _setup(k)
    for col in (1, 2, 3):  # every column is stable on the two unit-circle samples
        stable = vt.column_stability(ls, col, kind)
        out = vt.march_column(x, n1, n2, c[stable], ls[stable], col, kind, want_traj=True)
        ref = _dense_march(x, n1, n2, k[stable], col, kind)
        scale = np.max(np.abs(ref), axis=(0, 2))
        assert np.all(np.max(np.abs(out["traj"] - ref), axis=(0, 2)) <= 1e-12 * scale)


@settings(max_examples=200, deadline=None)
@given(st.floats(-20, 20), st.floats(-20, 20))
def test_potential_factor_is_the_third_column_of_the_inverse(re, im):
    k = complex(re, im)
    assume(abs(k) <= 20 and sp.dist_to_qhat(k) >= 0.05)
    c = sp.potential_factor(sp.eval_l_all(k))
    ref = pi.vandermonde_inv(k)[:, 2]
    assert np.linalg.norm(c - ref) <= 1e-12 * np.linalg.norm(ref)
