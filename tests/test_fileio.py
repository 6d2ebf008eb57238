import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boussinesq_ist import fileio
from boussinesq_ist import solitons as sol

import paper_identities as pi

_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 1e308, -1e308,
             1.7976931348623157e308, -1.7976931348623157e308]
_VALUE = st.one_of(st.sampled_from(_EXTREMES), st.integers(-2**53, 2**53).map(float),
                   st.floats(allow_nan=False, allow_infinity=False))


def _arrays(*shape, ints=False):
    n = int(np.prod(shape))
    return st.lists(st.integers(-2**62, 2**62) if ints else _VALUE, min_size=n, max_size=n).map(
        lambda values: np.array(values, dtype=int if ints else float).reshape(shape))


@st.composite
def _fields(draw):
    nt, nx = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    axis = lambda n: st.lists(_VALUE, min_size=n, max_size=n, unique=True).map(sorted).map(np.array)
    v = draw(_arrays(nt, nx)) if draw(st.booleans()) else None
    return sol.SolutionField(draw(axis(nx)), draw(axis(nt)), draw(_arrays(nt, nx)), v=v)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "out.csv"


def _written(path, write, *args):
    write(str(path), *args)
    return path.read_bytes()


PARAMS = {"b": 1.5, "a": "two"}


# The writers format each value once, a block at a time. The bytes must be
# those of the row-at-a-time writer on every finite double, with signed
# zeros, subnormals, the largest magnitudes and integers among them.
@settings(max_examples=60, deadline=None)
@given(_fields())
def test_write_field_writes_the_row_at_a_time_bytes_and_reads_back(csv_path, fld):
    nt, nx = fld.u.shape
    columns = {"x": np.tile(fld.x, nt), "t": np.repeat(fld.t, nx), "u": fld.u.reshape(-1)}
    if fld.v is not None:
        columns["v"] = fld.v.reshape(-1)
    want = _written(csv_path, pi.write_csv_rowwise, "nsoliton", PARAMS, columns)
    assert _written(csv_path, fileio.write_field, fld, "nsoliton", PARAMS) == want
    back = fileio.read_field(str(csv_path))
    for name in ("x", "t", "u", "v"):
        sent, got = getattr(fld, name), getattr(back, name)
        assert got is None if sent is None else got.tobytes() == sent.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(*[_arrays(n)] * 4)),
       st.sampled_from(["modulus", "angle"]))
def test_write_contour_writes_the_row_at_a_time_bytes(csv_path, parts, param_name):
    ks, values = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
    par = np.abs(ks) if param_name == "modulus" else np.angle(ks)
    columns = {"param": par, "k_re": ks.real, "k_im": ks.imag,
               "value_re": values.real, "value_im": values.imag}
    want = _written(csv_path, pi.write_csv_rowwise, "scatter", dict(PARAMS, param=param_name),
                    columns)
    assert _written(csv_path, fileio.write_contour, ks, values, "scatter", PARAMS,
                    param_name) == want


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(1, 30), st.booleans()).flatmap(
    lambda n_ints: st.tuples(*[_arrays(n_ints[0], ints=n_ints[1])] * 3)))
def test_write_initial_csv_writes_the_row_at_a_time_bytes(csv_path, cols):
    x, u0, v0 = cols
    want = _written(csv_path, pi.write_csv_rowwise, "soliton", PARAMS, {"x": x, "u0": u0, "v0": v0})
    assert _written(csv_path, fileio.write_initial_csv, x, u0, v0, "soliton", PARAMS) == want


def _kernel_text(values):
    """What the CSV value kernel writes for each of the float64 values, as text."""
    c = fileio._chars(np.asarray(values, dtype=float)).T
    return c[c != 0].tobytes().decode().split(",")[:-1]


# The kernel computes the 17 digits with a double-double product and renders
# them with C's %g rules. Its text must be that of "%.17g" on every double:
# raw 64-bit patterns, so every exponent, subnormals, nan and +-inf among them.
@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_the_value_kernel_writes_what_percent_17g_writes(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _kernel_text(values) == ["%.17g" % v for v in values.tolist()]


def test_the_value_kernel_at_extremes_zeros_and_notation_switches():
    # %g writes fixed notation for decimal exponents -4 <= e < 17 and
    # scientific otherwise; each switch point and both its neighbours
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    values = np.concatenate([_EXTREMES, [0.0, -0.0], switches, np.nextafter(switches, 0),
                             np.nextafter(switches, np.inf)])
    values = np.concatenate([values, -values])
    assert _kernel_text(values) == ["%.17g" % v for v in values.tolist()]


def test_ties_and_non_finite_values_go_through_percent(monkeypatch):
    # 1234567890123456.25 is an exact tie at 17 digits: its scaled remainder
    # is exactly one half. With the kernel's table of digit quadruples blanked,
    # a value it renders itself keeps only its first digit, but these keep the
    # bytes of "%.17g"
    tie = np.array([1234567890123456.25])
    assert abs(fileio._scaled(tie, np.array([15], np.int32))[1][0]) == 0.5
    monkeypatch.setattr(fileio, "_QUADS", np.zeros_like(fileio._QUADS))
    values = [1234567890123456.25, np.inf, -np.inf, np.nan, 0.25]
    assert _kernel_text(values) == ["1234567890123456.2", "inf", "-inf", "nan", "0.2"]


def _write_field_peak(nt):
    x = np.linspace(-30.0, 30.0, 6001)
    u = np.random.default_rng(nt).normal(size=(nt, x.size))
    fld = sol.SolutionField(x, 0.01 * np.arange(nt), u, v=-u)
    tracemalloc.start()
    try:
        fileio.write_field(os.devnull, fld, "test", {})
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The field is written a block of rows at a time, so the writer's peak does
# not grow with the number of levels: 0.64 MB at 6001 x 11, 6001 x 31 and
# 6001 x 101. A writer that tiles x and t over the whole grid peaks at 1.09,
# 3.0 and 9.7 MB there, and a whole-file join would grow faster still.
def test_write_field_memory_does_not_grow_with_the_time_levels():
    few, many = _write_field_peak(11), _write_field_peak(31)
    assert few <= 0.8e6
    assert many <= few + 64e3
