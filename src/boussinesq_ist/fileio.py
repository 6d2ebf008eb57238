"""CSV/JSON serialization for fields, contour samples, and reports.

Grids go to CSV with a self-describing comment header; every value is
written as ``"%.17g" % value`` writes it, so files round-trip losslessly.
One numpy kernel (`_chars`) formats a block of values at a time: 17 digits
from an exact double-double product, rendered by C's %g rules. Values near
a rounding tie, and inf and nan, go through ``%`` itself. Reports and
configs are JSON. Nothing here writes timestamps: identical inputs must
produce byte-identical outputs.
"""

from __future__ import annotations

import functools
import json
import math
import warnings

import numpy as np

from boussinesq_ist import __version__
from boussinesq_ist.solitons import SolutionField

#: rows written at a time, so the writers' memory does not grow with the grid
_BLOCK_ROWS = 1536
#: the 4 ASCII digits of 0..9999 packed into one uint32 each, in memory order
_QUADS = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8).view(
    np.uint32).ravel()
#: 1..17 down the rows: digit counts, and the numbers of the digit and point slots
_J = np.arange(1, 18, dtype=np.int8)[:, None]
#: "0.000", and the most digits before the point with which each of its slots is used
_PREFIX = np.array([[48], [46], [48], [48], [48]], np.uint8)
_PREFIX_TO = np.array([[0], [0], [-1], [-2], [-3]], np.int8)


class FileFormatError(ValueError):
    pass


@functools.cache
def _pow5():
    """(hi, hi's Veltkamp halves, lo) with hi + lo = 5**s to 2**-106 relative, for the
    s = -292..340 that scale a double of any decimal exponent e to 17 digits (s = 16 - e)."""
    table, n = {}, 1
    for s in range(341):
        table[s] = float(n), float(n - int(float(n)))  # int to float rounds correctly
        if s <= 292:
            h = 1 / n  # and so does int / int
            m, q = h.as_integer_ratio()
            table[-s] = h, math.ldexp((q - m * n) / n, 1 - q.bit_length())
        n *= 5
    hi, lo = np.array([table[s] for s in range(-292, 341)]).T
    c = hi * 134217729.0  # 2**27 + 1
    return np.array([hi, c - (c - hi), hi - (c - (c - hi)), lo])


def _scaled(a, e):
    """D = round(a * 10**(16 - e)) as int64 and the remainder a * 10**(16 - e) - D, to
    about 2**-44: Dekker's exact product of ldexp(a, 16 - e) with the hi part of
    5**(16 - e), plus its product with the lo part. Correctly rounded operations only."""
    hi, hh, hl, lo = np.take(_pow5(), 308 - e, axis=1)
    x = np.ldexp(a, 16 - e)
    p = x * hi
    xh = x * 134217729.0
    xh -= xh - x
    f = xh * hh - p  # the error of p, then the remainder, a term at a time
    f += xh * hl
    xh -= x  # minus the low half
    f -= xh * hh
    f -= xh * hl
    f += x * lo
    n = np.rint(p)
    f += p - n
    k = np.rint(f)
    f -= k
    return n.astype(np.int64) + k.astype(np.int64), f


def _chars(v):
    """The characters of ``"%.17g" % x`` and a ',' for each x in ``v``, as uint8 along a new
    first axis of 45 slots, 0 where empty: the sign, "0.000", the first digit, 16 pairs of a
    point and a digit, the exponent and the separator, so that no character moves. Values
    within 2**-40 of a rounding tie, and inf and nan, go through ``%`` itself."""
    shape, v = np.shape(v), np.ravel(v).astype(float)
    fin = np.isfinite(v)
    a = np.where(fin & (v != 0), np.abs(v), 1.0)
    e = np.floor(np.log10(a)).astype(np.int32)  # a guess, checked below
    D, r = _scaled(a, e)
    # e must be the exponent of a rounded to 17 digits: 10**16 <= D < 10**17, and D = 10**16
    # only if a rounds up to 10**17 at e - 1, where D + r is 10 times larger
    while (off := (D < 10**16) | ((D == 10**16) & (r < -0.05 - 2**-40)) | (D >= 10**17)).any():
        e[off] += np.where(D[off] >= 10**17, 1, -1)
        D[off], r[off] = _scaled(a[off], e[off])
    tie = (np.abs(np.abs(r) - 0.5) < 2**-40) | ((D == 10**16) & (np.abs(r + 0.05) <= 2**-40))
    d, q = np.empty((17, v.size), np.uint8), np.where(v == 0, 0, D)  # the digits, in ASCII
    for k in (13, 9, 5, 1):
        m = q // 10000  # a division by a constant, which numpy vectorizes; divmod is slower
        d[k:k + 4] = _QUADS[q - 10000 * m].view(np.uint8).reshape(-1, 4).T
        q = m
    d[0] = q + 48
    nd = (_J * (d != 48)).max(0)  # significant digits; 0 for a zero
    fixed = (e >= -4) & (e < 17)
    point = np.where(fixed, e + 1, 1).astype(np.int8)  # digits before the point; <= 0: "0.000"
    c = np.empty((45, v.size), np.uint8)
    c[0] = np.signbit(v) * 45
    c[1:6] = _PREFIX * (point <= _PREFIX_TO)
    c[6] = d[0]
    c[7:38:2] = (_J[:16] == np.where(nd > point, point, 0)) * np.uint8(46)
    c[8:39:2] = d[1:] * (_J[:16] < np.maximum(nd, point))
    c[39], c[40] = 101, np.where(e < 0, 45, 43)
    c[41:44] = _QUADS[np.abs(e)].view(np.uint8).reshape(-1, 4)[:, 1:].T
    c[39:44] *= ~fixed
    c[41] *= np.abs(e) >= 100
    c[44] = 44
    for i in np.flatnonzero(tie | ~fin).tolist():
        s = np.frombuffer(b"%.17g" % v[i], np.uint8)
        c[:44, i] = 0
        c[:s.size, i] = s
    return c.reshape(45, *shape)


def _filled(c):
    """The rows of ``c`` that are not all 0."""
    return c[c.any(1)]


def _rows(values, *before):
    """The CSV bytes of the rows whose columns are the `_chars` matrices ``before``, then
    the rows of the 2-d ``values``. Those are formatted here, so that their full slot
    matrix is freed before the block is assembled."""
    c = np.concatenate([_filled(m) for m in (*before, *_chars(values).swapaxes(0, 1))])
    c[-1] = 10  # the last separator ends the row
    c = c.T.ravel()
    return c[c != 0]


def _column_rows(*columns):
    """A block of rows at a time of the equal-length 1-d columns."""
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        yield _rows(np.stack([col[lo:lo + _BLOCK_ROWS] for col in columns]))


def _write_csv(path: str, command: str, params: dict, columns: list, blocks):
    """Provenance header and column line, then the bytes of each block of rows; writelines
    lets each block go before the next is made."""
    header = [f"# boussinesq-ist {__version__}", f"# command = {command}",
              *(f"# {key} = {params[key]}" for key in sorted(params)),
              "# columns = " + ",".join(columns), ",".join(columns), ""]
    with open(path, "w") as fh:
        fh.write("\n".join(header))
        fh.flush()
        fh.buffer.writelines(blocks)


def write_field(path: str, fld: SolutionField, command: str, params: dict):
    """A block of rows of one time level at a time. x and each t are formatted once; each
    x value's characters are moved to the top of its column (a stable sort by emptiness),
    so that they are one run of bytes, which `_rows` copies faster."""
    fields = [f for f in (fld.u, fld.v) if f is not None]
    starts = range(0, fld.x.size, _BLOCK_ROWS)
    xs = [_filled(np.take_along_axis(c, np.argsort(c == 0, axis=0, kind="stable"), 0))
          for c in (_filled(_chars(fld.x[lo:lo + _BLOCK_ROWS])) for lo in starts)]
    ts = _chars(fld.t)

    def blocks():
        for n in range(fld.t.size):
            t = _filled(ts[:, n:n + 1])
            for lo, x in zip(starts, xs):
                yield _rows(np.stack([f[n, lo:lo + _BLOCK_ROWS] for f in fields]), x,
                            np.broadcast_to(t, (len(t), x.shape[1])))

    _write_csv(path, command, params, ["x", "t", "u", "v"][: 2 + len(fields)], blocks())


def _levels(a):
    """np.unique(a) without numpy.ma: each distinct value, ascending, as it first occurs in a."""
    s = a[np.argsort(a, kind="stable")]
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def read_field(path: str) -> SolutionField:
    rows, cols = _read_csv(path)
    need = {"x", "t", "u"}
    if not need.issubset(cols):
        raise FileFormatError(f"field file must have columns x,t,u[,v], got {cols}")
    x_all, t_all = rows[:, cols.index("x")], rows[:, cols.index("t")]
    ts, xs = _levels(t_all), _levels(x_all)
    nt, nx = ts.size, xs.size
    order = np.lexsort((x_all, t_all))
    if nt * nx != rows.shape[0] or not (
        np.array_equal(t_all[order], np.repeat(ts, nx))
        and np.array_equal(x_all[order], np.tile(xs, nt))
    ):
        raise FileFormatError("field file is not a full rectangular grid")
    u = rows[order, cols.index("u")].reshape(nt, nx)
    v = rows[order, cols.index("v")].reshape(nt, nx) if "v" in cols else None
    return SolutionField(xs, ts, u, v=v)


def write_contour(path: str, ks, values, command: str, params: dict, param_name: str):
    ks, values = np.asarray(ks), np.asarray(values)
    par = np.abs(ks) if param_name == "modulus" else np.angle(ks)
    _write_csv(path, command, dict(params, param=param_name),
               ["param", "k_re", "k_im", "value_re", "value_im"],
               _column_rows(par, ks.real, ks.imag, values.real, values.imag))


def read_contour(path: str):
    rows, cols = _read_csv(path)
    if not {"k_re", "k_im", "value_re", "value_im"}.issubset(cols):
        raise FileFormatError(f"{path}: needs columns k_re,k_im,value_re,value_im, got {cols}")
    k = rows[:, cols.index("k_re")] + 1j * rows[:, cols.index("k_im")]
    v = rows[:, cols.index("value_re")] + 1j * rows[:, cols.index("value_im")]
    return k, v


def write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: str):
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                header = [c.strip() for c in line.split(",")]
                break
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                rows = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            raise FileFormatError(f"bad row in {path}: {exc}") from exc
    if header is None or rows.size == 0:
        raise FileFormatError(f"{path} has no data rows")
    if rows.shape[1] != len(header):
        raise FileFormatError(f"{path}: ragged rows")
    if not np.all(np.isfinite(rows)):
        raise FileFormatError(f"{path}: non-finite values")
    return rows, header


def read_initial_csv(path: str):
    """Columns x,u0,v0 or x,u0,u1; returns (x, u0, v0_or_None, u1_or_None)."""
    rows, cols = _read_csv(path)
    if "x" not in cols or "u0" not in cols:
        raise FileFormatError("initial data needs columns x,u0 plus v0 or u1")
    x = rows[:, cols.index("x")]
    u0 = rows[:, cols.index("u0")]
    v0 = rows[:, cols.index("v0")] if "v0" in cols else None
    u1 = rows[:, cols.index("u1")] if "u1" in cols else None
    if v0 is None and u1 is None:
        raise FileFormatError("initial data needs a v0 or a u1 column")
    return x, u0, v0, u1


def write_initial_csv(path: str, x, u0, v0, command: str, params: dict):
    _write_csv(path, command, params, ["x", "u0", "v0"], _column_rows(x, u0, v0))
