"""CSV/JSON serialization for fields, contour samples, and reports.

Grids go to CSV with a self-describing comment header; values are written
with 17 significant digits so files round-trip losslessly. Reports and
configs are JSON. Nothing here writes timestamps: identical inputs must
produce byte-identical outputs.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from boussinesq_ist import __version__
from boussinesq_ist.solitons import SolutionField

FMT = "%.17g"
#: rows formatted at a time: formatting a whole 6001-row level at once left
#: ~2 MB of the interpreter's small-object arenas resident after the write
_BLOCK_ROWS = 256


class FileFormatError(ValueError):
    pass


def _blocks(*columns):
    """_BLOCK_ROWS rows at a time of the equal-length columns, each a list of
    formatted strings, which is sliced, or a 1-d array, whose slice is formatted."""
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        yield [c[lo:lo + _BLOCK_ROWS] if isinstance(c, list)
               else [FMT % v for v in c[lo:lo + _BLOCK_ROWS].tolist()] for c in columns]


def _write_csv(path: str, command: str, params: dict, columns: list, blocks):
    """Provenance header and column line, then for each block (one list of
    formatted strings per name in ``columns``, all of one length) one row per index."""
    header = [f"# boussinesq-ist {__version__}", f"# command = {command}",
              *(f"# {key} = {params[key]}" for key in sorted(params)),
              "# columns = " + ",".join(columns), ",".join(columns), ""]
    with open(path, "w") as fh:
        fh.write("\n".join(header))
        for block in blocks:
            fh.write("\n".join([*map(",".join, zip(*block)), ""]))


def write_field(path: str, fld: SolutionField, command: str, params: dict):
    """A block of rows of one time level at a time; x and each t are formatted once."""
    fields = [f for f in (fld.u, fld.v) if f is not None]
    xs = [FMT % v for v in fld.x.tolist()]
    blocks = (block for n, t in enumerate(fld.t.tolist())
              for block in _blocks(xs, [FMT % t] * len(xs), *(f[n] for f in fields)))
    _write_csv(path, command, params, ["x", "t", "u", "v"][: 2 + len(fields)], blocks)


def read_field(path: str) -> SolutionField:
    rows, cols = _read_csv(path)
    need = {"x", "t", "u"}
    if not need.issubset(cols):
        raise FileFormatError(f"field file must have columns x,t,u[,v], got {cols}")
    x_all = rows[:, cols.index("x")]
    t_all = rows[:, cols.index("t")]
    ts = np.unique(t_all)
    xs = np.unique(x_all)
    nt, nx = ts.size, xs.size
    order = np.lexsort((x_all, t_all))
    if nt * nx != rows.shape[0] or not (
        np.array_equal(t_all[order], np.repeat(ts, nx))
        and np.array_equal(x_all[order], np.tile(xs, nt))
    ):
        raise FileFormatError("field file is not a full rectangular grid")
    u = rows[order, cols.index("u")].reshape(nt, nx)
    v = None
    if "v" in cols:
        v = rows[order, cols.index("v")].reshape(nt, nx)
    return SolutionField(xs, ts, u, v=v)


def write_contour(path: str, ks, values, command: str, params: dict, param_name: str):
    ks, values = np.asarray(ks), np.asarray(values)
    par = np.abs(ks) if param_name == "modulus" else np.angle(ks)
    _write_csv(path, command, dict(params, param=param_name),
               ["param", "k_re", "k_im", "value_re", "value_im"],
               _blocks(par, ks.real, ks.imag, values.real, values.imag))


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
    _write_csv(path, command, params, ["x", "u0", "v0"], _blocks(*map(np.asarray, (x, u0, v0))))
