"""Spans and exact work counts recorded at the package's layer boundaries.

The layers are the package's modules. ``Tracer.install`` wraps every public
function of each layer module by replacing the module attribute through
which callers reach it: the defining module's own attribute, and every
``from ... import`` binding of the same function in the other modules.
Nothing inside the package changes, and ``uninstall`` restores the original
attributes.

A span records its name, start, end, parent span and the op (one CLI
command) it belongs to, plus the work counts read from the call's arguments
and result. Start and end bracket the wrapped call alone; the wrapper's own
bookkeeping (argument binding, counting, tracemalloc start and stop) is
summed separately as the tracing overhead. Spans are only recorded inside
an op and are kept in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import time
import tracemalloc
import types
from contextlib import contextmanager

import numpy as np

PACKAGE = "boussinesq_ist"
LAYERS = ("spectral", "volterra", "scattering", "solitons", "fileio", "verify")
CALLERS = LAYERS + ("cli",)
# private functions wrapped only to read a count at their boundary
EXTRA = {"solitons": ("_expand_pole_system",)}

LARGE_NK = 512
SMALL_NK = 8
PLAN_FUNCTIONS = ("spectral.eval_l_all", "spectral.potential_generators", "spectral.dist_to_qhat")


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "op", "error", "attrs")

    def __init__(self, sid, name, parent, op):
        self.id = sid
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.op = op
        self.error = False
        self.attrs = {}
        self.start = self.end = 0.0

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


# ---------------------------------------------------------------------------
# counts read at a boundary: (bound arguments, call) -> (result, attrs)
# ---------------------------------------------------------------------------


def _march_counts(a, call):
    res = call()
    ls, x = a["ls"], a["x"]
    key = (a["kind"], a["col"], hashlib.sha1(np.ascontiguousarray(ls).tobytes()).hexdigest(),
           float(x[0]), float(x[-1]), len(x))
    return res, {"nk": int(ls.shape[0]), "nx": len(x), "traj": bool(a["want_traj"]),
                 "key": repr(key)}


def _s11_counts(a, call):
    return call(), {"nk": int(np.atleast_1d(a["ks"]).size)}


def _n_soliton_counts(a, call):
    tracemalloc.start()
    try:
        res = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return res, {"points": int(a["grid"].x.size * a["grid"].t.size), "peak_alloc": peak}


def _pole_images(a, call):
    res = call()
    return res, {"images": len(res)}


def _write_field_counts(a, call):
    res = call()
    fld = a["fld"]
    return res, {"rows": int(fld.x.size * fld.t.size), "bytes": os.path.getsize(a["path"])}


def _read_field_counts(a, call):
    res = call()
    return res, {"rows": int(res.u.size)}


HOOKS = {
    "volterra.march_column": _march_counts,
    "scattering.s11_batch": _s11_counts,
    "solitons.n_soliton": _n_soliton_counts,
    "solitons._expand_pole_system": _pole_images,
    "fileio.write_field": _write_field_counts,
    "fileio.read_field": _read_field_counts,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._next_op = 0
        self._patches = []
        # time spent in the wrappers' own bookkeeping, outside the wrapped calls
        self.overhead_s = 0.0

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {n: importlib.import_module(f"{PACKAGE}.{n}") for n in CALLERS}
        wrappers = {}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, fn in vars(mod).items():
                wanted = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                if wanted and isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self):
        while self._patches:
            mod, attr, val = self._patches.pop()
            setattr(mod, attr, val)

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            t_in = time.perf_counter()
            span = self._open(name)

            def call():
                span.start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()

            try:
                if hook is None:
                    return call()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                res, span.attrs = hook(bound.arguments, call)
                return res
            except BaseException:
                span.error = True
                raise
            finally:
                self._stack.pop()
                self.overhead_s += (time.perf_counter() - t_in) - (span.end - span.start)

        return wrapper

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    @contextmanager
    def op(self, command):
        """One CLI command: the root span of everything it calls."""
        self._op = self._next_op
        self._next_op += 1
        span = self._open(f"cli.{command}")
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._op = None


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one pass
# ---------------------------------------------------------------------------


def _bucket(nk):
    return "large" if nk > LARGE_NK else ("mid" if nk > SMALL_NK else "small")


def layer_metrics(spans):
    """Per-layer metrics (name -> (value, unit)) of one pass's spans."""
    by_id = {s.id: s for s in spans}
    covered = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + (s.end - s.start)

    def outermost(s):
        p = s.parent
        while p is not None:
            if by_id[p].name == s.name:
                return False
            p = by_id[p].parent
        return True

    incl = {}
    calls = {}
    self_s = {layer: 0.0 for layer in LAYERS + ("cli",)}
    errors = {layer: 0 for layer in LAYERS}
    for s in spans:
        self_s[s.layer] += (s.end - s.start) - covered.get(s.id, 0.0)
        parent = by_id.get(s.parent)
        if s.error and s.layer in errors and (parent is None or parent.layer != s.layer):
            errors[s.layer] += 1
        if outermost(s):
            incl[s.name] = incl.get(s.name, 0.0) + (s.end - s.start)
            calls[s.name] = calls.get(s.name, 0) + 1

    def named(name):  # completed calls only: a call that raised has no counts
        return [s for s in spans if s.name == name and not s.error]

    m = {}
    from_scattering = [s for s in spans if s.name in PLAN_FUNCTIONS
                       and s.parent is not None and by_id[s.parent].layer == "scattering"]
    m["spectral.plan_calls"] = (sum(s.name == "spectral.eval_l_all" for s in from_scattering), "count")
    m["spectral.plan_s"] = (sum(s.end - s.start for s in from_scattering), "s")

    marches = named("volterra.march_column")
    seen = set()
    kx = {"large": 0, "mid": 0, "small": 0}
    xs = dict(kx)
    secs = {"large": 0.0, "mid": 0.0, "small": 0.0}
    repeated = 0
    for s in marches:
        a = s.attrs
        b = _bucket(a["nk"])
        kx[b] += a["nk"] * a["nx"]
        xs[b] += a["nx"]
        secs[b] += s.end - s.start
        if (s.op, a["key"]) in seen:
            repeated += a["nk"] * a["nx"]
        seen.add((s.op, a["key"]))
    total_kx = sum(kx.values())
    m["volterra.march_calls"] = (len(marches), "count")
    m["volterra.kx_steps"] = (total_kx, "count")
    m["volterra.x_steps"] = (sum(xs.values()), "count")
    m["volterra.repeat_share"] = (repeated / total_kx if total_kx else 0.0, "share")
    m["volterra.traj_calls"] = (sum(s.attrs["traj"] for s in marches), "count")
    for b in ("large", "mid", "small"):
        m[f"volterra.march_s.{b}"] = (secs[b], "s")
    m["volterra.us_per_kx_step.large"] = (1e6 * secs["large"] / kx["large"] if kx["large"] else 0.0, "us")
    m["volterra.us_per_x_step.small"] = (1e6 * secs["small"] / xs["small"] if xs["small"] else 0.0, "us")

    s11 = named("scattering.s11_batch")
    for fn in ("reflection_coefficients", "unit_point_genericity", "find_poles",
               "residue_constant", "reflection_floor"):
        m[f"scattering.{fn}_s"] = (incl.get(f"scattering.{fn}", 0.0), "s")
    m["scattering.s11_batch_calls"] = (len(s11), "count")
    m["scattering.s11_batch_k"] = (sum(s.attrs["nk"] for s in s11), "count")
    m["scattering.newton_iters"] = (sum(s.attrs["nk"] == 1 for s in s11), "count")
    m["scattering.residue_fits"] = (calls.get("scattering.residue_constant", 0), "count")

    nsol = named("solitons.n_soliton")
    points = sum(s.attrs["points"] for s in nsol)
    n_soliton_s = incl.get("solitons.n_soliton", 0.0)
    m["solitons.n_soliton_s"] = (n_soliton_s, "s")
    m["solitons.grid_points"] = (points, "count")
    m["solitons.pole_images"] = (sum(s.attrs["images"] for s in named("solitons._expand_pole_system")), "count")
    m["solitons.us_per_point"] = (1e6 * n_soliton_s / points if points else 0.0, "us")
    m["solitons.peak_alloc_mb"] = (max((s.attrs["peak_alloc"] for s in nsol), default=0) / 2**20, "MB")

    writes, reads = named("fileio.write_field"), named("fileio.read_field")
    w_s, r_s = incl.get("fileio.write_field", 0.0), incl.get("fileio.read_field", 0.0)
    w_rows, r_rows = sum(s.attrs["rows"] for s in writes), sum(s.attrs["rows"] for s in reads)
    m["fileio.write_field_s"] = (w_s, "s")
    m["fileio.rows_written"] = (w_rows, "count")
    m["fileio.bytes_written"] = (sum(s.attrs["bytes"] for s in writes), "bytes")
    m["fileio.write_rows_per_s"] = (w_rows / w_s if w_s else 0.0, "1/s")
    m["fileio.read_field_s"] = (r_s, "s")
    m["fileio.rows_read"] = (r_rows, "count")
    m["fileio.read_rows_per_s"] = (r_rows / r_s if r_s else 0.0, "1/s")

    for fn, key in (("lax_compatibility", "lax"), ("pde_residual", "pde"),
                    ("system_residual", "system"), ("mass_conservation", "mass")):
        m[f"verify.{key}_s"] = (incl.get(f"verify.{fn}", 0.0), "s")
    m["verify.round_trip_self_s"] = (sum((s.end - s.start) - covered.get(s.id, 0.0)
                                         for s in named("verify.round_trip")), "s")

    for layer, v in self_s.items():
        m[f"{layer}.self_s"] = (v, "s")
    for layer, v in errors.items():
        m[f"{layer}.errors"] = (v, "count")
    return m


def work_counts(metrics):
    """The exact, machine-independent part of ``layer_metrics``."""
    return {k: v for k, (v, unit) in metrics.items()
            if unit in ("count", "bytes") or k == "volterra.repeat_share"}
