"""Command-line surface.

Subcommands synthesize exact fields (soliton, breather, nsoliton), run the
direct map (scatter), exercise the validators (roundtrip, verify, jumps),
and apply the explicit time evolution to scattering files (evolve).

Exit codes: 0 success, 1 configuration/IO problem, 2 numerical failure,
3 a validation check ran and failed. The exception's base class alone picks
the code: an ArithmeticError is a numerical failure (2); a ValueError or
OSError is a configuration/IO problem (1). Outputs carry no timestamps, so
a repeated run with the same arguments on the same host and CPU dispatch is
byte-identical; the OpenBLAS kernel and numpy's SIMD paths move last bits.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

import numpy as np

from numpy._core.multiarray import _set_madvise_hugepage

from boussinesq_ist import fileio, solitons

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_VALIDATION = 3

#: glibc's malloc_trim, which hands freed heap back to the system; a no-op elsewhere
_LIBC = ctypes.CDLL(None) if os.name == "posix" else None
_MALLOC_TRIM = getattr(_LIBC, "malloc_trim", lambda pad: 0)


def _finite(text: str) -> float:
    """The type of every float flag: a number, and neither nan nor inf."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _grid_args(p):
    p.add_argument("--xmin", type=_finite, default=-solitons.DEFAULT_LX)
    p.add_argument("--xmax", type=_finite, default=solitons.DEFAULT_LX)
    p.add_argument("--hx", type=_finite, default=solitons.DEFAULT_HX)
    p.add_argument("--tvals", type=str, default="0",
                   help="comma-separated time levels")


def _parse_grid(args) -> solitons.Grid:
    if args.xmax <= args.xmin:
        raise ValueError("xmax must exceed xmin")
    if not 0.0 < args.hx < np.inf:
        raise ValueError(f"hx must be positive and finite, got {args.hx}")
    x = np.linspace(args.xmin, args.xmax, solitons.point_count(args.xmax - args.xmin, args.hx))
    t = np.array([float(s) for s in args.tvals.split(",")])
    if not (np.all(np.isfinite(t)) and np.all(np.diff(np.sort(t)) != 0)):
        raise ValueError(f"tvals must be finite and distinct, got {args.tvals}")
    if args.emit_initial and not np.any(t == 0):
        raise ValueError(f"--emit-initial needs t = 0 among the levels, got {args.tvals}")
    return solitons.Grid(x, t)


def _parse_poles(args):
    pairs = []
    for chunk in args.pole or []:
        parts = [float(s) for s in chunk.split(",")]
        if len(parts) != 4 or not np.all(np.isfinite(parts)):
            raise ValueError(f"--pole needs four finite numbers k0_re,k0_im,c_re,c_im, got {chunk}")
        pairs.append((complex(parts[0], parts[1]), complex(parts[2], parts[3])))
    return pairs


def _echo(args, keys):
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _write_solution(args, fld, command, params):
    """solution.csv, plus initial.csv (the t = 0 row) with --emit-initial."""
    os.makedirs(args.out, exist_ok=True)
    fileio.write_field(os.path.join(args.out, "solution.csv"), fld, command, params)
    if args.emit_initial:
        fileio.write_initial_csv(
            os.path.join(args.out, "initial.csv"),
            fld.x, fld.u[fld.t == 0][0], fld.v[fld.t == 0][0], command, params,
        )


def _write_contours(out_dir, sd, command, params):
    """One <values>.csv per sample set, parametrized by angle on the circle and
    by modulus on a ray."""
    from boussinesq_ist import scattering
    os.makedirs(out_dir, exist_ok=True)
    for vals, pts in scattering.SAMPLE_SETS:
        fileio.write_contour(os.path.join(out_dir, vals + ".csv"), getattr(sd, pts),
                             getattr(sd, vals), command, params,
                             "angle" if pts == "circle" else "modulus")


def _residue_constant(args, from_position, *where):
    """The constant --c-re/--c-im spell out when either is given, else from_position(*where)."""
    if args.c_re is not None or args.c_im is not None:
        return complex(args.c_re or 0.0, args.c_im or 0.0)
    return from_position(*where)


def _cmd_soliton(args) -> int:
    grid = _parse_grid(args)
    c = _residue_constant(args, solitons.residue_constant_from_position, args.k0, args.x0)
    fld = solitons.one_soliton(args.k0, c, grid)
    params = _echo(args, ("k0", "x0", "c_re", "c_im", "xmin", "xmax", "hx", "tvals"))
    params["c"] = str(c)
    _write_solution(args, fld, "soliton", params)
    fileio.write_json(os.path.join(args.out, "meta.json"), {
        "amplitude": fld.meta["amplitude"],
        "speed": fld.meta["speed"],
        "x0": fld.meta["x0"],
        "c": [c.real, c.imag],
    })
    return EXIT_OK


def _cmd_breather(args) -> int:
    grid = _parse_grid(args)
    k0 = complex(args.k0_re, args.k0_im)
    c = _residue_constant(args, solitons.breather_constant_for_position, k0, args.x0, args.phase)
    fld = solitons.breather(k0, c, grid)
    params = _echo(args, ("k0_re", "k0_im", "x0", "phase", "xmin", "xmax", "hx", "tvals"))
    params["c"] = str(c)
    _write_solution(args, fld, "breather", params)
    return EXIT_OK


def _cmd_nsoliton(args) -> int:
    grid = _parse_grid(args)
    pairs = _parse_poles(args)
    fld = solitons.n_soliton(pairs, grid)
    params = _echo(args, ("xmin", "xmax", "hx", "tvals"))
    params["poles"] = ";".join(str(p) for p, _ in pairs)
    params["residues"] = ";".join(str(c) for _, c in pairs)
    _write_solution(args, fld, "nsoliton", params)
    return EXIT_OK


def ingest_initial_data(path: str):
    """The scattering.InitialData of an initial-data CSV (x,u0,v0 or x,u0,u1)."""
    from boussinesq_ist import scattering
    x, u0, v0, u1 = fileio.read_initial_csv(path)
    if u1 is not None and v0 is None:
        return scattering.InitialData.from_u1(x, u0, u1)
    return scattering.InitialData(x, u0, v0)


def _cmd_scatter(args) -> int:
    from boussinesq_ist import scattering
    data = ingest_initial_data(args.data)
    for w in data.warnings:
        print(f"warning: {w}", file=sys.stderr)
    sd = scattering.reflection_coefficients(data)
    payload = {
        "decay_report": scattering.decay_report(sd),
        "unit_point_genericity": scattering.unit_point_genericity(data),
        "poles": [],
        "residues": [],
    }
    if args.poles:
        found = scattering.find_poles(data)
        residues = []
        for z in found:
            c, fit = scattering.residue_constant(data, z)
            residues.append({"c": [c.real, c.imag], "fit_residual": fit})
        payload["poles"] = [[z.real, z.imag] for z in found]
        payload["residues"] = residues
        t_hat = scattering.estimate_T(sd, zero_floor=args.zero_floor)
        payload["T_estimate"] = t_hat if np.isfinite(t_hat) else "inf"
    _write_contours(args.out, sd, "scatter", {"data": os.path.basename(args.data)})
    fileio.write_json(os.path.join(args.out, "scatter.json"), payload)
    return EXIT_OK


def _cmd_roundtrip(args) -> int:
    from boussinesq_ist import verify
    if args.lx is not None and args.lx <= 0:
        raise ValueError(f"lx must be positive, got {args.lx}")
    pairs = _parse_poles(args)
    if args.k0 is not None:
        c = solitons.residue_constant_from_position(args.k0, args.x0)
        pairs.append((complex(args.k0), c))
    rep = verify.round_trip(pairs, lx=args.lx)
    os.makedirs(args.out, exist_ok=True)
    fileio.write_json(os.path.join(args.out, "roundtrip.json"),
                      dict(rep, command="roundtrip"))
    return EXIT_OK if rep["passed"] else EXIT_VALIDATION


def _cmd_verify(args) -> int:
    from boussinesq_ist import verify
    # each check's function and the report entries its tolerance applies to
    checks = {"pde": (verify.pde_residual, ("max_abs_residual",)),
              "system": (verify.system_residual, ("first_equation", "second_equation")),
              "mass": (verify.mass_conservation, ("max_deviation",)),
              "lax": (verify.lax_compatibility, ("max_residual",))}
    wanted = args.checks.split(",")
    unknown = [c for c in wanted if c not in checks]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; choose from {','.join(checks)}")
    fld = fileio.read_field(args.field)
    report = {"field": os.path.basename(args.field), "checks": {}}
    failed = False
    for name, (check, gated) in checks.items():
        if name in wanted:
            rep, tol = check(fld), getattr(args, "tol_" + name)
            ok = max(rep[key] for key in gated) < tol
            report["checks"][name] = dict(rep, passed=ok, tol=tol)
            failed |= not ok
    os.makedirs(args.out, exist_ok=True)
    fileio.write_json(os.path.join(args.out, "verify.json"), report)
    return EXIT_VALIDATION if failed else EXIT_OK


def _cmd_jumps(args) -> int:
    from boussinesq_ist import jumps
    if args.samples < 1:
        raise ValueError(f"samples must be at least 1, got {args.samples}")
    report, (ks, v01) = jumps.battery(args.seed, args.samples)
    os.makedirs(args.out, exist_ok=True)
    fileio.write_json(os.path.join(args.out, "jumps.json"), report)
    fileio.write_contour(os.path.join(args.out, "samples.csv"), ks, v01,
                         "jumps", {"seed": args.seed}, "angle")
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


def _is_finite_number(value) -> bool:
    """Whether a JSON value is a number, and neither NaN nor infinite."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and np.isfinite(value)


def _pair(path, value, what):
    """complex(a, b) from the JSON pair [a, b] of finite numbers."""
    if not (isinstance(value, list) and len(value) == 2 and all(map(_is_finite_number, value))):
        raise fileio.FileFormatError(f"{path}: {what} {value!r} is not a pair of finite numbers")
    return complex(*value)


def _cmd_evolve(args) -> int:
    from boussinesq_ist import scattering
    src = args.scatter_dir
    samples = {}
    for vals, pts in scattering.SAMPLE_SETS:
        path = os.path.join(src, vals + ".csv")
        ks, samples[vals] = fileio.read_contour(path)
        if not np.array_equal(samples.setdefault(pts, ks), ks):
            raise fileio.FileFormatError(f"{path}: its points differ from the other {pts} file's")
    path = os.path.join(src, "scatter.json")
    meta = fileio.read_json(path)
    if not isinstance(meta, dict):
        raise fileio.FileFormatError(f"{path}: needs a JSON object, got a {type(meta).__name__}")
    poles, stored, time = meta.get("poles", []), meta.get("residues", []), meta.get("time", 0.0)
    for key, value in (("poles", poles), ("residues", stored)):
        if not isinstance(value, list):
            raise fileio.FileFormatError(f"{path}: {key} {value!r} is not a list")
    if not _is_finite_number(time):
        raise fileio.FileFormatError(f"{path}: time {time!r} is not a finite number")
    for cv in stored:
        if not isinstance(cv, dict):
            raise fileio.FileFormatError(f'{path}: residue {cv!r} is not an object {{"c": [re, im]}}')
    constants = [cv.get("c") for cv in stored]
    residues = {_pair(path, kv, "pole"): _pair(path, c, "residue constant")
                for kv, c in zip(poles, constants)}
    if not len(poles) == len(residues) == len(constants):
        raise fileio.FileFormatError(f"{path}: needs one residue per distinct pole, got"
                                     f" {len(poles)} poles and {len(constants)} residues")
    sd = scattering.ScatteringData(**samples, residues=residues, time=time)
    out = scattering.evolve_scattering(sd, args.t)
    params = {"t": args.t, "source": os.path.basename(os.path.normpath(src))}
    _write_contours(args.out, out, "evolve", params)
    fileio.write_json(os.path.join(args.out, "scatter.json"), {
        "poles": [[z.real, z.imag] for z in out.poles],
        "residues": [{"c": [c.real, c.imag]} for c in out.residues.values()],
        "time": out.time,
    })
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="boussinesq-ist",
        description="Direct scattering and exact soliton synthesis for the "
        "ill-posed Boussinesq equation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("soliton", help="closed-form sech^2 traveling wave")
    p.add_argument("--k0", type=_finite, required=True)
    p.add_argument("--x0", type=_finite, default=0.0)
    p.add_argument("--c-re", type=_finite, dest="c_re")
    p.add_argument("--c-im", type=_finite, dest="c_im")
    p.add_argument("--emit-initial", action="store_true")
    _grid_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_soliton)

    p = sub.add_parser("breather", help="single complex-pole oscillating wave")
    p.add_argument("--k0-re", type=_finite, required=True, dest="k0_re")
    p.add_argument("--k0-im", type=_finite, required=True, dest="k0_im")
    p.add_argument("--c-re", type=_finite, dest="c_re")
    p.add_argument("--c-im", type=_finite, dest="c_im")
    p.add_argument("--x0", type=_finite, default=0.0)
    p.add_argument("--phase", type=_finite, default=0.0)
    p.add_argument("--emit-initial", action="store_true")
    _grid_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_breather)

    p = sub.add_parser("nsoliton", help="general multi-pole synthesis")
    p.add_argument("--pole", action="append",
                   help="k0_re,k0_im,c_re,c_im (repeatable)")
    p.add_argument("--emit-initial", action="store_true")
    _grid_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_nsoliton)

    p = sub.add_parser("scatter", help="direct map of sampled initial data")
    p.add_argument("--data", required=True, help="CSV with x,u0,v0 or x,u0,u1")
    p.add_argument("--poles", action="store_true",
                   help="also search for poles and fit residue constants")
    p.add_argument("--zero-floor", type=_finite, default=1e-4, dest="zero_floor",
                   help="reflection level treated as numerically zero")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("roundtrip", help="synthesize, rescatter, and compare")
    p.add_argument("--k0", type=_finite, help="real pole shortcut")
    p.add_argument("--x0", type=_finite, default=0.0)
    p.add_argument("--pole", action="append",
                   help="k0_re,k0_im,c_re,c_im (repeatable)")
    p.add_argument("--lx", type=_finite, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("verify", help="FD residual checks on a field file")
    p.add_argument("--field", required=True)
    p.add_argument("--checks", default="pde,system,mass,lax")
    p.add_argument("--tol-pde", type=_finite, default=1e-3, dest="tol_pde")
    p.add_argument("--tol-system", type=_finite, default=1e-3, dest="tol_system")
    p.add_argument("--tol-mass", type=_finite, default=1e-5, dest="tol_mass")
    p.add_argument("--tol-lax", type=_finite, default=1e-3, dest="tol_lax")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("jumps", help="jump-matrix property battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_jumps)

    p = sub.add_parser("evolve", help="dress scattering files to time t")
    p.add_argument("--scatter-dir", required=True, dest="scatter_dir")
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evolve)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    # Peak resident size should follow the live data, not the host or the
    # allocation history: huge pages under arrays that are freed and reused
    # put nsoliton on 6001 x 101 points at 171 or 199 MB, and heap that a
    # command freed but glibc kept (its trim threshold grows after large
    # frees) added up to 18 MB to the next command's peak.
    _set_madvise_hugepage(False)
    try:
        return args.func(args)
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        _MALLOC_TRIM(ctypes.c_size_t(0))


if __name__ == "__main__":
    sys.exit(main())
