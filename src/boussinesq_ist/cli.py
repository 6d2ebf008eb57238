"""Command-line surface.

Subcommands synthesize exact fields (soliton, breather, nsoliton), run the
direct map (scatter), exercise the validators (roundtrip, verify, jumps),
and apply the explicit time evolution to scattering files (evolve).

Exit codes: 0 success, 1 configuration/IO problem, 2 numerical failure,
3 a validation check ran and failed. The exception's base class alone picks
the code: an ArithmeticError is a numerical failure (2); a ValueError or
OSError is a configuration/IO problem (1). Outputs carry no timestamps, so
a repeated run with the same arguments is byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

try:
    from numpy._core.multiarray import _set_madvise_hugepage
except ImportError:  # numpy < 2
    from numpy.core.multiarray import _set_madvise_hugepage

from boussinesq_ist import fileio, jumps, scattering, solitons, spectral, verify

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_VALIDATION = 3

_CHECKS = ("pde", "system", "mass", "lax")

#: (file name, ScatteringData contour attribute, sample attribute, parameter)
_CONTOUR_FILES = (
    ("r1_ray.csv", "gamma1", "r1_ray", "modulus"),
    ("r2_ray.csv", "gamma4", "r2_ray", "modulus"),
    ("r1_circle.csv", "circle", "r1_circle", "angle"),
    ("r2_circle.csv", "circle", "r2_circle", "angle"),
)


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
    n = int(round((args.xmax - args.xmin) / args.hx)) + 1
    x = np.linspace(args.xmin, args.xmax, n)
    t = np.array([float(s) for s in args.tvals.split(",")])
    if not (np.all(np.isfinite(t)) and np.unique(t).size == t.size):
        raise ValueError(f"tvals must be finite and distinct, got {args.tvals}")
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
            fld.x, fld.u[0], fld.v[0], command, params,
        )


def _write_contours(out_dir, sd, command, params):
    os.makedirs(out_dir, exist_ok=True)
    for name, k_attr, val_attr, param in _CONTOUR_FILES:
        fileio.write_contour(os.path.join(out_dir, name), getattr(sd, k_attr),
                             getattr(sd, val_attr), command, params, param)


def _cmd_soliton(args) -> int:
    grid = _parse_grid(args)
    if args.c_re is not None or args.c_im is not None:
        c = complex(args.c_re or 0.0, args.c_im or 0.0)
    else:
        c = solitons.residue_constant_from_position(args.k0, args.x0)
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
    if args.c_re is not None or args.c_im is not None:
        c = complex(args.c_re or 0.0, args.c_im or 0.0)
    else:
        c = solitons.breather_constant_for_position(k0, args.x0, args.phase)
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


def ingest_initial_data(path: str) -> scattering.InitialData:
    """Read and validate an initial-data CSV (x,u0,v0 or x,u0,u1)."""
    x, u0, v0, u1 = fileio.read_initial_csv(path)
    if u1 is not None and v0 is None:
        return scattering.InitialData.from_u1(x, u0, u1)
    return scattering.InitialData(x, u0, v0)


def _cmd_scatter(args) -> int:
    data = ingest_initial_data(args.data)
    for w in data.warnings:
        print(f"warning: {w}", file=sys.stderr)
    sd = scattering.reflection_coefficients(data)
    _write_contours(args.out, sd, "scatter", {"data": os.path.basename(args.data)})
    payload = {
        "decay_report": sd.decay_report,
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
    fileio.write_json(os.path.join(args.out, "scatter.json"), payload)
    return EXIT_OK


def _cmd_roundtrip(args) -> int:
    if args.lx is not None and args.lx <= 0:
        raise ValueError(f"lx must be positive, got {args.lx}")
    pairs = _parse_poles(args)
    if args.k0 is not None:
        c = solitons.residue_constant_from_position(args.k0, args.x0)
        pairs.append((complex(args.k0), c))
    rep = verify.round_trip(pairs, lx=args.lx)
    os.makedirs(args.out, exist_ok=True)
    fileio.write_json(os.path.join(args.out, "roundtrip.json"),
                      dict(rep.to_dict(), command="roundtrip"))
    return EXIT_OK if rep.passed else EXIT_VALIDATION


def _cmd_verify(args) -> int:
    checks = args.checks.split(",")
    unknown = [c for c in checks if c not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; choose from {','.join(_CHECKS)}")
    fld = fileio.read_field(args.field)
    report = {"field": os.path.basename(args.field), "checks": {}}
    failed = False
    if "pde" in checks:
        rep = verify.pde_residual(fld)
        ok = rep.max_abs_residual < args.tol_pde
        report["checks"]["pde"] = dict(rep.to_dict(), passed=ok, tol=args.tol_pde)
        failed |= not ok
    if "system" in checks:
        res = verify.system_residual(fld)
        ok = max(res.values()) < args.tol_system
        report["checks"]["system"] = dict(res, passed=ok, tol=args.tol_system)
        failed |= not ok
    if "mass" in checks:
        rep = verify.mass_conservation(fld)
        ok = rep.max_deviation < args.tol_mass
        report["checks"]["mass"] = dict(rep.to_dict(), passed=ok, tol=args.tol_mass)
        failed |= not ok
    if "lax" in checks:
        ks = [complex(1.3, 0.4), complex(0.7, -0.2), complex(2.2, 0.1)]
        res = verify.lax_compatibility(fld, ks)
        ok = res < args.tol_lax
        report["checks"]["lax"] = {"max_residual": res, "passed": ok, "tol": args.tol_lax}
        failed |= not ok
    os.makedirs(args.out, exist_ok=True)
    fileio.write_json(os.path.join(args.out, "verify.json"), report)
    return EXIT_VALIDATION if failed else EXIT_OK


def _cmd_jumps(args) -> int:
    rng = np.random.default_rng(args.seed)
    sd = jumps.synthetic_scattering_data(seed=args.seed)
    worst_det = 0.0
    worst_cyc = 0.0
    rows = []
    for seg in range(1, 10):
        ks = jumps.sample_segment(seg, args.samples, rng)
        for k in ks:
            x, t = rng.uniform(-3, 3), rng.uniform(0, 2)
            v = jumps.build_v(sd, x, t, k, seg)
            worst_det = max(worst_det, abs(np.linalg.det(v) - 1.0))
            rot = jumps.ROTATION_MAP[seg]
            v2 = jumps.build_v(sd, x, t, spectral.OMEGA * k, rot)
            cyc = np.max(np.abs(v - jumps.MAT_A @ v2 @ np.linalg.inv(jumps.MAT_A)))
            worst_cyc = max(worst_cyc, cyc / max(1.0, float(np.max(np.abs(v)))))
            rows.append((seg, k, v[0, 1]))
    k0 = 2.0
    c0 = solitons.residue_constant_from_position(k0, 0.0)
    circles = jumps.circle_system([k0], {k0: c0})
    worst_unip = 0.0
    for cir in circles:
        for _ in range(args.samples):
            k = cir.point(rng.uniform(0, 2 * np.pi))
            v = jumps.circle_jump(cir, 0.3, 0.2, k)
            w = v - np.eye(3)
            worst_unip = max(worst_unip, float(np.max(np.abs(w @ w))))
    ok = worst_det < 1e-10 and worst_cyc < 1e-10 and worst_unip < 1e-12
    os.makedirs(args.out, exist_ok=True)
    fileio.write_json(os.path.join(args.out, "jumps.json"), {
        "max_abs_det_minus_1": worst_det,
        "max_cyclic_residual": worst_cyc,
        "max_unipotency_residual": worst_unip,
        "passed": bool(ok),
        "seed": args.seed,
    })
    fileio.write_contour(
        os.path.join(args.out, "samples.csv"),
        np.array([r[1] for r in rows]),
        np.array([r[2] for r in rows]),
        "jumps", {"seed": args.seed}, "angle",
    )
    return EXIT_OK if ok else EXIT_VALIDATION


def _cmd_evolve(args) -> int:
    src = args.scatter_dir
    samples = {}
    for name, k_attr, val_attr, _ in _CONTOUR_FILES:
        ks, samples[val_attr] = fileio.read_contour(os.path.join(src, name))
        samples.setdefault(k_attr, ks)  # the circle comes from r1_circle.csv
    meta = fileio.read_json(os.path.join(src, "scatter.json"))
    residues = {}
    for kv, cv in zip(meta.get("poles", []), meta.get("residues", [])):
        residues[complex(kv[0], kv[1])] = complex(cv["c"][0], cv["c"][1])
    sd = scattering.ScatteringData(**samples, poles=tuple(residues), residues=residues,
                                   time=meta.get("time", 0.0))
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
    # Huge pages under large arrays that are freed and reused made the peak
    # resident size depend on what the host could spare: 171 or 199 MB for
    # nsoliton on 6001 x 101 points. Plain pages make it the same every run.
    _set_madvise_hugepage(False)
    try:
        return args.func(args)
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
