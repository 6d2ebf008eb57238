"""The benchmark's three workloads: inputs made from a seed, the CLI command
sequence of one pass, and the check of every command's output.

Each workload is a closed loop with one client: a pass runs its commands
back to back through ``boussinesq_ist.cli.main``, in one process.

The default seed reproduces the configurations the roadmap's baseline was
measured on (soliton k0 = 2 at x0 = 0; round trips of the k0 = 2 soliton at
x0 = -3 and of the breather k0 = 2 e^{i pi/12} with phase 0.7). Other seeds
shift the soliton x0 within [-3, 3] and the breather phase within [0, 2 pi).

``FULL`` is the benchmarked size; ``SMOKE`` shrinks the grids so that the
work-count smoke check runs in a few seconds.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from boussinesq_ist import cli, solitons

DEFAULT_SEED = 0
SOLITON_K0 = 2.0
BREATHER_K0 = 2.0 * cmath.exp(1j * math.pi / 12)


@dataclass(frozen=True)
class Size:
    grid: tuple  # extra CLI grid arguments for soliton / nsoliton
    soliton_lx: tuple  # extra CLI arguments for the soliton roundtrip
    breather_lx: tuple  # extra CLI arguments for the breather roundtrip
    nt: int  # time levels t = 0, 0.01, ... for nsoliton


FULL = Size(grid=(), soliton_lx=(), breather_lx=(), nt=101)
SMOKE = Size(grid=("--xmin", "-16", "--xmax", "16", "--hx", "0.04"),
             soliton_lx=("--lx", "18"), breather_lx=("--lx", "20"), nt=5)


@dataclass(frozen=True)
class Command:
    """One operation: a CLI command, the directory it writes, and the check
    of what it wrote (returns a list of problems, empty when correct)."""

    name: str
    argv: list
    out: Path
    check: Callable[[int, Path], list]


def seed_params(seed: int) -> dict:
    if seed == DEFAULT_SEED:
        return {"x0": 0.0, "rt_x0": -3.0, "phase": 0.7}
    rng = random.Random(seed)
    return {
        "x0": rng.uniform(-3.0, 3.0),
        "rt_x0": rng.uniform(-3.0, 3.0),
        "phase": rng.uniform(0.0, 2.0 * math.pi),
    }


def read_csv(path: Path):
    """Column names and float rows of a CSV written by ``fileio``."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def _exit_ok(rc):
    return [] if rc == 0 else [f"exit code {rc}"]


# ---------------------------------------------------------------------------
# direct-map: scatter --poles on soliton initial data
# ---------------------------------------------------------------------------


def setup_direct_map(seed: int, inputs: Path, size: Size = FULL) -> dict:
    p = seed_params(seed)
    rc = cli.main(["soliton", "--k0", repr(SOLITON_K0), "--x0", repr(p["x0"]),
                   "--emit-initial", *size.grid, "--out", str(inputs)])
    if rc != 0:
        raise RuntimeError(f"soliton --emit-initial exited with {rc}")
    c = json.loads((inputs / "meta.json").read_text())["c"]
    return {"data": inputs / "initial.csv", "c": complex(c[0], c[1])}


def commands_direct_map(cfg: dict, out: Path) -> list:
    def check(rc, d):
        problems = _exit_ok(rc)
        if problems:
            return problems
        rep = json.loads((d / "scatter.json").read_text())
        poles = [complex(*z) for z in rep["poles"]]
        if len(poles) != 1 or abs(poles[0] - SOLITON_K0) >= 1e-3:
            problems.append(f"poles {poles}, want exactly one within 1e-3 of 2")
        else:
            c = complex(*rep["residues"][0]["c"])
            rel = abs(c - cfg["c"]) / abs(cfg["c"])
            if rel >= 1e-2:
                problems.append(f"residue constant off by {rel:.3e} relative")
        if rep.get("T_estimate") != "inf":
            problems.append(f"T_estimate {rep.get('T_estimate')!r}, want 'inf'")
        cols, rows = read_csv(d / "r1_ray.csv")
        r1 = np.hypot(rows[:, cols.index("value_re")], rows[:, cols.index("value_im")])
        if not np.max(r1) < 1e-2:
            problems.append(f"max |r1| on the ray is {np.max(r1):.3e}")
        return problems

    return [Command("scatter", ["scatter", "--data", str(cfg["data"]), "--poles",
                                "--out", str(out / "scatter")], out / "scatter", check)]


# ---------------------------------------------------------------------------
# roundtrip: the soliton, then the breather (acceptance criterion 7's pair)
# ---------------------------------------------------------------------------


def setup_roundtrip(seed: int, inputs: Path, size: Size = FULL) -> dict:
    p = seed_params(seed)
    c = complex(solitons.breather_constant_for_position(BREATHER_K0, 0.0, p["phase"]))
    pole = f"--pole={BREATHER_K0.real!r},{BREATHER_K0.imag!r},{c.real!r},{c.imag!r}"
    return {"x0": p["rt_x0"], "pole": pole, "size": size}


def commands_roundtrip(cfg: dict, out: Path) -> list:
    def check(rc, d):
        problems = _exit_ok(rc)
        if not problems and not json.loads((d / "roundtrip.json").read_text())["passed"]:
            problems.append("roundtrip report says passed: false")
        return problems

    sol, br = out / "soliton", out / "breather"
    return [
        Command("roundtrip_soliton", ["roundtrip", "--k0", repr(SOLITON_K0), "--x0",
                                      repr(cfg["x0"]), *cfg["size"].soliton_lx, "--out", str(sol)],
                sol, check),
        Command("roundtrip_breather", ["roundtrip", cfg["pole"], *cfg["size"].breather_lx,
                                       "--out", str(br)], br, check),
    ]


# ---------------------------------------------------------------------------
# synth-verify: nsoliton on x grid x time levels, then verify on the field
# ---------------------------------------------------------------------------


def setup_synth_verify(seed: int, inputs: Path, size: Size = FULL) -> dict:
    p = seed_params(seed)
    c = complex(solitons.residue_constant_from_position(SOLITON_K0, p["x0"]))
    tvals = ",".join(repr(round(0.01 * i, 2)) for i in range(size.nt))
    return {"c": c, "pole": f"--pole={SOLITON_K0!r},0.0,{c.real!r},{c.imag!r}",
            "tvals": tvals, "grid": size.grid}


def commands_synth_verify(cfg: dict, out: Path) -> list:
    def check_nsoliton(rc, d):
        problems = _exit_ok(rc)
        if problems:
            return problems
        cols, rows = read_csv(d / "solution.csv")
        x, t = np.unique(rows[:, cols.index("x")]), np.unique(rows[:, cols.index("t")])
        u = rows[:, cols.index("u")].reshape(t.size, x.size)
        ref = solitons.one_soliton(SOLITON_K0, cfg["c"], solitons.Grid(x, t))
        err = float(np.max(np.abs(u - ref.u)))
        if not err < 1e-8:
            problems.append(f"nsoliton differs from one_soliton by {err:.3e}")
        return problems

    def check_verify(rc, d):
        problems = _exit_ok(rc)
        if problems:
            return problems
        checks = json.loads((d / "verify.json").read_text())["checks"]
        failed = sorted(k for k in ("pde", "system", "mass", "lax")
                        if not checks.get(k, {}).get("passed"))
        return [f"verify checks not passed: {failed}"] if failed else []

    ns, vf = out / "nsoliton", out / "verify"
    return [
        Command("nsoliton", ["nsoliton", cfg["pole"], "--tvals", cfg["tvals"], *cfg["grid"],
                             "--out", str(ns)], ns, check_nsoliton),
        Command("verify", ["verify", "--field", str(ns / "solution.csv"),
                           "--checks", "pde,system,mass,lax", "--out", str(vf)],
                vf, check_verify),
    ]


WORKLOADS = {
    "direct-map": (setup_direct_map, commands_direct_map),
    "roundtrip": (setup_roundtrip, commands_roundtrip),
    "synth-verify": (setup_synth_verify, commands_synth_verify),
}
