import importlib
import json
import pkgutil
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import boussinesq_ist
from boussinesq_ist import cli, fileio
from boussinesq_ist import scattering as sc
from boussinesq_ist import solitons as sol
from boussinesq_ist.cli import main

#: every exception class that a module of the package defines
PACKAGE_ERRORS = sorted(
    (cls for info in pkgutil.iter_modules(boussinesq_ist.__path__)
     for cls in vars(importlib.import_module(f"boussinesq_ist.{info.name}")).values()
     if isinstance(cls, type) and issubclass(cls, Exception)
     and cls.__module__ == f"boussinesq_ist.{info.name}"),
    key=lambda cls: (cls.__module__, cls.__name__),
)


def run(*args):
    return main([str(a) for a in args])


def test_soliton_command_matches_normal_form(tmp_path):
    out = tmp_path / "sol"
    assert run("soliton", "--k0", 2, "--x0", 0, "--tvals", "0,0.5,1", "--out", out) == 0
    fld = fileio.read_field(str(out / "solution.csv"))
    amp = 27.0 / 32.0
    xi = fld.x[None, :] - 1.25 * fld.t[:, None]
    oracle = amp / np.cosh(np.sqrt(amp / 6.0) * xi) ** 2
    assert np.max(np.abs(fld.u - oracle)) < 1e-10
    meta = json.loads((out / "meta.json").read_text())
    assert meta["amplitude"] == pytest.approx(amp)
    assert meta["speed"] == pytest.approx(1.25)


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("soliton", "--k0", 2, "--x0", 1, "--out", out, "--emit-initial") == 0
    for name in ("solution.csv", "initial.csv", "meta.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_field_file_roundtrip_is_lossless(tmp_path):
    out = tmp_path / "s"
    run("soliton", "--k0", 1.5, "--x0", -2, "--xmin", -10, "--xmax", 10, "--hx", 0.05,
        "--tvals", "0,0.25", "--out", out)
    fld = fileio.read_field(str(out / "solution.csv"))
    c = sol.residue_constant_from_position(1.5, -2.0)
    ref = sol.one_soliton(1.5, c, sol.Grid(np.linspace(-10, 10, 401), [0.0, 0.25]))
    np.testing.assert_array_equal(fld.u, ref.u)
    np.testing.assert_array_equal(fld.v, ref.v)


def test_breather_command(tmp_path):
    out = tmp_path / "b"
    rc = run("breather", "--k0-re", 1.9318516525781366, "--k0-im", 0.5176380902050415,
             "--x0", 0, "--xmin", -20, "--xmax", 20, "--hx", 0.02, "--out", out)
    assert rc == 0
    fld = fileio.read_field(str(out / "solution.csv"))
    assert np.all(np.isfinite(fld.u))


def test_breather_command_is_finite_on_a_wide_domain(tmp_path, capsys):
    # h |A11|^2 grows like e^(0.39 |x|) for this pole and passes the largest
    # double near |x| = 1830; every tau term is divided by its point's largest
    out = tmp_path / "b"
    assert run("breather", "--k0-re", 1.93185, "--k0-im", 0.51764,
               "--xmin", -4000, "--xmax", 4000, "--hx", 1, "--out", out) == 0
    assert capsys.readouterr().err == ""
    fld = fileio.read_field(str(out / "solution.csv"))
    assert np.all(np.isfinite(fld.u)) and np.all(np.isfinite(fld.v))
    # x = -30, ..., 30 on both grids: a point's value does not depend on the extent
    k0 = 1.93185 + 0.51764j
    near = sol.breather(k0, sol.breather_constant_for_position(k0, 0, 0),
                        sol.Grid(fld.x[3970:4031], [0.0]))
    np.testing.assert_array_equal(fld.u[:, 3970:4031], near.u)


def test_nsoliton_matches_soliton_through_files(tmp_path):
    c = sol.residue_constant_from_position(2.0, 0.5)
    o1, o2 = tmp_path / "n", tmp_path / "s"
    assert run("nsoliton", "--pole", f"2,0,{c.real},{c.imag}",
               "--xmin", -15, "--xmax", 15, "--hx", 0.01, "--out", o1) == 0
    assert run("soliton", "--k0", 2, "--x0", 0.5,
               "--xmin", -15, "--xmax", 15, "--hx", 0.01, "--out", o2) == 0
    u1 = fileio.read_field(str(o1 / "solution.csv")).u
    u2 = fileio.read_field(str(o2 / "solution.csv")).u
    assert np.max(np.abs(u1 - u2)) < 1e-8


def test_nsoliton_pole_within_the_relative_real_axis_tolerance_is_a_soliton(tmp_path):
    # |Im k| = 1.5e-9 lies below 1e-9 |k| = 2e-9: real by the one real-axis rule
    c = sol.residue_constant_from_position(2.0, 0.0)
    fields = []
    for im in ("1.5e-9", "0"):
        out = tmp_path / im
        assert run("nsoliton", "--pole", f"2,{im},{c.real},{c.imag}", "--xmin", -10,
                   "--xmax", 10, "--hx", 0.05, "--tvals", "0,0.1", "--out", out) == 0
        fields.append(fileio.read_field(str(out / "solution.csv")))
    np.testing.assert_array_equal(fields[0].u, fields[1].u)
    np.testing.assert_array_equal(fields[0].v, fields[1].v)


def test_scatter_and_evolve_files(tmp_path):
    src = tmp_path / "sol"
    run("soliton", "--k0", 2, "--x0", 0, "--xmin", -20, "--xmax", 20, "--hx", 0.02,
        "--out", src, "--emit-initial")
    sc_out = tmp_path / "scat"
    assert run("scatter", "--data", src / "initial.csv", "--poles", "--out", sc_out) == 0
    k1, r1 = fileio.read_contour(str(sc_out / "r1_ray.csv"))
    assert np.max(np.abs(r1)) < 1e-2  # reflectionless up to quadrature noise
    rep = json.loads((sc_out / "scatter.json").read_text())
    assert abs(complex(*rep["poles"][0]) - 2.0) < 1e-3
    assert rep["T_estimate"] == "inf"
    assert all(v["generic"] for v in rep["unit_point_genericity"].values())
    ev_out = tmp_path / "ev"
    assert run("evolve", "--scatter-dir", sc_out, "--t", 0.5, "--out", ev_out) == 0
    k1e, r1e = fileio.read_contour(str(ev_out / "r1_ray.csv"))
    np.testing.assert_allclose(k1e, k1, atol=0)


def test_failed_scatter_leaves_no_output(tmp_path, monkeypatch, capsys):
    src = tmp_path / "sol"
    run("soliton", "--k0", 2, "--xmin", -16, "--xmax", 16, "--hx", 0.04,
        "--out", src, "--emit-initial")

    def fail(*args, **kwargs):
        raise sc.WindingError("winding count did not settle")

    monkeypatch.setattr(sc, "find_poles", fail)
    assert run("scatter", "--data", src / "initial.csv", "--poles", "--out", tmp_path / "s") == 2
    assert "winding count did not settle" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_scatter_zero_data(tmp_path):
    x = np.linspace(-10, 10, 2001)
    rows = "\n".join(f"{xx},0,0" for xx in x)
    path = tmp_path / "zero.csv"
    path.write_text("x,u0,v0\n" + rows + "\n")
    out = tmp_path / "z"
    assert run("scatter", "--data", path, "--out", out) == 0
    for name in ("r1_ray.csv", "r2_ray.csv", "r1_circle.csv", "r2_circle.csv"):
        _, vals = fileio.read_contour(str(out / name))
        assert np.max(np.abs(vals)) == 0.0


def test_verify_command_passes_and_fails(tmp_path):
    src = tmp_path / "sol"
    run("soliton", "--k0", 2, "--x0", 0, "--tvals", "0.498,0.499,0.5,0.501,0.502",
        "--out", src)
    ok_dir = tmp_path / "ok"
    assert run("verify", "--field", src / "solution.csv", "--out", ok_dir) == 0
    rep = json.loads((ok_dir / "verify.json").read_text())
    assert all(chk["passed"] for chk in rep["checks"].values())
    bad_dir = tmp_path / "bad"
    assert run("verify", "--field", src / "solution.csv", "--tol-pde", "1e-12",
               "--out", bad_dir) == 3


def test_verify_system_check_on_two_levels_names_its_minimum(tmp_path, capsys):
    src = tmp_path / "sol"
    run("soliton", "--k0", 2, "--xmin", -10, "--xmax", 10, "--hx", 0.05, "--tvals", "0,0.1",
        "--out", src)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run("verify", "--field", src / "solution.csv", "--checks", "system",
                 "--out", tmp_path / "v")
    assert rc == 1
    assert "system check needs at least 3 time levels and 7 x-points" in capsys.readouterr().err


def test_verify_pde_check_on_four_levels_names_its_minimum(tmp_path, capsys):
    # the pde stencils reach 1 level and 3 points each way: 4 levels pass
    # (residual 9.0e-6), 2 are refused by the minimum every check shares
    for tvals, rc in (("0,0.01,0.02,0.03", 0), ("0,0.01", 1)):
        src, out = tmp_path / f"sol-{rc}", tmp_path / f"v-{rc}"
        run("soliton", "--k0", 2, "--xmin", -5, "--xmax", 5, "--hx", 0.1, "--tvals", tvals,
            "--out", src)
        assert run("verify", "--field", src / "solution.csv", "--checks", "pde", "--out", out) == rc
    report = json.loads((tmp_path / "v-0" / "verify.json").read_text())
    assert report["checks"]["pde"]["max_abs_residual"] < 1e-5
    assert "pde check needs at least 3 time levels and 7 x-points" in capsys.readouterr().err
    assert not (tmp_path / "v-1").exists()


def test_verify_refuses_nonuniform_time_levels(tmp_path, capsys):
    # the same wave on uniform levels passes; the FD stencils assume equal steps
    levels = {"uniform": "0,0.01,0.02,0.03,0.04,0.05", "skipped": "0,0.01,0.02,0.04,0.05,0.06"}
    for name, tvals in levels.items():
        run("soliton", "--k0", 2, "--xmin", -20, "--xmax", 20, "--hx", 0.05, "--tvals", tvals,
            "--out", tmp_path / name)
    assert run("verify", "--field", tmp_path / "uniform" / "solution.csv",
               "--out", tmp_path / "v-uniform") == 0
    capsys.readouterr()
    assert run("verify", "--field", tmp_path / "skipped" / "solution.csv",
               "--out", tmp_path / "v-skipped") == 1
    assert "t grid must be uniform and increasing" in capsys.readouterr().err
    assert not (tmp_path / "v-skipped").exists()


@pytest.mark.parametrize("check", ["pde", "system", "mass", "lax"])
def test_verify_refuses_a_nonuniform_x_grid(tmp_path, capsys, check):
    x = np.linspace(-4.0, 4.0, 41)
    x[20] += 0.01
    zeros = np.zeros((5, x.size))
    fld = sol.SolutionField(x, np.linspace(0.0, 0.04, 5), zeros, zeros)
    fileio.write_field(str(tmp_path / "f.csv"), fld, "test", {})
    assert run("verify", "--field", tmp_path / "f.csv", "--checks", check,
               "--out", tmp_path / "v") == 1
    assert "x grid must be uniform and increasing" in capsys.readouterr().err


def _spike_field(path, level, points, height):
    """A 61 x 5 field, zero but for u = height at the points x = points (of
    x = -3, -2.9, ..., 3) on the time levels t = level (of 0, 0.01, ..., 0.04)."""
    x, t = np.linspace(-3.0, 3.0, 61), np.linspace(0.0, 0.04, 5)
    u = np.zeros((t.size, x.size))
    u[level, [30 + round(10 * p) for p in points]] = height
    fileio.write_field(str(path), sol.SolutionField(x, t, u, np.zeros_like(u)), "test", {})


@pytest.mark.parametrize("check, level, points, height, where", [
    ("pde", slice(None), [0.0], 1e200, "pde residual is not finite at (x, t) = (-0.2, 0.01)"),
    ("system", slice(None), [0.0], 1e200, "system residual is not finite at (x, t) = (-0.2, 0.01)"),
    ("lax", slice(None), [0.0], 1e306, "lax residual is not finite at (x, t) = (-0.2, 0.01)"),
    ("mass", 2, [0.0, 0.1], 1.5e308, "mass integral is not finite at (x, t) = (0, 0.02)"),
], ids=["pde", "system", "lax", "mass"])
def test_verify_refuses_a_residual_that_overflows(tmp_path, capsys, check, level, points, height,
                                                  where):
    _spike_field(tmp_path / "f.csv", level, points, height)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run("verify", "--field", tmp_path / "f.csv", "--checks", check, "--out", tmp_path / "v")
    assert rc == 2
    assert f"numerical error: {where}" in capsys.readouterr().err


def test_verify_fails_a_finite_lax_residual_of_a_huge_field(tmp_path):
    # with u = 1e200 at x = 0 the residual is large but finite: the check
    # fails (exit 3) and reports it, where a NaN once let it pass
    _spike_field(tmp_path / "f.csv", slice(None), [0.0], 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run("verify", "--field", tmp_path / "f.csv", "--checks", "lax", "--out", tmp_path / "v")
    assert rc == 3
    lax = json.loads((tmp_path / "v" / "verify.json").read_text())["checks"]["lax"]
    assert not lax["passed"] and 1e200 < lax["max_residual"] < np.inf


def test_jumps_command(tmp_path):
    out = tmp_path / "j"
    assert run("jumps", "--samples", 5, "--out", out) == 0
    rep = json.loads((out / "jumps.json").read_text())
    assert rep["passed"]
    assert rep["max_abs_det_minus_1"] < 1e-10


def test_exit_code_config_errors(tmp_path):
    assert run("scatter", "--data", tmp_path / "missing.csv", "--out", tmp_path) == 1
    # nonuniform grid in the data file
    bad = tmp_path / "bad.csv"
    bad.write_text("x,u0,v0\n0,1,0\n1,1,0\n3,1,0\n4,1,0\n5,1,0\n6,1,0\n7,1,0\n8,1,0\n9,1,0\n")
    assert run("scatter", "--data", bad, "--out", tmp_path / "o") == 1
    # u1 with nonzero mean is rejected
    x = np.linspace(-10, 10, 401)
    rows = "\n".join(f"{xx},{np.exp(-xx**2)},{1e-3 * np.exp(-xx**2)}" for xx in x)
    massy = tmp_path / "massy.csv"
    massy.write_text("x,u0,u1\n" + rows + "\n")
    assert run("scatter", "--data", massy, "--out", tmp_path / "o2") == 1
    assert run("soliton", "--k0", 2, "--xmin", 5, "--xmax", -5, "--out", tmp_path / "g") == 1


def test_exit_code_numeric_errors(tmp_path):
    # singular residue ray for a real pole
    chi = 1.0 / (1j * ((-0.5 + 0.8660254037844387j) ** 2 * 4.0 - (-0.5 + 0.8660254037844387j)))
    c = -1.0 * chi
    assert run("soliton", "--k0", 2, "--c-re", c.real, "--c-im", c.imag,
               "--out", tmp_path / "s") == 2
    # breather pole on the singular side
    assert run("breather", "--k0-re", 1.9318516525781366, "--k0-im", -0.5176380902050415,
               "--c-re", 0.3, "--c-im", 0.2, "--xmin", -60, "--xmax", 60, "--hx", 0.1,
               "--out", tmp_path / "b") == 2


def test_breather_off_grid_singular_pole_is_a_numeric_error(tmp_path, capsys):
    # the singular subregion's blow-up sits near x = -2.48, off this grid
    out = tmp_path / "b"
    assert run("breather", "--k0-re", 1.9318516525781366, "--k0-im", -0.5176380902050415,
               "--c-re", 0.3, "--c-im", 0.2, "--xmin", 20, "--xmax", 30, "--hx", 0.1,
               "--out", out) == 2
    assert "lies in the singular subregion" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["soliton", "roundtrip"])
@pytest.mark.parametrize("k0", ["0", "-0"])
def test_a_zero_real_pole_is_refused_like_any_pole_off_its_intervals(tmp_path, capsys, command, k0):
    out = tmp_path / command
    assert run(command, "--k0", k0, "--out", out) == 2
    assert capsys.readouterr().err == "numerical error: real pole must lie in (-1, 0) or (1, oo)\n"
    assert not out.exists()


def test_soliton_and_nsoliton_refuse_a_singular_constant_alike(tmp_path, capsys):
    c = -sol.residue_constant_from_position(2.0, 0.0)
    errs = []
    for argv in (("soliton", "--k0", 2, "--c-re", c.real, "--c-im", c.imag),
                 ("nsoliton", f"--pole=2,0,{c.real!r},{c.imag!r}")):
        assert run(*argv, "--out", tmp_path / argv[0]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == f"numerical error: pole 2.0 with c = {c} generates a singular wave\n"


def test_emit_initial_writes_the_t0_level(tmp_path):
    out = tmp_path / "s"
    assert run("soliton", "--k0", 2, "--tvals", "0.5,0", "--xmin", -5, "--xmax", 5, "--hx", 0.5,
               "--emit-initial", "--out", out) == 0
    x, u0, v0, _ = fileio.read_initial_csv(str(out / "initial.csv"))
    fld = fileio.read_field(str(out / "solution.csv"))
    np.testing.assert_array_equal(u0, fld.u[fld.t == 0][0])
    np.testing.assert_array_equal(v0, fld.v[fld.t == 0][0])


def test_emit_initial_without_a_t0_level_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "s"
    assert run("soliton", "--k0", 2, "--tvals", "0.5,1", "--xmin", -5, "--xmax", 5, "--hx", 0.5,
               "--emit-initial", "--out", out) == 1
    assert "--emit-initial needs t = 0 among the levels" in capsys.readouterr().err
    assert not out.exists()


def test_every_package_error_is_numerical_or_a_file_format_error():
    assert len(PACKAGE_ERRORS) > 1
    config = [cls for cls in PACKAGE_ERRORS if not issubclass(cls, ArithmeticError)]
    assert config == [fileio.FileFormatError]
    assert issubclass(fileio.FileFormatError, ValueError)


@pytest.mark.parametrize("cls", PACKAGE_ERRORS + [ValueError, OSError, ZeroDivisionError],
                         ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_exception_base_class(monkeypatch, capsys, cls):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_cmd_soliton", fail)
    if cls in (fileio.FileFormatError, ValueError, OSError):
        code, prefix = 1, "configuration error:"
    else:
        code, prefix = 2, "numerical error:"
    assert run("soliton", "--k0", 2, "--out", "unused") == code
    assert capsys.readouterr().err == f"{prefix} boom\n"


def _flat_scatter_dir(path, level):
    """A scatter directory whose reflection samples all equal level, with one pole."""
    path.mkdir()
    g1, g4, circle = sc.gamma1_samples(), sc.gamma4_samples(), sc.circle_samples()
    for name, ks, param in (("r1_ray.csv", g1, "modulus"), ("r2_ray.csv", g4, "modulus"),
                            ("r1_circle.csv", circle, "angle"),
                            ("r2_circle.csv", circle, "angle")):
        fileio.write_contour(str(path / name), ks, np.full(ks.shape, level, dtype=complex),
                             "scatter", {}, param)
    c = sol.residue_constant_from_position(2.0, 0.0)
    fileio.write_json(str(path / "scatter.json"),
                      {"poles": [[2.0, 0.0]], "residues": [{"c": [c.real, c.imag]}]})


def test_chained_evolve_adds_the_times(tmp_path):
    src = tmp_path / "scat"
    _flat_scatter_dir(src, 1e-3)
    assert run("evolve", "--scatter-dir", src, "--t", 0.02, "--out", tmp_path / "a") == 0
    assert run("evolve", "--scatter-dir", tmp_path / "a", "--t", 0.01,
               "--out", tmp_path / "ab") == 0
    assert run("evolve", "--scatter-dir", src, "--t", 0.03, "--out", tmp_path / "b") == 0
    chained = json.loads((tmp_path / "ab" / "scatter.json").read_text())
    single = json.loads((tmp_path / "b" / "scatter.json").read_text())
    assert chained["time"] == pytest.approx(0.03, abs=1e-15)
    np.testing.assert_allclose(chained["residues"][0]["c"], single["residues"][0]["c"],
                               rtol=1e-13)
    for vals, *_ in sc.SAMPLE_SETS:
        np.testing.assert_allclose(fileio.read_contour(str(tmp_path / "ab" / f"{vals}.csv"))[1],
                                   fileio.read_contour(str(tmp_path / "b" / f"{vals}.csv"))[1],
                                   rtol=1e-13)


def test_chained_evolve_overflow_is_a_numeric_error(tmp_path, capsys):
    # the dressing saturates at exp(700) near k = 0 on the first ray, so a
    # second evolve multiplies ~1e301 by ~1e304
    src = tmp_path / "scat"
    _flat_scatter_dir(src, 1e-3)
    assert run("evolve", "--scatter-dir", src, "--t", 0.5, "--out", tmp_path / "e1") == 0
    assert run("evolve", "--scatter-dir", tmp_path / "e1", "--t", 0.5,
               "--out", tmp_path / "e2") == 2
    assert "evolved reflection sample at k = 0.01j overflows" in capsys.readouterr().err
    assert not (tmp_path / "e2").exists()


def _r2_circle_at(path, ks):
    fileio.write_contour(str(path / "r2_circle.csv"), ks, np.full(ks.shape, 1e-3, dtype=complex),
                         "scatter", {}, "angle")


def _scatter_json(path, poles, n_residues):
    c = sol.residue_constant_from_position(2.0, 0.0)
    fileio.write_json(str(path / "scatter.json"),
                      {"poles": poles, "residues": [{"c": [c.real, c.imag]}] * n_residues})


_CIRCLE = sc.circle_samples()

#: a damaged file of a scatter directory, and what evolve says about it
DAMAGED_SCATTER_DIRS = {
    "three-number pole": (
        "scatter.json", lambda p: _scatter_json(p, [[2.0, 0.0, 1.0]], 1),
        "pole [2.0, 0.0, 1.0] is not a pair of finite numbers"),
    "two poles, one residue": (
        "scatter.json", lambda p: _scatter_json(p, [[2.0, 0.0], [3.0, 0.0]], 1),
        "needs one residue per distinct pole, got 2 poles and 1 residues"),
    "repeated pole": (
        "scatter.json", lambda p: _scatter_json(p, [[2.0, 0.0], [2.0, 0.0]], 2),
        "needs one residue per distinct pole, got 2 poles and 2 residues"),
    "r2 circle rotated by half a step": (
        "r2_circle.csv", lambda p: _r2_circle_at(p, _CIRCLE * np.exp(1j * np.pi / _CIRCLE.size)),
        "its points differ from the other circle file's"),
    "r2 circle 5 rows short": (
        "r2_circle.csv", lambda p: _r2_circle_at(p, _CIRCLE[:-5]),
        "its points differ from the other circle file's"),
    "no k_re column": (
        "r1_ray.csv", lambda p: (p / "r1_ray.csv").write_text("k_im,value_re,value_im\n0.5,0,0\n"),
        "needs columns k_re,k_im,value_re,value_im, got ['k_im', 'value_re', 'value_im']"),
}


@pytest.mark.parametrize("name, damage, msg", DAMAGED_SCATTER_DIRS.values(),
                         ids=list(DAMAGED_SCATTER_DIRS))
def test_evolve_refuses_a_damaged_scatter_dir(tmp_path, capsys, name, damage, msg):
    src = tmp_path / "scat"
    _flat_scatter_dir(src, 1e-3)
    damage(src)
    assert run("evolve", "--scatter-dir", src, "--t", 0.1, "--out", tmp_path / "e") == 1
    assert capsys.readouterr().err == f"configuration error: {src / name}: {msg}\n"
    assert not (tmp_path / "e").exists()


#: a scatter.json whose outer shape is wrong, and what evolve says about it
MISSHAPEN_SCATTER_JSON = {
    "top-level list": ("[[2.0, 0.0]]", "needs a JSON object, got a list"),
    "string time": ('{"time": "x"}', "time 'x' is not a finite number"),
    "null time": ('{"time": null}', "time None is not a finite number"),
    "NaN time": ('{"time": NaN}', "time nan is not a finite number"),
    "infinite time": ('{"time": Infinity}', "time inf is not a finite number"),
    "number for poles": ('{"poles": 5, "residues": []}', "poles 5 is not a list"),
    "number for residues": ('{"poles": [], "residues": 5}', "residues 5 is not a list"),
    "bare residue pair": ('{"poles": [[2.0, 0.0]], "residues": [[1.0, 0.5]]}',
                          "residue [1.0, 0.5] is not an object {\"c\": [re, im]}"),
}


@pytest.mark.parametrize("text, msg", MISSHAPEN_SCATTER_JSON.values(),
                         ids=list(MISSHAPEN_SCATTER_JSON))
def test_evolve_refuses_a_misshapen_scatter_json(tmp_path, capsys, text, msg):
    src = tmp_path / "scat"
    _flat_scatter_dir(src, 1e-3)
    (src / "scatter.json").write_text(text)
    assert run("evolve", "--scatter-dir", src, "--t", 0.1, "--out", tmp_path / "e") == 1
    assert capsys.readouterr().err == f"configuration error: {src / 'scatter.json'}: {msg}\n"
    assert not (tmp_path / "e").exists()


def test_scatter_horizon_is_read_from_the_written_inner_ray(tmp_path):
    x = np.linspace(-8, 8, 801)
    fileio.write_initial_csv(str(tmp_path / "g.csv"), x, np.exp(-(x**2)), np.zeros_like(x),
                             "test", {})
    assert run("scatter", "--data", tmp_path / "g.csv", "--poles", "--out", tmp_path / "s") == 0
    t_hat = json.loads((tmp_path / "s" / "scatter.json").read_text())["T_estimate"]
    k, r1 = fileio.read_contour(str(tmp_path / "s" / "r1_ray.csv"))
    inner = np.abs(k) < 1.0
    mag = np.abs(r1[inner])
    assert np.max(mag) < 1.0  # so the clip rules do not bind; --zero-floor is 1e-4
    terms = np.where(mag < 1e-4, np.inf, 4.0 * np.abs(k[inner]) ** 2 * (-np.log(mag)))
    assert 0.0 < t_hat < np.inf
    assert t_hat == float(np.min(terms))


def test_commands_run_without_numpy_huge_pages(tmp_path):
    was = cli._set_madvise_hugepage(True)
    try:
        assert run("jumps", "--samples", 3, "--out", tmp_path / "j") == 0
        assert cli._set_madvise_hugepage(True) is False
    finally:
        cli._set_madvise_hugepage(was)


def test_every_command_hands_its_freed_heap_back(tmp_path, monkeypatch):
    # also when the command fails, so the next command's peak does not carry it
    pads = []
    monkeypatch.setattr(cli, "_MALLOC_TRIM", lambda pad: pads.append(pad.value))
    assert run("jumps", "--samples", 3, "--out", tmp_path / "j") == 0
    assert run("jumps", "--samples", 0, "--out", tmp_path / "k") == 1
    assert pads == [0, 0]


def test_ingest_with_u1(tmp_path):
    x = np.linspace(-10, 10, 401)
    u1 = -2 * x * np.exp(-(x**2))
    rows = "\n".join(f"{xx},{np.exp(-xx**2)},{uu}" for xx, uu in zip(x, u1))
    path = tmp_path / "d.csv"
    path.write_text("x,u0,u1\n" + rows + "\n")
    from boussinesq_ist.cli import ingest_initial_data

    data = ingest_initial_data(str(path))
    np.testing.assert_allclose(data.v0, np.exp(-(x**2)) - np.exp(-100.0), atol=5e-4)


def test_roundtrip_command(tmp_path):
    out = tmp_path / "rt"
    assert run("roundtrip", "--k0", 2, "--x0", -3, "--out", out) == 0
    rep = json.loads((out / "roundtrip.json").read_text())
    assert rep["passed"]
    assert min(float(v) for v in rep["pole_errors"].values()) < 1e-3


def test_roundtrip_on_a_short_breather_domain_fails_its_own_check(tmp_path):
    # the breather 2 e^{i pi/12} (phase 0.7) on [-20, 20], where its envelope
    # has not decayed: the recovered pole is off by 3.561e-03, over the
    # round trip's 1e-3, so the report fails and the command exits 3
    k0 = complex(2.0 * np.exp(1j * np.pi / 12))
    c = complex(sol.breather_constant_for_position(k0, 0.0, 0.7))
    out = tmp_path / "rt"
    pole = f"--pole={k0.real!r},{k0.imag!r},{c.real!r},{c.imag!r}"
    assert run("roundtrip", pole, "--lx", 20, "--out", out) == cli.EXIT_VALIDATION
    rep = json.loads((out / "roundtrip.json").read_text())
    assert rep["passed"] is False
    key = str(k0)
    detail = re.fullmatch(r"pole error (\S+)", rep["details"][key])
    assert detail and float(detail[1]) > 1e-3
    assert rep["pole_errors"][key] > 1e-3
    # its reflection floor, 0.229 against 1e-3, fails too, and is named
    floor = re.fullmatch(r"reflection floor (\S+)", rep["details"]["reflection_floor"])
    assert floor and float(floor[1]) == float(f"{rep['reflection_floor']:.3e}") > 1e-3


#: dicts keyed by poles or messages: their keys are data, not schema
DATA_KEYED = {"pole_errors", "residue_errors", "details"}

#: the key paths of every JSON report: a/b is key b of dict a, a[] the dicts
#: in list a, and a/* the values of a data-keyed dict
REPORT_KEYS = {
    "s/meta.json": "amplitude c speed x0",
    "sc/scatter.json": """
        T_estimate poles residues[]/c residues[]/fit_residual
        decay_report/r1/tail_max decay_report/r1/weighted_sup/0 decay_report/r1/weighted_sup/1
        decay_report/r1/weighted_sup/2 decay_report/r1/weighted_sup/3 decay_report/r1/weighted_sup/4
        decay_report/r2/tail_max decay_report/r2/weighted_sup/0 decay_report/r2/weighted_sup/1
        decay_report/r2/weighted_sup/2 decay_report/r2/weighted_sup/3 decay_report/r2/weighted_sup/4
        unit_point_genericity/-1.0/generic unit_point_genericity/-1.0/min_weighted_entry
        unit_point_genericity/1.0/generic unit_point_genericity/1.0/min_weighted_entry
    """,
    "ev/scatter.json": "poles residues[]/c time",
    "v/verify.json": """
        field
        checks/pde/max_abs_residual checks/pde/hx checks/pde/ht checks/pde/passed checks/pde/tol
        checks/pde/stencil_orders/x checks/pde/stencil_orders/t
        checks/pde/term_max/u_tt checks/pde/term_max/u_xx checks/pde/term_max/(u^2)_xx
        checks/pde/term_max/u_xxxx
        checks/system/first_equation checks/system/second_equation checks/system/passed
        checks/system/tol
        checks/mass/integrals checks/mass/max_deviation checks/mass/decaying checks/mass/passed
        checks/mass/tol
        checks/lax/max_residual checks/lax/passed checks/lax/tol
    """,
    "rt/roundtrip.json": """
        command passed pole_errors/* residue_errors/* details/* reflection_floor
        tolerances/pole tolerances/residue tolerances/floor
    """,
    "j/jumps.json": """
        max_abs_det_minus_1 max_cyclic_residual max_unipotency_residual passed seed
    """,
}


def _key_paths(obj, path=""):
    if isinstance(obj, list) and obj and all(isinstance(v, dict) for v in obj):
        return set().union(*(_key_paths(v, path + "[]") for v in obj))
    if not isinstance(obj, dict):
        return {path}
    if path.rsplit("/", 1)[-1] in DATA_KEYED:
        return {path + "/*"}
    return set().union(*(_key_paths(v, f"{path}/{k}" if path else k) for k, v in obj.items()))


def test_report_keys_are_pinned(tmp_path):
    # every JSON report the commands write, from one small soliton
    assert run("soliton", "--k0", 2, "--xmin", -16, "--xmax", 16, "--hx", 0.04,
               "--tvals", "0,0.01,0.02,0.03,0.04", "--emit-initial", "--out", tmp_path / "s") == 0
    assert run("scatter", "--data", tmp_path / "s" / "initial.csv", "--poles",
               "--out", tmp_path / "sc") == 0
    assert run("evolve", "--scatter-dir", tmp_path / "sc", "--t", 0.1, "--out", tmp_path / "ev") == 0
    assert run("verify", "--field", tmp_path / "s" / "solution.csv", "--out", tmp_path / "v") == 0
    assert run("roundtrip", "--k0", 2, "--lx", 18, "--out", tmp_path / "rt") == 0
    assert run("jumps", "--samples", 3, "--out", tmp_path / "j") == 0
    for name, keys in REPORT_KEYS.items():
        report = json.loads((tmp_path / name).read_text())
        assert sorted(_key_paths(report)) == sorted(keys.split()), name


#: runs one command in a fresh interpreter, then prints its exit code and the
#: package submodules and numpy.ma among the loaded modules
_COLD = """
import sys
from boussinesq_ist import cli
rc = cli.main(sys.argv[1:])
print(rc, *sorted(m for m in sys.modules if m.startswith("boussinesq_ist.") or m == "numpy.ma"))
"""


def _cold(*args):
    proc = subprocess.run([sys.executable, "-c", _COLD, *map(str, args)],
                          capture_output=True, text=True, check=True)
    rc, *modules = proc.stdout.split()
    return int(rc), set(modules)


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, boussinesq_ist\n"
         "print(sorted(m for m in sys.modules if m.startswith('boussinesq_ist.')))\n"
         "print(boussinesq_ist.scattering.__name__)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "[]\nboussinesq_ist.scattering\n"
    grid = ("--xmin", -16, "--xmax", 16, "--hx", 0.04, "--tvals", "0,0.01,0.02,0.03,0.04")
    unused = {"boussinesq_ist.scattering", "boussinesq_ist.volterra", "boussinesq_ist.jumps",
              "boussinesq_ist.verify", "numpy.ma"}
    rc, modules = _cold("soliton", "--k0", 2, "--emit-initial", *grid, "--out", tmp_path / "s")
    assert rc == 0 and not modules & unused, modules
    rc, modules = _cold("nsoliton", "--pole=2,0,2.142857142857143,0.7423074889580913", *grid,
                        "--out", tmp_path / "n")
    assert rc == 0 and not modules & unused, modules
    rc, modules = _cold("verify", "--field", tmp_path / "n" / "solution.csv", "--out", tmp_path / "v")
    assert rc == 0 and not modules & {"boussinesq_ist.jumps", "numpy.ma"}, modules


def test_console_entry_point(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "boussinesq_ist.cli", "soliton", "--k0", "2",
         "--xmin", "-5", "--xmax", "5", "--hx", "0.1", "--out", str(tmp_path / "e")],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "e" / "solution.csv").exists()
    assert b"RuntimeWarning" not in proc.stderr


def test_residue_coefficient_overflow_is_refused_without_a_warning(tmp_path):
    import subprocess
    import sys

    # exp(rate x) of this pole's images overflows on x in [-950, -949]
    proc = subprocess.run(
        [sys.executable, "-m", "boussinesq_ist.cli", "nsoliton",
         "--pole=2,0,2.142857142857143,0.7423074889580913", "--xmin", "-950", "--xmax", "-949",
         "--hx", "0.1", "--out", str(tmp_path / "n")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "numerical error: residue coefficients overflow on this grid\n"


def test_readme_commands_run_as_written(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```bash\n(.*?)```", readme, re.S)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("boussinesq-ist ")]
    assert len(lines) == 8  # one per subcommand
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        assert "warning:" not in capsys.readouterr().err, line
    # the breather example's grid holds its wave: scattering its t = 0 edges
    # would not warn
    br = fileio.read_field("br/solution.csv")
    assert np.max(np.abs(br.u[0, [0, -1]])) < sc.DECAY_TOL
    assert np.max(np.abs(br.v[0, [0, -1]])) < sc.DECAY_TOL


def test_help_exits_clean():
    assert main(["--help"]) == 0
    assert main(["soliton", "--help"]) == 0


@pytest.mark.parametrize("checks, bad", [("lxa", "'lxa'"), ("pde,lxa", "'lxa'"), ("", "''")])
def test_verify_rejects_unknown_checks(tmp_path, capsys, checks, bad):
    src = tmp_path / "sol"
    run("soliton", "--k0", 2, "--xmin", -5, "--xmax", 5, "--hx", 0.1, "--out", src)
    assert run("verify", "--field", src / "solution.csv", "--checks", checks,
               "--out", tmp_path / "v") == 1
    assert bad in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("hx, msg", [
    ("0", "hx must be positive and finite"),
    ("-0.01", "hx must be positive and finite"),
    ("nan", "argument --hx: must be a finite number, got 'nan'"),
], ids=["0", "-0.01", "nan"])
def test_bad_hx_is_a_config_error(tmp_path, capsys, hx, msg):
    assert run("soliton", "--k0", 2, "--hx", hx, "--out", tmp_path / "s") == 1
    assert msg in capsys.readouterr().err


def test_read_field_rejects_duplicated_grid_rows(tmp_path):
    # four rows and 2 x 2 distinct values, but (x, t) = (0, 1) is missing
    path = tmp_path / "dup.csv"
    path.write_text("x,t,u\n0,0,1\n0,0,2\n1,0,3\n1,1,4\n")
    with pytest.raises(fileio.FileFormatError):
        fileio.read_field(str(path))
    assert run("verify", "--field", path, "--out", tmp_path / "v") == 1


@pytest.mark.parametrize("body", ["0,0,1\n0,a,2\n", "0,0,1\n1,0\n", "0,0,nan\n", ""],
                         ids=["token", "short-row", "nan", "no-rows"])
def test_read_field_rejects_malformed_rows(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text("# boussinesq-ist\nx,t,u\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fileio.FileFormatError):
            fileio.read_field(str(path))


@pytest.mark.parametrize("first, later", [("0", "-0"), ("-0", "0")])
def test_read_field_levels_keep_the_sign_of_the_first_zero(tmp_path, first, later):
    # the axes are what np.unique returns: of the equal values 0 and -0, the
    # one that comes first in the file
    path = tmp_path / "zeros.csv"
    path.write_text(f"x,t,u\n{first},1,1\n1,{first},2\n1,1,3\n{later},{later},4\n")
    fld = fileio.read_field(str(path))
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert fld.x.tobytes() == np.unique(rows[:, 0]).tobytes()
    assert fld.t.tobytes() == np.unique(rows[:, 1]).tobytes()
    assert np.signbit(fld.x[0]) == np.signbit(fld.t[0]) == (first == "-0")
    assert fld.u.tolist() == [[4, 2], [1, 3]]


@pytest.mark.parametrize("flags, msg", [
    (["--tvals", "nan,inf"], "tvals must be finite and distinct"),
    (["--tvals", "0,0"], "tvals must be finite and distinct"),
    (["--xmin", "-5", "--xmax", "inf"], "argument --xmax: must be a finite number"),
    (["--xmin", "nan", "--xmax", "5"], "argument --xmin: must be a finite number"),
    (["--xmin=-inf", "--xmax", "5"], "argument --xmin: must be a finite number"),
], ids=["tvals-nonfinite", "tvals-repeated", "xmax-inf", "xmin-nan", "xmin-inf"])
def test_bad_grid_flags_are_config_errors(tmp_path, capsys, flags, msg):
    assert run("soliton", "--k0", 2, "--hx", 0.1, *flags, "--out", tmp_path / "s") == 1
    assert msg in capsys.readouterr().err
    assert not (tmp_path / "s").exists()
    assert run("breather", "--k0-re", 1.9318516525781366, "--k0-im", 0.5176380902050415,
               "--hx", 0.1, *flags, "--out", tmp_path / "b") == 1
    assert msg in capsys.readouterr().err


@pytest.mark.parametrize("argv, msg", [
    (["roundtrip", "--k0", "2", "--lx", "inf"], "argument --lx: must be a finite number"),
    (["nsoliton", "--pole=nan,0,1,0"], "--pole needs four finite numbers"),
    (["nsoliton", "--pole=2,0,inf,0"], "--pole needs four finite numbers"),
    (["soliton", "--k0", "nan"], "argument --k0: must be a finite number"),
    (["evolve", "--scatter-dir", "scat", "--t", "nan"], "argument --t: must be a finite number"),
    (["evolve", "--scatter-dir", "scat", "--t", "inf"], "argument --t: must be a finite number"),
    (["verify", "--field", "f.csv", "--tol-pde", "nan"], "argument --tol-pde: must be a finite"),
    (["scatter", "--data", "d.csv", "--poles", "--zero-floor", "nan"],
     "argument --zero-floor: must be a finite number"),
    (["roundtrip", "--k0", "2", "--lx", "-5"], "lx must be positive, got -5.0"),
], ids=["roundtrip-lx-inf", "nsoliton-pole-nan", "nsoliton-pole-inf", "soliton-k0-nan",
        "evolve-t-nan", "evolve-t-inf", "verify-tol-nan", "scatter-zero-floor-nan",
        "roundtrip-lx-negative"])
def test_nonfinite_or_nonpositive_numbers_are_config_errors(tmp_path, capsys, argv, msg):
    assert run(*argv, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert msg in err and "Warning" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, msg", [
    (["soliton", "--k0", "2", "--xmin=-1e308", "--xmax", "1e308"],
     "a grid of extent inf and step 0.01 has no finite point count"),
    (["roundtrip", "--k0", "2", "--lx", "1e308"],
     "a grid of extent inf and step 0.01 has no finite point count"),
    (["jumps", "--samples", "0"], "samples must be at least 1, got 0"),
    (["jumps", "--samples", "-1"], "samples must be at least 1, got -1"),
], ids=["soliton-extent-inf", "roundtrip-lx-huge", "jumps-samples-0", "jumps-samples-negative"])
def test_counts_without_a_point_are_config_errors(tmp_path, capsys, argv, msg):
    assert run(*argv, "--out", tmp_path / "o") == 1
    assert msg in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, msg", [
    ("x,u0,u1\n0,1,0\n", "at least 9 points"),
    ("x,u0,u1\n" + "0,0,0\n" * 9, "uniform and increasing"),
    ("x,u0,v0\n" + "".join(f"{8 - i},0,0\n" for i in range(9)), "uniform and increasing"),
], ids=["u1-one-row", "u1-constant-x", "descending-x"])
def test_bad_data_grids_are_config_errors(tmp_path, capsys, text, msg):
    path = tmp_path / "d.csv"
    path.write_text(text)
    assert run("scatter", "--data", path, "--out", tmp_path / "o") == 1
    assert msg in capsys.readouterr().err


def test_march_overflow_is_a_numeric_error(tmp_path, capsys):
    x = np.linspace(-6, 6, 121)
    rows = "".join(f"{xx:.17g},{1e155 * np.exp(-xx**2):.17g},0\n" for xx in x)
    path = tmp_path / "big.csv"
    path.write_text("x,u0,v0\n" + rows)
    assert run("scatter", "--data", path, "--out", tmp_path / "o") == 2
    assert "overflowed" in capsys.readouterr().err
