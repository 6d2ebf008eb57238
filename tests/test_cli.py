import importlib
import json
import pkgutil
import re
import shlex
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
    for name, *_ in cli._CONTOUR_FILES:
        np.testing.assert_allclose(fileio.read_contour(str(tmp_path / "ab" / name))[1],
                                   fileio.read_contour(str(tmp_path / "b" / name))[1],
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


def test_commands_run_without_numpy_huge_pages(tmp_path):
    was = cli._set_madvise_hugepage(True)
    try:
        assert run("jumps", "--samples", 3, "--out", tmp_path / "j") == 0
        assert cli._set_madvise_hugepage(True) is False
    finally:
        cli._set_madvise_hugepage(was)


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


def test_readme_commands_run_as_written(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```bash\n(.*?)```", readme, re.S)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("boussinesq-ist ")]
    assert len(lines) == 8  # one per subcommand
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        assert "warning:" not in capsys.readouterr().err, line


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
