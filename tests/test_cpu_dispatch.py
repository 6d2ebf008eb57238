"""What "byte-identical" means across CPU dispatch: a small two-soliton
`nsoliton` and its `verify`, and `soliton --emit-initial` then `scatter
--poles` on the smoke grid, each run in child processes under another
OpenBLAS kernel and with numpy's AVX-512 loops switched off, compared with
the default run. The CSV writers themselves write the same bytes whatever
the dispatch."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

from boussinesq_ist import fileio
from boussinesq_ist.scattering import SAMPLE_SETS

SRC = Path(__file__).resolve().parents[1] / "src"
DISPATCH_VARS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
NSOLITON = ["nsoliton", "--pole=2,0,192.89385278683244,66.82039069890115",  # k0 = 2 at x0 = 6
            "--pole=2.5,0,0.00069303745154311,0.00028974594977051896",  # k0 = 2.5 at x0 = -8
            "--xmin", "-30", "--xmax", "30", "--hx", "0.05", "--tvals", "0,0.01,0.02,0.03,0.04"]
SOLITON = ["soliton", "--k0", "2", "--x0", "0", "--emit-initial",
           "--xmin", "-16", "--xmax", "16", "--hx", "0.04"]

# Bounds, about four times the measured changes: under OPENBLAS_CORETYPE=Haswell
# (default kernel SkylakeX) the residue solve moves u by up to 4.4e-14 and v
# by 6.6e-14 (max |u| 1.65). The FD checks amplify that, by up to
# sum|w|/hx^4 = 4.3e6 for u_xxxx: verify.json's pde term_max u_xxxx moves by
# 6.1e-8, the pde residual by 1.2e-8, the Lax residual by 1.0e-11 and the
# mass integrals by 7e-15. Switching off numpy's AVX-512 loops moves nothing.
# Every pass/fail verdict stays the same.
FIELD_TOL, REPORT_TOL = 2.5e-13, 2.5e-7
# Under OPENBLAS_CORETYPE=Haswell no byte of `soliton` or `scatter` moves;
# the soliton's tau-function makes no BLAS call. Without numpy's
# AVX-512 loops, np.exp moves 36 of the soliton's 801 rows by <= 2.2e-16
# (max |u0| 0.84); the direct map amplifies that near q-hat, so r on the
# circle moves by <= 8.2e-11 (max |r| 7.9e-3), the ray samples and their k
# by <= 1.8e-15 and scatter.json numbers by <= 5.9e-11 (the residue constant).
INITIAL_TOL, SCATTER_TOL = 1e-15, 4e-10

pytestmark = pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                                reason="the alternative dispatch targets are x86 ones")


# Writes a field and a contour file of fixed values into the directory argv[1].
# The values come from seeded raw bits, exact scalings and decimal literals
# with their neighbours (where a guessed decimal exponent is one off), not
# from np.exp or another function whose last bit can move with the dispatch;
# the contour's k are real, so its modulus column is exact too.
WRITER = """
import sys
import numpy as np
from boussinesq_ist import fileio, solitons as sol
rng = np.random.default_rng(27)
raw = np.frombuffer(rng.bytes(8 * 600), np.float64).reshape(3, 200)
scaled = np.ldexp(1 + rng.random((3, 200)), rng.integers(-60, 8, (3, 200)))
vals = np.where(rng.random((3, 200)) < 0.5, raw, scaled * rng.choice([-1, 1], (3, 200)))
tens = np.array([float(f"1e{k}") for k in range(-30, 30)])
vals[:, :60] = [tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)]
x, t = np.sort(scaled[0]), np.array([0.0, 0.25, 1.0])
fileio.write_field(sys.argv[1] + "/field.csv", sol.SolutionField(x, t, vals, v=-vals), "t", {})
fileio.write_contour(sys.argv[1] + "/contour.csv", vals[1], vals[2] + 1j * vals[0], "t", {},
                     "modulus")
"""


def _python(env, *args):
    env = dict({k: v for k, v in os.environ.items() if k not in DISPATCH_VARS},
               PYTHONPATH=str(SRC), **env)
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def _cli(env, *argvs):
    for argv in argvs:
        _python(env, "-m", "boussinesq_ist.cli", *argv)


def _run(out, env):
    _cli(env, NSOLITON + ["--out", str(out)],
         ["verify", "--field", str(out / "solution.csv"), "--out", str(out)])
    return fileio.read_field(str(out / "solution.csv")), fileio.read_json(str(out / "verify.json"))


def _direct_map(out, env):
    _cli(env, SOLITON + ["--out", str(out / "sol")],
         ["scatter", "--data", str(out / "sol" / "initial.csv"), "--poles", "--out", str(out)])
    return out


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _leaves(val, path + (key,))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _leaves(val, path + (i,))
    else:
        yield path, node


def _assert_reports_agree(report, want_report, tol):
    got, want = dict(_leaves(report)), dict(_leaves(want_report))
    assert got.keys() == want.keys()
    for path, value in want.items():
        if isinstance(value, float):
            assert abs(got[path] - value) <= tol, path
        else:
            assert got[path] == value, path


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("default"), {})


@pytest.fixture(scope="module")
def default_direct_map(tmp_path_factory):
    return _direct_map(tmp_path_factory.mktemp("default-direct-map"), {})


ENVS = pytest.mark.parametrize("env", [
    {"OPENBLAS_CORETYPE": "Haswell"},
    pytest.param({"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512)}, marks=pytest.mark.skipif(
        not all(__cpu_features__.get(f) for f in AVX512), reason="no AVX-512 loops to switch off")),
], ids=["openblas-haswell", "numpy-no-avx512"])


@ENVS
def test_nsoliton_and_verify_agree_across_cpu_dispatch(tmp_path, default_run, env):
    (fld, report), (want_fld, want_report) = _run(tmp_path, env), default_run
    assert abs(fld.u - want_fld.u).max() <= FIELD_TOL
    assert abs(fld.v - want_fld.v).max() <= FIELD_TOL
    _assert_reports_agree(report, want_report, REPORT_TOL)


@ENVS
def test_soliton_and_scatter_agree_across_cpu_dispatch(tmp_path, default_direct_map, env):
    got, want = _direct_map(tmp_path, env), default_direct_map
    initial = [fileio.read_initial_csv(str(d / "sol" / "initial.csv"))[:3] for d in (got, want)]
    for a, b in zip(*initial):  # x, u0, v0
        assert abs(a - b).max() <= INITIAL_TOL
    if "OPENBLAS_CORETYPE" in env:
        for name in ("initial.csv", "solution.csv"):
            assert (got / "sol" / name).read_bytes() == (want / "sol" / name).read_bytes()
    for vals, _ in SAMPLE_SETS:
        for a, b in zip(*(fileio.read_contour(str(d / f"{vals}.csv")) for d in (got, want))):
            assert np.abs(a - b).max() <= SCATTER_TOL, vals
    _assert_reports_agree(*(fileio.read_json(str(d / "scatter.json")) for d in (got, want)),
                          SCATTER_TOL)


@pytest.mark.skipif(not all(__cpu_features__.get(f) for f in AVX512),
                    reason="no AVX-512 loops to switch off")
def test_the_csv_writers_write_the_same_bytes_across_cpu_dispatch(tmp_path):
    # the value kernel uses only correctly rounded operations (and np.log10
    # only for a first guess it then checks), so no byte may move
    runs = []
    for env in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512)}):
        out = tmp_path / str(len(runs))
        out.mkdir()
        _python(env, "-c", WRITER, str(out))
        runs.append([(out / f).read_bytes() for f in ("field.csv", "contour.csv")])
    assert runs[0] == runs[1]
