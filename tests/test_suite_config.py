"""The suite's warning filters, run on a throwaway test module in a subprocess."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

MODULE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_failing_property(n):
    assert n < 5


def test_deprecated_call():
    warnings.warn("deprecated", DeprecationWarning)


def test_later():
    pass
'''


def test_a_failing_property_does_not_stop_the_session(tmp_path):
    # hypothesis writes a failing example as a patch through libcst, whose
    # import warns from mypy_extensions; the session must report the failure
    # and go on, while any other DeprecationWarning still fails its test
    (tmp_path / "test_module.py").write_text(MODULE)
    (tmp_path / "conftest.py").write_text((ROOT / "tests" / "conftest.py").read_text())
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_module.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "2 failed, 1 passed" in proc.stdout
    assert "FAILED test_module.py::test_deprecated_call - DeprecationWarning" in proc.stdout


def test_the_declared_numpy_floor_is_at_least_2_0():
    # the package calls np.trapezoid and imports from numpy._core, both new in numpy 2.0
    tomllib = pytest.importorskip("tomllib")
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    (floor,) = [re.fullmatch(r"numpy\s*>=\s*([\d.]+)", d).group(1) for d in deps if d.startswith("numpy")]
    assert tuple(int(part) for part in floor.split(".")) >= (2, 0)
