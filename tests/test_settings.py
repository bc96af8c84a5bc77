"""The test settings in pyproject.toml let a run go on past a failed property.

`filterwarnings` turns every warning into an error.  hypothesis builds its
failure report through the deprecated `mypy_extensions.TypedDict`, and that
warning, as an error inside a pytest hook, used to end the whole run with
INTERNALERROR at the first failed property, so the tests after it never ran.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"
TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_test_still_runs():
    pass
'''


def test_failed_property_does_not_end_the_run(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
