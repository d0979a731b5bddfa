"""The suite's own pytest settings."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_AND_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_test_reports_as_a_failure(tmp_path):
    # with every warning an error, Hypothesis's report of a falsifying example
    # used to abort the run with INTERNALERROR, hiding the tests after it
    (tmp_path / "test_example.py").write_text(_FAILING_AND_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_example.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert proc.returncode == 1
