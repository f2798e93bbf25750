"""The suite's own settings must let a failing property test report itself.

pyproject.toml turns every warning into an error.  When a @given test
fails, the hypothesis plugin's report hook imports libcst, which imports
the deprecated mypy_extensions.TypedDict; raised as an error there, that
warning ends the run in INTERNALERROR with no falsifying example, so the
settings ignore that one warning by its message.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILS_ON_PURPOSE = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails_on_purpose(n):
    assert n < 0
"""


def test_a_failing_property_test_reports_its_falsifying_example(tmp_path):
    path = tmp_path / "test_fails_on_purpose.py"
    path.write_text(FAILS_ON_PURPOSE)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
