"""The suite's pytest settings report a failing property test as a failure.

Hypothesis explains a failing example with libcst, whose import warns; with
warnings turned into errors, that warning ended the session as an
INTERNALERROR and the tests after it never ran.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_property_that_fails(x):
    assert x < 10


def test_after_it():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_next_test_runs(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in res.stdout + res.stderr
    assert res.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
    assert res.returncode == 1
