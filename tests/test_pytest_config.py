import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# a failing property test and a passing test after it
TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
'''


def test_a_failing_given_test_is_reported_and_the_session_goes_on(tmp_path):
    # hypothesis's failure report may import libcst, whose import raises a
    # DeprecationWarning (mypy_extensions.TypedDict); under the config's
    # error filters that would end the session with an INTERNALERROR, losing
    # the report and every test after it. Run in tmp_path, so hypothesis's
    # own directory is made there.
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
