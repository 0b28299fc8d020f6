"""The repository's pytest configuration reports every failure.

``pyproject.toml`` turns deprecation warnings into errors.  A failing
hypothesis test makes hypothesis import its failure explainer, whose
dependencies may warn on import; that warning must not stop the session
before the tests after it run.
"""

import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent

FAILING = textwrap.dedent("""
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 100))
    def test_property_fails(x):
        assert x < 50


    def test_plain_fails():
        assert False
""")


def test_failing_property_does_not_stop_the_session(tmp_path):
    path = tmp_path / "test_failing.py"
    path.write_text(FAILING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr, result.stdout[-2000:]
    assert "2 failed" in result.stdout, result.stdout[-2000:]
    for name in ("test_property_fails", "test_plain_fails"):
        assert f"FAILED {path.name}::{name}" in result.stdout, result.stdout[-2000:]
