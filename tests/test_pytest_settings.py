"""The suite's own pytest settings: every failure is reported."""

import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAILING = textwrap.dedent(
    """
    from hypothesis import given
    from hypothesis import strategies as st


    @given(st.integers())
    def test_drawn(x):
        assert x < 0


    def test_plain():
        assert False
    """
)


def test_a_failing_given_test_is_reported_with_the_rest(tmp_path, child_env):
    # A failing @given test makes hypothesis's report hook raise a
    # DeprecationWarning; as an error, that ends the session with
    # INTERNALERROR, and the tests after it never run.
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(tmp_path)],
        cwd=tmp_path, env=child_env, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "2 failed" in out, out[-3000:]
    assert "INTERNALERROR" not in out, out[-3000:]
