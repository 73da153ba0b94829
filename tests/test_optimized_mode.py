"""Correctness checks must not depend on assert statements.

Under python -O asserts are stripped, so the library's invariant checks
are explicit raises. This runs the oracle and sequence tests in a child
interpreter started with -O.
"""

import os
import subprocess
import sys
from pathlib import Path

import balkit

ROOT = Path(__file__).resolve().parent.parent


def test_oracle_and_sequence_tests_pass_under_python_O():
    env = dict(os.environ)
    src = str(Path(balkit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_oracle.py", "tests/test_sequences.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
