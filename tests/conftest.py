import os

import pytest

import balkit


@pytest.fixture
def child_env():
    """The environment for a child interpreter: this process's, with the
    directory balkit was imported from first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(balkit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env
