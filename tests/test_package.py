"""The package surface: lazily resolved exports and the plain value classes.

QuadInt and BalancerWitness are __slots__ classes, and EvalResult a
frozen dataclass with slots. Their equality, hashing, keyword construction
and repr must behave as the frozen dataclasses without slots did; the repr
strings below are the ones those dataclasses printed.
"""

import dataclasses
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import balkit
from balkit import identities
from balkit.identities import EvalResult
from balkit.oracle import BalancerWitness
from balkit.quadring import QuadInt


def _pair(cls, **fields):
    """Two equal instances, built positionally and by keyword."""
    return cls(*fields.values()), cls(**fields)


@pytest.mark.parametrize("cls, fields, other", [
    (QuadInt, {"a": 3, "b": 2}, {"a": 3, "b": -2}),
    (BalancerWitness, {"n": 6, "r": 2, "left_sum": 15, "right_sum": 15},
     {"n": 35, "r": 14, "left_sum": 595, "right_sum": 595}),
    (EvalResult, {"ident": "B_ADD", "n": 2, "m": None, "lhs": 6, "rhs": 6, "holds": True},
     {"ident": "B_ADD", "n": 2, "m": 0, "lhs": 6, "rhs": 6, "holds": True}),
])
def test_value_class_equality_and_hash(cls, fields, other):
    x, y = _pair(cls, **fields)
    z = cls(**other)
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert x != z and not x == z
    for field, value in fields.items():
        assert getattr(y, field) == value
    # Another type never compares equal, not even the same values as a tuple.
    as_tuple = tuple(fields.values())
    assert x != as_tuple and as_tuple != x
    assert x.__eq__(as_tuple) is NotImplemented
    assert not hasattr(x, "__dict__")


def test_value_class_reprs_are_the_dataclass_reprs():
    assert repr(QuadInt(3, 2)) == "QuadInt(a=3, b=2)"
    assert repr(QuadInt(a=-5, b=0)) == "QuadInt(a=-5, b=0)"
    assert repr(BalancerWitness(n=6, r=2, left_sum=15, right_sum=15)) == (
        "BalancerWitness(n=6, r=2, left_sum=15, right_sum=15)")
    assert repr(EvalResult("MOD16_C", 3, None, 1, 1, True)) == (
        "EvalResult(ident='MOD16_C', n=3, m=None, lhs=1, rhs=1, holds=True)")


def test_eval_result_is_frozen_and_hashes_its_fields():
    fields = ("C_DIFF_HALF", 4, 2, 1154, 1153, False)
    x = EvalResult(*fields)
    # A frozen dataclass with eq hashes the tuple of its fields.
    assert hash(x) == hash(fields)
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.holds = True
    assert x == EvalResult(*fields)


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from balkit import *", namespace)
    for name in balkit.__all__:
        value = getattr(balkit, name)
        assert namespace[name] is value
        exec("from balkit import %s as imported" % name, namespace)
        assert namespace["imported"] is value
        if name != "__version__":
            assert value is getattr(importlib.import_module(value.__module__), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        balkit.NoSuchName
    with pytest.raises(ImportError):
        exec("from balkit import NoSuchName", {})


def test_unknown_identity_error_is_one_class():
    assert identities.UnknownIdentityError is balkit.UnknownIdentityError
    assert issubclass(balkit.UnknownIdentityError, LookupError)


def test_the_readme_library_example_runs():
    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, re.M | re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", example], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
