"""Correctness checks must not depend on assert statements.

Under python -O asserts are stripped, so the library's invariant checks
are explicit raises. A child interpreter started with -O forces each of
them and expects AssertionError, on the int and the Decimal route of fast
doubling and of the closed form; another runs term and seq past their
Decimal thresholds and must print what this process prints. A static check
keeps assert statements out of the package. A second static check keeps
eval, exec and compile out of the package, except in the builder that
compiles the identity catalog's statements.
"""

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import balkit
from balkit import cli

PACKAGE = Path(balkit.__file__).resolve().parent

CHILD = textwrap.dedent(
    """
    import json, sys
    from balkit import oracle, sequences
    from balkit.sequences import SequenceKind

    def raises(fn):
        try:
            fn()
        except AssertionError:
            return True
        return False

    out = {"optimize": sys.flags.optimize}
    out["witness_negative_r"] = raises(lambda: oracle.BalancerWitness(6, -1, 15, 15))
    out["witness_unequal_sums"] = raises(lambda: oracle.BalancerWitness(6, 2, 15, 14))
    sequences.qpow = lambda x, y, k: (1, 1)  # odd sqrt(2) coefficient
    out["binet_balancing_parity"] = raises(
        lambda: sequences.term_binet(SequenceKind.BALANCING, 3))
    sequences.qpow = lambda x, y, k: (1, 2)  # even sqrt(2) coefficient
    out["binet_cobalancing_parity"] = raises(
        lambda: sequences.term_binet(SequenceKind.COBALANCING, 3))
    with sequences.exact_context() as ctx:  # the same checks on Decimal coefficients
        one = ctx.create_decimal(1)
        sequences.qpow = lambda x, y, k: (one, one)
        out["decimal_binet_balancing_parity"] = raises(
            lambda: sequences.term_binet(SequenceKind.BALANCING, 3, one))
        sequences.qpow = lambda x, y, k: (one, 2 * one)
        out["decimal_binet_cobalancing_parity"] = raises(
            lambda: sequences.term_binet(SequenceKind.COBALANCING, 3, one))
    sequences.pair_bc = lambda n: (0, 0)  # C - 2B - 1 = -1 is odd
    out["pair_cobal_parity"] = raises(lambda: sequences.pair_cobal(3))
    with sequences.exact_context() as ctx:  # the same bridge on the Decimal route
        sequences._pair_bc = lambda n, one: (0 * one, 0 * one)
        out["decimal_cobal_parity"] = raises(lambda: sequences.term_doubling(
            SequenceKind.COBALANCING, 3, ctx.create_decimal(1)))
    print(json.dumps(out))
    """
)

# Above their thresholds (index 12886 and 755) term and seq compute in
# Decimal; the printed text must not depend on -O either.
ROUTE_COMMANDS = [
    ["term", kind, n] for kind in ("B", "C", "b", "c") for n in ("12885", "12886", "12887")
] + [["seq", kind, "750", "760", "--format", fmt]
     for kind in ("B", "c") for fmt in ("plain", "json", "csv")]

ROUTE_CHILD = textwrap.dedent(
    """
    import contextlib, io, json, sys
    from balkit import cli
    out = {"optimize": sys.flags.optimize, "runs": []}
    for argv in json.loads(sys.argv[1]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out["runs"].append([code, buf.getvalue()])
    print(json.dumps(out))
    """
)


def test_invariant_raises_fire_under_python_O(child_env):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CHILD],
        env=child_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout)
    assert out.pop("optimize") == 1
    assert out == dict.fromkeys(out, True) and len(out) == 8, out


def test_decimal_route_prints_the_same_under_python_O(capsys, child_env):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", ROUTE_CHILD, json.dumps(ROUTE_COMMANDS)],
        env=child_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    for argv, run in zip(ROUTE_COMMANDS, out["runs"]):
        assert run == [cli.main(argv), capsys.readouterr().out], argv


def test_package_has_no_assert_statements():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_the_catalog_builder_calls_eval_exec_or_compile():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "identities.py":
            builder = next(node for node in tree.body
                           if isinstance(node, ast.FunctionDef) and node.name == "_evaluator")
            allowed = {id(node) for node in ast.walk(builder)}
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("eval", "exec", "compile") and id(node) not in allowed
        ]
    assert found == []
