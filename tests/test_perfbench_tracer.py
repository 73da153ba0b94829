"""The benchmark's tracer must still find every balkit name it wraps.

perfbench/tracer.py replaces balkit functions at the module attributes
their callers look up. A rename in balkit would make every traced request
fail, so this runs the traced commands in a child interpreter (the
wrappers patch modules process-wide).
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import balkit
from balkit.sequences import pair_bc

ROOT = Path(__file__).resolve().parent.parent

CHILD = textwrap.dedent(
    """
    import json, sys
    import tracer
    from balkit import cli
    t = tracer.Tracer()
    tracer.install(t)
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
    stats = t.summary()["stats"]
    sys.stderr.write("RESULT " + json.dumps(
        {"codes": codes, "stats": stats}) + "\\n")
    """
)


def test_traced_commands_run_and_record_doubling():
    commands = [
        ["term", "b", "500"],
        ["term", "B", "100", "--method", "binet"],
        ["verify", "--max-n", "5", "--jobs", "2"],
        # Reads only b and c: the prefilled tables are set on the tracer's
        # TermSource subclass.
        ["verify", "--max-n", "5", "--id", "EVEN_b", "--id", "MOD16_c"],
        ["classify", str(pair_bc(300)[1])],
        ["classify", str(pair_bc(300)[0])],
        ["search", "balancing", "--method", "oracle", "--limit", "1000"],
        ["search", "cobalancing", "--limit", "1000"],
        # Past their thresholds term and seq compute in Decimal, which must
        # not pass through the traced sequences.pair_bc (its hook reads
        # int.bit_length()).
        ["term", "B", "20000"],
        ["term", "c", "20000"],
        ["seq", "B", "5000", "5100", "--format", "json"],
    ]
    src = str(Path(balkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stderr.rsplit("RESULT ", 1)[1])
    assert result["codes"] == [0] * len(commands)
    # The oracle spans feed the lookup workload's per-layer metrics, the
    # harness and evaluator spans the verify workload's; the per-identity
    # span is installed only if harness._run_identity exists, and the
    # prefill span only if run_suite builds harness.TermSource and calls its
    # prefill. The stream span feeds the bigterm workload's seq requests.
    for name in ("sequences.pair_bc", "oracle.search_family", "oracle.witness",
                 "harness.run_suite", "harness.identity", "identities.eval",
                 "sequences.termsource.prefill", "sequences.stream"):
        calls, total_s, _ = result["stats"][name]
        assert calls > 0 and total_s > 0, name
