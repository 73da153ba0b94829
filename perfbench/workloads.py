"""Seeded request lists for the three workloads.

requests(workload, seed, passes) gives one request list per pass. A
request is (argv for `balkit`, spec for checker.check, properties used for
the per-run shares).

Sizes are drawn log-uniformly in antithetic stratified pairs: the range is
cut into strata and, in every pass, each stratum gets two points u and 1-u.
The passes share one seeded offset per stratum and spread their u evenly
over [0, 1/2). Each pass's cost, a sum of steeply growing costs, then
depends on the seed only to second order, and the pooled sizes of a run
cover the range evenly, so the median and tail barely move either. Choices
that change cost or output size, such as method, kind or --jobs, go by
rank among the sizes of a pass, not by chance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import checker

WORKLOADS = ("bigterm", "verify", "lookup")


@dataclass
class Request:
    argv: list[str]
    spec: dict
    props: dict = field(default_factory=dict)


def antithetic(rng: random.Random, lo: float, hi: float, count: int,
               passes: int) -> list[list[float]]:
    """Per pass, `count` (even) log-uniform points on [lo, hi], ascending,
    two per stratum."""
    strata = count // 2
    span = math.log(hi / lo)
    offsets = [rng.random() for _ in range(strata)]
    out = []
    for p in range(passes):
        points = []
        for i, v in enumerate(offsets):
            u = (p + v) / (2 * passes)
            points += [lo * math.exp(span * (i + u) / strata),
                       lo * math.exp(span * (i + 1 - u) / strata)]
        out.append(points)
    return out


def _kinds(rng: random.Random, count: int) -> list[str]:
    """`count` sequence kinds, each of B, C, b, c as evenly as count allows."""
    kinds: list[str] = []
    while len(kinds) < count:
        block = list(checker.KINDS)
        rng.shuffle(block)
        kinds += block
    return kinds[:count]


def _term(kind: str, n: int, method: str) -> Request:
    argv = ["term", kind, str(n)] + ([] if method == "auto" else ["--method", method])
    return Request(argv, {"op": "term", "kind": kind, "n": n},
                   {"command": "term", "method": method})


# Of the 8 big-term sizes in a pass (ascending), this one uses --method binet.
# Fewer than 11 requests of a run cost more than the dense middle of the
# cost distribution, so the tail sample lies where costs are close together
# and one slow request moves it little.
_BINET_RANK = 2


def bigterm(rng: random.Random, passes: int) -> list[list[Request]]:
    big = antithetic(rng, 5e4, 4e5, 8, passes)
    small = antithetic(rng, 1e4, 3e4, 2, passes)
    # The json range, which sets the peak RSS, takes the larger stop and
    # the shorter length, so its output size varies little.
    stops = antithetic(rng, 5000, 6000, 2, passes)
    lengths = antithetic(rng, 900, 1000, 2, passes)
    out = []
    for p in range(passes):
        reqs = [_term(kind, round(n), "binet" if rank == _BINET_RANK else "auto")
                for rank, (kind, n) in enumerate(zip(_kinds(rng, 8), big[p]))]
        reqs += [_term(kind, round(n), "recurrence") for kind, n in zip(_kinds(rng, 2), small[p])]
        for fmt, stop, length in zip(("plain", "json"), stops[p], reversed(lengths[p])):
            t, count = round(stop), round(length)
            s = t - count + 1
            argv = ["seq", "B", str(s), str(t)] + (["--format", "json"] if fmt == "json" else [])
            reqs.append(Request(argv, {"op": "seq", "kind": "B", "start": s, "stop": t, "format": fmt},
                                {"command": "seq", "method": "stream"}))
        rng.shuffle(reqs)
        out.append(reqs)
    return out


def _verify(max_n: int, ids: list[str] | None, jobs: int) -> Request:
    argv = ["verify", "--format", "json", "--max-n", str(max_n)]
    if ids is None:
        argv += ["--jobs", str(jobs)]
    else:
        for ident in ids:
            argv += ["--id", ident]
    return Request(argv, {"op": "verify", "ids": ids, "max_n": max_n},
                   {"command": "verify", "jobs": jobs, "subset": ids is not None})


def verify(rng: random.Random, passes: int) -> list[list[Request]]:
    by_cost = sorted(_COST_MS_400, key=_COST_MS_400.get)
    # 16 groups of neighbours in cost order (sizes 2 or 3); a pass picks one
    # id from each, and subset j takes the picks of rank j, 7-j, 8+j and 15-j,
    # so every subset holds one id from each cost quarter.
    groups = [by_cost[len(by_cost) * g // 16: len(by_cost) * (g + 1) // 16] for g in range(16)]
    full = antithetic(rng, 150, 300, 4, passes)
    subset_n = antithetic(rng, 400, 600, 4, passes)
    out = []
    for p in range(passes):
        # One of each antithetic pair of full-catalog sizes runs with --jobs 2.
        reqs = [_verify(round(n), None, 2 if rank in (1, 2) else 1) for rank, n in enumerate(full[p])]
        picks = [rng.choice(group) for group in groups]
        for j, max_n in enumerate(subset_n[p]):
            reqs.append(_verify(round(max_n), [picks[j], picks[7 - j], picks[8 + j], picks[15 - j]], 1))
        reqs.append(Request(["verify", "--format", "csv", "--verbose", "--max-n", "60"],
                            {"op": "verify_csv", "max_n": 60},
                            {"command": "verify", "jobs": 1, "subset": False}))
        rng.shuffle(reqs)
        out.append(reqs)
    return out


def _classify(kind: str, k: int, offset: int) -> Request:
    x = checker.term(kind, k) + offset
    return Request(["classify", str(x)],
                   {"op": "classify", "x": x, "kind": kind, "k": k, "member": offset == 0},
                   {"command": "classify", "member": offset == 0})


# Kind of the member classify at each rank of a pass's 8 indices. B and b
# members print a balancer of about 0.77*k digits; giving them mirrored
# ranks keeps the printed digits of a pass nearly seed-independent.
_MEMBER_KINDS = ("C", "B", "b", "c", "c", "b", "B", "C")


def lookup(rng: random.Random, passes: int) -> list[list[Request]]:
    limits = antithetic(rng, 2e5, 1e6, 6, passes)
    members = antithetic(rng, 500, 4000, 8, passes)
    shifted = antithetic(rng, 500, 4000, 20, passes)
    out = []
    for p in range(passes):
        reqs = []
        for rank, limit in enumerate(limits[p]):
            family, limit = ("balancing", "cobalancing")[rank % 2], round(limit)
            reqs.append(Request(["search", family, "--method", "oracle", "--limit", str(limit)],
                                {"op": "search", "family": family, "limit": limit},
                                {"command": "search"}))
        for kind, k in zip(_MEMBER_KINDS, members[p]):
            reqs.append(_classify(kind, round(k), 0))
        # Non-members: members moved off by a small nonzero offset. They skip
        # the index scan, so they cost about the same whatever k is; as the
        # largest group they hold the median in that flat part of the costs.
        for kind, k in zip(_kinds(rng, 20), shifted[p]):
            reqs.append(_classify(kind, round(k), rng.choice((-3, -2, -1, 1, 2, 3))))
        rng.shuffle(reqs)
        out.append(reqs)
    return out


# Milliseconds each catalog entry took alone at max_n = 400 on a 2-core
# x86 VM with CPython 3.11. Only the order is used, to balance subsets.
_COST_MS_400 = {
    "B_ADD": 360, "B_SUB": 178, "B_DIFF_HALF": 80, "B_DIFF_EVEN": 163, "B_2N_MINUS6": 3,
    "B_2N_SPLIT": 203, "B_SUM_HALF": 78, "B_SUM_EVEN": 144, "B_SHIFT_ADD": 183,
    "B_SHIFT_SUB": 213, "C_SUM_HALF": 74, "C_DIFF_HALF": 80, "C_SUM_EVEN": 221,
    "C_DIFF_EVEN": 169, "C_ADD": 158, "C_SUB": 153, "CB_MIX_MINUS": 196, "CB_MIX_PLUS": 189,
    "LC_PROD": 130, "COB_PROD": 268, "B_COB_DIFF_GT": 200, "B_COB_DIFF_LE": 115,
    "B_COB_SUM_GT": 147, "B_COB_SUM_LE": 149, "LC_SUM_GT": 120, "LC_SUM_LE": 112,
    "C2N_PLUS1": 2, "PARITY_B": 2, "ODD_C": 2, "MOD16_C": 53, "MOD4_CSUM": 2, "EVEN_b": 2,
    "MOD4_bDIFF": 2, "ODD_c": 2, "MOD8_c": 2, "MOD16_c": 2,
}

BUILDERS = {"bigterm": bigterm, "verify": verify, "lookup": lookup}


def requests(workload: str, seed: int, passes: int) -> list[list[Request]]:
    """The seeded request lists of one run; the same seed, the same lists."""
    return BUILDERS[workload](random.Random("%s:%d" % (workload, seed)), passes)
