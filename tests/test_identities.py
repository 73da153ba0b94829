"""Catalog structure, domain handling and exact evaluation of identities."""

import dis
import gc
import tracemalloc

import pytest

from balkit import identities
from balkit.identities import (
    CONGRUENCE,
    EQUATION,
    TERM_DIGITS_MAX,
    UnknownIdentityError,
    domain_check,
    evaluate,
    list_identities,
    lookup,
)
from balkit.harness import run_suite
from balkit.sequences import DomainError, SequenceKind, TermSource, stream

EXPECTED_IDS = [
    "B_ADD", "B_SUB", "B_DIFF_HALF", "B_DIFF_EVEN", "B_2N_MINUS6",
    "B_2N_SPLIT", "B_SUM_HALF", "B_SUM_EVEN", "B_SHIFT_ADD", "B_SHIFT_SUB",
    "C_SUM_HALF", "C_DIFF_HALF", "C_SUM_EVEN", "C_DIFF_EVEN", "C_ADD",
    "C_SUB", "CB_MIX_MINUS", "CB_MIX_PLUS", "LC_PROD", "COB_PROD",
    "B_COB_DIFF_GT", "B_COB_DIFF_LE", "B_COB_SUM_GT", "B_COB_SUM_LE",
    "LC_SUM_GT", "LC_SUM_LE", "C2N_PLUS1",
    "PARITY_B", "ODD_C", "MOD16_C", "MOD4_CSUM", "EVEN_b", "MOD4_bDIFF",
    "ODD_c", "MOD8_c", "MOD16_c",
]


def test_catalog_shape():
    cat = list_identities()
    assert len(cat) == 36
    assert [d.ident for d in cat] == EXPECTED_IDS
    assert sum(1 for d in cat if d.kind == EQUATION) == 27
    assert sum(1 for d in cat if d.kind == CONGRUENCE) == 9
    # Stable order on repeated calls.
    assert [d.ident for d in list_identities()] == EXPECTED_IDS


def test_lookup_and_arities():
    assert lookup("B_ADD").arity == 2
    assert lookup("C2N_PLUS1").arity == 1
    assert lookup("MOD16_C").arity == 2
    with pytest.raises(UnknownIdentityError):
        lookup("NO_SUCH")


def test_congruence_entries_carry_moduli():
    for d in list_identities():
        if d.kind == CONGRUENCE:
            assert d.modulus in (2, 4, 8, 16)
        else:
            assert d.modulus is None


def test_domain_check_examples():
    assert domain_check("B_DIFF_HALF", 3, 2) is False  # parity mismatch
    assert domain_check("B_DIFF_HALF", 5, 3) is True
    assert domain_check("B_COB_DIFF_GT", 2, 2) is False  # needs n > m
    assert domain_check("B_COB_DIFF_GT", 3, 2) is True
    assert domain_check("B_SUB", 2, 3) is False
    assert domain_check("LC_PROD", 1, 1) is True
    assert domain_check("LC_PROD", 1, 0) is False
    assert domain_check("C2N_PLUS1", 0) is False
    assert domain_check("PARITY_B", 0) is True


def test_domain_check_arity_mismatch():
    with pytest.raises(DomainError):
        domain_check("B_ADD", 3)
    with pytest.raises(DomainError):
        domain_check("C2N_PLUS1", 3, 1)
    with pytest.raises(UnknownIdentityError):
        domain_check("NO_SUCH", 1, 1)


def test_evaluate_worked_examples():
    r = evaluate("B_ADD", 2, 1)
    assert (r.lhs, r.rhs, r.holds) == (35, 35, True)
    r = evaluate("C_DIFF_HALF", 3, 1)
    assert (r.lhs, r.rhs, r.holds) == (96, 96, True)
    r = evaluate("LC_PROD", 2, 2)
    assert (r.lhs, r.rhs, r.holds) == (98, 98, True)
    r = evaluate("C2N_PLUS1", 2)
    assert r.m is None
    assert (r.lhs, r.rhs, r.holds) == (240, 240, True)


def test_evaluate_b_sub_at_m_zero_is_identity_on_b():
    bs = stream(SequenceKind.BALANCING, 0, 30)
    for n in (0, 1, 2, 7, 30):
        r = evaluate("B_SUB", n, 0)
        assert r.holds and r.lhs == bs[n]


def test_evaluate_refuses_out_of_domain():
    with pytest.raises(DomainError):
        evaluate("B_DIFF_HALF", 3, 2)
    with pytest.raises(DomainError):
        evaluate("B_COB_DIFF_GT", 2, 2)
    with pytest.raises(DomainError):
        evaluate("C2N_PLUS1", 0)
    with pytest.raises(DomainError):
        evaluate("B_SUB", 1, 2)


def test_exhaustive_truth_small_range():
    report = run_suite(40, collect_cases=True)
    for d, rec in zip(list_identities(), report.records):
        if d.arity == 1:
            pairs = [(n, None) for n in range(41)]
        else:
            pairs = [(n, m) for n in range(41) for m in range(41)]
        cells = [(n, m) for n, m in pairs if d.domain(n, m)]
        assert [(c.n, c.m) for c in rec.cases] == cells, d.ident
        assert not rec.failures, "%s fails at %s" % (d.ident, rec.failures[:1])
        # evaluate() on its own fresh terms gives the harness's results.
        for case in (rec.cases[0], rec.cases[len(cells) // 2], rec.cases[-1]):
            assert evaluate(d.ident, case.n, case.m) == case, (d.ident, case)


def _cases(ident, max_n):
    """Every case of ident on the grid 0..max_n, keyed by (n, m)."""
    (rec,) = run_suite(max_n, ids=[ident], collect_cases=True).records
    return {(c.n, c.m): c for c in rec.cases}


def test_consistency_triangle_even_laws_specialize_half_laws():
    even, half = _cases("B_DIFF_EVEN", 100), _cases("B_DIFF_HALF", 200)
    assert len(even) == 101 * 102 // 2
    for (n, m), e in even.items():
        h = half[2 * n, 2 * m]
        assert (e.lhs, e.rhs) == (h.lhs, h.rhs)


def test_consistency_triangle_c_add_plus_c_sub():
    cs = stream(SequenceKind.LUCAS_BALANCING, 0, 200)
    add, sub = _cases("C_ADD", 100), _cases("C_SUB", 100)
    assert add.keys() == sub.keys() and len(add) == 101 * 102 // 2
    for (n, m), a in add.items():
        s = sub[n, m]
        assert a.lhs + s.lhs == 2 * cs[n] * cs[n - m]
        assert a.rhs + s.rhs == cs[2 * n - m] + cs[m]


def test_congruence_residues_are_normalized():
    assert evaluate("MOD8_c", 1).rhs == 7
    assert evaluate("MOD16_c", 1).rhs == 15
    r = evaluate("MOD8_c", 2)
    assert r.lhs == 7 and r.holds


def test_cobalancing_sum_swapped_reading_is_documented_and_correct():
    d = lookup("B_COB_SUM_LE")
    assert d.note  # the discrepancy with the printed minus form is recorded
    plus = evaluate("B_COB_SUM_LE", 1, 2)
    assert plus.holds and plus.lhs == 16
    # The minus reading fails already at (n=1, m=2): 14 - 2 != 16.
    b2, b3 = stream(SequenceKind.COBALANCING, 2, 3)
    minus_lhs = b3 - b2
    assert minus_lhs != plus.rhs


@pytest.mark.parametrize("statement", [
    "B(n) = D(n)",
    "B(n) = __import__('os')",
    "B(n) < C(n)",
    "B(n) == C(n)",
    "B(n) = C(n) = B(n)",
    "C(n) == 1 (mod 0)",
    "B(n) = t",
    "B(n) = B",
    "B(n) = n(m)",
    "B(n) = B()",
    "B(n) = B(*n)",
    "B(n) = B(n)**2",
    "B(n) = ()",
    "B(n) = (",
    "B(n) = B(n))",
])
def test_statement_outside_the_grammar_is_refused(statement):
    with pytest.raises(ValueError):
        identities._entry("X", statement, "n >= 0")


def test_compiled_evaluators_read_only_the_four_sequences():
    for d in list_identities():
        for side in (d.lhs, d.rhs):
            assert set(side.__code__.co_names) <= {"B", "C", "b", "c"}, d.ident
            assert side.__globals__ == {"__builtins__": {}}, d.ident


def test_compiled_evaluators_subscript_t_and_call_nothing():
    for d in list_identities():
        for side in (d.lhs, d.rhs):
            code = list(dis.get_instructions(side))
            assert not [i.opname for i in code if i.opname.startswith(("CALL", "PRECALL"))], d.ident
            for prev, ins in zip(code, code[1:]):
                if ins.opname == "LOAD_ATTR":
                    assert (prev.opname, prev.argval) == ("LOAD_FAST", "t"), d.ident
                    assert ins.argval in {"B", "C", "b", "c"}, d.ident
            assert not [i for i in code if i.opname in ("LOAD_GLOBAL", "LOAD_NAME", "LOAD_DEREF")]


@pytest.mark.parametrize("statement, domain, n, m, index, max_n", [
    ("B(n-1) = b(n-1)", "n >= 0", 0, None, -1, 0),  # below min_index on the left
    ("B(n-1) = b(n-1)", "n >= 0", 1, None, 0, 1),  # and on the right
    ("B(n) = B(3m)", "1 <= n <= m", 1, 5, 15, 5),  # above 2*max(n, m) + 2
])
def test_evaluate_words_an_out_of_table_read_as_the_harness_does(
        statement, domain, n, m, index, max_n, monkeypatch):
    entry = identities._entry("X", statement, domain)
    monkeypatch.setitem(identities._BY_ID, "X", entry)
    with pytest.raises(DomainError) as info:
        evaluate("X", n, m)
    message = "X at (n=%s, m=%s) reads index %d, outside the terms prefilled for max_n=%d"
    assert str(info.value) == message % (n, m, index, max_n)
    if m is None:
        with pytest.raises(DomainError) as info:
            run_suite(max(n, 1), catalog=[entry])
        assert str(info.value) == message % (0, None, -1, max(n, 1))


def test_evaluate_refuses_oversized_terms_before_prefill(monkeypatch):
    def prefill(self, tops):
        raise AssertionError("prefilled")

    monkeypatch.setattr(TermSource, "prefill", prefill)
    for args in (("PARITY_B", 10**5), ("MOD16_c", 10**6), ("B_ADD", 10**9, 0)):
        with pytest.raises(DomainError, match="above the limit of %d$" % TERM_DIGITS_MAX):
            evaluate(*args)


def test_default_term_source_is_used_when_none_given():
    assert evaluate("B_ADD", 40, 17).holds


def test_one_off_evaluate_keeps_no_terms_cached():
    # Prefilling B and C to index 6002 takes about 11 MB; evaluate must
    # free them when it returns.
    evaluate("B_ADD", 2, 0)  # first-call allocations outside the measure
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert evaluate("B_ADD", 3000, 0).holds
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 100_000
