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
    src = TermSource()
    for n in (0, 1, 2, 7, 30):
        r = evaluate("B_SUB", n, 0, terms=src)
        assert r.holds and r.lhs == src.B[n]


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
    src = TermSource()
    src.prefill({"B": 100, "C": 100, "b": 180, "c": 180})
    for d in list_identities():
        if d.arity == 1:
            pairs = [(n, None) for n in range(41)]
        else:
            pairs = [(n, m) for n in range(41) for m in range(41)]
        for n, m in pairs:
            if not d.domain(n, m):
                continue
            r = evaluate(d.ident, n, m, terms=src)
            assert r.holds, "%s fails at n=%s m=%s: %s != %s" % (
                d.ident, n, m, r.lhs, r.rhs,
            )


def test_consistency_triangle_even_laws_specialize_half_laws():
    src = TermSource()
    src.prefill({"B": 440, "C": 440, "b": 4, "c": 4})
    for n in range(101):
        for m in range(n + 1):
            even = evaluate("B_DIFF_EVEN", n, m, terms=src)
            half = evaluate("B_DIFF_HALF", 2 * n, 2 * m, terms=src)
            assert (even.lhs, even.rhs) == (half.lhs, half.rhs)


def test_consistency_triangle_c_add_plus_c_sub():
    src = TermSource()
    src.prefill({"B": 220, "C": 220, "b": 4, "c": 4})
    for n in range(101):
        for m in range(n + 1):
            add = evaluate("C_ADD", n, m, terms=src)
            sub = evaluate("C_SUB", n, m, terms=src)
            assert add.lhs + sub.lhs == 2 * src.C[n] * src.C[n - m]
            assert add.rhs + sub.rhs == src.C[2 * n - m] + src.C[m]


def test_congruence_residues_are_normalized():
    assert evaluate("MOD8_c", 1).rhs == 7
    assert evaluate("MOD16_c", 1).rhs == 15
    r = evaluate("MOD8_c", 2)
    assert r.lhs == 7 and r.holds


def test_cobalancing_sum_swapped_reading_is_documented_and_correct():
    d = lookup("B_COB_SUM_LE")
    assert d.note  # the discrepancy with the printed minus form is recorded
    src = TermSource()
    plus = evaluate("B_COB_SUM_LE", 1, 2, terms=src)
    assert plus.holds and plus.lhs == 16
    # The minus reading fails already at (n=1, m=2): 14 - 2 != 16.
    minus_lhs = src.b[3] - src.b[2]
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


def test_evaluate_grows_a_shared_source_on_demand():
    src = TermSource()
    sizes = lambda: [len(src.B), len(src.C), len(src.b), len(src.c)]
    assert evaluate("B_ADD", 40, 17, terms=src).holds
    # The kinds B_ADD reads, to 2*max(n, m) + 2; b and c stay empty.
    assert sizes() == [83, 83, 0, 0]
    assert evaluate("C2N_PLUS1", 30, terms=src).holds
    # b and c to 4*n + 2 (from index 1); B already reaches 2*n + 2.
    assert sizes() == [83, 83, 122, 122]
    assert evaluate("B_SUB", 3, 0, terms=src).holds
    assert sizes() == [83, 83, 122, 122]  # a smaller call keeps every entry
    assert src.B == {t.n: t.value for t in stream(SequenceKind.BALANCING, 0, 82)}


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
    # Prefilling B and C to index 6002 takes about 11 MB; a call without
    # terms= must free them when it returns.
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
