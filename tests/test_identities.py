"""Catalog structure, domain handling and exact evaluation of identities."""

import dataclasses
import dis
import gc
import tracemalloc

import pytest

from balkit import identities, sequences
from balkit.identities import (
    CONGRUENCE,
    EQUATION,
    EVAL_INDEX_MAX,
    TERM_DIGITS_MAX,
    UnknownIdentityError,
    domain_check,
    evaluate,
    list_identities,
    lookup,
)
from balkit.harness import run_suite
from balkit.sequences import (
    DomainError, SequenceKind, TermSource, parse_kind, stream, term_recurrence,
)
from test_harness import reading_past_its_prefill, streamed_cases, unchecked

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
    report, cases = streamed_cases(40)
    for d, rec in zip(list_identities(), report.records):
        if d.arity == 1:
            pairs = [(n, None) for n in range(41)]
        else:
            pairs = [(n, m) for n in range(41) for m in range(41)]
        cells = [(n, m) for n, m in pairs if d.domain(n, m)]
        mine = [c for c in cases if c.ident == d.ident]
        assert [(c.n, c.m) for c in mine] == cells, d.ident
        assert not rec.failures, "%s fails at %s" % (d.ident, rec.failures[:1])
        # evaluate() on its own fresh terms gives the harness's results.
        for case in (mine[0], mine[len(cells) // 2], mine[-1]):
            assert evaluate(d.ident, case.n, case.m) == case, (d.ident, case)
    assert len(cases) == sum(r.checked for r in report.records)


def _cases(ident, max_n):
    """Every case of ident on the grid 0..max_n, keyed by (n, m)."""
    _, cases = streamed_cases(max_n, ids=[ident])
    return {(c.n, c.m): c for c in cases}


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


@pytest.mark.parametrize("statement, domain", [
    ("B(C(n)) = B(n)", "n >= 0"),  # a nested read
    ("B(n*m) = B(n)", "n >= m >= 0"),  # a product of n and m
    ("B(n) = B((n+1)*(m+1))", "n >= m >= 0"),
    ("B((n-m)/2/2) = B(n)", identities._PARITY),  # k/2: an inexact division
    ("B(n) = B(m)", "n >= 0"),  # m in an entry of one index
    ("B(n) = B(n)*m", "n >= 0"),  # and outside a subscript
    ("B(n+C(n)) = B(n)", "n >= 0"),  # a form plus a term
])
def test_a_subscript_term_tops_cannot_bound_is_refused(statement, domain):
    with pytest.raises(ValueError, match="^X: "):
        identities._entry("X", statement, domain)


@pytest.mark.parametrize("statement, domain, message", [
    ("B(n/2) = B(n)", "n >= 0",
     "X: a subscript is not an integer form a*k + b*j + c at (n, m) = (k, None), k, j >= 0 "),
    ("B(n-1) = b(n-1)", "n >= 0",
     "X: reads B(k-1) at (n, m) = (k, None), k, j >= 0, below the first index of B"),
    ("B(n) = B(m-3n)", "1 <= n <= m",
     "X: reads B(-2k+j-2) at (n, m) = (k+1, k+j+1), k, j >= 0, below the first index of B"),
], ids=["inexact division", "below on n >= 0", "below on 1 <= n <= m"])
def test_entry_refuses_a_read_that_is_no_form_or_can_fall_below_min_index(
        statement, domain, message):
    with pytest.raises(ValueError) as info:
        identities._entry("X", statement, domain)
    assert str(info.value).startswith(message), str(info.value)


def test_a_subscript_divided_then_shifted_is_a_form_in_domain_coordinates():
    # (n-m)/2 + 1 on the parity domain n = 2k+j, m = j is k+1.
    entry = identities._entry("X", "B((n-m)/2 + 1) = B(n)", identities._PARITY)
    assert identities._subscript_forms(entry) == (("B", 1, 0, 1), ("B", 2, 1, 0))
    assert identities.term_tops([entry], 9) == {"B": 9}
    # 1-n, an int minus a form, is a form too.
    entry = identities._entry("X", "B(1-n+2n) = B(n+1)", "n >= 0")
    assert identities._subscript_forms(entry) == (("B", 1, 0, 1),)


def test_every_catalog_read_is_a_form_at_or_above_min_index():
    for d in list_identities():
        for short, a, b, c in identities._subscript_forms(d):
            assert a >= 0 and b >= 0 and c >= parse_kind(short).min_index, (d.ident, short)


@pytest.mark.parametrize("domain", list(identities._DOMAINS))
def test_each_domain_map_gives_its_rows_and_corners_reach_every_maximum(domain):
    # The two descriptions of a domain agree: on every grid 0..N the map's
    # image is exactly the cells its rows give, each once, and every form
    # a*k + b*j with a, b in 0..4 (which covers the catalog's) takes its
    # largest value on those cells at one of the corners.
    arity, rows, cell, corners = identities._DOMAINS[domain]
    forms = {(a, b) for a in range(5) for b in range(5 if arity == 2 else 1)}
    for d in list_identities():
        if d.domain_desc == domain:
            assert {(a, b) for _, a, b, _ in identities._subscript_forms(d)} <= forms
    for N in range(1, 41):
        points = [(k, j) for k in range(N + 1) for j in range(N + 1 if arity == 2 else 1)
                  if max(cell(k, j)[0], cell(k, j)[1] or 0) <= N]
        cells = [(n, m) for n in range(N + 1) for m in rows(n, N)]
        assert sorted(cell(k, j) for k, j in points) == cells, (domain, N)
        tops = [(k, j) for k, j in corners(N) if k >= 0 and j >= 0]
        assert set(tops) <= set(points), (domain, N)
        for a, b in forms:
            assert (max((a * k + b * j for k, j in tops), default=None)
                    == max((a * k + b * j for k, j in points), default=None)), (domain, N, a, b)


def test_evaluators_wrapped_to_measure_their_result_keep_their_forms():
    # A wrapper that measures each result, as the benchmark's tracer does,
    # runs on the symbols too, and the wrapped entry reads what it did.
    def measured(side):
        def wrapper(t, n, m):
            result = side(t, n, m)
            measured.bits = max(measured.bits, abs(result).bit_length())
            return result
        return wrapper

    measured.bits = 0
    for d in list_identities():
        wrapped = dataclasses.replace(d, lhs=measured(d.lhs), rhs=measured(d.rhs))
        assert identities._subscript_forms(wrapped) == identities._subscript_forms(d)
        assert identities.term_tops([wrapped], 30) == identities.term_tops([d], 30)
    assert run_suite(30, catalog=[wrapped]).passed and measured.bits > 0


def test_products_and_residues_outside_subscripts_are_accepted():
    entry = identities._entry("X", "B(n)*n*m + n/2 = B(n)*(n*m) + n/2", "n >= m >= 0")
    # B(n) is B(k+j) at (n, m) = (k+j, j).
    assert identities._subscript_forms(entry) == (("B", 1, 1, 0),)
    assert run_suite(6, catalog=[entry]).passed


class RecordingTable:
    """A term table that records each index read."""

    def __init__(self, values: dict, seen: list) -> None:
        self.values, self.seen = values, seen

    def __getitem__(self, index):
        self.seen.append(index)
        return self.values[index]


def test_term_tops_are_the_indices_a_recording_source_sees():
    # Every read of every entry on every in-domain cell of the grids
    # 0..1 to 0..40: term_tops gives each kind's highest index exactly.
    full = TermSource()
    full.prefill({k: 170 for k in "BCbc"})
    seen = {k: [] for k in "BCbc"}
    recording = TermSource()
    for k in "BCbc":
        setattr(recording, k, RecordingTable(getattr(full, k), seen[k]))
    grid = range(1, 41)
    catalog_tops = {max_n: {} for max_n in grid}
    for d in list_identities():
        # The highest index per kind read at each cell of the grid 0..40.
        at_cell = {}
        for n in range(41):
            for m in d.indices(n, 40):
                d.lhs(recording, n, m)
                d.rhs(recording, n, m)
                at_cell[n, m] = {k: max(v) for k, v in seen.items() if v}
                assert all(min(v) >= parse_kind(k).min_index
                           for k, v in seen.items() if v), (d.ident, n, m)
                for v in seen.values():
                    v.clear()
        for max_n in grid:
            tops = {}
            for n in range(max_n + 1):
                for m in d.indices(n, max_n):
                    for k, top in at_cell[n, m].items():
                        tops[k] = max(tops.get(k, top), top)
            assert identities.term_tops([d], max_n) == tops, (d.ident, max_n)
            for k, top in tops.items():
                catalog_tops[max_n][k] = max(catalog_tops[max_n].get(k, top), top)
    for max_n in grid:
        assert identities.term_tops(list_identities(), max_n) == catalog_tops[max_n]
    assert identities.term_tops(list_identities(), 100) == {"B": 200, "C": 200, "b": 201, "c": 400}


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
    ("B(n) = B(m-3n)", "1 <= n <= m", 2, 5, -1, 5),  # a binary read below min_index
])
def test_evaluate_words_an_out_of_table_read_as_the_harness_does(
        statement, domain, n, m, index, max_n, monkeypatch):
    # _entry refuses such a statement; a caller can still build the entry.
    entry = unchecked("X", statement, domain)
    monkeypatch.setitem(identities._BY_ID, "X", entry)
    with pytest.raises(DomainError) as info:
        evaluate("X", n, m)
    message = "X at (n=%s, m=%s) reads index %d, outside the terms prefilled for max_n=%d"
    assert str(info.value) == message % (n, m, index, max_n)
    # The harness refuses the entry by its form before any term is computed.
    monkeypatch.setattr(TermSource, "prefill", None)
    with pytest.raises(ValueError, match=r"^X: reads B\(.*, below the first index of B$"):
        run_suite(max(n, 1), catalog=[entry])


def test_evaluate_words_a_read_past_its_prefill_as_the_harness_does(monkeypatch):
    # A read that depends on a term's value: the pass that finds the point's
    # reads, where every term is 0, sees B(3) only, and B(4) is read outside.
    entry = dataclasses.replace(
        identities._entry("X", "B(n) = B(n)", "n >= 0"), lhs=lambda t, n, m: t.B[n + (t.B[n] > 0)])
    monkeypatch.setitem(identities._BY_ID, "X", entry)
    message = "X at (n=3, m=None) reads index %d, outside the terms prefilled for max_n=%d"
    with pytest.raises(DomainError) as info:
        evaluate("X", 3)
    assert str(info.value) == message % (4, 3)
    # Evaluators that read B(5n) on ints but B(2n) on symbols.
    with pytest.raises(DomainError) as info:
        run_suite(5, catalog=[reading_past_its_prefill("X", "B(5n) = B(5n)")])
    assert str(info.value) == message % (15, 5)


def test_evaluate_refuses_oversized_terms_before_prefill(monkeypatch):
    # The cap counts the terms the point reads, and is checked before any
    # of them is computed.
    def pair_bc(n):
        raise AssertionError("computed a term")

    monkeypatch.setattr(sequences, "pair_bc", pair_bc)
    for args in (("PARITY_B", 4 * 10**7), ("MOD16_c", 10**7), ("B_ADD", 10**9, 0)):
        with pytest.raises(DomainError, match="above the limit of %d$" % TERM_DIGITS_MAX):
            evaluate(*args)


def test_evaluate_refuses_a_point_above_the_index_cap_before_any_term(monkeypatch):
    class Computed(Exception):
        pass

    def pair_bc(n):
        raise Computed

    monkeypatch.setattr(sequences, "pair_bc", pair_bc)
    with pytest.raises(Computed):
        evaluate("PARITY_B", EVAL_INDEX_MAX)
    # Both pass TERM_DIGITS_MAX; 39e6 took 266 s before the index cap.
    for n in (EVAL_INDEX_MAX + 1, 39 * 10**6):
        with pytest.raises(DomainError) as info:
            evaluate("PARITY_B", n)
        assert str(info.value) == ("PARITY_B at (n=%d, m=None) reads index %d, above the "
                                   "limit of %d" % (n, n, EVAL_INDEX_MAX))


@pytest.mark.parametrize("args, calls", [
    (("B_ADD", 3200, 0), 2),  # B and C at 3200 and at 0
    (("C_ADD", 3200, 100), 3),  # B and C at 3200 and 3100, C at 6300
    (("C2N_PLUS1", 3000), 2),  # b and B at 3000, c at 6000
])
def test_evaluate_runs_one_pair_per_distinct_index(monkeypatch, args, calls):
    indices, real = [], sequences.pair_bc

    def pair_bc(n):
        indices.append(n)
        return real(n)

    monkeypatch.setattr(sequences, "pair_bc", pair_bc)
    result = evaluate(*args)
    assert len(indices) == len(set(indices)) == calls
    # The same result as from each read's term by the recurrence.
    desc, (n, m) = lookup(args[0]), (*args[1:], None)[:2]
    terms = TermSource()
    for short, _, _, index in identities._read_forms(desc, n, m):
        getattr(terms, short)[index] = term_recurrence(parse_kind(short), index)
    lhs, rhs = desc.lhs(terms, n, m), desc.rhs(terms, n, m)
    assert result == identities.EvalResult(args[0], n, m, lhs, rhs, True)


def test_evaluate_holds_only_the_terms_its_point_reads(monkeypatch):
    built = []

    class Spy(TermSource):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(identities, "TermSource", Spy)
    assert evaluate("B_ADD", 3200, 0).holds
    assert evaluate("MOD16_c", 5).holds
    # The recording pass builds a source too, whose tables are no dicts.
    held = [{k: sorted(getattr(t, k)) for k in "BCbc"} for t in built if type(t.B) is dict]
    assert held == [{"B": [0, 3200], "C": [0, 3200], "b": [], "c": []},
                    {"B": [], "C": [], "b": [], "c": [20]}]


def test_evaluate_runs_every_entry_without_the_recurrence(monkeypatch):
    report, cases = streamed_cases(40)
    assert report.passed

    def refused(*args):
        raise AssertionError("walked the recurrence")

    monkeypatch.setattr(sequences, "walk", refused)
    monkeypatch.setattr(TermSource, "prefill", refused)
    for d in list_identities():
        mine = [c for c in cases if c.ident == d.ident]
        case = mine[len(mine) // 2]
        assert evaluate(d.ident, case.n, case.m) == case, d.ident


@pytest.mark.parametrize("args, kind, index, lhs", [
    (("PARITY_B", 9000), "B", 9000, lambda term: term % 2),
    (("C2N_PLUS1", 5000), "c", 10000, lambda term: term + 1),
    (("B_ADD", 8000, 0), "B", 8000, lambda term: term),
])
def test_evaluate_runs_points_whose_walk_was_over_the_digit_cap(args, kind, index, lhs):
    # Walked to the highest index read, these passed TERM_DIGITS_MAX.
    result = evaluate(*args)
    assert result.holds
    assert result.lhs == lhs(term_recurrence(parse_kind(kind), index))


def test_evaluate_takes_indices_of_any_int_type():
    class Index(int):
        pass

    assert evaluate("PARITY_B", True).holds
    assert evaluate("B_ADD", Index(3), Index(1)) == evaluate("B_ADD", 3, 1)


def test_default_term_source_is_used_when_none_given():
    assert evaluate("B_ADD", 40, 17).holds


def test_one_off_evaluate_keeps_no_terms_cached():
    # evaluate must free the terms it computed when it returns.
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
