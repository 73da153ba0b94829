"""The one square test: oracle.square_root, and the Lucas root conditions
oracle.is_lucas states on top of it."""

import pytest

from balkit import cli, oracle
from balkit.oracle import is_lucas, square_root
from balkit.sequences import DomainError, SequenceKind, pair_bc, stream

C = SequenceKind.LUCAS_BALANCING
c = SequenceKind.LUCAS_COBALANCING


def test_square_root_of_squares_and_their_neighbours():
    assert square_root(0) == 0
    assert square_root(1) == 1
    for r in list(range(2, 300)) + [10**40 + 7, 2**521 - 1]:
        assert square_root(r * r) == r
        assert square_root(r * r - 1) is None
        assert square_root(r * r + 1) is None
    assert square_root(2) is None and square_root(3) is None


def test_square_root_refuses_a_negative_number():
    with pytest.raises(DomainError, match="square root of negative number -1"):
        square_root(-1)


@pytest.mark.parametrize("kind", [C, c], ids=lambda k: k.short)
def test_is_lucas_names_exactly_the_terms_below_index_300(kind):
    terms = list(stream(kind, kind.min_index, 299))
    members = set(terms)
    for x in terms:
        assert is_lucas(kind, x), x
        for y in (x - 1, x + 1):
            assert is_lucas(kind, y) == (y in members), y
    assert not is_lucas(kind, 0)
    # Every term is positive, so no negative x is one, though its square is.
    assert not is_lucas(kind, -terms[5])
    assert not is_lucas(kind, -1)


def _counted(monkeypatch):
    counts = {"square_root": 0, "isqrt": 0}
    real_square_root, real_isqrt = oracle.square_root, oracle.isqrt

    def counting_square_root(t):
        counts["square_root"] += 1
        return real_square_root(t)

    def counting_isqrt(t):
        counts["isqrt"] += 1
        return real_isqrt(t)

    monkeypatch.setattr(oracle, "square_root", counting_square_root)
    monkeypatch.setattr(oracle, "isqrt", counting_isqrt)
    return counts


_BIG_B, _BIG_C = pair_bc(700)


@pytest.mark.parametrize("x, roots", [
    (_BIG_B, 2),  # even member
    (_BIG_B + 2, 2),  # even non-member
    (_BIG_C, 4),  # odd member
    (_BIG_C + 2, 4),  # odd non-member
    (0, 2),
    (577, 4),
    (239, 4),
], ids=["B700", "B700+2", "C700", "C700+2", "0", "577", "239"])
def test_classify_takes_every_root_through_square_root(monkeypatch, x, roots):
    counts = _counted(monkeypatch)
    cli._classify(x)
    assert counts == {"square_root": roots, "isqrt": roots}


def test_witnesses_and_search_take_every_root_through_square_root(monkeypatch):
    counts = _counted(monkeypatch)
    oracle.balancer_of(204)
    oracle.cobalancer_of(84)
    for witness in (oracle.balancer_of, oracle.cobalancer_of):
        with pytest.raises(DomainError):
            witness(5)
    assert counts == {"square_root": 4, "isqrt": 4}
    assert oracle.search_family(SequenceKind.BALANCING, 10**5) == [
        1, 6, 35, 204, 1189, 6930, 40391]
    assert counts["square_root"] == counts["isqrt"] > 4 + 7

