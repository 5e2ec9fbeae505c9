"""Interval-set algebra: canonical form, lattice laws, rendering."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from qualred.intervals import (
    Boundary,
    Interval,
    IntervalSet,
    IntervalSetParseError,
    parse_interval_set,
)

I = IntervalSet.interval
P = IntervalSet.point


def test_union_open_endpoints_do_not_merge():
    s = I(0, F(1, 2), True, False).union(I(F(1, 2), 1, False, True))
    assert len(s.parts) == 2
    assert s.render() == "[0,1/2) u (1/2,1]"
    assert not s.contains(F(1, 2))


def test_union_closed_meets_open_merges():
    s = I(0, F(1, 2), True, True).union(I(F(1, 2), 1, False, True))
    assert s.render() == "[0,1]"


def test_union_identity():
    assert IntervalSet.empty().union(I(0, 1)) == I(0, 1)


def test_intersect_endpoint_bookkeeping():
    s = I(F(3, 10), 1, False, True).intersect(I(0, 1, True, False))
    assert s.render() == "(3/10,1)"


def test_intersect_half_open_with_its_lower_endpoint():
    assert I(F(1, 2), 1, False, True).intersect(P(F(1, 2))).is_empty


def test_intersect_overlap():
    assert I(0, 2).intersect(I(1, 3)).render() == "[1,2]"


def test_complement_within():
    carrier = I(0, 1)
    assert (carrier - I(F(1, 2), 1, False, True)).render() == "[0,1/2]"
    assert carrier - IntervalSet.empty() == carrier
    assert (carrier - P(1)).render() == "[0,1)"


def test_closure():
    assert I(F(3, 10), 1, False, False).closure().render() == "[3/10,1]"
    assert I(0, 1).closure() == I(0, 1)
    two = I(0, F(1, 2), True, False).union(I(F(1, 2), 1, False, True))
    assert two.closure().render() == "[0,1]"


def test_sup_inf_attainment():
    sup, attained = I(0, 1, True, False).sup()
    assert sup == 1 and not attained
    inf, attained = I(0, 1, True, False).inf()
    assert inf == 0 and attained
    with pytest.raises(ValueError):
        IntervalSet.empty().sup()


def test_subset():
    assert I(F(3, 10), 1, False, True).is_subset(I(0, 1))
    assert not I(0, 1).is_subset(I(F(3, 10), 1, False, True))


def test_parse_render_examples():
    for text in ("empty", "{1}", "[0,1]", "(1/2,1]", "[0,1/2) u {3/4}", "(-1,0)"):
        assert parse_interval_set(text).render() == text


def test_parse_rejects_garbage():
    with pytest.raises(IntervalSetParseError):
        parse_interval_set("[0,1] n [2,3]")
    with pytest.raises(IntervalSetParseError):
        parse_interval_set("(1,0)")
    with pytest.raises(IntervalSetParseError):
        parse_interval_set("[0 1]")
    for text in ("[0,1/0]", "{1/00}", "(-1/0,1]"):
        with pytest.raises(IntervalSetParseError):
            parse_interval_set(text)
    assert parse_interval_set("[0,1/01]") == I(0, 1)


# -- randomized laws ---------------------------------------------------------

rationals = st.integers(-8, 8).flatmap(
    lambda n: st.integers(1, 4).map(lambda d: F(n, d))
)


@st.composite
def interval_sets(draw):
    out = IntervalSet.empty()
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(rationals), draw(rationals)
        if a > b:
            a, b = b, a
        if a == b:
            out = out.union(P(a))
        else:
            out = out.union(I(a, b, draw(st.booleans()), draw(st.booleans())))
    return out


def canonical(s: IntervalSet) -> None:
    """Structural invariants: sorted, disjoint, non-mergeable parts."""
    for part in s.parts:
        assert part.lo.lo_key() <= part.hi.hi_key()
    for left, right in zip(s.parts, s.parts[1:]):
        assert left.hi.hi_key() < right.lo.lo_key()
        touching = left.hi.value == right.lo.value and (
            left.hi.closed or right.lo.closed
        )
        assert not touching


@given(interval_sets(), interval_sets())
def test_operations_stay_canonical(a, b):
    canonical(a.union(b))
    canonical(a.intersect(b))
    canonical(a.difference(b))
    canonical(a.closure())


@given(interval_sets(), interval_sets(), interval_sets())
def test_lattice_laws(a, b, c):
    assert a.union(b) == b.union(a)
    assert a.intersect(b) == b.intersect(a)
    assert a.union(b.union(c)) == a.union(b).union(c)
    assert a.intersect(b.intersect(c)) == a.intersect(b).intersect(c)
    assert a.union(a.intersect(b)) == a
    assert a.intersect(a.union(b)) == a
    assert a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c))


# the three ways two touching halves can keep their cut point c: ..c] (c..,
# ..c) [c.. and ..c] [c..; both open would drop c
CUT_PAIRINGS = ((True, False), (False, True), (True, True))


@pytest.mark.parametrize("pairing", CUT_PAIRINGS + (None,))
def test_canonical_form_does_not_depend_on_the_cuts(pairing):
    """A seeded set with every part cut at interior points into touching
    halves (with one pairing, or a random one per cut if None) is rebuilt
    by from_parts on the shuffled pieces and by a chain of unions."""
    rng = random.Random(7)
    for _ in range(300):
        ends = {F(rng.randint(-24, 24), rng.randint(1, 4)) for _ in range(rng.randint(0, 9))}
        ends = sorted(ends)
        parts = [
            Interval(*(Boundary(e, a == b or rng.random() < 0.5) for e in (a, b)))
            for a, b in zip(ends[::2], ends[1::2] + ends[-1:])  # a lone last end is a point
        ]
        original = IntervalSet.from_parts(parts)
        pieces = []
        for part in original:
            lo, a, b = part.lo, part.lo.value, part.hi.value
            for c in sorted({a + (b - a) * F(rng.randint(1, 11), 12) for _ in range(3)} - {a}):
                left, right = pairing or rng.choice(CUT_PAIRINGS)
                pieces.append(Interval(lo, Boundary(c, left)))
                lo = Boundary(c, right)
            pieces.append(Interval(lo, part.hi))
        rng.shuffle(pieces)
        chained = IntervalSet.empty()
        for piece in pieces:
            chained = chained.union(IntervalSet((piece,)))
        for rebuilt in (IntervalSet.from_parts(pieces), chained):
            assert rebuilt == original and rebuilt.render() == original.render()


@given(interval_sets(), interval_sets())
def test_de_morgan_within_carrier(a, b):
    carrier = I(-10, 10)
    ac, bc = carrier - a, carrier - b
    assert carrier - a.union(b) == ac.intersect(bc)
    assert carrier - a.intersect(b) == ac.union(bc)


@given(interval_sets())
def test_closure_idempotent_extensive(a):
    cl = a.closure()
    assert cl.closure() == cl
    assert a.is_subset(cl)


@given(interval_sets(), interval_sets())
def test_subset_agrees_with_an_empty_difference(a, b):
    for x, y in ((a, b), (a.intersect(b), b), (a, a.union(b)), (a.closure(), a)):
        assert x.is_subset(y) == x.difference(y).is_empty


@given(interval_sets(), interval_sets(), rationals)
def test_membership_agrees_with_set_predicates(a, b, p):
    assert a.union(b).contains(p) == (a.contains(p) or b.contains(p))
    assert a.intersect(b).contains(p) == (a.contains(p) and b.contains(p))
    assert a.difference(b).contains(p) == (a.contains(p) and not b.contains(p))


@given(interval_sets())
def test_render_round_trip(a):
    assert parse_interval_set(a.render()) == a


@given(interval_sets())
def test_sup_inf_are_bounds(a):
    if a.is_empty:
        return
    sup, sup_in = a.sup()
    inf, inf_in = a.inf()
    assert sup_in == a.contains(sup)
    assert inf_in == a.contains(inf)
    assert not a.contains(sup + 1)
    assert not a.contains(inf - 1)
