"""Dominance engine: dominator sets, eliminated regions, restriction."""

from fractions import Fraction as F

import pytest

from qualred.analysis import check_condition_C, check_condition_D
from qualred.dsl import parse_game
from qualred.engine import (
    Operator,
    dominator_set,
    eliminated_region,
    full_pairing,
    render_pairing,
    restrict,
)
from qualred.games import GameError, _scan, eval_value
from qualred.intervals import IntervalSet
from qualred.reduction import star_reduce

I = IntervalSet.interval
P = IntervalSet.point


def test_dominator_set_continuum(load_game):
    g = load_game("fx1.qg")
    h = full_pairing(g)
    d = dominator_set(g, h, 0, F(1, 2))
    assert d.strategies.render() == "(1/2,1]"
    assert dominator_set(g, h, 0, F(1)).strategies.is_empty


def test_dominator_set_shrinks_with_opponents(load_game):
    g = load_game("fx5-derived.qg")
    h = full_pairing(g)
    # over the full opponent range the value at x2=1 caps the intersection
    assert dominator_set(g, h, 0, F(1, 2)).strategies.render() == "(1/2,1)"
    narrowed = (h[0], I(0, 1, True, False))
    assert dominator_set(g, narrowed, 0, F(1, 2)).strategies.render() == "(1/2,1)"
    only_one = (h[0], P(1))
    assert dominator_set(g, only_one, 0, F(1, 2)).strategies.render() == "(1/2,1]"


# player 1 is beaten from x2 up while x2 <= 1/2 and from below x2 after,
# player 2 likewise by x1 with closed ends
SUP_INF = """game "sup-inf"
space 1 = interval [0,1]
space 2 = interval [0,1]
pref 1 piecewise:
  when x2 in [0,1/2]: (x2, 1]
  when x2 in (1/2,1]: [0, x2)
pref 2 piecewise:
  when x1 in [0,1/2]: [x1, 1]
  when x1 in (1/2,1]: [0, x1]
"""


@pytest.mark.parametrize(
    "i, opponents, want",
    [
        # an open end closes at an unattained sup or inf, stays open at
        # an attained one
        (0, I(0, F(1, 2), True, False), "[1/2,1]"),
        (0, I(0, F(1, 2)), "(1/2,1]"),
        (0, I(F(3, 4), 1, False, True), "[0,3/4]"),
        (0, I(F(3, 4), 1), "[0,3/4)"),
        # a closed end is closed either way
        (1, I(0, F(1, 2), True, False), "[1/2,1]"),
        (1, I(0, F(1, 2)), "[1/2,1]"),
        (1, I(F(3, 4), 1, False, True), "[0,3/4]"),
        (1, I(F(3, 4), 1), "[0,3/4]"),
    ],
)
def test_dominator_set_bound_by_an_opponent_sup_or_inf(i, opponents, want):
    g = parse_game(SUP_INF)
    h = (opponents, g.carrier(1)) if i else (g.carrier(0), opponents)
    assert dominator_set(g, h, i, F(1, 4)).strategies.render() == want


def test_dominator_set_finite(load_game):
    g = load_game("fxf1.qg")
    h = full_pairing(g)
    assert dominator_set(g, h, 0, "b").strategies == frozenset({"a"})
    assert dominator_set(g, h, 0, "a").strategies == frozenset()
    assert dominator_set(g, h, 1, "d").strategies == frozenset({"c"})


def test_dominator_set_refuses_a_label_outside_the_space(load_game):
    g = load_game("fxf1.qg")
    for x in ("z", "c"):  # no label, and one of player 2's
        with pytest.raises(GameError, match=f"strategy {x} is not in player 1's space"):
            dominator_set(g, full_pairing(g), 0, x)


def test_dominator_set_refuses_a_point_outside_the_carrier(load_game):
    g = load_game("fx1.qg")
    holed = restrict(g, (I(0, F(1, 4)).union(I(F(3, 4), 1)), g.carrier(1)))
    for game, x in ((g, F(5)), (g, F(-1, 2)), (holed, F(1, 2))):
        with pytest.raises(GameError, match=f"strategy {x} is not in player 1's space"):
            dominator_set(game, full_pairing(game), 0, x)


def test_eliminated_region_all_operators(load_game):
    g = load_game("fx1.qg")
    h = full_pairing(g)
    for op in Operator:
        assert eliminated_region(g, h, 0, op).render() == "[0,1)"
        assert eliminated_region(g, h, 1, op).render() == "[0,1)"
    at_limit = (P(1), P(1))
    for op in Operator:
        assert eliminated_region(g, at_limit, 0, op).is_empty


def test_double_requires_surviving_own_dominator(load_game):
    g = load_game("fx5-derived.qg")
    # own set {1/2, 1}: dominators of 1/2 within (1/2,1) miss the own set,
    # so double cannot remove it while arrow still can
    h = (P(F(1, 2)).union(P(1)), I(0, 1))
    arrow = eliminated_region(g, h, 0, Operator.ARROW)
    double = eliminated_region(g, h, 0, Operator.DOUBLE)
    assert arrow.contains(F(1, 2))
    assert not double.contains(F(1, 2))


def test_restrict_continuum_composes_clip(load_game):
    g = load_game("fx1.qg")
    h = (I(F(1, 4), 1), I(F(1, 4), 1))
    r = restrict(g, h)
    assert r.carrier(0) == I(F(1, 4), 1)
    v = eval_value(r, r.prefs[0], (F(1, 2), F(1, 2)))
    assert v.render() == "(1/2,1]"
    r2 = restrict(r, (I(F(1, 2), 1), I(F(1, 2), 1)))
    assert r2.carrier(0) == I(F(1, 2), 1)


def test_restrict_finite_rebuilds_label_spaces(load_game):
    g = load_game("fxf1.qg")
    r = restrict(g, (frozenset({"a"}), frozenset({"c", "d"})))
    assert r.labels(0) == ("a",)
    assert r.labels(1) == ("c", "d")
    assert eval_value(r, r.prefs[1], ("a", "d")) == frozenset({"c"})
    # unknown labels are intersected away rather than rejected
    r3 = restrict(g, (frozenset({"a", "zzz"}), frozenset({"c"})))
    assert r3.labels(0) == ("a",)


def test_pairing_render_and_subset(load_game):
    g = load_game("fx1.qg")
    h = full_pairing(g)
    assert render_pairing(g, h) == {"1": "[0,1]", "2": "[0,1]"}
    assert all(a <= b for a, b in zip((P(1), P(1)), h))
    assert not all(a <= b for a, b in zip(h, (P(1), P(1))))


@pytest.mark.parametrize("name", ["fx1.qg", "fx4.qg"])
def test_warm_regions_hash_no_fraction(load_game, name, monkeypatch):
    """Regions look pairing ends up by (numerator, denominator) in a warm
    record: reductions and conditions C and D hash no Fraction."""
    g = load_game(name)
    _scan(g).prefs  # compiles the record
    hashed = []
    real = F.__hash__
    monkeypatch.setattr(F, "__hash__", lambda f: hashed.append(f) or real(f))
    for op in Operator:
        for h in star_reduce(g, op).stages:
            check_condition_C(g, h)
            check_condition_D(g, h)
    assert hashed == []
