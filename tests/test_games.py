"""Game data model: evaluation and utility derivation."""

from fractions import Fraction as F

import pytest

from qualred.dsl import serialize_game
from qualred.engine import restrict
from qualred.games import (
    FiniteSpace,
    FiniteTable,
    Game,
    GameError,
    UtilityTable,
    derive_pref_from_utility,
    eval_value,
)
from qualred.intervals import IntervalSet

I = IntervalSet.interval


def test_eval_piecewise_symbolic_endpoint(load_game):
    g = load_game("fx1.qg")
    v = eval_value(g, g.prefs[0], (F(1, 4), F(0)))
    assert v.render() == "(1/4,1]"
    assert eval_value(g, g.prefs[0], (F(1), F(0))).is_empty


def test_eval_cross_player_endpoints(load_game):
    g = load_game("fx4.qg")
    assert eval_value(g, g.comps[0], (F(3, 2), F(1, 2))).render() == "[1/2,3/2]"
    assert eval_value(g, g.comps[0], (F(1, 2), F(3, 2))).render() == "[1/2,3/2]"
    assert eval_value(g, g.comps[0], (F(1, 2), F(1, 4))).render() == "[0,1]"
    # reversed symbolic endpoints collapse to empty, not an error
    assert eval_value(g, g.prefs[0], (F(1, 2), F(1, 4))).is_empty


def test_eval_uncovered_profile_rejected(load_game):
    g = load_game("fx1.qg")
    with pytest.raises(GameError):
        eval_value(g, g.prefs[0], (F(3), F(0)))


def test_derive_pref_from_utility(load_game):
    g = derive_pref_from_utility(load_game("fxf1.qg"))
    assert g.prefs_derived
    p1, p2 = g.prefs
    assert eval_value(g, p1, ("a", "c")) == frozenset()
    assert eval_value(g, p1, ("b", "c")) == frozenset({"a"})
    assert eval_value(g, p1, ("b", "d")) == frozenset({"a"})
    assert eval_value(g, p2, ("a", "d")) == frozenset({"c"})
    assert eval_value(g, p2, ("a", "c")) == frozenset()


@pytest.mark.parametrize("player", [1, 2])
@pytest.mark.parametrize("call", ["derive", "restrict", "serialize"])
def test_a_missing_table_row_names_the_player_and_profile(player, call):
    # a hand-built 2x1 game whose tables for one player lack the row (b, c)
    full = {("a", "c"): F(0), ("b", "c"): F(1)}
    rows = [dict(full), dict(full)]
    del rows[player - 1][("b", "c")]
    game = Game(
        "gap",
        (FiniteSpace(("a", "b")), FiniteSpace(("c",))),
        tuple(FiniteTable(i + 1, {x: frozenset() for x in r}) for i, r in enumerate(rows)),
        None,
        tuple(UtilityTable(i + 1, r) for i, r in enumerate(rows)),
    )
    run = {
        "derive": lambda: derive_pref_from_utility(game),
        "restrict": lambda: restrict(game, (frozenset("ab"), frozenset("c"))),
        "serialize": lambda: serialize_game(game),
    }[call]
    with pytest.raises(GameError) as missing:
        run()
    assert str(missing.value) == f"player {player}: no table row for profile ('b', 'c')"


def test_labels_and_carrier_guards(load_game):
    finite = load_game("fxf1.qg")
    continuum = load_game("fx1.qg")
    assert finite.labels(0) == ("a", "b")
    assert continuum.carrier(1) == I(0, 1)
    with pytest.raises(GameError):
        finite.carrier(0)
    with pytest.raises(GameError):
        continuum.labels(0)

