"""Pairings read from the game's scan record, finite or continuum alike.

The full pairing is built once per game, ``check_preservation`` decides
both sides of a finite game in one walk of its profiles, and the public
dominance entry points refuse a malformed pairing or player with a
GameError naming what is wrong instead of a KeyError, an IndexError or a
silently wrong answer.
"""

from fractions import Fraction as F

import pytest

from qualred import analysis
from qualred.analysis import (
    check_condition_C,
    check_condition_D,
    check_preservation,
    find_undominated_dominator,
)
from qualred.engine import Operator, dominator_set, eliminated_region, full_pairing
from qualred.games import GameError, _Tables
from qualred.intervals import IntervalSet
from qualred.reduction import is_maximal, path_step, star_reduce

OP = Operator.DOUBLE


@pytest.mark.parametrize("name", ["fxf1.qg", "fx1.qg"])
def test_full_pairing_is_built_once(load_game, name):
    game = load_game(name)
    assert full_pairing(game) is full_pairing(game)


def test_preservation_walks_finite_profiles_once(load_game, monkeypatch):
    """One ``cells`` walk decides both sides; the hypotheses, which walk
    the profiles on their own, are left out of the count."""
    game = load_game("fxf1.qg")
    final = star_reduce(game, OP).final
    walks, cells = [], _Tables.cells

    def counted(self, players):
        walks.append(0)
        for x in cells(self, players):
            walks[-1] += 1
            yield x

    def forbidden(game):
        raise AssertionError("maximal_elements walked the profiles again")

    monkeypatch.setattr(_Tables, "cells", counted)
    monkeypatch.setattr(analysis, "maximal_elements", forbidden)
    monkeypatch.setattr(analysis, "check_hypotheses", lambda game, names: {})
    report = check_preservation(game, final)
    assert walks == [len(list(game.profiles()))]
    assert report.original.profiles == [("a", "c")]


ENTRY_POINTS = {
    "dominator_set": lambda g, h, i, x: dominator_set(g, h, i, x),
    "eliminated_region": lambda g, h, i, x: eliminated_region(g, h, i, OP),
    "is_maximal": lambda g, h, i, x: is_maximal(g, h, OP),
    "condition_C": lambda g, h, i, x: check_condition_C(g, h),
    "condition_D": lambda g, h, i, x: check_condition_D(g, h),
    "find_undominated_dominator": lambda g, h, i, x: find_undominated_dominator(g, h, i, x),
    "path_step": lambda g, h, i, x: path_step(g, h, OP, {i: h[0] - h[0]} if i else {}),
}
# per class: a fixture, a strategy of player 1, a factor of the other
# class and one outside player 2's space
CLASSES = {
    "finite": ("fxf1.qg", "a", IntervalSet.interval(0, 1), frozenset({"c", "zz"})),
    "continuum": ("fx1.qg", F(0), frozenset({"c"}), IntervalSet.interval(F(1, 2), 2)),
}
# per malformed case: (pairing, player) from the full pairing and the
# class's bad factors, and what the GameError must name
CASES = {
    "short": (lambda full, foreign, outside: (full[:1], 0), "needs 2 factors"),
    "long": (lambda full, foreign, outside: (full + full[:1], 0), "needs 2 factors"),
    "foreign": (lambda full, foreign, outside: ((full[0], foreign), 0), "player 2"),
    "outside": (lambda full, foreign, outside: ((full[0], outside), 0), "player 2"),
    "player": (lambda full, foreign, outside: (full, 5), "no player 6"),
}
TAKES_PLAYER = {"dominator_set", "eliminated_region", "find_undominated_dominator", "path_step"}


@pytest.mark.parametrize("kind", CLASSES)
@pytest.mark.parametrize(
    "entry, case",
    [(e, c) for e in ENTRY_POINTS for c in CASES if c != "player" or e in TAKES_PLAYER],
)
def test_malformed_pairings_raise_game_error(load_game, entry, case, kind):
    name, x, foreign, outside = CLASSES[kind]
    game = load_game(name)
    make, names = CASES[case]
    h, i = make(full_pairing(game), foreign, outside)
    with pytest.raises(GameError, match=names):
        ENTRY_POINTS[entry](game, h, i, x)


@pytest.mark.parametrize("kind", CLASSES)
def test_preservation_refuses_length_and_class_only(load_game, kind):
    name, _, foreign, outside = CLASSES[kind]
    game = load_game(name)
    full = full_pairing(game)
    for h, names in [(full[:1], "needs 2 factors"), ((full[0], foreign), "player 2")]:
        with pytest.raises(GameError, match=names):
            check_preservation(game, h)
    # a factor reaching outside the space is cut to it, as restrict cuts it
    assert check_preservation(game, (full[0], outside)).to_dict() == (
        check_preservation(game, (full[0], outside & full[1])).to_dict()
    )
