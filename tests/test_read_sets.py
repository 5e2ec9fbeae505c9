"""The coordinates a compiled map reads, and the projected walks they allow.

A continuum check for player i walks only the coordinates that player i's
maps read (``games._Ranks.reads``), every other one fixed, and walks all
of them again only when that finds a fault. Here the read sets are held
against eval_value, the rational path that knows nothing of rank masks:
sliding a coordinate outside a map's read set over every cut point and
one point inside each gap never changes its value, and every coordinate
a value end names is read. Then every check, with its walks projected,
must give the verdict and witness of the walk over all coordinates, got
by reporting every coordinate as read, and property T must give the
same verdicts when it skips nothing.
"""

import itertools
import random

import pytest

from qualred.analysis import HYPOTHESIS_CHECKS, check_property_T_pair, check_property_T_single
from qualred.dsl import parse_game
from qualred.games import Coord, SymInterval, _Ranks, _scan, eval_value
from test_rank_scan import _games, _maps

from conftest import fixture_text, fx1_style_text

FIXTURES = (
    "fx1.qg",
    "fx4.qg",
    "fx5-derived.qg",
    "fx5-as-printed.qg",
    "fx6-cross.qg",
    "fxf1.qg",
    "fx1-grid-half.qg",
    "fx5-derived-grid-half.qg",
)


def _continuum_games():
    for name in FIXTURES:
        game = parse_game(fixture_text(name))
        if not game.is_finite:
            yield game
    for n in (2, 3):
        yield from _games(n)


def test_unread_coordinates_never_change_a_value():
    rng = random.Random(0)
    for game in _continuum_games():
        ranks = _scan(game)
        axes = [[t for *_, t in game.carrier(j).split(ranks.points)] for j in range(game.n)]
        profiles = list(itertools.product(*axes))
        for corr, m in _maps(game, ranks):
            reads = ranks.reads(m)
            for x in rng.sample(profiles, min(len(profiles), 30)):
                want = eval_value(game, corr, x)
                for j in set(range(game.n)) - reads:
                    for t in axes[j]:
                        moved = x[:j] + (t,) + x[j + 1 :]
                        assert eval_value(game, corr, moved) == want, (game.name, corr.player, j, t)


def test_coordinates_named_by_a_value_end_are_read():
    for game in _continuum_games():
        ranks = _scan(game)
        for corr, m in _maps(game, ranks):
            values = [p.value for p in corr.pieces if isinstance(p.value, SymInterval)]
            named = {e.player - 1 for v in values for e in (v.lo, v.hi) if isinstance(e, Coord)}
            assert named <= ranks.reads(m), (game.name, corr.player)


def test_plateau_maps_read_only_their_own_coordinate():
    for n in (2, 3, 4):
        ranks = _scan(parse_game(fx1_style_text(n, 4)))
        assert [ranks.reads(m) for m in ranks.prefs] == [{i} for i in range(n)]


def test_finite_maps_read_every_coordinate():
    game = parse_game(fixture_text("fxf1.qg"))
    scan = _scan(game)
    assert all(scan.reads(corr) == set(range(game.n)) for corr in scan.prefs)


# player 1's comparison map reads x2, which its preference map does not:
# property T (pair) holds while x2 < 1/2 and fails from there on
Q_READS_MORE = """game "q-reads-more"
space 1 = interval [0,1]
space 2 = interval [0,1]
pref 1 piecewise:
  when x1 in [0,1): (x1, 1]
  when x1 in {1}: empty
pref 2 piecewise:
  when x2 in [0,1]: empty
comp 1 piecewise:
  when x2 in [0,1/2): (x1, 1]
  when x2 in [1/2,1]: [0, 1]
comp 2 piecewise:
  when x2 in [0,1]: [0, 1]
"""


def _verdicts(game) -> dict:
    return {name: check(game).to_dict() for name, check in HYPOTHESIS_CHECKS.items()}


def _corpus():
    for name in FIXTURES:
        yield parse_game(fixture_text(name))
    for n in (2, 3):
        yield from _games(n)
    for n, m in ((2, 4), (3, 4), (4, 2)):
        yield parse_game(fx1_style_text(n, m))
    yield parse_game(Q_READS_MORE)


@pytest.mark.parametrize("game", list(_corpus()), ids=lambda g: g.name)
def test_projected_verdicts_equal_the_full_walk(game, monkeypatch):
    projected = _verdicts(game)
    monkeypatch.setattr(_Ranks, "reads", staticmethod(lambda m: frozenset(range(len(m[0])))))
    assert _verdicts(game) == projected


@pytest.mark.parametrize("game", list(_corpus()), ids=lambda g: g.name)
def test_property_T_skips_change_no_verdict(game, monkeypatch):
    """Property T drops the y options of an x whose P_i(x) is empty; the
    walk that skips nothing must give the same status and witness."""
    checks = [check_property_T_single, check_property_T_pair]
    skips, skip = [], _Ranks.skip
    monkeypatch.setattr(_Ranks, "skip", staticmethod(lambda walk: skips.append(skip(walk))))
    pruned = [check(game).to_dict() for check in checks]
    if game.name.startswith("fx1-style"):  # P_i(x) is empty at x_i = 1
        assert skips
    monkeypatch.setattr(_Ranks, "skip", staticmethod(lambda walk: None))
    assert [check(game).to_dict() for check in checks] == pruned
