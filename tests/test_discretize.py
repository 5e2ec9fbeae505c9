"""discretize against a tabulation by eval_value at every grid profile.

discretize fills each table as one flat list in product order, writing the
pieces last to first and each piece's cell one row of the last coordinate
at a time; these tests rebuild every table entry here from eval_value on
the continuum game, on the fixtures, on restricted games (whose maps carry
a clip), on seeded piecewise games, on players with unequal grids and ends
off every grid, and on unvalidated maps whose pieces overlap, where the
first covering piece must win. Equal entries must be one shared object.
"""

import itertools
from dataclasses import replace
from fractions import Fraction as F

import pytest

from qualred.dsl import parse_game
from qualred.engine import restrict
from qualred.games import (
    EMPTY_VALUE,
    Cell,
    Const,
    ContinuumSpace,
    Coord,
    Game,
    GameError,
    Piece,
    PiecewiseMap,
    SymInterval,
    eval_value,
)
from qualred.intervals import IntervalSet
from qualred.lab import discretize
from test_cell_scan import random_game_text

I = IntervalSet.interval
P = IntervalSet.point

CONTINUUM_FIXTURES = ["fx1.qg", "fx4.qg", "fx5-derived.qg", "fx5-as-printed.qg", "fx6-cross.qg"]


def assert_tabulates(game, step):
    snap = discretize(game, step)
    profiles = list(itertools.product(*(snap.labels(i) for i in range(snap.n))))
    groups = [(game.prefs, snap.prefs)]
    if game.comps is not None:
        groups.append((game.comps, snap.comps))
    for corrs, tables in groups:
        for i, (corr, table) in enumerate(zip(corrs, tables)):
            # rows are stored in product order
            assert list(table.table) == profiles
            for x in profiles:
                value = eval_value(game, corr, tuple(F(s) for s in x))
                want = frozenset(s for s in snap.labels(i) if value.contains(F(s)))
                assert table.table[x] == want, (i, x)
    return snap


@pytest.mark.parametrize("name", CONTINUUM_FIXTURES)
@pytest.mark.parametrize("step", [F(1, 2), F(1, 6)])
def test_discretize_fixtures(load_game, name, step):
    assert_tabulates(load_game(name), step)


@pytest.mark.parametrize(
    "name, keep",
    [
        ("fx1.qg", (I(0, F(1, 2)).union(P(1)), I(F(1, 4), 1))),
        ("fx5-derived.qg", (I(F(1, 2), 1), I(0, F(3, 4)))),
        ("fx4.qg", (I(0, 1), I(F(1, 2), 2, False, True))),
    ],
)
def test_discretize_restricted_game(load_game, name, keep):
    game = restrict(load_game(name), keep)
    assert all(corr.clip is not None for corr in game.prefs)
    snap = assert_tabulates(game, F(1, 4))
    for i, factor in enumerate(keep):
        assert all(factor.contains(F(s)) for s in snap.labels(i))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_discretize_random_piecewise_games(seed, n):
    text = random_game_text(seed, n, comps=seed % 2 == 0, shaped=seed % 3 == 0)
    game = parse_game(text)
    assert_tabulates(game, F(1, 4) if n == 2 else F(1, 2))


def test_discretize_uncovered_profile_raises_like_eval_value(load_game):
    game = load_game("fx1.qg")
    grid = discretize(game, F(1, 2))
    # drop player 1's piece at x1 = 1; its endpoints stay on the grid
    pruned = replace(game.prefs[0], pieces=game.prefs[0].pieces[:1])
    assert isinstance(pruned, PiecewiseMap)
    broken = replace(game, prefs=(pruned, game.prefs[1]))
    first = None
    for x in itertools.product(*(grid.labels(i) for i in range(grid.n))):
        try:
            eval_value(broken, pruned, tuple(F(s) for s in x))
        except GameError as exc:
            first = str(exc)
            break
    assert first is not None
    with pytest.raises(GameError) as caught:
        discretize(broken, F(1, 2))
    assert str(caught.value) == first
    assert first == "profile ('1', '0') not covered by any piece"


def test_discretize_first_covering_piece_wins(load_game):
    game = load_game("fx1.qg")
    # an unvalidated map whose first piece overlaps the others on x1 <= 1/2
    cover = Piece(Cell((I(0, F(1, 2)), game.carrier(1))), EMPTY_VALUE)
    shadowed = replace(game.prefs[0], pieces=(cover, *game.prefs[0].pieces))
    snap = assert_tabulates(replace(game, prefs=(shadowed, game.prefs[1])), F(1, 4))
    assert snap.prefs[0].table[("1/4", "0")] == frozenset()
    assert snap.prefs[0].table[("3/4", "0")] == frozenset({"1"})


@pytest.mark.parametrize("n", [2, 3])
def test_discretize_later_piece_overlaps_part_of_a_row(n):
    # player 1's unvalidated map: the first piece holds x_n <= 1/2 (and
    # x2 <= 1/2 at three players) with a value naming x1; the second
    # covers everything with a value naming the last coordinate, so rows
    # of x_n are split between the two pieces and the first must win
    full, half = I(0, 1), I(0, F(1, 2))
    first = Piece(
        Cell(tuple(half if j in (1, n - 1) else full for j in range(n))),
        SymInterval(Const(F(0)), True, Coord(1), False),
    )
    second = Piece(Cell((full,) * n), SymInterval(Coord(n), True, Const(F(1)), True))
    whole = Piece(Cell((full,) * n), EMPTY_VALUE)
    game = Game(
        name="overlap",
        spaces=(ContinuumSpace(full),) * n,
        prefs=(PiecewiseMap(1, (first, second)),)
        + tuple(PiecewiseMap(i + 1, (whole,)) for i in range(1, n)),
    )
    snap = assert_tabulates(game, F(1, 4))
    table = snap.prefs[0].table
    low = ("1",) + ("1/4",) * (n - 1)
    assert table[low] == frozenset({"0", "1/4", "1/2", "3/4"})
    assert table[low[:-1] + ("3/4",)] == frozenset({"3/4", "1"})
    if n == 3:
        assert table[("1", "3/4", "1/4")] == frozenset({"1/4", "1/2", "3/4", "1"})


def test_discretize_unequal_axes_and_ends_off_the_grid():
    # the players' carriers and grids differ; player 1's first value names
    # x2 and its second a constant 5/7 on no grid and cutting no cell;
    # player 2's map is clipped at 5/7, open, which is no cut either
    game = parse_game(
        """game "unequal"
space 1 = interval [0,1]
space 2 = interval [1/2,2]
pref 1 piecewise:
  when x2 in [1/2,1]: [x2, 1]
  when x2 in (1,2]: (5/7, 1]
pref 2 piecewise:
  when x1 in [0,1/2]: [1/2, x2)
  when x1 in (1/2,1]: [x1, 2]
"""
    )
    clip = I(F(1, 2), F(5, 7), True, False).union(I(1, 2))
    game = replace(game, prefs=(game.prefs[0], replace(game.prefs[1], clip=clip)))
    snap = assert_tabulates(game, F(1, 4))
    assert snap.labels(0) == ("0", "1/4", "1/2", "3/4", "1")
    assert snap.labels(1) == ("1/2", "3/4", "1", "5/4", "3/2", "7/4", "2")
    assert snap.prefs[0].table[("0", "3/4")] == frozenset({"3/4", "1"})
    assert snap.prefs[0].table[("0", "3/2")] == frozenset({"3/4", "1"})
    assert snap.prefs[1].table[("1/4", "3/2")] == frozenset({"1/2", "1", "5/4"})
    assert snap.prefs[1].table[("3/4", "1/2")] == frozenset({"1", "5/4", "3/2", "7/4", "2"})


@pytest.mark.parametrize(
    "name, step", [("fx1.qg", F(1, 100)), ("fx4.qg", F(1, 10)), ("fx6-cross.qg", F(1, 12))]
)
def test_discretize_equal_entries_are_one_object(load_game, name, step):
    snap = discretize(load_game(name), step)
    tables = snap.prefs + (snap.comps or ())
    for t in tables:
        values = t.table.values()
        assert len({id(v) for v in values}) == len(set(values)), t.player
    # tables of players on equal grids share their entries too
    for labels in {snap.labels(t.player - 1) for t in tables}:
        same = [t for t in tables if snap.labels(t.player - 1) == labels]
        values = [v for t in same for v in t.table.values()]
        assert len({id(v) for v in values}) == len(set(values)), labels


def test_discretize_shares_entries_a_clip_splits(load_game):
    # player 1's clip drops 1/3, which is on no grid, so its values come in
    # two parts where player 2's come whole; equal entries are one object
    game = load_game("fx1.qg")
    clip = I(0, F(1, 3), True, False).union(I(F(1, 3), 1, False, True))
    game = replace(game, prefs=(replace(game.prefs[0], clip=clip), game.prefs[1]))
    snap = assert_tabulates(game, F(1, 4))
    split, whole = snap.prefs[0].table[("0", "0")], snap.prefs[1].table[("0", "0")]
    assert split == whole == frozenset({"1/4", "1/2", "3/4", "1"})
    assert split is whole


@pytest.mark.parametrize("step", [0, -1, "-1/4"])
def test_discretize_refuses_a_step_that_is_not_positive(load_game, step):
    with pytest.raises(GameError, match="^grid step must be positive$"):
        discretize(load_game("fx1.qg"), step)


def test_discretize_refuses_a_step_that_does_not_divide_a_part(load_game):
    with pytest.raises(GameError) as caught:
        discretize(load_game("fx1.qg"), F(2, 7))
    assert str(caught.value) == "grid step 2/7 does not divide the span of [0,1]"
    # the second part [3/4,1] of a restricted carrier is a quarter long
    game = restrict(load_game("fx1.qg"), (I(0, F(1, 2)).union(I(F(3, 4), 1)), I(0, 1)))
    with pytest.raises(GameError) as caught:
        discretize(game, F(1, 2))
    assert str(caught.value) == "grid step 1/2 does not divide the span of [3/4,1]"
    assert discretize(game, F(1, 4)).labels(0) == ("0", "1/4", "1/2", "3/4", "1")


@pytest.mark.parametrize("step, exact", [("1/4", F(1, 4)), (0.5, F(1, 2))])
def test_discretize_reads_a_step_as_a_fraction(load_game, step, exact):
    game = load_game("fx4.qg")
    snap, want = discretize(game, step), discretize(game, exact)
    assert snap == want
    for got, expected in zip(snap.prefs + snap.comps, want.prefs + want.comps):
        assert list(got.table) == list(expected.table)
