"""The rank-space record of a continuum game against its rational twin.

Scans walk order cells as int ranks and read values as int bounds; a rank
goes back to a rational only for witnesses, boxes and error text. Here,
on seeded piecewise games (two and three players, some with values whose
ends name other players) and on restricted copies of them, whose maps
carry clips, the rank walk mapped back must be the order cells point for
point, and the value of every map at rank profiles, mapped back, must be
what eval_value gives at the rational profile. Profiles include the
midpoints open-lower-sections probes and the half positions beside a
coordinate, so every rank a scan can meet is covered. Rank parts must go
back to the IntervalSet that merging their rational intervals gives, and
a walk told to skip must drop exactly the rest of the current prefix.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from qualred.analysis import check_irreflexive
from qualred.dsl import parse_game
from qualred.engine import restrict
from qualred.games import (
    EMPTY_VALUE,
    Cell,
    GameError,
    Piece,
    PiecewiseMap,
    _global_breakpoints,
    _scan,
    eval_value,
)
from qualred.intervals import Boundary, Interval, IntervalSet
from test_cell_scan import brute_order_cells, random_game_text
from test_maximal_regions import _restriction


def _games(n: int):
    for seed in range(8 if n == 2 else 4):
        game = parse_game(
            random_game_text(seed, n, comps=seed % 2 == 0, shaped=seed % 4 == 0)
        )
        rng = random.Random(seed)
        yield game
        yield restrict(game, _restriction(rng, n))


def _rational(ranks, span) -> IntervalSet:
    """A rank-space value as an IntervalSet: an even bound is a closed end
    at its rank, an odd one an open end at the rank beside it."""
    return IntervalSet.from_parts(
        Interval(
            Boundary(ranks.coord(lo - (lo & 1)), not lo & 1),
            Boundary(ranks.coord(hi + (hi & 1)), not hi & 1),
        )
        for lo, hi in span
    )


def _maps(game, ranks):
    pairs = list(zip(game.prefs, ranks.prefs))
    return pairs + list(zip(game.comps or (), ranks.comps or ()))


@pytest.mark.parametrize("n", [2, 3])
def test_rank_walk_maps_back_to_the_order_cells(n):
    for game in _games(n):
        ranks = _scan(game)
        assert ranks.points == _global_breakpoints(game)
        orders = [list(range(n))] + [[*range(n), i] for i in range(n)]
        for players in orders + [[i] for i in range(n)]:
            walk = list(ranks.cells(players))
            assert walk == sorted(set(walk)), (game.name, players)
            back = list(map(ranks.profile, walk))
            if len(players) <= 3:
                assert back == brute_order_cells(game, players), (game.name, players)


def _rank_axis(ranks, j: int) -> list[int]:
    """Every even rank of player j's carrier: the points, the grid
    positions, the midpoints between them and the gap ends."""
    carrier = ranks.span(ranks.carriers[j])
    top = (len(ranks.points) - 1) * ranks.width
    return [r for r in range(0, top + 1, 2) if r in carrier]


@pytest.mark.parametrize("n", [2, 3])
def test_rank_values_match_eval_value(n):
    rng = random.Random(n)
    for game in _games(n):
        ranks = _scan(game)
        axes = [_rank_axis(ranks, j) for j in range(n)]
        profiles = list(itertools.product(*axes))
        if len(profiles) > 1000:
            profiles = rng.sample(profiles, 1000)
        for x in profiles:
            for corr, m in _maps(game, ranks):
                want = eval_value(game, corr, ranks.profile(x))
                assert _rational(ranks, ranks.value(m, x)) == want, (game.name, x)


@pytest.mark.parametrize("n", [2, 3])
def test_ranks_keep_the_order_of_the_rationals(n):
    for game in _games(n):
        ranks = _scan(game)
        top = (len(ranks.points) - 1) * ranks.width
        line = [ranks.coord(r) for r in range(top + 1)]
        assert line == sorted(set(line))
        assert [ranks.coord(ranks.rank[t.as_integer_ratio()]) for t in ranks.points] == ranks.points


def test_uncovered_profile_names_the_rationals():
    game = parse_game(random_game_text(1, 2, comps=False, shaped=False))
    # never validated: player 1's map covers x1 < 1/2 only
    half = IntervalSet.interval(0, F(1, 2), True, False)
    gappy = PiecewiseMap(1, (Piece(Cell((half, game.carrier(1))), EMPTY_VALUE),))
    game = replace(game, prefs=(gappy, *game.prefs[1:]))
    with pytest.raises(GameError) as scanned:
        check_irreflexive(game)
    with pytest.raises(GameError) as direct:
        eval_value(game, gappy, (F(1, 2), F(0)))
    want = "profile ('1/2', '0') not covered by any piece"
    assert str(scanned.value) == str(direct.value) == want


def _random_parts(rng: random.Random, top: int) -> list[tuple[int, int]]:
    """A shuffled chain of rank parts up to top: each next part overlaps
    the last, touches it at a rank or sits apart from it."""
    parts, lo = [], rng.randint(0, 8)
    while lo <= top and rng.random() < 0.8:
        hi = min(top, lo + rng.choice([0, 0, 1, 2, 3, 7, 16]))
        parts.append((lo, hi))
        lo = max(0, hi + rng.choice([-2, 0, 1, 1, 2, 3, 5]))
    rng.shuffle(parts)
    return parts


@pytest.mark.parametrize("n", [2, 3])
def test_back_matches_merging_the_rational_parts(n):
    rng = random.Random(20 + n)
    for game in _games(n):
        ranks = _scan(game)
        top = (len(ranks.points) - 1) * ranks.width
        for _ in range(500):
            parts = _random_parts(rng, top)
            assert ranks.back(parts) == _rational(ranks, parts), (game.name, parts)


@pytest.mark.parametrize("n", [2, 3])
def test_a_skip_drops_the_rest_of_its_prefix(n):
    """After skip, a walk goes on at the next prefix: it yields the full
    walk minus the points after each skipped point that share its prefix."""
    rng, skips = random.Random(30 + n), 0
    for game in _games(n):
        ranks = _scan(game)
        for players in [list(range(n))] + [[*range(n), i] for i in range(n)]:
            walk, got, skipped = ranks.cells(players), [], set()
            for point in walk:
                got.append(point)
                if rng.random() < 0.3:
                    skipped.add(point)
                    ranks.skip(walk)
            full = list(ranks.cells(players))
            cut = {p[:-1]: p for p in sorted(skipped, reverse=True)}  # its first skip
            want = [p for p in full if p[:-1] not in cut or p <= cut[p[:-1]]]
            assert got == want, (game.name, players)
            skips += len(skipped)
    assert skips > 100
