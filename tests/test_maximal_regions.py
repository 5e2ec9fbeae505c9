"""maximal_elements against a direct evaluation on seeded piecewise games.

Maximal elements are the profiles where every P_i is empty. A value reads
at most one coordinate and compares it only with rational constants, so
that emptiness is constant on every product of constants and open gaps
between constants. Probing each constant and each gap midpoint on every
axis therefore checks the whole region, on random games and on restricted
copies of them, whose maps carry a clip. Each game is also checked with
all but one player's preferences emptied, so that the region is that one
player's alone and no other player's values can hide an error in it.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from qualred.analysis import maximal_elements
from qualred.dsl import parse_game
from qualred.engine import restrict
from qualred.games import (
    EMPTY_VALUE,
    Cell,
    Const,
    GameError,
    Piece,
    PiecewiseMap,
    SymInterval,
    eval_value,
)
from qualred.intervals import IntervalSet
from test_cell_scan import random_game_text

CROSS = "endpoints track different players"
EIGHTHS = [F(k, 8) for k in range(9)]


def _constants(game) -> list[F]:
    values: set[F] = set()
    for j in range(game.n):
        values.update(game.carrier(j).endpoints())
    for corr in game.prefs:
        if corr.clip is not None:
            values.update(corr.clip.endpoints())
        for piece in corr.pieces:
            for f in piece.cell.factors:
                values.update(f.endpoints())
            v = piece.value
            if isinstance(v, SymInterval):
                values.update(e.value for e in (v.lo, v.hi) if isinstance(e, Const))
    return sorted(values)


def _probe_axes(game) -> list[list[F]]:
    cuts = _constants(game)
    line = sorted(cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])])
    return [[t for t in line if t in game.carrier(j)] for j in range(game.n)]


def _restriction(rng: random.Random, n: int) -> tuple[IntervalSet, ...]:
    """One nonempty factor per player on the eighths, sometimes with a
    stray point, so clips cut values in and between cells."""
    out = []
    for _ in range(n):
        a, b = sorted(rng.sample(EIGHTHS, 2))
        part = IntervalSet.interval(a, b, rng.random() < 0.5, rng.random() < 0.5)
        if rng.random() < 0.5:
            part = part.union(IntervalSet.point(rng.choice(EIGHTHS)))
        out.append(part)
    return tuple(out)


def _solo(game, i: int):
    """The game with every preference map but player i's emptied."""
    nothing = Piece(Cell(tuple(game.carrier(j) for j in range(game.n))), EMPTY_VALUE)
    prefs = tuple(
        corr if k == i else PiecewiseMap(k + 1, (nothing,))
        for k, corr in enumerate(game.prefs)
    )
    return replace(game, prefs=prefs)


def _games(n: int):
    for seed in range(60 if n == 2 else 30):
        game = parse_game(random_game_text(seed, n, comps=False, shaped=seed % 3 == 0))
        rng = random.Random(seed)
        for g in [game] + [restrict(game, _restriction(rng, n)) for _ in range(2)]:
            yield g
            yield from (_solo(g, i) for i in range(n))


@pytest.mark.parametrize("n, checked, skipped", [(2, 462, 78), (3, 289, 71)])
def test_maximal_region_matches_direct_evaluation(n, checked, skipped):
    counts = [0, 0]
    for game in _games(n):
        try:
            boxes = maximal_elements(game).boxes
        except GameError as exc:
            # values whose two endpoints read two players are refused
            assert CROSS in str(exc)
            counts[1] += 1
            continue
        counts[0] += 1
        for x in itertools.product(*_probe_axes(game)):
            empty = all(eval_value(game, corr, x).is_empty for corr in game.prefs)
            inside = any(all(t in f for f, t in zip(box, x)) for box in boxes)
            assert inside == empty, (game.name, x)
    assert counts == [checked, skipped]
