"""maximal_elements and check_preservation against a direct evaluation.

Maximal elements are the profiles where every P_i is empty. A value
compares coordinates only with each other and with rational constants, so
that emptiness is constant on every order cell: which constant or open gap
between constants each coordinate sits at, and how the coordinates sharing
a gap are ordered. Probing one point of every order cell therefore checks
the whole region, on seeded games and on restricted copies of them, whose
maps carry a clip. Each game is also checked with all but one player's
preferences emptied, so that the region is that one player's alone and no
other player's values can hide an error in it, and with every piece cut
in two at a new constant, which must not change the boxes.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from qualred.analysis import check_preservation, maximal_elements
from qualred.dsl import parse_game
from qualred.engine import Operator, restrict
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
from qualred.reduction import star_reduce
from test_cell_scan import random_game_text

NOT_BOXES = "the maximal elements are not a finite union of boxes"
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


def _probes(game, extra=()):
    """One point of every order cell. Each coordinate sits at a constant or
    at one of the n + 1 points a + (b - a) * k / (n + 2) of an open gap
    (a, b) between constants, so that coordinates sharing a gap can take
    every order in it. Of the points with the same order, only the one
    whose positions in each gap are 1..R is kept; a coordinate alone in
    its gap takes position 1. Extra constants refine the cells."""
    n = game.n
    cuts = sorted(set(_constants(game)).union(extra))
    grid = {(c, c): [c] for c in cuts}
    grid.update(
        ((a, b), [a + (b - a) * F(k, n + 2) for k in range(1, n + 2)])
        for a, b in zip(cuts, cuts[1:])
    )
    axes = [[s for s in grid if (s[0] + s[1]) / 2 in game.carrier(j)] for j in range(n)]
    for cell in itertools.product(*axes):
        shared = [len(grid[s]) > 1 and cell.count(s) > 1 for s in cell]
        for ks in itertools.product(*(range(n + 1) if m else [0] for m in shared)):
            used: dict[tuple, set] = {}
            for s, k in zip(cell, ks):
                used.setdefault(s, set()).add(k)
            if all(u == set(range(len(u))) for u in used.values()):
                yield tuple(grid[s][k] for s, k in zip(cell, ks))


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


def _split(game):
    """The game with every piece cut in two at x1 = 7/17, a constant no
    seeded game uses."""

    def halves(piece):
        first, *rest = piece.cell.factors
        low = first & IntervalSet.interval(0, F(7, 17))
        return [Piece(Cell((f, *rest)), piece.value) for f in (low, first - low) if f]

    prefs = tuple(
        PiecewiseMap(c.player, tuple(q for p in c.pieces for q in halves(p)), c.clip)
        for c in game.prefs
    )
    return replace(game, prefs=prefs)


def _seeded(n: int):
    for seed in range(60 if n == 2 else 30):
        yield seed, parse_game(random_game_text(seed, n, comps=False, shaped=seed % 3 == 0))


def _games(n: int):
    for seed, game in _seeded(n):
        rng = random.Random(seed)
        for g in [game] + [restrict(game, _restriction(rng, n)) for _ in range(2)]:
            yield g
            yield from (_solo(g, i) for i in range(n))


def _maximal_at(game, x) -> bool:
    return all(eval_value(game, corr, x).is_empty for corr in game.prefs)


def _inside(boxes, x) -> bool:
    return any(all(t in f for f, t in zip(box, x)) for box in boxes)


def _boxes_or_refusal(game):
    try:
        return maximal_elements(game).boxes
    except GameError as exc:
        # a region that some product cell of constants and gaps only
        # partly meets is not a finite union of boxes
        assert NOT_BOXES in str(exc)
        return None


@pytest.mark.parametrize("n, checked, refused", [(2, 518, 22), (3, 321, 39)])
def test_maximal_region_matches_direct_evaluation(n, checked, refused):
    counts = [0, 0]
    for game in _games(n):
        boxes = _boxes_or_refusal(game)
        # the boxes are canonical: cutting pieces at a new constant keeps them
        assert _boxes_or_refusal(_split(game)) == boxes, game.name
        if boxes is None:
            counts[1] += 1
            continue
        counts[0] += 1
        for x in _probes(game):
            assert _inside(boxes, x) == _maximal_at(game, x), (game.name, x)
    assert counts == [checked, refused]


def test_preservation_matches_the_restricted_game():
    outcomes = set()
    for seed, game in _seeded(2):
        rng = random.Random(seed)
        limits = [star_reduce(game, op).final for op in Operator]
        for h in dict.fromkeys(limits + [_restriction(rng, 2) for _ in range(2)]):
            small = restrict(game, h)
            try:
                report = check_preservation(game, h)
            except GameError as exc:
                assert NOT_BOXES in str(exc)
                assert _boxes_or_refusal(game) is None or _boxes_or_refusal(small) is None
                outcomes.add("refused")
                continue
            assert report.original.boxes == maximal_elements(game).boxes
            assert report.reduced.boxes == maximal_elements(small).boxes

            def reduced_at(x) -> bool:
                return all(t in f for t, f in zip(x, h)) and _maximal_at(small, x)

            agree = True
            for x in _probes(game, [e for f in h for e in f.endpoints()]):
                here, there = _maximal_at(game, x), reduced_at(x)
                assert _inside(report.original.boxes, x) == here, (game.name, x)
                assert _inside(report.reduced.boxes, x) == there, (game.name, h, x)
                agree = agree and here == there
            assert report.equal == agree, (game.name, h)
            if not agree:
                w = report.witness
                assert _maximal_at(game, w) != reduced_at(w), (game.name, h, w)
            outcomes.add(report.equal)
    assert outcomes == {True, False, "refused"}
