"""Continuum dominator sets against their definition.

y is in D_i(x, h) iff y is in P_i(x_i = x, z) for every opponent profile z
in h_-i. For fixed x and y, that truth is constant on each part (a point
or an open gap) of every opponent factor cut at the game's cut points, at
h's ends and at x and y: a piece cell, a clip or a value end compares z_j
only with those. So one eval_value per product of parts decides it,
through the rational path alone, with no rank record. Cutting at every
probed x and y at once decides them all with one intersection per x.

x and y are probed at the cut points and at 1/1000, 1/2 and 999/1000 of
each gap, six x per player and pairing, and every y (six at three
players). The games are seeded two- and three-player games, the same
games with their comparison maps read as preference maps (more value
ends that name an opponent, the only ends the engine's sup and inf
rounding touches), and restricted copies, whose maps carry clips. The
pairings are the full one, seeded restrictions, and each open gap
between cut points on every axis, where no opponent's sup or inf is
attained. A rounding of top + lc and bot + hc in place of the engine's
fails here.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction as F
from functools import reduce

import pytest

from qualred.dsl import parse_game
from qualred.engine import dominator_set, full_pairing, restrict
from qualred.games import _global_breakpoints, eval_value
from qualred.intervals import IntervalSet
from test_cell_scan import random_game_text
from test_maximal_regions import _restriction

GAP = (F(1, 1000), F(1, 2), F(999, 1000))


def _probes(cuts: list[F], carrier) -> list[F]:
    """The cut points and three points of each gap, inside the carrier."""
    out = list(cuts) + [a + (b - a) * s for a, b in zip(cuts, cuts[1:]) for s in GAP]
    return sorted(t for t in out if t in carrier)


def _by_definition(game, h, i: int, xs: list[F], ys: list[F]):
    """Per x, whether each y beats x against every opponent profile in h."""
    cuts = [*_global_breakpoints(game), *xs, *ys, *(e for f in h for e in f.endpoints())]
    parts = [[t for *_, t in f.split(cuts)] for f in h]
    for x in xs:
        parts[i] = [x]
        values = (eval_value(game, game.prefs[i], z) for z in itertools.product(*parts))
        d = reduce(IntervalSet.intersect, values, game.carrier(i))
        yield [y in d for y in ys]


def _cases(n: int):
    """Seeded games, the same with their comparison maps as preference
    maps, and a restricted copy, each with its pairings: the full one,
    seeded restrictions, and for each gap of its cut points, the gap,
    open, on every axis, so that no opponent's sup or inf is attained."""
    for seed in range(8 if n == 2 else 3):
        game = parse_game(random_game_text(seed, n, comps=True, shaped=seed % 3 == 0))
        rng = random.Random(100 + seed)
        for g in (game, replace(game, prefs=game.comps), restrict(game, _restriction(rng, n))):
            full, cuts = full_pairing(g), _global_breakpoints(g)
            seeded = (_restriction(rng, n) for _ in range(2))
            pairings = [full] + [tuple(map(IntervalSet.intersect, r, full)) for r in seeded]
            gaps = (IntervalSet.interval(a, b, False, False) for a, b in zip(cuts, cuts[1:]))
            yield g, rng, pairings + [tuple(f & gap for f in full) for gap in gaps]


@pytest.mark.parametrize("n", [2, 3])
def test_dominator_sets_match_the_definition(n):
    for game, rng, pairings in _cases(n):
        for h in pairings:
            cuts = sorted({*_global_breakpoints(game), *(e for f in h for e in f.endpoints())})
            for i in range(n):
                probes = _probes(cuts, game.carrier(i))
                xs = rng.sample(probes, min(6, len(probes)))
                # each opponent axis is cut at every y, so three players sample them
                ys = probes if n == 2 else rng.sample(probes, min(6, len(probes)))
                for x, want in zip(xs, _by_definition(game, h, i, xs, ys)):
                    d = dominator_set(game, h, i, x).strategies
                    assert [y in d for y in ys] == want, (game.name, h, i, x)
