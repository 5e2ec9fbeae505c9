"""Continuum dominance regions against dominator_set on seeded games.

A region is decided by one test per cut point and per open gap between
consecutive cut points. Here every region is compared with dominator_set
evaluated directly at each constant of the game and of the pairing, and at
the points one third and two thirds along each gap between them. The
games are seeded piecewise games at their full pairing, at seeded
restrictions of it, and restricted copies of them, whose maps carry a clip.
"""

import random

import pytest

from qualred.dsl import parse_game
from qualred.engine import (
    Operator,
    _region_where,
    dominator_set,
    eliminated_region,
    full_pairing,
    restrict,
)
from qualred.intervals import IntervalSet
from test_cell_scan import random_game_text
from test_maximal_regions import _constants, _restriction


def _cases(n: int):
    for seed in range(10 if n == 2 else 5):
        game = parse_game(random_game_text(seed, n, comps=False, shaped=seed % 3 == 0))
        rng = random.Random(seed)
        yield game, full_pairing(game)
        for _ in range(2):
            h = _restriction(rng, n)
            yield game, h
            small = restrict(game, h)
            yield small, full_pairing(small)


def _regions(game, h, i: int):
    """(region, domain, member, exclude_self) for every way the operators,
    scripted double steps and conditions C and D ask for a region."""
    carrier = game.carrier(i)
    dominated = _region_where(game, h, i, domain=carrier)
    out = [(dominated, carrier, carrier, False)]
    for op in Operator:
        member = h[i] if op is Operator.DOUBLE else carrier
        out.append((eliminated_region(game, h, i, op), h[i], member, False))
    for domain, member, exclude_self in [
        (h[i], h[i], True),  # a scripted double step
        (carrier, h[i], False),  # condition D
        (carrier, carrier - dominated, False),  # condition C
    ]:
        region = _region_where(game, h, i, domain, member, exclude_self)
        out.append((region, domain, member, exclude_self))
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_regions_match_dominator_sets(n):
    for game, h in _cases(n):
        cuts = sorted(set(_constants(game)).union(*(f.endpoints() for f in h)))
        probes = cuts + [a + (b - a) * k / 3 for a, b in zip(cuts, cuts[1:]) for k in (1, 2)]
        for i in range(n):
            regions = _regions(game, h, i)
            for t in filter(game.carrier(i).contains, probes):
                d = dominator_set(game, h, i, t).strategies
                for region, domain, member, exclude_self in regions:
                    beat = d & member
                    if exclude_self:
                        beat = beat - IntervalSet.point(t)
                    want = t in domain and bool(beat)
                    assert (t in region) == want, (game.name, h, i + 1, t, member)
