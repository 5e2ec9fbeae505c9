"""eval_value on the piece index against a linear scan of the pieces.

The reference here takes the first piece whose cell holds the profile and
evaluates it with piece_value, as eval_value did before maps were compiled.
Locating a profile depends only on where each coordinate sits among the
endpoints of the map's cell factors on its axis, so on every axis those
endpoints and the carrier's, every midpoint between consecutive ones and a
point outside the carrier probe a map completely. Restricted copies carry clips and cells
cut to the surviving sets; a map whose first piece shadows others checks
that the lowest covering piece wins.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from qualred.dsl import parse_game
from qualred.engine import restrict
from qualred.games import EMPTY_VALUE, Cell, GameError, Piece, eval_value, piece_value
from qualred.intervals import IntervalSet
from test_cell_scan import random_game_text
from test_discretize import CONTINUUM_FIXTURES
from test_maximal_regions import _restriction


def scan_value(corr, profile):
    for piece in corr.pieces:
        if all(x in f for f, x in zip(piece.cell.factors, profile)):
            return piece_value(corr, piece, profile)
    raise GameError(f"profile {tuple(str(v) for v in profile)} not covered by any piece")


def _probe_axes(game, corr) -> list[list[F]]:
    axes = []
    for j in range(game.n):
        carrier = game.carrier(j)
        ends = {e for piece in corr.pieces for e in piece.cell.factors[j].endpoints()}
        cuts = sorted(ends.union(carrier.endpoints()))
        mids = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
        axes.append(sorted(cuts + mids) + [carrier.sup()[0] + 1])
    return axes


def assert_matches_scan(game) -> int:
    """Compare eval_value with the scan at every probe; the count of
    profiles no piece covers."""
    uncovered = 0
    for corr in list(game.prefs) + list(game.comps or ()):
        for x in itertools.product(*_probe_axes(game, corr)):
            try:
                want = scan_value(corr, x)
            except GameError as exc:
                uncovered += 1
                with pytest.raises(GameError) as got:
                    eval_value(game, corr, x)
                assert str(got.value) == str(exc)
                continue
            assert eval_value(game, corr, x) == want, (game.name, corr.player, x)
    return uncovered


def _games(n: int):
    for seed in range(30):
        game = parse_game(
            random_game_text(seed, n, comps=seed % 2 == 0, shaped=seed % 3 == 0)
        )
        rng = random.Random(seed)
        yield game
        yield from (restrict(game, _restriction(rng, n)) for _ in range(2))


@pytest.mark.parametrize("name", CONTINUUM_FIXTURES)
def test_fixtures_match_scan(load_game, name):
    assert assert_matches_scan(load_game(name))


@pytest.mark.parametrize("n", [2, 3])
def test_random_games_match_scan(n):
    for game in _games(n):
        # the point outside the carrier is never covered
        assert assert_matches_scan(game)


def test_lowest_covering_piece_wins(load_game):
    game = load_game("fx1.qg")
    cover = Piece(Cell((IntervalSet.interval(0, F(1, 2)), game.carrier(1))), EMPTY_VALUE)
    shadowed = replace(game.prefs[0], pieces=(cover, *game.prefs[0].pieces))
    broken = replace(game, prefs=(shadowed, game.prefs[1]))
    assert assert_matches_scan(broken)
    assert eval_value(broken, shadowed, (F(1, 4), F(0))) == IntervalSet.empty()
    assert eval_value(broken, shadowed, (F(3, 4), F(0))) == IntervalSet.interval(
        F(3, 4), 1, False, True
    )


def test_uncovered_profile_raises(load_game):
    game = load_game("fx1.qg")
    pruned = replace(game.prefs[0], pieces=game.prefs[0].pieces[:1])
    with pytest.raises(GameError) as caught:
        eval_value(game, pruned, (F(1), F(0)))
    # rendered like validate_piecewise's profiles, not as Fraction reprs
    assert str(caught.value) == "profile ('1', '0') not covered by any piece"
    assert eval_value(game, pruned, (F(0), F(1))) == IntervalSet.interval(0, 1, False)
