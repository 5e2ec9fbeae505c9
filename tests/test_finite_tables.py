"""Compiled finite tables and finite maximal elements against eval_value.

The scan record compiles each finite preference table into per-player int masks
in one pass over the profiles, gathering each own strategy's column by
stride, and finite maximal_elements reads those masks in product order.
These tests rebuild every column and every maximal list here from
eval_value alone: on parsed tables whose rows are listed out of product
order, on one-player games, on seeded raw and utility games, on their
restrictions (one of them to a pairing with an empty factor) and on
snapshots of continuum games.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from qualred.analysis import check_preservation, maximal_elements
from qualred.dsl import parse_game
from qualred.engine import Operator, restrict
from qualred.games import GameError, _scan, eval_value
from qualred.lab import GeneratorConfig, discretize, generate_game
from qualred.reduction import star_reduce

SHAPES = [(2, 2), (3, 3), (2, 2, 2), (3, 2, 2)]

# rows listed in reverse product order
SHUFFLED = """\
game "shuffled"
space 1 = finite {a, b}
space 2 = finite {c, d, e}
pref 1 table:
  at b,e: {a}
  at b,d: {}
  at b,c: {a}
  at a,e: {}
  at a,d: {b}
  at a,c: {}
pref 2 table:
  at b,e: {c, d}
  at b,d: {c}
  at b,c: {}
  at a,e: {}
  at a,d: {e}
  at a,c: {d, e}
"""

SOLO = """\
game "solo"
space 1 = finite {a, b, c}
pref 1 table:
  at a: {b, c}
  at c: {}
  at b: {c}
"""


def ref_cols(game, i) -> list[list[int]]:
    """cols[k][o]: P_i at own label k and opponent profile o (product
    order), as a mask over game.labels(i), read with eval_value."""
    labels = game.labels(i)
    opponents = [game.labels(j) for j in range(game.n) if j != i]

    def mask(x, o) -> int:
        value = eval_value(game, game.prefs[i], o[:i] + (x,) + o[i:])
        return sum(1 << labels.index(s) for s in value)

    return [[mask(x, o) for o in itertools.product(*opponents)] for x in labels]


def ref_maximal(game) -> list[tuple]:
    """Profiles in product order at which every P_i is empty."""
    return [
        x
        for x in itertools.product(*(game.labels(i) for i in range(game.n)))
        if all(not eval_value(game, game.prefs[i], x) for i in range(game.n))
    ]


def assert_compiled(game):
    for i in range(game.n):
        assert _scan(game).rows[i].cols == ref_cols(game, i), (game.name, i)
    assert maximal_elements(game).profiles == ref_maximal(game), game.name


def _restrictions(game, rng: random.Random):
    """A random nonempty restriction, and one with player 1's factor empty."""
    keep = tuple(
        frozenset(rng.sample(game.labels(i), rng.randint(1, len(game.labels(i)))))
        for i in range(game.n)
    )
    yield restrict(game, keep)
    yield restrict(game, (frozenset(),) + keep[1:])


def _finite_games(seed: int, sizes: tuple[int, ...]):
    rng = random.Random(seed)
    for mode in ("raw", "utility"):
        game = generate_game(
            GeneratorConfig(players=len(sizes), sizes=sizes, seed=seed, mode=mode)
        )
        yield game
        yield from _restrictions(game, rng)


@pytest.mark.parametrize("text", [SHUFFLED, SOLO])
def test_rows_out_of_product_order(text):
    game = parse_game(text)
    assert list(game.prefs[0].table) != list(game.profiles())
    assert_compiled(game)


def test_restriction_with_an_empty_factor():
    game = parse_game(SHUFFLED)
    for j in range(game.n):
        keep = tuple(frozenset() if i == j else frozenset(game.labels(i)) for i in range(game.n))
        small = restrict(game, keep)
        assert not list(small.profiles())
        assert_compiled(small)
        for i in range(small.n):
            assert _scan(small).rows[i].cols == [[]] * len(small.labels(i))


def test_missing_row_message_is_unchanged():
    game = parse_game(SHUFFLED)
    del game.prefs[1].table[("a", "d")]
    with pytest.raises(GameError) as want:
        eval_value(game, game.prefs[1], ("a", "d"))
    with pytest.raises(GameError) as got:
        _scan(game).rows[1]
    assert str(got.value) == str(want.value) == "no table row for profile ('a', 'd')"


@pytest.mark.parametrize("sizes", SHAPES)
@pytest.mark.parametrize("seed", range(5))
def test_seeded_games_and_restrictions(seed, sizes):
    for game in _finite_games(seed, sizes):
        assert_compiled(game)


@pytest.mark.parametrize("sizes", SHAPES)
@pytest.mark.parametrize("seed", range(5))
def test_preservation_reads_the_same_maximal_lists(seed, sizes):
    rng = random.Random(seed)
    for game in _finite_games(seed, sizes):
        final = star_reduce(game, Operator.DOUBLE).final
        # a pairing may name a label outside the game, which restrict drops
        stray = tuple(
            frozenset(s for s in game.labels(i) if rng.random() < 0.6) | {"zz"}
            for i in range(game.n)
        )
        for h in (final, stray):
            report = check_preservation(game, h)
            original, reduced = ref_maximal(game), ref_maximal(restrict(game, h))
            assert report.original.profiles == original
            assert report.reduced.profiles == reduced
            assert report.equal == (set(original) == set(reduced))
            witness = None if report.equal else min(set(original) ^ set(reduced))
            assert report.witness == witness


@pytest.mark.parametrize(
    "name, step", [("fx1.qg", F(1, 4)), ("fx4.qg", F(1, 2)), ("fx5-derived.qg", F(1, 4))]
)
def test_snapshots(load_game, name, step):
    snap = discretize(load_game(name), step)
    assert_compiled(snap)
    rng = random.Random(name)
    for small in _restrictions(snap, rng):
        assert_compiled(small)
    final = star_reduce(snap, Operator.DOUBLE).final
    report = check_preservation(snap, final)
    assert report.reduced.profiles == ref_maximal(restrict(snap, final))
