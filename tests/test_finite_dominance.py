"""Finite dominance against a plain per-profile intersection.

The engine answers finite dominance queries from int masks compiled once
per table and memoised per opponent factors. These tests recompute every
answer here from the preference tables alone, on seeded raw games with two
and three players, along shrinking pairings (the memo key changes), at
pairings with an empty opponent factor, and on restricted games, which
carry tables of their own.
"""

import itertools
import random

import pytest

from qualred.analysis import (
    check_condition_C,
    check_condition_D,
    find_undominated_dominator,
)
from qualred.engine import Operator, dominator_set, eliminated_region, restrict
from qualred.lab import GeneratorConfig, generate_game

SHAPES = [(2, 3), (4, 4), (3, 2, 2), (2, 3, 2)]


def _game(seed: int, sizes: tuple[int, ...]):
    return generate_game(
        GeneratorConfig(players=len(sizes), sizes=sizes, seed=seed, mode="raw")
    )


def ref_dominators(game, h, i, x) -> frozenset:
    """Intersection of P_i(x, o) over every opponent profile o in h."""
    out = frozenset(game.labels(i))
    opponents = [sorted(h[j]) for j in range(game.n) if j != i]
    for o in itertools.product(*opponents):
        out &= game.prefs[i].table[o[:i] + (x,) + o[i:]]
    return out


def _opponents_alive(game, h, i) -> bool:
    return all(h[j] for j in range(game.n) if j != i)


def ref_region(game, h, i, op) -> frozenset:
    if not _opponents_alive(game, h, i):
        return frozenset()
    member = h[i] if op is Operator.DOUBLE else frozenset(game.labels(i))
    return frozenset(x for x in h[i] if ref_dominators(game, h, i, x) & member)


def ref_condition(game, h, which: str):
    """Status and witness of condition C or D, scanning players and labels
    in order as the checker does."""
    for i in range(game.n):
        if not _opponents_alive(game, h, i):
            continue
        dom = {x: ref_dominators(game, h, i, x) for x in game.labels(i)}
        undominated = frozenset(x for x, d in dom.items() if not d)
        pool = h[i] if which == "D" else undominated
        for x in game.labels(i):
            if dom[x] and not dom[x] & pool:
                return "fails", (i + 1, x)
    return "holds", None


def ref_undominated_dominator(game, h, i, x):
    d = ref_dominators(game, h, i, x)
    for y in game.labels(i):
        if y in d and y in h[i] and not ref_dominators(game, h, i, y):
            return y
    return None


def assert_kernel_matches(game, h):
    for i in range(game.n):
        for x in game.labels(i):
            want = ref_dominators(game, h, i, x)
            assert dominator_set(game, h, i, x).strategies == want, (h, i, x)
            if want and _opponents_alive(game, h, i):
                found = find_undominated_dominator(game, h, i, x)
                assert found == ref_undominated_dominator(game, h, i, x)
        for op in Operator:
            assert eliminated_region(game, h, i, op) == ref_region(game, h, i, op)
    for which, check in (("C", check_condition_C), ("D", check_condition_D)):
        v = check(game, h)
        assert (v.status, v.witness) == ref_condition(game, h, which), (which, h)


def _shrinking_pairings(game, rng: random.Random):
    """Full pairing, then one random removal at a time down to an empty
    factor, then the full pairing again."""
    h = tuple(frozenset(game.labels(i)) for i in range(game.n))
    full = h
    yield h
    while all(h):
        i = rng.randrange(game.n)
        gone = rng.choice(sorted(h[i]))
        h = h[:i] + (h[i] - {gone},) + h[i + 1 :]
        yield h
    yield full


@pytest.mark.parametrize("sizes", SHAPES)
@pytest.mark.parametrize("seed", range(6))
def test_kernel_matches_intersection_along_shrinking_pairings(seed, sizes):
    game = _game(seed, sizes)
    rng = random.Random(seed)
    for h in _shrinking_pairings(game, rng):
        assert_kernel_matches(game, h)


@pytest.mark.parametrize("sizes", SHAPES)
def test_kernel_with_each_opponent_factor_empty(sizes):
    game = _game(11, sizes)
    full = tuple(frozenset(game.labels(i)) for i in range(game.n))
    for j in range(game.n):
        h = full[:j] + (frozenset(),) + full[j + 1 :]
        assert_kernel_matches(game, h)
        for i in range(game.n):
            if i != j:
                # a vacuous condition: every own strategy dominates
                x = game.labels(i)[0]
                assert dominator_set(game, h, i, x).strategies == full[i]


@pytest.mark.parametrize("sizes", SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_restricted_game_answers_from_its_own_tables(seed, sizes):
    game = _game(seed, sizes)
    rng = random.Random(100 + seed)
    full = tuple(frozenset(game.labels(i)) for i in range(game.n))
    # query the parent first so its tables are compiled and memoised
    assert_kernel_matches(game, full)
    keep = tuple(
        frozenset(rng.sample(game.labels(i), max(1, len(game.labels(i)) - 1)))
        for i in range(game.n)
    )
    small = restrict(game, keep)
    small_full = tuple(frozenset(small.labels(i)) for i in range(small.n))
    for h in (small_full, *itertools.islice(_shrinking_pairings(small, rng), 1, 4)):
        assert_kernel_matches(small, h)
    # the parent still answers from its own tables at the same pairing
    assert_kernel_matches(game, keep)
