"""The maximal-reduction oracle against a walk over frozenset pairings.

enumerate_maximal_reductions walks pairings held as int masks and reads
dominator masks from the compiled tables. The reference below is the
plain walk: every pairing is a tuple of frozensets, each move a lone
removal validated by path_step, and condition D is re-checked at every
pairing with check_condition_D. Both must agree on the maximal pairings
(in order), the number of pairings visited and condition_D_everywhere.
"""

from fractions import Fraction as F

import pytest

from qualred.analysis import check_condition_D
from qualred.dsl import parse_game
from qualred.engine import Operator, eliminated_region, full_pairing
from qualred.lab import GeneratorConfig, discretize, enumerate_maximal_reductions, generate_game
from qualred.reduction import InvalidRemoval, path_step, star_reduce

from conftest import fx1_style_text

SHAPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 2)]
SEEDS = range(40)


def reference_walk(game, op, track_condition_D):
    order = [{s: k for k, s in enumerate(game.labels(i))} for i in range(game.n)]
    seen = set()
    found = {}
    d_holds = True

    def visit(h):
        nonlocal d_holds
        if h in seen:
            return
        seen.add(h)
        if track_condition_D and check_condition_D(game, h).status != "holds":
            d_holds = False
        progressed = False
        for i in range(game.n):
            for y in sorted(eliminated_region(game, h, i, op), key=order[i].__getitem__):
                try:
                    post, _, _ = path_step(game, h, op, {i: frozenset({y})})
                except InvalidRemoval:
                    continue
                progressed = True
                visit(post)
        if not progressed:
            key = tuple(
                tuple(sorted(f, key=order[i].__getitem__)) for i, f in enumerate(h)
            )
            found[key] = h

    visit(full_pairing(game))
    return [found[k] for k in sorted(found)], len(seen), d_holds


def assert_walks_agree(game, op, track):
    got = enumerate_maximal_reductions(game, op, bound=10**6, track_condition_D=track)
    want = reference_walk(game, op, track)
    assert (got.pairings, got.visited, got.condition_D_everywhere) == want, (
        game.name,
        op,
        track,
    )
    return got


@pytest.mark.parametrize("sizes", SHAPES)
@pytest.mark.parametrize("mode", ["raw", "utility"])
def test_walk_matches_reference(mode, sizes):
    dependent = 0
    for seed in SEEDS:
        g = generate_game(
            GeneratorConfig(players=len(sizes), sizes=sizes, seed=seed, mode=mode)
        )
        for op in Operator:
            for track in (False, True):
                dependent += assert_walks_agree(g, op, track).order_dependent
    if mode == "raw":
        # order-dependent limits are part of what is compared
        assert dependent > 0


def test_order_dependence_is_pinned():
    count = 0
    for seed in SEEDS:
        g = generate_game(GeneratorConfig(sizes=(2, 3), seed=seed, mode="raw"))
        enum = assert_walks_agree(g, Operator.DOUBLE, True)
        count += enum.order_dependent
        if enum.order_dependent:
            assert not enum.condition_D_everywhere
    assert count == 8


SELF_DOMINATED = """\
game "self-dominated"
space 1 = finite {a, b}
space 2 = finite {c}
pref 1 table:
  at a,c: {a}
  at b,c: {}
pref 2 table:
  at a,c: {}
  at b,c: {}
"""


def test_lone_double_removal_needs_another_dominator():
    # a is dominated only by itself: a fast DOUBLE step removes it, a lone
    # removal of a does not pass path_step, so the walk cannot make it
    g = parse_game(SELF_DOMINATED)
    assert star_reduce(g, Operator.DOUBLE).final == (frozenset("b"), frozenset("c"))
    for track in (False, True):
        enum = assert_walks_agree(g, Operator.DOUBLE, track)
        assert enum.pairings == [(frozenset("ab"), frozenset("c"))]
        assert enum.visited == 1
        enum = assert_walks_agree(g, Operator.ARROW, track)
        assert enum.pairings == [(frozenset("b"), frozenset("c"))]
        assert enum.visited == 2


EMPTIED = """\
game "emptied"
space 1 = finite {a, b}
space 2 = finite {c, d}
pref 1 table:
  at a,c: {b}
  at a,d: {b}
  at b,c: {a}
  at b,d: {a}
pref 2 table:
  at a,c: {d}
  at a,d: {}
  at b,c: {d}
  at b,d: {}
"""


@pytest.mark.parametrize("op", [Operator.ARROW, Operator.TAIL])
def test_walk_through_an_empty_factor(op):
    # a and b each beat the other, so ARROW and TAIL can remove both; player
    # 2 then faces an empty factor and keeps c, which d beats
    g = parse_game(EMPTIED)
    for track in (False, True):
        enum = assert_walks_agree(g, op, track)
        assert (frozenset(), frozenset("cd")) in enum.pairings
        # at ({b}, {c, d}) the only dominator of b is gone
        assert enum.condition_D_everywhere is not track


SOLO = """\
game "solo"
space 1 = finite {a, b, c}
pref 1 table:
  at a: {b, c}
  at b: {c}
  at c: {}
"""


@pytest.mark.parametrize("oracle_first", [False, True])
def test_one_player_game_shares_its_tables(oracle_first):
    # with no opponents, the region queries and the walk both key their
    # masks by the empty tuple; neither may read the other's entries
    g = parse_game(SOLO)
    final = (frozenset("c"),)
    if oracle_first:
        enum = assert_walks_agree(g, Operator.DOUBLE, True)
        assert star_reduce(g, Operator.DOUBLE).final == final
    else:
        assert star_reduce(g, Operator.DOUBLE).final == final
        enum = assert_walks_agree(g, Operator.DOUBLE, True)
    assert enum.pairings == [final]
    assert enum.condition_D_everywhere


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_visited_counts_every_reachable_pairing(n, k):
    # fx1 on an axis of k points: each player may drop any subset of the
    # k - 1 points below 1, in any order, so 2^(n(k-1)) pairings are reached
    snap = discretize(parse_game(fx1_style_text(n, 1)), F(1, k - 1))
    assert all(len(snap.labels(i)) == k for i in range(n))
    enum = enumerate_maximal_reductions(snap, Operator.DOUBLE, bound=k**n, track_condition_D=True)
    assert enum.visited == 2 ** (n * (k - 1))
    assert enum.pairings == [(frozenset({"1"}),) * n]
    assert enum.condition_D_everywhere


ORDER_SHAPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 2), (3, 3, 2)]


def test_arrow_and_tail_are_order_independent():
    """The three facts proved in enumerate_maximal_reductions' docstring,
    on 2,100 seeded raw games: no two reachable maximal pairings are both
    nonvacuous; a nonvacuous fast limit is the only maximal pairing; after
    a vacuous fast limit every reachable maximal pairing is vacuous."""
    vacuous = several = 0
    for sizes in ORDER_SHAPES:
        for seed in range(350):
            config = GeneratorConfig(players=len(sizes), sizes=sizes, seed=seed, mode="raw")
            g = generate_game(config)
            for op in (Operator.ARROW, Operator.TAIL):
                limit = star_reduce(g, op).final
                found = enumerate_maximal_reductions(g, op, bound=18).pairings
                live = [h for h in found if all(h)]
                assert len(live) <= 1, (g.name, op)
                if all(limit):
                    assert found == [limit], (g.name, op)
                else:
                    assert not live, (g.name, op)
                vacuous += not all(limit)
                several += len(found) > 1
    # both kinds of limit, and walks that end in several pairings, occur
    assert vacuous and several
