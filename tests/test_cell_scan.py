"""Continuum checks against a direct evaluation on seeded piecewise games.

Every `fails` witness must fail when its profile is evaluated directly with
eval_value, and a `holds` verdict must survive a seeded batch of random
probes whose coordinates often sit on the game's constants or on each
other, where the verdicts of these checks change.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from qualred.analysis import check_hypotheses
from qualred.dsl import parse_game
from qualred.engine import full_pairing, restrict
from qualred.games import _global_breakpoints, _scan, eval_value
from qualred.intervals import IntervalSet

INTERIOR = [F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)]
FULL = IntervalSet.interval(0, 1)
# smaller than any gap between distinct coordinates a probe or witness uses
DELTA = F(1, 10**9)
PROBES = 100


def _segments(rng: random.Random, pool: list[F]) -> list[IntervalSet]:
    """A tiling of [0, 1]: each cut joins its left part, its right part, or
    stands alone as a point."""
    inner = pool[1:-1]
    cuts = sorted(rng.sample(inner, rng.randint(1, min(2, len(inner)))))
    out = []
    lo, lo_closed = F(0), True
    for c in cuts:
        side = rng.randrange(3)
        out.append(IntervalSet.interval(lo, c, lo_closed, side == 0))
        if side == 2:
            out.append(IntervalSet.point(c))
        lo, lo_closed = c, side == 1
    out.append(IntervalSet.interval(lo, 1, lo_closed, True))
    return out


# Shaped games draw every value of a game from one of these (pref, comp)
# form lists; none of the pref forms contains the own coordinate.
SHAPES = [
    (
        ["empty", "(x{own}, 1]", "(x{own}, {c}]", "{top}"],
        ["[x{own}, 1]", "[0, 1]", "[x{own}, x{own}]"],
    ),
    (["empty", "{top}"], ["[0, 1]", "[x{own}, 1]"]),
    (["empty", "(x{own}, 1]"], ["[x{own}, 1]"]),
]


def _value(rng, kw: str, n: int, own: int, cell, pool: list[F], shape) -> str:
    if shape is not None:
        # {top}: from the sup of the cell's own factor up, when that sup is
        # not attained, so not even the closure holds the own coordinate
        top, attained = cell[own - 1].sup()
        form = rng.choice(shape[kw == "comp"])
        return form.format(
            own=own,
            c=rng.choice(pool),
            top="empty" if attained else f"[{top}, 1]",
        )
    if rng.random() < 0.2:
        return "empty"

    def end() -> str:
        roll = rng.random()
        if roll < 0.35:
            return f"x{own}"
        if roll < 0.5:
            return f"x{rng.randint(1, n)}"
        return str(rng.choice(pool))

    return f"{rng.choice('[(')}{end()}, {end()}{rng.choice('])')}"


def random_game_text(seed: int, n: int, comps: bool, shaped: bool) -> str:
    """A seeded piecewise game on [0, 1]^n whose cells tile by construction.

    Shaped games draw values from a few forms under which hypotheses often
    hold; the others draw both endpoints freely from constants and
    coordinates, with open and closed ends mixed.
    """
    rng = random.Random(seed)
    shape = rng.choice(SHAPES) if shaped else None
    pool = [F(0)] + sorted(rng.sample(INTERIOR, 3 if n == 2 else 1)) + [F(1)]
    rows = [f'game "random-{n}p-{seed}"']
    rows += [f"space {j} = interval [0,1]" for j in range(1, n + 1)]
    for kw in ("pref", "comp") if comps else ("pref",):
        for own in range(1, n + 1):
            split = rng.sample(range(n), rng.randint(1, 2))
            axes = [_segments(rng, pool) if j in split else [FULL] for j in range(n)]
            rows.append(f"{kw} {own} piecewise:")
            for cell in itertools.product(*axes):
                atoms = [
                    f"x{j + 1} in {f.render()}"
                    for j, f in enumerate(cell)
                    if f != FULL
                ]
                value = _value(rng, kw, n, own, cell, pool, shape)
                rows.append(f"  when {' and '.join(atoms)}: {value}")
    return "\n".join(rows) + "\n"


def _with(x, i, y):
    return x[:i] + (y,) + x[i + 1 :]


def violates(game, name: str, i: int, x, y=None) -> bool:
    """Whether (player i, profile x, strategy y) breaks the hypothesis."""
    p = eval_value(game, game.prefs[i], x)
    if name == "irreflexive":
        return p.contains(x[i])
    if name == "strong-irreflexive":
        return p.closure().contains(x[i])
    if name == "propertyT-single":
        return p.contains(y) and not eval_value(
            game, game.prefs[i], _with(x, i, y)
        ).closure().is_subset(p)
    if name == "open-lower-sections":
        if not p.contains(y):
            return False
        for step in itertools.product((-DELTA, 0, DELTA), repeat=game.n):
            near = tuple(a + d for a, d in zip(x, step))
            if all(FULL.contains(a) for a in near) and not eval_value(
                game, game.prefs[i], near
            ).contains(y):
                return True
        return False
    q = eval_value(game, game.comps[i], x)
    if name == "q-reflexive":
        return not q.contains(x[i])
    if name == "q-closed-convex":
        return not q.is_empty and (len(q.parts) > 1 or q.closure() != q)
    if name == "propertyT-pair":
        if y == "P-not-in-Q":
            return not p.is_subset(q)
        return p.contains(y) and not eval_value(
            game, game.comps[i], _with(x, i, y)
        ).is_subset(p)
    raise AssertionError(name)


def _coord(rng: random.Random, taken: list[F]) -> F:
    """A constant, an earlier coordinate, a point just beside one (so in the
    same gap between constants, most of the time) or a point anywhere."""
    roll = rng.random()
    if roll < 0.35:
        return rng.choice(INTERIOR + [F(0), F(1)])
    if roll < 0.5 and taken:
        return rng.choice(taken)
    if roll < 0.8 and taken:
        near = rng.choice(taken) + F(rng.randint(-99, 99), 10000)
        return min(max(near, F(0)), F(1))
    return F(rng.randint(1, 9999), 10000)


def _probe(rng: random.Random, game, name: str) -> tuple:
    """Player, profile and strategy; the strategy is mostly drawn from the
    player's preferred set, where the checks that take one can fail."""
    taken: list[F] = []
    for _ in range(game.n + 1):
        taken.append(_coord(rng, taken))
    rng.shuffle(taken)
    i = rng.randrange(game.n)
    y = taken.pop()
    x = tuple(taken)
    p = eval_value(game, game.prefs[i], x)
    if not p.is_empty and rng.random() < 0.8:
        part = rng.choice(p.parts)
        lo, hi = part.lo.value, part.hi.value
        y = rng.choice([lo, hi, (lo + hi) / 2, lo + (hi - lo) / 1000, hi - (hi - lo) / 1000])
        if not part.contains(y):
            y = (lo + hi) / 2
    if name == "propertyT-pair" and rng.random() < 0.3:
        y = "P-not-in-Q"
    return i, x, y


GAMES = [
    (seed, n, seed % 2 == 0, seed % 4 < 2) for n in (2, 3) for seed in range(1, 15)
]


@pytest.mark.parametrize("seed,n,comps,shaped", GAMES)
def test_verdicts_agree_with_direct_evaluation(seed, n, comps, shaped):
    game = parse_game(random_game_text(seed, n, comps, shaped))
    rng = random.Random(seed)
    for name, verdict in check_hypotheses(game).items():
        if verdict.status == "not-checkable":
            continue
        if verdict.status == "fails":
            i, *rest = verdict.witness
            if name == "open-lower-sections":
                y, x = rest
            else:
                x, y = rest[0], (rest[1] if len(rest) > 1 else None)
            assert violates(game, name, i - 1, x, y), (name, verdict.witness)
            continue
        assert verdict.status == "holds"
        for _ in range(PROBES):
            i, x, y = _probe(rng, game, name)
            assert not violates(game, name, i, x, y), (name, i + 1, x, y)


def brute_order_cells(game, players) -> list[tuple]:
    """The points of the full option grid (every constant, and n + 1 evenly
    spaced points in each gap between constants) whose positions in each
    gap are exactly 1..R, in lexicographic order."""
    points = _global_breakpoints(game)
    slots = game.n + 1
    axes = []
    for j in players:
        carrier = game.carrier(j)
        options = [(p, -1, 0) for p in points if carrier.contains(p)]
        for g, (a, b) in enumerate(zip(points, points[1:])):
            if carrier.contains((a + b) / 2):
                options += [(a + (b - a) * F(k, slots + 1), g, k) for k in range(1, slots + 1)]
        axes.append(sorted(options))
    out = []
    for combo in itertools.product(*axes):
        used: dict[int, set[int]] = {}
        for _, g, k in combo:
            if g >= 0:
                used.setdefault(g, set()).add(k)
        if all(ks == set(range(1, max(ks) + 1)) for ks in used.values()):
            out.append(tuple(value for value, _, _ in combo))
    return out


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n", [2, 3])
def test_order_cells_are_the_least_grid_points(seed, n):
    game = parse_game(random_game_text(seed, n, comps=seed % 2 == 0, shaped=seed % 3 == 0))
    # a restricted copy has a carrier strictly inside [0, 1]
    h = (IntervalSet.interval(F(1, 5), F(4, 5), True, False),) + full_pairing(game)[1:]
    for g in (game, restrict(game, h)):
        orders = [list(range(n))]
        if n == 2:
            orders += [[0, 1, 0], [0, 1, 1]]
        ranks = _scan(g)
        for players in orders:
            cells = map(ranks.profile, ranks.cells(players))
            assert list(cells) == brute_order_cells(g, players), players
