"""Dominance machinery: dominator sets, elimination regions, restrictions.

A pairing assigns each player a subset of their strategy space (labels for
finite games, an interval set otherwise). The dominator set of a strategy
x for player i, taken at a pairing H, is the intersection over all
opponent profiles in H of the preferred sets P_i(x, .); its members beat x
against everything the opponents might still play.

Both read the record the checks scan (``games._scan``): finite games
their tables compiled to masks (``games._FiniteRows``), continuum games
their rank record (``games._Ranks``).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from typing import Union

from .games import (
    Cell,
    ContinuumSpace,
    FiniteSpace,
    FiniteTable,
    Game,
    GameError,
    Piece,
    PiecewiseMap,
    UtilityTable,
    _ranks,
    _scan,
)
from .intervals import IntervalSet

Factor = Union[frozenset, IntervalSet]
Pairing = tuple[Factor, ...]


class Operator(Enum):
    """The three elimination conditions for a strategy x of player i at H.

    ARROW   dominator set over current opponents is nonempty
    DOUBLE  dominator set additionally meets the player's own current set
    TAIL    same condition as ARROW; the operators differ along scripted
            paths, where ARROW tests against the opponents before the step
            and TAIL against the opponents after it
    """

    ARROW = "arrow"
    DOUBLE = "double"
    TAIL = "tail"


def full_pairing(game: Game) -> Pairing:
    return tuple(
        frozenset(s.labels) if isinstance(s, FiniteSpace) else s.carrier
        for s in game.spaces
    )


def factor_pick(game: Game, i: int, f: Factor):
    """A member of a nonempty factor: the first in label order for finite
    games, so witnesses do not depend on set iteration order."""
    if isinstance(f, IntervalSet):
        return f.pick()
    return next(s for s in game.labels(i) if s in f)


def render_factor(game: Game, i: int, f: Factor) -> str:
    if isinstance(f, IntervalSet):
        return f.render()
    ordered = [s for s in game.labels(i) if s in f]
    return "{%s}" % ",".join(ordered)


def render_pairing(game: Game, h: Pairing) -> dict[str, str]:
    return {str(i + 1): render_factor(game, i, h[i]) for i in range(game.n)}


@dataclass(frozen=True)
class DominatorSet:
    strategies: Factor


def dominator_set(game: Game, h: Pairing, i: int, x) -> DominatorSet:
    """Strategies of player i beating x against every opponent profile in h.

    An empty opponent factor makes the condition vacuous: the result is the
    full ambient space. Elimination operators guard against that case
    themselves and eliminate nothing. A continuum set is decided at x's
    rank, or at an even rank of x's gap, by ``games._Ranks.dominators``,
    as regions are, in the game's cached record, or in a one-off record,
    not cached, over the ends of h too when some are off its points. A
    strategy outside the player's space raises GameError.
    """
    corr = game.prefs[i]
    if isinstance(corr, FiniteTable):
        if x not in game.labels(i):
            raise GameError(f"strategy {x} is not in player {i + 1}'s space")
        rows = _scan(game).rows[i]
        return DominatorSet(rows.members(rows.dominators(h[:i] + h[i + 1 :])[x]))

    if not game.carrier(i).contains(x):
        raise GameError(f"strategy {x} is not in player {i + 1}'s space")
    if not all(h[j] for j in range(game.n) if j != i):
        return DominatorSet(game.carrier(i))
    ranks, spans = _ranks(game, *h)
    r = ranks.rank.get(x.as_integer_ratio())
    if r is None:  # in an open gap, every even rank of it gives the same set
        r = (bisect_left(ranks.points, x) - 1) * ranks.width + ranks.width // 2
    d = ranks.dominators(i, spans)(r)
    # the own-coordinate ends of d, the only ones at rank r, go back to x
    return DominatorSet(ranks.back(d, lambda t: x if t == r else ranks.coord(t)))


def _region_where(
    game: Game,
    h: Pairing,
    i: int,
    domain: Factor,
    member: Factor | None = None,
    exclude_self: bool = False,
) -> Factor:
    """Subset of domain where the dominance condition holds at pairing h.

    The condition: dominator set of x over the opponents in h, optionally
    intersected with member (minus x itself when exclude_self), nonempty.
    An empty opponent factor yields the empty region. On a continuum
    game the condition is constant at each point of the record
    ``games._ranks`` gives for h, domain and member, and on each gap
    between them (see _global_breakpoints), so one rank of each in the
    domain decides it, tested against the dominator sets of one
    ``games._Ranks.dominators`` call. The ends of the regions the
    reduction and conditions C and D ask for stay among the game's cut
    points, so they read its cached record.
    """
    if isinstance(domain, frozenset):
        key = h[:i] + h[i + 1 :]
        if not all(key):
            return frozenset()
        rows = _scan(game).rows[i]
        dom = rows.memo.get(key) or rows.dominators(key)
        if member is None and not exclude_self:
            return frozenset(filter(dom.__getitem__, domain))
        keep, bit = -1 if member is None else rows.mask(member), rows.bit
        return frozenset(x for x in domain if dom[x] & keep & ~(exclude_self and bit[x]))
    if not all(h[j] for j in range(game.n) if j != i):
        return domain - domain
    member = game.carrier(i) if member is None else member
    ranks, (*spans, inside, beat) = _ranks(game, *h, domain, member)
    dominators = ranks.dominators(i, spans, beat)

    def holds(t: int) -> bool:
        d = dominators(t)
        return any(p != (t, t) for p in d) if exclude_self else bool(d)

    half = ranks.width // 2  # a test at each point (k * width) and in each gap (+ half)
    tests = (t for lo, hi in inside for t in range(lo + -lo % half, hi + 1, half))
    return ranks.back(ranks.part(t) for t in tests if holds(t))


def condition_region(game: Game, h: Pairing, i: int, op: Operator, domain: Factor) -> Factor:
    """Subset of domain meeting the operator's own condition at h: a
    nonempty dominator set over the opponents in h, which for DOUBLE must
    meet the player's current set h[i]."""
    member = h[i] if op is Operator.DOUBLE else None
    return _region_where(game, h, i, domain=domain, member=member)


def eliminated_region(game: Game, h: Pairing, i: int, op: Operator) -> Factor:
    """Strategies of player i in h that the operator removes in one pass."""
    return condition_region(game, h, i, op, h[i])


def restrict(game: Game, h: Pairing) -> Game:
    """The game induced on the strategy sets of h.

    Values are cut down to the surviving sets; finite tables are rebuilt,
    continuum maps keep their pieces and gain a clip.
    """
    utils = game.utils
    if game.is_finite:
        spaces = tuple(
            FiniteSpace(tuple(s for s in game.labels(i) if s in h[i]))
            for i in range(game.n)
        )
        kept = list(itertools.product(*(s.labels for s in spaces)))

        def cut(corr: FiniteTable, i: int) -> FiniteTable:
            return FiniteTable(corr.player, {x: corr.table[x] & h[i] for x in kept})

        if utils is not None:
            utils = tuple(
                UtilityTable(u.player, {x: u.table[x] for x in kept}) for u in utils
            )
    else:
        spaces = tuple(ContinuumSpace(h[i]) for i in range(game.n))

        def cut(corr: PiecewiseMap, i: int) -> PiecewiseMap:
            pieces = []
            for piece in corr.pieces:
                factors = tuple(
                    f.intersect(h[j]) for j, f in enumerate(piece.cell.factors)
                )
                if any(f.is_empty for f in factors):
                    continue
                pieces.append(Piece(Cell(factors), piece.value))
            clip = h[i] if corr.clip is None else corr.clip.intersect(h[i])
            return PiecewiseMap(corr.player, tuple(pieces), clip=clip)

    prefs = tuple(cut(c, i) for i, c in enumerate(game.prefs))
    comps = (
        None
        if game.comps is None
        else tuple(cut(c, i) for i, c in enumerate(game.comps))
    )
    return replace(game, spaces=spaces, prefs=prefs, comps=comps, utils=utils)
