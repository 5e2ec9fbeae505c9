"""Game model: strategy spaces, piecewise symbolic correspondences, utilities.

A game couples one strategy space per player with a preference
correspondence P_i per player (profiles to sets of own strategies that the
player strictly prefers) and optionally a comparison correspondence Q_i and
utility tables. Spaces are either finite label sets or rational intervals;
the two backends never mix within one game.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterator, Union

from .intervals import Boundary, Interval, IntervalSet


class GameError(ValueError):
    """Semantic game error; kind is one of syntax, overlap, uncovered,
    escape, unknown-player, or semantic for everything else."""

    def __init__(self, message: str, kind: str = "semantic"):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class FiniteSpace:
    labels: tuple[str, ...]


@dataclass(frozen=True)
class ContinuumSpace:
    carrier: IntervalSet


Space = Union[FiniteSpace, ContinuumSpace]

# Profiles: one coordinate per player, labels for finite games and
# Fractions for continuum games.
Profile = tuple


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Coord:
    """Reference to the profile coordinate of the given player (1-based)."""

    player: int


EndpointExpr = Union[Const, Coord]


@dataclass(frozen=True)
class EmptyValue:
    pass


EMPTY_VALUE = EmptyValue()


@dataclass(frozen=True)
class SymInterval:
    """Interval with symbolic endpoints; reversed endpoints evaluate empty."""

    lo: EndpointExpr
    lo_closed: bool
    hi: EndpointExpr
    hi_closed: bool


SymValue = Union[SymInterval, EmptyValue]


@dataclass(frozen=True)
class Cell:
    """Product region: one interval-set factor per player."""

    factors: tuple[IntervalSet, ...]

    def contains(self, profile: Profile) -> bool:
        return all(f.contains(x) for f, x in zip(self.factors, profile))


@dataclass(frozen=True)
class Piece:
    cell: Cell
    value: SymValue


@dataclass
class PiecewiseMap:
    """Piecewise-constant-shape correspondence for one continuum player.

    The optional clip set restricts every evaluated value; restrictions of a
    game carry the surviving strategy set here so values never leave it.
    """

    player: int
    pieces: tuple[Piece, ...]
    clip: IntervalSet | None = None


@dataclass
class FiniteTable:
    """Finite correspondence: each profile maps to a set of own labels.

    A table is treated as immutable once built. The engine caches a
    compiled form of it in ``_rows`` (left out of equality and repr) on
    first use, so change a game by building new tables, as ``restrict``,
    ``discretize`` and derivation do.
    """

    player: int
    table: dict[Profile, frozenset[str]]
    _rows: object = field(default=None, init=False, repr=False, compare=False)


CorrMap = Union[PiecewiseMap, FiniteTable]


@dataclass
class UtilityTable:
    player: int
    table: dict[Profile, Fraction]


@dataclass
class Game:
    name: str
    spaces: tuple[Space, ...]
    prefs: tuple[CorrMap, ...]
    comps: tuple[CorrMap, ...] | None = None
    utils: tuple[UtilityTable, ...] | None = None
    prefs_derived: bool = False

    @property
    def n(self) -> int:
        return len(self.spaces)

    @property
    def is_finite(self) -> bool:
        return isinstance(self.spaces[0], FiniteSpace)

    def labels(self, i: int) -> tuple[str, ...]:
        space = self.spaces[i]
        if not isinstance(space, FiniteSpace):
            raise GameError(f"player {i + 1} has a continuum space")
        return space.labels

    def carrier(self, i: int) -> IntervalSet:
        space = self.spaces[i]
        if not isinstance(space, ContinuumSpace):
            raise GameError(f"player {i + 1} has a finite space")
        return space.carrier

    def profiles(self) -> Iterator[Profile]:
        if not self.is_finite:
            raise GameError("profile enumeration needs finite spaces")
        return itertools.product(*(self.labels(i) for i in range(self.n)))


def resolve_endpoint(expr: EndpointExpr, profile: Profile) -> Fraction:
    if isinstance(expr, Const):
        return expr.value
    return profile[expr.player - 1]


def eval_value(game: Game, corr: CorrMap, profile: Profile):
    """Value of a correspondence at a profile.

    Finite games return a frozenset of labels, continuum games an
    IntervalSet. A symbolic interval whose endpoints evaluate in reverse
    order (or meet with an open side) is the empty set.
    """
    if isinstance(corr, FiniteTable):
        try:
            return corr.table[profile]
        except KeyError:
            raise GameError(f"no table row for profile {profile}") from None
    for piece in corr.pieces:
        if piece.cell.contains(profile):
            return piece_value(corr, piece, profile)
    raise GameError(f"profile {profile} not covered by any piece")


def piece_value(corr: PiecewiseMap, piece: Piece, profile: Profile) -> IntervalSet:
    """A piece's value at a profile of its cell, cut to the map's clip."""
    if isinstance(piece.value, EmptyValue):
        return IntervalSet.empty()
    v = piece.value
    out = IntervalSet.interval(
        resolve_endpoint(v.lo, profile),
        resolve_endpoint(v.hi, profile),
        v.lo_closed,
        v.hi_closed,
    )
    if corr.clip is not None:
        out = out.intersect(corr.clip)
    return out


def derive_pref_from_utility(game: Game) -> Game:
    """Fill P_i(x) = strategies y_i with u_i(y_i, x_-i) > u_i(x).

    Own strategies are sorted by utility once per opponent profile, and
    strategies tied in utility share one "strictly better" set.
    """
    if not game.is_finite:
        raise GameError("utility-derived preferences need finite spaces")
    if game.utils is None:
        raise GameError("game has no utility tables")
    prefs = []
    for i in range(game.n):
        u = game.utils[i].table
        rows = {}
        opp_axes = [game.labels(j) for j in range(game.n) if j != i]
        for opp in itertools.product(*opp_axes):
            value = {y: u[opp[:i] + (y,) + opp[i:]] for y in game.labels(i)}
            row = rows[opp] = {}
            above: list[str] = []
            for y in sorted(value, key=value.__getitem__, reverse=True):
                if not above or value[y] < value[above[-1]]:
                    better = frozenset(above)
                row[y] = better
                above.append(y)
        table = {x: rows[x[:i] + x[i + 1 :]][x[i]] for x in game.profiles()}
        prefs.append(FiniteTable(i + 1, table))
    return replace(game, prefs=tuple(prefs), prefs_derived=True)


# Product boxes: tuples of one IntervalSet per player. Used for region
# arithmetic (cell coverage checks, maximal-element sets).
Box = tuple[IntervalSet, ...]


def box_is_empty(box: Box) -> bool:
    return any(f.is_empty for f in box)


def box_intersect(a: Box, b: Box) -> Box:
    return tuple(x.intersect(y) for x, y in zip(a, b))


def box_subtract(a: Box, b: Box) -> list[Box]:
    """a minus b as disjoint boxes, one per axis of escape."""
    out: list[Box] = []
    prefix: list[IntervalSet] = []
    for k in range(len(a)):
        outside = a[k].difference(b[k])
        if not outside.is_empty:
            box = tuple(prefix) + (outside,) + a[k + 1 :]
            if not box_is_empty(box):
                out.append(box)
        inside = a[k].intersect(b[k])
        if inside.is_empty:
            return out
        prefix.append(inside)
    return out


def boxes_subtract(boxes: list[Box], minus: list[Box]) -> list[Box]:
    current = [b for b in boxes if not box_is_empty(b)]
    for m in minus:
        if box_is_empty(m):
            continue
        current = [frag for b in current for frag in box_subtract(b, m)]
    return current


def boxes_cover_equal(a: list[Box], b: list[Box]) -> bool:
    return not boxes_subtract(a, b) and not boxes_subtract(b, a)


def box_pick_point(box: Box) -> tuple[Fraction, ...]:
    return tuple(f.pick() for f in box)


def _endpoint_hull(
    expr: EndpointExpr, closed: bool, cell: Cell, low_side: bool
) -> Boundary:
    # Outer bound for all values this endpoint can take over the cell.
    if isinstance(expr, Const):
        return Boundary(expr.value, closed)
    rng = cell.factors[expr.player - 1]
    value, attained = rng.inf() if low_side else rng.sup()
    return Boundary(value, closed and attained)


def validate_piecewise(game: Game, corr: PiecewiseMap) -> None:
    """Check cells partition the strategy product and values stay inside.

    The escape check bounds each symbolic value by its hull over the cell,
    so a value is rejected whenever any endpoint can leave the carrier.
    """
    i = corr.player - 1
    carrier_box: Box = tuple(game.carrier(k) for k in range(game.n))
    cells = [tuple(p.cell.factors) for p in corr.pieces]
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            overlap = box_intersect(cells[a], cells[b])
            if not box_is_empty(overlap):
                at = box_pick_point(overlap)
                raise GameError(
                    f"player {corr.player}: pieces {a + 1} and {b + 1} "
                    f"overlap at profile {tuple(str(v) for v in at)}",
                    kind="overlap",
                )
    uncovered = boxes_subtract([carrier_box], cells)
    if uncovered:
        at = box_pick_point(uncovered[0])
        raise GameError(
            f"player {corr.player}: profile {tuple(str(v) for v in at)} "
            "is not covered by any piece",
            kind="uncovered",
        )
    carrier = game.carrier(i)
    for idx, piece in enumerate(corr.pieces):
        if isinstance(piece.value, EmptyValue):
            continue
        v = piece.value
        lo = _endpoint_hull(v.lo, v.lo_closed, piece.cell, low_side=True)
        hi = _endpoint_hull(v.hi, v.hi_closed, piece.cell, low_side=False)
        if lo.lo_key() > hi.hi_key():
            continue
        hull = IntervalSet((Interval(lo, hi),))
        if not hull.is_subset(carrier):
            raise GameError(
                f"player {corr.player}: piece {idx + 1} value can leave "
                f"the carrier (reaches {hull.render()})",
                kind="escape",
            )


def validate_finite_table(game: Game, corr: FiniteTable) -> None:
    i = corr.player - 1
    own = set(game.labels(i))
    seen = set(corr.table)
    for x in game.profiles():
        if x not in seen:
            raise GameError(
                f"player {corr.player}: no row for profile {','.join(x)}",
                kind="uncovered",
            )
    all_profiles = set(game.profiles())
    for x in corr.table:
        if x not in all_profiles:
            raise GameError(
                f"player {corr.player}: row profile {','.join(x)} "
                "uses unknown labels",
                kind="syntax",
            )
        bad = set(corr.table[x]) - own
        if bad:
            raise GameError(
                f"player {corr.player}: value at {','.join(x)} contains "
                f"{sorted(bad)[0]!r}, not a strategy of this player",
                kind="escape",
            )


def validate_game(game: Game) -> None:
    groups = [game.prefs]
    if game.comps is not None:
        groups.append(game.comps)
    for group in groups:
        for corr in group:
            if isinstance(corr, PiecewiseMap):
                validate_piecewise(game, corr)
            else:
                validate_finite_table(game, corr)
    if game.utils is not None:
        for u in game.utils:
            missing = set(game.profiles()) - set(u.table)
            if missing:
                x = sorted(missing)[0]
                raise GameError(
                    f"player {u.player}: no utility for profile {','.join(x)}"
                )
