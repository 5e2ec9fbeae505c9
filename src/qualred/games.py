"""Game model: strategy spaces, piecewise symbolic correspondences, utilities.

A game couples one strategy space per player with a preference
correspondence P_i per player (profiles to sets of own strategies that the
player strictly prefers) and optionally a comparison correspondence Q_i and
utility tables. Spaces are either finite label sets or rational intervals;
the two backends never mix within one game.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import xor
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


@dataclass(frozen=True)
class Piece:
    cell: Cell
    value: SymValue


@dataclass
class PiecewiseMap:
    """Piecewise-constant-shape correspondence for one continuum player.

    The optional clip set restricts every evaluated value; restrictions of a
    game carry the surviving strategy set here so values never leave it.

    A map is treated as immutable once built. Its piece index (see
    ``_PieceIndex``) is compiled on first use and cached in ``_index``
    (left out of equality and repr), so change a game by building new
    maps, as ``restrict`` does.
    """

    player: int
    pieces: tuple[Piece, ...]
    clip: IntervalSet | None = None
    _index: object = field(default=None, init=False, repr=False, compare=False)


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


class _PieceIndex:
    """A piecewise map compiled for point location.

    cuts[j] holds the sorted endpoints of every piece's factor j. They split
    the line into segments 0..2m: 2k + 1 is the point cuts[k], 2k the open
    gap below it, 2m the ray above the last cut. masks[j][s] has bit k set
    when piece k's factor j covers segment s, so the pieces at a profile are
    the AND of one mask per coordinate. values[k] is piece k's value, clip
    included, if it reads no coordinate, else None; consts holds the
    constant ends of all values.
    """

    def __init__(self, corr: PiecewiseMap, n: int):
        pieces = corr.pieces
        self.full = (1 << len(pieces)) - 1
        self.cuts: list[list[Fraction]] = []
        self.masks: list[list[int]] = []
        for j in range(n):
            cuts = sorted({e for p in pieces for e in p.cell.factors[j].endpoints()})
            # a part flips its bit at its first segment and after its last,
            # so a running XOR gives each segment's mask
            flips = [0] * (2 * len(cuts) + 1)
            for k, p in enumerate(pieces):
                for part in p.cell.factors[j]:
                    lo, hi = part.lo, part.hi
                    flips[2 * bisect_left(cuts, lo.value) + 2 - lo.closed] ^= 1 << k
                    flips[2 * bisect_left(cuts, hi.value) + 1 + hi.closed] ^= 1 << k
            self.cuts.append(cuts)
            self.masks.append(list(itertools.accumulate(flips, xor)))
        ends = [
            (p.value.lo, p.value.hi) if isinstance(p.value, SymInterval) else ()
            for p in pieces
        ]
        self.values = [
            None if any(isinstance(e, Coord) for e in pair) else piece_value(corr, p, ())
            for p, pair in zip(pieces, ends)
        ]
        self.consts = {e.value for pair in ends for e in pair if isinstance(e, Const)}

    def segment(self, j: int, x: Fraction) -> int:
        cuts = self.cuts[j]
        k = bisect_left(cuts, x)
        return 2 * k + (k < len(cuts) and cuts[k] == x)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _piece_index(game: Game, corr: PiecewiseMap) -> _PieceIndex:
    """The compiled form of a piecewise map, built on first use."""
    if corr._index is None:
        corr._index = _PieceIndex(corr, game.n)
    return corr._index


def _global_breakpoints(game: Game, *sets: IntervalSet) -> list[Fraction]:
    """The sorted rationals a continuum decision can change at: the ends of
    the carriers, piece cells and clips, constant value ends, and the ends
    of the given sets. A check or a dominance condition compares a
    coordinate only with other coordinates and with these: a dominator
    set's bound is a constant, the coordinate, or the sup or inf of a piece
    factor cut to a pairing factor, which is an end of one of the two. So
    its verdict is constant on each order cell (which constant or open gap
    each coordinate sits at, plus the weak order of coordinates sharing a
    gap), and one point per cell decides the whole space."""
    corrs = game.prefs + (game.comps or ())
    ends = (*sets, *map(game.carrier, range(game.n)), *(c.clip for c in corrs if c.clip))
    values = {e for s in ends for e in s.endpoints()}
    for corr in corrs:
        index = _piece_index(game, corr)
        values.update(index.consts, *index.cuts)
    return sorted(values)


def eval_value(game: Game, corr: CorrMap, profile: Profile):
    """Value of a correspondence at a profile.

    Finite games return a frozenset of labels, continuum games an
    IntervalSet. A symbolic interval whose endpoints evaluate in reverse
    order (or meet with an open side) is the empty set. A continuum map
    locates the profile in its piece index, one bisect per coordinate;
    when cells overlap (a map that was never validated) the lowest piece
    wins. Nothing is cached across calls but the index itself.
    """
    if isinstance(corr, FiniteTable):
        try:
            return corr.table[profile]
        except KeyError:
            raise GameError(f"no table row for profile {profile}") from None
    index = _piece_index(game, corr)
    mask = index.full
    for j, x in enumerate(profile):
        mask &= index.masks[j][index.segment(j, x)]
    if not mask:
        raise GameError(f"profile {tuple(map(str, profile))} not covered by any piece")
    k = _lowest(mask)
    value = index.values[k]
    return piece_value(corr, corr.pieces[k], profile) if value is None else value


def piece_value(corr: PiecewiseMap, piece: Piece, profile: Profile) -> IntervalSet:
    """A piece's value at a profile of its cell, cut to the map's clip."""
    v = piece.value
    if isinstance(v, EmptyValue):
        return IntervalSet.empty()
    lo = Boundary(resolve_endpoint(v.lo, profile), v.lo_closed)
    hi = Boundary(resolve_endpoint(v.hi, profile), v.hi_closed)
    try:
        out = IntervalSet((Interval(lo, hi),))
    except ValueError:  # reversed endpoints
        return IntervalSet.empty()
    return out if corr.clip is None else out & corr.clip


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

    The cells are checked by one walk over the coordinates of the piece
    index. At each coordinate it takes the carrier's members at the index
    cuts and the carrier's endpoints, and one midpoint per gap between
    them, in increasing order, narrowing the mask of pieces that cover the
    profile so far; the first fault below a (coordinate, mask) is memoised.
    Every profile must end with exactly one piece, and the first that does
    not, in lexicographic order, is reported: no piece is "uncovered", two
    or more an "overlap" of the two lowest. The escape check bounds each
    symbolic value by its hull over the cell, so a value is rejected
    whenever any endpoint can leave the carrier.
    """
    i = corr.player - 1
    index = _piece_index(game, corr)
    axes = [
        [(t, index.masks[j][index.segment(j, t)]) for *_, t in game.carrier(j).split(cut)]
        for j, cut in enumerate(index.cuts)
    ]
    memo: dict[tuple[int, int], tuple | None] = {}

    def fault(j: int, mask: int):
        # (profile suffix, mask at its end) of the first fault from
        # coordinate j on, or None
        if j == len(axes):
            return None if mask and not mask & (mask - 1) else ((), mask)
        if (j, mask) not in memo:
            memo[j, mask] = None
            for t, m in axes[j]:
                below = fault(j + 1, mask & m)
                if below is not None:
                    memo[j, mask] = ((t,) + below[0], below[1])
                    break
        return memo[j, mask]

    found = fault(0, index.full)
    if found is not None:
        at = tuple(str(v) for v in found[0])
        if not found[1]:
            raise GameError(
                f"player {corr.player}: profile {at} is not covered by any piece",
                kind="uncovered",
            )
        a = _lowest(found[1])
        b = _lowest(found[1] ^ 1 << a)
        raise GameError(
            f"player {corr.player}: pieces {a + 1} and {b + 1} "
            f"overlap at profile {at}",
            kind="overlap",
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
    for x in corr.table:
        bad = set(corr.table[x]) - own
        if bad:
            raise GameError(
                f"player {corr.player}: value at {','.join(x)} contains "
                f"{sorted(bad)[0]!r}, not a strategy of this player",
                kind="escape",
            )
