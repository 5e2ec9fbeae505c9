"""Game model: strategy spaces, piecewise symbolic correspondences, utilities.

A game couples one strategy space per player with a preference
correspondence P_i per player (profiles to sets of own strategies that the
player strictly prefers) and optionally a comparison correspondence Q_i and
utility tables. Spaces are either finite label sets or rational intervals;
the two backends never mix within one game.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, reduce
from operator import and_, xor
from typing import Iterable, Iterator, Union

from .intervals import Boundary, IntervalSet, _part


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

    A table is treated as immutable once its game is scanned (see
    ``_scan``), so change a game by building new tables, as ``restrict``,
    ``discretize`` and derivation do.
    """

    player: int
    table: dict[Profile, frozenset[str]]


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
    # what the scans read, built on the first one (see _scan)
    _scan: object = field(default=None, init=False, repr=False, compare=False)

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
    the AND of one mask per coordinate. consts holds the constant ends of
    all values.
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
        values = [p.value for p in pieces if isinstance(p.value, SymInterval)]
        self.consts = {e.value for v in values for e in (v.lo, v.hi) if isinstance(e, Const)}

    def segment(self, j: int, x: Fraction) -> int:
        cuts = self.cuts[j]
        k = bisect_left(cuts, x)
        return 2 * k + (k < len(cuts) and cuts[k] == x)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _piece_index(corr: PiecewiseMap, n: int) -> _PieceIndex:
    """The compiled form of a piecewise map, built on first use."""
    if corr._index is None:
        corr._index = _PieceIndex(corr, n)
    return corr._index


def _global_breakpoints(game: Game) -> list[Fraction]:
    """The sorted rationals a continuum decision can change at: the ends of
    the carriers, piece cells and clips, and constant value ends. A check,
    or a dominance condition once the ends of its pairing are added,
    compares a coordinate only with other coordinates and with these: a
    dominator set's bound is a constant, the coordinate, or the sup or inf
    of a piece factor cut to a pairing factor, which is an end of one of
    the two. So its verdict is constant on each order cell (which constant
    or open gap each coordinate sits at, plus the weak order of coordinates
    sharing a gap), and one point per cell decides the whole space. Any
    monotone, injective relabelling of the points and cell points, such as
    their ranks (see ``_Ranks``), keeps every verdict and every first
    witness."""
    corrs = game.prefs + (game.comps or ())
    ends = (*map(game.carrier, range(game.n)), *(c.clip for c in corrs if c.clip))
    values = {e for s in ends for e in s.endpoints()}
    for corr in corrs:
        index = _piece_index(corr, game.n)
        values.update(index.consts, *index.cuts)
    return sorted(values)


class _Span(tuple):
    """A continuum value in rank space (see ``_Ranks``): the (lo, hi) int
    bounds of its parts in order. An end's key is (value, offset), offset 0
    closed, +1 open lower, -1 open upper (see ``intervals``), and its bound
    is the value's rank plus the offset: members have even ranks, so an open
    end sits one rank inside. It has the IntervalSet operators the scans read."""

    __slots__ = ()

    def __contains__(self, t) -> bool:
        return any(lo <= t <= hi for lo, hi in self)

    def __le__(self, other: _Span) -> bool:
        return all(any(c <= a and b <= d for c, d in other) for a, b in self)

    def __and__(self, other: _Span) -> _Span:
        parts = ((max(a, c), min(b, d)) for a, b in self for c, d in other)
        return _Span(p for p in parts if p[0] <= p[1])

    def closure(self) -> _Span:  # touching parts stay apart: no scan needs them merged
        return _Span((lo - (lo & 1), hi + (hi & 1)) for lo, hi in self)


class _Ranks:
    """A continuum game compiled for the scans over sorted cut points that
    hold its constants. Point k has rank k * w, w = 4(n + 2), and rank
    k * w + p, 0 < p < w, is the point p / w of the way on to point k + 1
    (``coord``). Order cells (``cells``) put coordinates at the points and
    at p = 4, 8, ..., 4(n + 1), so the midpoint of two of these or of a gap
    end has an even rank too. Ranks relabel the line monotonically and
    injectively, so every comparison a scan makes, hence every verdict and
    every first witness, is the same on them; they go back to rationals
    only for witnesses, boxes and error text. ``rank`` maps each point,
    keyed by its ``as_integer_ratio()``, to its rank: looking up a
    (numerator, denominator) tuple costs a tenth of hashing a Fraction.

    A map's ``shape``: per piece, the (coordinate, offset) of each value
    end, coordinate n reading 0 so that a constant end is an offset; the
    clip as a _Span; and per piece, its cell's factors as _Spans. Built on
    first read, as a snapshot (``lab.discretize``) reads shapes only: prefs
    and comps, per map masks[j][r], the ``_PieceIndex`` mask at rank r on
    axis j, then its shape, then the coordinates it reads (``reads``); and
    axes[j], player j's options for ``cells``, and axes[n + j] the first of
    them alone, for a walk that holds coordinate j fixed. ``dominators``
    decides dominance on the compiled prefs, and ``skip`` prunes a walk.
    It keeps the game's n, maps (prefs, comps) and carriers (``full``, the
    full pairing, whose factors ``pick`` and ``render`` read as they are),
    not the game, so a game caching it (see ``_scan``) is freed by refcount.
    """

    pick, render = staticmethod(lambda i, f: f.pick()), staticmethod(lambda i, f: f.render())

    def __init__(self, game: Game, points: list[Fraction]):
        self.n, self.maps, self.points = game.n, (game.prefs, game.comps), points
        self.width, self.slots = 4 * (game.n + 2), game.n + 1
        self.rank = {t.as_integer_ratio(): k * self.width for k, t in enumerate(points)}
        self.carriers = self.full = tuple(map(game.carrier, range(game.n)))

    @cached_property
    def prefs(self) -> tuple:
        return tuple(map(self._compile, self.maps[0]))

    @cached_property
    def comps(self) -> tuple | None:
        return self.maps[1] and tuple(map(self._compile, self.maps[1]))

    @cached_property
    def axes(self) -> list[list[tuple[int, int, int]]]:
        # (rank, rank of the gap's lower end, position in the gap), or
        # (rank, -1, 0) at a point, in order
        out: list[list[tuple[int, int, int]]] = [[] for _ in self.carriers]
        for axis, carrier in zip(out, self.carriers):
            for a, b, _ in carrier.split(self.points):
                r = self.rank[a.as_integer_ratio()]
                grid = [(r + 4 * k, r, k) for k in range(1, self.slots + 1)]
                axis += [(r, -1, 0)] if a == b else grid
        return out + [axis[:1] for axis in out]

    def _compile(self, corr: PiecewiseMap) -> tuple:
        index, w = _piece_index(corr, self.n), self.width
        masks = []
        for cuts, seg in zip(index.cuts, index.masks):
            # the mask at point t (segment a + b) and on the gap above it (2b)
            bounds = [(bisect_left(cuts, t), bisect_right(cuts, t)) for t in self.points]
            masks.append([m for a, b in bounds for m in [seg[a + b]] + [seg[2 * b]] * (w - 1)])
        ends, clip, factors = self.shape(corr)
        # a coordinate is read when its mask changes along its carrier or a
        # value end names it; the map is constant along every other one
        reads = {j for j, row in enumerate(masks) if len({row[r] for r, *_ in self.axes[j]}) > 1}
        reads.update(j for e in ends for j in e[::2] if j < self.n)
        return masks, ends, clip, factors, frozenset(reads)

    @staticmethod
    def reads(m: tuple) -> frozenset[int]:
        return m[4]

    def shape(self, corr: PiecewiseMap) -> tuple:
        n = self.n

        def end(e: EndpointExpr, offset: int) -> tuple[int, int]:
            if isinstance(e, Const):
                return n, self.rank[e.value.as_integer_ratio()] + offset
            return e.player - 1, offset

        ends = [
            (*end(v.lo, not v.lo_closed), *end(v.hi, -(not v.hi_closed)))
            if isinstance(v, SymInterval)
            else (n, 0, n, -1)  # empty, as 0 > -1
            for v in (p.value for p in corr.pieces)
        ]
        factors = [tuple(map(self.span, p.cell.factors)) for p in corr.pieces]
        return ends, None if corr.clip is None else self.span(corr.clip), factors

    def span(self, s: IntervalSet) -> _Span:
        """The _Span of a set whose ends are points: an end's key (value,
        offset) goes to the value's rank plus the offset."""
        rank = self.rank
        return _Span(
            (
                rank[p.lo.value.as_integer_ratio()] + (not p.lo.closed),
                rank[p.hi.value.as_integer_ratio()] - (not p.hi.closed),
            )
            for p in s
        )

    def back(self, parts, coord=None) -> IntervalSet:
        """The IntervalSet of rank parts, such as a _Span's: an end at rank r
        has offset r & 1 at a lower end and -(r & 1) at an upper one, and the
        value coord (default ``coord``) reads at r less the offset. Parts that
        overlap or meet (lo <= last hi + 1) are merged as ints, so canonical."""
        coord, merged = coord or self.coord, []
        for lo, hi in sorted(parts):
            if merged and lo <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        ends = (((coord(a - (a & 1)), a & 1), (coord(b + (b & 1)), -(b & 1))) for a, b in merged)
        return IntervalSet(tuple(itertools.starmap(_part, ends)))

    def part(self, r: int) -> tuple[int, int]:
        """The rank part of the point at r, or of the open gap holding r."""
        a = r - r % self.width
        return (a, a) if r == a else (a + 1, a + self.width - 1)

    def coord(self, r: int) -> Fraction:
        k, p = divmod(r, self.width)
        a = self.points[k]
        return a + (self.points[k + 1] - a) * Fraction(p, self.width) if p else a

    def profile(self, x: tuple) -> tuple:
        return tuple(map(self.coord, x))

    def value(self, m: tuple, x: tuple) -> _Span:
        """Map m at the rank profile x: as eval_value, the lowest covering
        piece wins, and an uncovered profile raises the same GameError."""
        masks, ends, clip, _, _ = m
        mask = -1
        for row, r in zip(masks, x):
            mask &= row[r]
        if not mask:
            raise GameError(f"profile {tuple(map(str, self.profile(x)))} not covered by any piece")
        lj, lc, hj, hc = ends[_lowest(mask)]
        z = x + (0,)
        lo, hi = z[lj] + lc, z[hj] + hc
        v = _Span(((lo, hi),) if lo <= hi else ())
        return v if clip is None else v & clip

    def dominators(self, i: int, spans: list[_Span], member: _Span | None = None):
        """Player i's dominator sets against spans, one per player, those of
        the opponents nonempty: the function from an even rank x to the
        intersection of P_i over every opponent profile in spans, with i at
        x, cut to member. Each piece whose cell holds x and meets them
        bounds it by its value, an end naming opponent j standing for the
        sup (lower end) or inf (upper end) of the piece's factor j cut to
        spans[j]. y > s for every s in S means y > sup S when S attains it
        and y >= sup S when not; y >= s means y >= sup S either way. In
        ranks, with top the cut factor's last rank (even when the sup is
        attained, one below it when not), that bound is top + 1 for an open
        end and top rounded up to even for a closed one:
        top + (open | top & 1). Upper ends are dual, with bot the factor's
        first rank: bot - (open | bot & 1). A constant end is its offset, an
        end naming i is x plus its offset. Only x's own mask and the ends
        naming i depend on x, so the cuts and the rounding are done here,
        once, and each x costs an int max and min over the live pieces."""
        masks, ends, clip, factors, _ = self.prefs[i]
        base = self.span(self.carriers[i])
        for s in (clip, member):
            base = base if s is None else base & s
        zero = ((0, 0),)  # the own coordinate and the constants read 0 here
        live = []  # per piece meeting the opponents: its bit and its bounds at x = 0
        for k, cell in enumerate(factors):
            cut = [f & s for f, s in zip(cell, spans)] + [zero]
            cut[i] = zero
            if all(cut):
                lj, lc, hj, hc = ends[k]
                top, bot = cut[lj][-1][1], cut[hj][0][0]
                live.append((1 << k, top + (lc | top & 1), lj == i, bot - (-hc | bot & 1), hj == i))
        own, end = masks[i], len(self.points) * self.width

        def at(x: int) -> _Span:
            lo, hi, mask = 0, end, own[x]
            for bit, a, ax, b, bx in live:
                if mask & bit:
                    lo, hi = max(lo, a + ax * x), min(hi, b + bx * x)
            return base & _Span(((lo, hi),))

        return at

    def cells(self, players: list[int]):
        """One rank profile per order cell, in lexicographic order, with
        coordinate k on axes[players[k]] (the carrier of player players[k]
        below n). A cell fixes which point, or which open gap between
        consecutive points, each coordinate sits at, plus the weak order of
        the coordinates that share a gap. Every check compares coordinates
        only with each other and with the game's constants, so its truth is
        constant on each cell (quantifier elimination for dense linear
        orders).

        A gap offers the grid positions p = 4, 8, ..., 4(n + 1), enough
        for n + 1 coordinates. Yielded are the grid points least in their
        cell: those whose positions in each gap are 1..R. The first grid
        point of a lexicographic scan that fails a check is least in its
        cell, so a scan of these points meets the same first witness as a
        scan of the whole grid.
        """
        axes = [self.axes[j] for j in players]
        # per gap, by the rank of its lower end: the coordinates at each
        # position, and the highest position used
        count = {r: [0] * (self.slots + 1) for r in self.rank.values()}
        top = dict.fromkeys(self.rank.values(), 0)
        point: list[int] = []
        last = len(axes) - 1

        def walk(t: int, missing: int):
            # missing: unused positions below the highest one used, summed
            # over the gaps; only the coordinates after this one can fill them
            for r, g, k in axes[t]:
                now = missing
                if k:
                    high = top[g]
                    if not count[g][k]:  # fills a hole, or opens those up to k
                        now += k - high - 1 if k > high else -1
                if t == last:
                    if not now and (yield (*point, r)):  # sent by skip
                        yield  # what send returns
                        break
                elif now < last - t + 1:
                    if k:
                        count[g][k] += 1
                        top[g] = max(high, k)
                    point.append(r)
                    yield from walk(t + 1, now)
                    point.pop()
                    if k:
                        count[g][k] -= 1
                        top[g] = high

        return walk(0, 0)

    @staticmethod
    def skip(walk) -> None:
        """Drop the options of the last coordinate still ahead of the cells
        walk ``walk`` for the prefix of the point it yielded last."""
        walk.send(True)


class _Tables:
    """A finite game compiled for the scans: ``_Ranks``' attributes over
    the label profiles, values as eval_value's, every map reading every
    coordinate; and the layout of ``_FiniteRows``, computed once: labels[j]
    are player j's labels, bits[j] maps label k to its bit 1 << shifts[j] +
    k in a packed pairing. rows, one ``_FiniteRows`` per player, are built
    on first read, as the checks read the tables alone. It keeps the
    tables, not the game, so a game caching it is freed by refcount alone.
    Labels are their own ranks: ``part``, ``span``, ``coord``, ``profile``
    and ``skip`` (skipped points never fault) are the identity. ``full`` is
    the label sets, which have no order, so ``pick`` and ``render`` follow
    label order: witnesses and reports do not depend on iteration order.
    """

    part = span = skip = coord = profile = staticmethod(lambda t: t)

    def __init__(self, game: Game):
        self.prefs, self.comps = game.prefs, game.comps
        self.labels, every = tuple(map(game.labels, range(game.n))), frozenset(range(game.n))
        self.full, self.reads = tuple(map(frozenset, self.labels)), lambda corr: every
        self.shifts = list(itertools.accumulate(map(len, self.labels), initial=0))
        bits = (enumerate(labels, at) for at, labels in zip(self.shifts, self.labels))
        self.bits = [{s: 1 << k for k, s in b} for b in bits]

    def cells(self, players: list[int]):
        return itertools.product(*map(self.labels.__getitem__, players))

    @staticmethod
    def value(corr: FiniteTable, profile: Profile) -> frozenset[str]:
        try:
            return corr.table[profile]
        except KeyError:
            raise GameError(f"no table row for profile {profile}") from None

    @cached_property
    def rows(self) -> tuple[_FiniteRows, ...]:
        return tuple(_FiniteRows(self, i) for i in range(len(self.labels)))

    def pick(self, i: int, f: frozenset) -> str:
        return next(s for s in self.labels[i] if s in f)

    def render(self, i: int, f: frozenset) -> str:
        return "{%s}" % ",".join(s for s in self.labels[i] if s in f)


class _FiniteRows:
    """Player i's finite preference table as int masks over labels[i] of a
    ``_Tables`` record, in its layout: a factor of player j is an int with
    bit k for labels[j][k], and a pairing one int with bit shifts[j] + k for
    it (self.shift is player i's). The table is read in one pass over the
    label profiles into flat, the masks in product order, each distinct row
    converted once. cols[k][o] is the mask at own strategy labels[k] and
    opponent profile o (the mixed-radix index of the opponents' labels in
    product order), flat[(o // inner * len(labels) + k) * inner + o % inner],
    inner counting the profiles of the players after i: on first use each
    cols[k] is sliced from flat by stride when inner is 1, else chained from
    runs of inner masks. at(key) memoises in self.masks, per pairing of the
    opponents alone, the dominator mask of every own strategy in label
    order: the AND of its column over the surviving opponent profiles.
    dominators(key) keeps the same masks by label in self.memo, keyed by the
    opponents' frozensets, h[:i] + h[i + 1 :].
    """

    def __init__(self, scan: _Tables, i: int):
        self.labels, self.shift = scan.labels[i], scan.shifts[i]
        self.bit = {s: 1 << k for k, s in enumerate(self.labels)}
        self.opp_bits = scan.bits[:i] + scan.bits[i + 1 :]
        table = scan.prefs[i].table
        try:
            rows = list(map(table.__getitem__, itertools.product(*scan.labels)))
        except KeyError as missing:
            raise GameError(f"no table row for profile {missing.args[0]}") from None
        masks = {f: self.mask(f) for f in set(rows)}
        self.flat = list(map(masks.__getitem__, rows))
        self.inner = math.prod(map(len, scan.labels[i + 1 :]))
        self.masks: dict[int, list[int]] = {}
        self.memo: dict[tuple[frozenset, ...], dict[str, int]] = {}

    @cached_property
    def cols(self) -> list[list[int]]:
        inner, flat = self.inner, self.flat
        block = len(self.labels) * inner or 1
        if inner == 1:
            return [flat[k::block] for k in range(len(self.labels))]
        starts = (range(k * inner, len(flat), block) for k in range(len(self.labels)))
        return [list(itertools.chain.from_iterable(flat[b : b + inner] for b in r)) for r in starts]

    def mask(self, f: frozenset) -> int:
        return sum(map(self.bit.__getitem__, f))

    def members(self, m: int) -> frozenset:
        return frozenset(s for s, b in self.bit.items() if m & b)

    def dominators(self, key: tuple[frozenset, ...]) -> dict[str, int]:
        if key not in self.memo:
            packed = sum(sum(map(b.__getitem__, f)) for f, b in zip(key, self.opp_bits))
            self.memo[key] = dict(zip(self.labels, self.at(packed)))
        return self.memo[key]

    def at(self, key: int) -> list[int]:
        if key not in self.masks:
            flat = [0]
            for bits in self.opp_bits:
                size = len(bits)
                flat = [o * size + k for o in flat for k, b in enumerate(bits.values()) if key & b]
            full = (1 << len(self.labels)) - 1
            self.masks[key] = [reduce(and_, map(col.__getitem__, flat), full) for col in self.cols]
        return self.masks[key]


def _scan(game: Game) -> _Ranks | _Tables:
    """What the scans of ``analysis`` and the engine's finite masks read,
    built on a game's first scan and cached in game._scan: the ``_Ranks``
    of a continuum game over its cut points, or the ``_Tables`` of a
    finite one. Neither holds the game."""
    if game._scan is None:
        game._scan = _Tables(game) if game.is_finite else _Ranks(game, _global_breakpoints(game))
    return game._scan


def _ranks(game: Game, *sets: IntervalSet | frozenset) -> tuple[_Ranks | _Tables, list]:
    """The scan record of a game (see ``_scan``) and the sets as _Spans in
    it, a finite game's label sets as they are; when the ends of continuum
    sets are not all among its points, a record over both, not cached."""
    ranks = _scan(game)
    try:
        return ranks, [ranks.span(s) for s in sets]
    except KeyError:  # an end off the points
        ranks = _Ranks(game, sorted({e for s in sets for e in s.endpoints()}.union(ranks.points)))
        return ranks, [ranks.span(s) for s in sets]


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
        return _Tables.value(corr, profile)
    index = _piece_index(corr, game.n)
    mask = index.full
    for j, x in enumerate(profile):
        mask &= index.masks[j][index.segment(j, x)]
    if not mask:
        raise GameError(f"profile {tuple(map(str, profile))} not covered by any piece")
    return piece_value(corr, corr.pieces[_lowest(mask)], profile)


def piece_value(corr: PiecewiseMap, piece: Piece, profile: Profile) -> IntervalSet:
    """A piece's value at a profile of its cell, cut to the map's clip."""
    v = piece.value
    if isinstance(v, EmptyValue):
        return IntervalSet.empty()
    lo, hi = resolve_endpoint(v.lo, profile), resolve_endpoint(v.hi, profile)
    out = IntervalSet.interval(lo, hi, v.lo_closed, v.hi_closed)
    return out if corr.clip is None else out & corr.clip


def _table_rows(corr: FiniteTable | UtilityTable, profiles: Iterable[Profile]) -> list:
    """corr's rows at the profiles, in order; a missing one is a GameError."""
    try:
        return [corr.table[x] for x in profiles]
    except KeyError as e:
        raise GameError(f"player {corr.player}: no table row for profile {e.args[0]}") from None


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
        util = game.utils[i]
        u, rows = util.table, {}
        opp_axes = [game.labels(j) for j in range(game.n) if j != i]
        for opp in itertools.product(*opp_axes):
            try:
                value = {y: u[opp[:i] + (y,) + opp[i:]] for y in game.labels(i)}
            except KeyError as missing:  # look the row up again, to raise the GameError
                _table_rows(util, missing.args)
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
    index = _piece_index(corr, game.n)
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
    for idx, piece in enumerate(corr.pieces):
        if isinstance(piece.value, EmptyValue):
            continue
        v = piece.value
        lo = _endpoint_hull(v.lo, v.lo_closed, piece.cell, low_side=True)
        hi = _endpoint_hull(v.hi, v.hi_closed, piece.cell, low_side=False)
        hull = IntervalSet.interval(lo.value, hi.value, lo.closed, hi.closed)
        if not hull <= game.carrier(i):
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
