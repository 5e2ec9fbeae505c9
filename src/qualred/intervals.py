"""Exact interval-set algebra over the rationals.

Sets are finite unions of intervals with rational endpoints and explicit
open/closed ends. One rule places every end: its key is (value, offset),
offset 0 for a closed end, +1 for an open lower end and -1 for an open
upper end. A part is the key range [lo key, hi key], empty when lo > hi.
Intersection and difference cut key ranges. A set's builder sorts them,
merging a range into the last when its lo key is at most (v, o + 1) for
the last hi key (v, o), so parts stay sorted and apart by a point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

Key = tuple[Fraction, int]


@dataclass(frozen=True, order=False)
class Boundary:
    """One endpoint of an interval: a rational value plus a closed flag."""

    value: Fraction
    closed: bool

    def lo_key(self) -> Key:
        return (self.value, 0 if self.closed else 1)

    def hi_key(self) -> Key:
        return (self.value, 0 if self.closed else -1)


@dataclass(frozen=True)
class Interval:
    """A single nonempty interval. Degenerate [p,p] is the singleton {p}."""

    lo: Boundary
    hi: Boundary

    def __post_init__(self) -> None:
        if self.lo.lo_key() > self.hi.hi_key():
            raise ValueError(f"empty interval: {self._raw()}")

    def _raw(self) -> str:
        bra = "[" if self.lo.closed else "("
        ket = "]" if self.hi.closed else ")"
        return f"{bra}{self.lo.value},{self.hi.value}{ket}"

    def is_degenerate(self) -> bool:
        return self.lo.value == self.hi.value

    def contains(self, p: Fraction) -> bool:
        return self.lo.lo_key() <= (p, 0) <= self.hi.hi_key()

    def render(self) -> str:
        return "{%s}" % self.lo.value if self.is_degenerate() else self._raw()


def _keys(part: Interval) -> tuple[Key, Key]:
    return part.lo.lo_key(), part.hi.hi_key()


def _part(lo: Key, hi: Key) -> Interval:
    """The part of a nonempty key range, not checked again: offset 0 is closed."""
    part = object.__new__(Interval)
    object.__setattr__(part, "lo", Boundary(lo[0], not lo[1]))
    object.__setattr__(part, "hi", Boundary(hi[0], not hi[1]))
    return part


def _build(ranges: Iterable[tuple[Key, Key]]) -> IntervalSet:
    """The set of nonempty key ranges sorted by lo key, each merged into the
    previous one when its lo key is at most the key right after that one's hi."""
    merged: list[list[Key]] = []
    for lo, hi in ranges:
        if merged and lo <= (merged[-1][1][0], merged[-1][1][1] + 1):
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return IntervalSet(tuple(_part(lo, hi) for lo, hi in merged))


@dataclass(frozen=True)
class IntervalSet:
    """Canonical finite union of intervals; parts not known canonical go through from_parts."""

    parts: tuple[Interval, ...]

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def point(p: Fraction | int) -> "IntervalSet":
        return IntervalSet.interval(p, p)

    @staticmethod
    def interval(
        lo: Fraction | int, hi: Fraction | int, lo_closed: bool = True, hi_closed: bool = True
    ) -> "IntervalSet":
        """Build from endpoints; an empty or reversed range gives the empty set."""
        lo_key = (lo if isinstance(lo, Fraction) else Fraction(lo), 0 if lo_closed else 1)
        hi_key = (hi if isinstance(hi, Fraction) else Fraction(hi), 0 if hi_closed else -1)
        return _build([(lo_key, hi_key)] if lo_key <= hi_key else [])

    @staticmethod
    def from_parts(parts: Iterable[Interval]) -> "IntervalSet":
        return _build(sorted(map(_keys, parts)))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def endpoints(self) -> Iterator[Fraction]:
        """The end values of every part, lower then upper, in order."""
        for part in self.parts:
            yield from (part.lo.value, part.hi.value)

    def contains(self, p: Fraction | int) -> bool:
        return any(part.contains(p) for part in self.parts)

    def split(self, cuts: Iterable[Fraction]) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
        """The set cut at the cuts and at its own endpoints, in order, as
        (a, b, t): a == b == t for each cut point in the set, and t the
        midpoint of each open gap (a, b) between consecutive cuts that lies
        in the set. With the set's endpoints among the cuts, each gap lies
        wholly in or out of the set, so its midpoint decides.
        """
        points = sorted(set(cuts).union(self.endpoints()))
        for a, b in zip(points, points[1:] + [None]):
            if a in self:
                yield a, a, a
            if b is not None and (mid := (a + b) / 2) in self:
                yield a, b, mid

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_parts(self.parts + other.parts)

    # Cuts of canonical operands come out canonical and in order: two cuts that
    # would merge make one interval inside one part of each operand, one cut.
    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        cuts, others = [], list(map(_keys, other.parts))
        for a in self.parts:
            alo, ahi = _keys(a)
            for blo, bhi in others:
                lo, hi = max(alo, blo), min(ahi, bhi)
                if lo <= hi:
                    cuts.append(a if lo is alo and hi is ahi else _part(lo, hi))
        return IntervalSet(tuple(cuts))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        # each part cut below every part of other, then resumed right after it
        cuts, others = [], list(map(_keys, other.parts))
        for lo, hi in map(_keys, self.parts):
            for blo, bhi in others:
                below = min(hi, (blo[0], blo[1] - 1))
                if lo <= below:
                    cuts.append(_part(lo, below))
                lo = max(lo, (bhi[0], bhi[1] + 1))
            if lo <= hi:
                cuts.append(_part(lo, hi))
        return IntervalSet(tuple(cuts))

    def is_subset(self, other: "IntervalSet") -> bool:
        # canonical parts are separated, so a part lies in the union of
        # other's parts only if it lies in one of them
        return all(any(b.lo.lo_key() <= a.lo.lo_key() and a.hi.hi_key() <= b.hi.hi_key()
                       for b in other.parts) for a in self.parts)

    def closure(self) -> "IntervalSet":
        return _build(((p.lo.value, 0), (p.hi.value, 0)) for p in self.parts)

    def sup(self) -> tuple[Fraction, bool]:
        """Least upper bound and whether it is attained. Empty sets have none."""
        if self.is_empty:
            raise ValueError("empty set has no supremum")
        return self.parts[-1].hi.value, self.parts[-1].hi.closed

    def inf(self) -> tuple[Fraction, bool]:
        if self.is_empty:
            raise ValueError("empty set has no infimum")
        return self.parts[0].lo.value, self.parts[0].lo.closed

    def pick(self) -> Fraction:
        """A concrete member, for witnesses. Raises on the empty set."""
        if self.is_empty:
            raise ValueError("cannot pick from the empty set")
        lo, hi = self.parts[0].lo, self.parts[0].hi
        return lo.value if lo.closed else hi.value if hi.closed else (lo.value + hi.value) / 2

    def render(self) -> str:
        if self.is_empty:
            return "empty"
        return " u ".join(part.render() for part in self.parts)

    __str__ = render

    # frozenset's operators, so finite and interval factors read alike
    def __bool__(self) -> bool:
        return bool(self.parts)

    __contains__ = contains
    __and__ = intersect
    __sub__ = difference

    def __le__(self, other):  # as frozenset's: a set of the other class raises TypeError
        return self.is_subset(other) if isinstance(other, IntervalSet) else NotImplemented


# a rational literal: an integer, or a fraction with a nonzero denominator
_RAT = r"-?\d+(?:/0*[1-9]\d*)?"
_PART_RE = re.compile(
    rf"^(?:(?P<bra>[\[\(])\s*(?P<lo>{_RAT})\s*,\s*(?P<hi>{_RAT})\s*(?P<ket>[\]\)])"
    rf"|\{{\s*(?P<pt>{_RAT})\s*\}})$"
)


class IntervalSetParseError(ValueError):
    pass


def parse_interval_set(text: str) -> IntervalSet:
    """Parse the rendering grammar: 'empty', '{p}', '[a,b)' etc, 'u'-joined."""
    stripped = text.strip()
    if stripped == "empty":
        return IntervalSet.empty()
    ranges = []
    for chunk in stripped.split(" u "):
        m = _PART_RE.match(chunk.strip())
        if m is None:
            raise IntervalSetParseError(f"bad interval syntax: {chunk!r}")
        if m.group("pt") is not None:
            lo = hi = (Fraction(m.group("pt")), 0)
        else:
            lo = (Fraction(m.group("lo")), 0 if m.group("bra") == "[" else 1)
            hi = (Fraction(m.group("hi")), 0 if m.group("ket") == "]" else -1)
            if lo > hi:
                raise IntervalSetParseError(f"empty interval literal: {chunk!r}")
        ranges.append((lo, hi))
    return _build(sorted(ranges))
