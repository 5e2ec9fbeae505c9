"""Exact interval-set algebra over the rationals.

Sets are finite unions of intervals with rational endpoints and explicit
open/closed boundaries, kept in a canonical form: parts sorted, pairwise
disjoint, and not mergeable (two parts touching at a point where at least
one side is closed would have been merged).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator


@dataclass(frozen=True, order=False)
class Boundary:
    """One endpoint of an interval: a rational value plus a closed flag."""

    value: Fraction
    closed: bool

    def lo_key(self) -> tuple[Fraction, int]:
        # (v, 0) sorts before (v, 1): a closed lower end admits v itself.
        return (self.value, 0 if self.closed else 1)

    def hi_key(self) -> tuple[Fraction, int]:
        return (self.value, 0 if self.closed else -1)


def _point_key(p: Fraction) -> tuple[Fraction, int]:
    return (p, 0)


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
        return self.lo.lo_key() <= _point_key(p) <= self.hi.hi_key()

    def render(self) -> str:
        if self.is_degenerate():
            return "{%s}" % self.lo.value
        return self._raw()


def _maybe_interval(lo: Boundary, hi: Boundary) -> Interval | None:
    if lo.lo_key() <= hi.hi_key():
        return Interval(lo, hi)
    return None


def _mergeable(left: Interval, right: Interval) -> bool:
    # right.lo >= left.lo by sort order; merge on overlap or on touching
    # endpoints where at least one side is closed.
    if right.lo.value < left.hi.value:
        return True
    if right.lo.value == left.hi.value:
        return right.lo.closed or left.hi.closed
    return False


def _part_intersect(a: Interval, b: Interval) -> Interval | None:
    lo = a.lo if a.lo.lo_key() >= b.lo.lo_key() else b.lo
    hi = a.hi if a.hi.hi_key() <= b.hi.hi_key() else b.hi
    return _maybe_interval(lo, hi)


def _part_minus(a: Interval, b: Interval) -> list[Interval]:
    out = []
    left_hi = Boundary(b.lo.value, not b.lo.closed)
    if left_hi.hi_key() > a.hi.hi_key():
        left_hi = a.hi
    left = _maybe_interval(a.lo, left_hi)
    if left is not None:
        out.append(left)
    right_lo = Boundary(b.hi.value, not b.hi.closed)
    if right_lo.lo_key() < a.lo.lo_key():
        right_lo = a.lo
    right = _maybe_interval(right_lo, a.hi)
    if right is not None:
        out.append(right)
    return out


@dataclass(frozen=True)
class IntervalSet:
    """Canonical finite union of intervals."""

    parts: tuple[Interval, ...]

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def point(p: Fraction | int) -> "IntervalSet":
        b = Boundary(Fraction(p), True)
        return IntervalSet((Interval(b, b),))

    @staticmethod
    def interval(
        lo: Fraction | int,
        hi: Fraction | int,
        lo_closed: bool = True,
        hi_closed: bool = True,
    ) -> "IntervalSet":
        """Build from endpoints; an empty or reversed range gives the empty set."""
        part = _maybe_interval(
            Boundary(Fraction(lo), lo_closed), Boundary(Fraction(hi), hi_closed)
        )
        return IntervalSet(() if part is None else (part,))

    @staticmethod
    def from_parts(parts: Iterable[Interval]) -> "IntervalSet":
        ordered = sorted(parts, key=lambda p: (p.lo.lo_key(), p.hi.hi_key()))
        merged: list[Interval] = []
        for part in ordered:
            if merged and _mergeable(merged[-1], part):
                prev = merged.pop()
                hi = prev.hi if prev.hi.hi_key() >= part.hi.hi_key() else part.hi
                merged.append(Interval(prev.lo, hi))
            else:
                merged.append(part)
        return IntervalSet(tuple(merged))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def endpoints(self) -> Iterator[Fraction]:
        """The end values of every part, lower then upper, in order."""
        for part in self.parts:
            yield part.lo.value
            yield part.hi.value

    def contains(self, p: Fraction | int) -> bool:
        if not isinstance(p, Fraction):
            p = Fraction(p)
        return any(part.contains(p) for part in self.parts)

    def split(
        self, cuts: Iterable[Fraction]
    ) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
        """The set cut at the cuts and at its own endpoints, in order, as
        (a, b, t): a == b == t for each cut point in the set, and t the
        midpoint of each open gap (a, b) between consecutive cuts that lies
        in the set. With the set's endpoints among the cuts, each gap lies
        wholly in or out of the set, so its midpoint decides.
        """
        points = sorted(set(cuts).union(self.endpoints()))
        for k, a in enumerate(points):
            if a in self:
                yield a, a, a
            if k + 1 < len(points):
                b = points[k + 1]
                if (mid := (a + b) / 2) in self:
                    yield a, b, mid

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_parts(self.parts + other.parts)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        hits = []
        for a in self.parts:
            for b in other.parts:
                cut = _part_intersect(a, b)
                if cut is not None:
                    hits.append(cut)
        return IntervalSet.from_parts(hits)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        pieces = list(self.parts)
        for b in other.parts:
            pieces = [frag for a in pieces for frag in _part_minus(a, b)]
        return IntervalSet.from_parts(pieces)

    def is_subset(self, other: "IntervalSet") -> bool:
        # canonical parts are separated, so a part lies in the union of
        # other's parts only if it lies in one of them
        return all(
            any(
                b.lo.lo_key() <= a.lo.lo_key() and a.hi.hi_key() <= b.hi.hi_key()
                for b in other.parts
            )
            for a in self.parts
        )

    def closure(self) -> "IntervalSet":
        closed = [
            Interval(Boundary(p.lo.value, True), Boundary(p.hi.value, True))
            for p in self.parts
        ]
        return IntervalSet.from_parts(closed)

    def sup(self) -> tuple[Fraction, bool]:
        """Least upper bound and whether it is attained. Empty sets have none."""
        if self.is_empty:
            raise ValueError("empty set has no supremum")
        last = self.parts[-1].hi
        return (last.value, last.closed)

    def inf(self) -> tuple[Fraction, bool]:
        if self.is_empty:
            raise ValueError("empty set has no infimum")
        first = self.parts[0].lo
        return (first.value, first.closed)

    def pick(self) -> Fraction:
        """A concrete member, for witnesses. Raises on the empty set."""
        if self.is_empty:
            raise ValueError("cannot pick from the empty set")
        part = self.parts[0]
        if part.is_degenerate():
            return part.lo.value
        if part.lo.closed:
            return part.lo.value
        if part.hi.closed:
            return part.hi.value
        return (part.lo.value + part.hi.value) / 2

    def render(self) -> str:
        if self.is_empty:
            return "empty"
        return " u ".join(part.render() for part in self.parts)

    def __str__(self) -> str:
        return self.render()

    # frozenset's operators, so finite and interval factors read alike
    def __bool__(self) -> bool:
        return bool(self.parts)

    __contains__ = contains
    __and__ = intersect
    __sub__ = difference
    __le__ = is_subset


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
    parts = []
    for chunk in stripped.split(" u "):
        m = _PART_RE.match(chunk.strip())
        if m is None:
            raise IntervalSetParseError(f"bad interval syntax: {chunk!r}")
        if m.group("pt") is not None:
            p = Fraction(m.group("pt"))
            parts.append(Interval(Boundary(p, True), Boundary(p, True)))
        else:
            lo = Boundary(Fraction(m.group("lo")), m.group("bra") == "[")
            hi = Boundary(Fraction(m.group("hi")), m.group("ket") == "]")
            part = _maybe_interval(lo, hi)
            if part is None:
                raise IntervalSetParseError(f"empty interval literal: {chunk!r}")
            parts.append(part)
    return IntervalSet.from_parts(parts)
