"""Checkers: structural hypotheses, elimination safety conditions,
maximal elements, and preservation of maximal elements under reduction.

Continuum checks are decided exactly on a finite set of order cells.
Every constant appearing in carriers, cells, clips or values splits the
line into constants and open gaps. A check compares coordinates only with
each other and with those constants, so its verdict is constant on each
order cell (which constant or gap each coordinate sits at, plus the weak
order of coordinates sharing a gap), and one point per cell decides the
whole space.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from .games import (
    Box,
    Const,
    Coord,
    EmptyValue,
    Game,
    GameError,
    PiecewiseMap,
    _piece_index,
    box_intersect,
    box_is_empty,
    box_pick_point,
    boxes_subtract,
    eval_value,
    piece_value,
)
from .intervals import IntervalSet
from .engine import (
    Pairing,
    _finite_rows,
    _region_where,
    dominator_set,
    factor_pick,
    full_pairing,
    restrict,
)

def _fmt(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


@dataclass
class Verdict:
    name: str
    status: str  # "holds" | "fails" | "not-checkable"
    witness: tuple | None = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "holds"

    def to_dict(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = [_fmt(w) for w in self.witness]
        if self.note:
            out["note"] = self.note
        return out


def _global_breakpoints(game: Game) -> list[Fraction]:
    values: set[Fraction] = set()
    for i in range(game.n):
        values.update(game.carrier(i).endpoints())
    for corr in game.prefs + (game.comps or ()):
        if corr.clip is not None:
            values.update(corr.clip.endpoints())
        index = _piece_index(game, corr)
        values.update(index.consts, *index.cuts)
    return sorted(values)


def _order_cells(game: Game, players: list[int]):
    """One point per order cell of a continuum game, in lexicographic order.

    Coordinate k ranges over the carrier of player players[k]. A cell fixes
    which constant, or which open gap between consecutive constants, each
    coordinate sits at, plus the weak order of the coordinates that share
    a gap. Every check compares coordinates only with each other and with
    the game's constants, so its truth is constant on each cell
    (quantifier elimination for dense linear orders).

    Gap (a, b) offers the grid points a + (b - a) * k / (n + 2) for
    k = 1..n+1, enough for n + 1 coordinates. Yielded are the grid points
    least in their cell: those whose positions in each gap are 1..R. The
    first grid point of a lexicographic scan that fails a check is least
    in its cell, so a scan of these points meets the same first witness as
    a scan of the whole grid.
    """
    points = _global_breakpoints(game)
    slots = game.n + 1

    def options(carrier: IntervalSet) -> list[tuple[Fraction, int, int]]:
        # (value, gap or -1 at a constant, position in the gap), in order;
        # the carrier's endpoints are among the points
        out = []
        for a, b, _ in carrier.split(points):
            if a == b:
                out.append((a, -1, 0))
            else:
                g = bisect_left(points, a)
                out.extend(
                    (a + (b - a) * Fraction(k, slots + 1), g, k)
                    for k in range(1, slots + 1)
                )
        return out

    axes = [options(game.carrier(j)) for j in players]
    # per gap: the coordinates at each position, and the highest one used
    count = [[0] * (slots + 1) for _ in points]
    top = [0] * len(points)
    point: list[Fraction] = []

    def walk(t: int, missing: int):
        # missing: unused positions below the highest one used, summed over
        # the gaps; only the coordinates after this one can fill them
        if t == len(axes):
            if not missing:
                yield tuple(point)
            return
        for value, g, k in axes[t]:
            now = missing
            if g >= 0:
                high = top[g]
                if not count[g][k]:  # fills a hole, or opens those up to k
                    now += k - high - 1 if k > high else -1
                count[g][k] += 1
                top[g] = max(high, k)
            if now < len(axes) - t:
                point.append(value)
                yield from walk(t + 1, now)
                point.pop()
            if g >= 0:
                count[g][k] -= 1
                top[g] = high

    return walk(0, 0)


def _points(game: Game, players: list[int]):
    """Every profile over the players' label axes of a finite game, or one
    point per order cell of a continuum game, in lexicographic order."""
    if game.is_finite:
        return itertools.product(*(game.labels(j) for j in players))
    return _order_cells(game, players)


def _closure(v):
    return v.closure() if isinstance(v, IntervalSet) else v


def _with_coord(profile, i: int, y):
    return profile[:i] + (y,) + profile[i + 1 :]


def check_property_T_single(game: Game) -> Verdict:
    """Preferred sets shrink along preference: y above x forces everything
    above y (closure included) to sit above x as well."""
    name = "propertyT-single"
    for i in range(game.n):
        x = None
        for point in _points(game, [*range(game.n), i]):
            if point[:-1] != x:
                x = point[:-1]
                px = eval_value(game, game.prefs[i], x)
            y = point[-1]
            if y in px:
                py = eval_value(game, game.prefs[i], _with_coord(x, i, y))
                if not _closure(py) <= px:
                    return Verdict(name, "fails", witness=(i + 1, x, y))
    return Verdict(name, "holds")


def check_property_T_pair(game: Game) -> Verdict:
    """The comparison map must extend preference and collapse into it one
    step up: y above x makes everything comparable to y sit above x."""
    name = "propertyT-pair"
    if game.comps is None:
        return Verdict(name, "not-checkable", note="game has no comparison map")
    for i in range(game.n):
        x = None
        for point in _points(game, [*range(game.n), i]):
            if point[:-1] != x:
                x = point[:-1]
                px = eval_value(game, game.prefs[i], x)
                if not px <= eval_value(game, game.comps[i], x):
                    return Verdict(name, "fails", witness=(i + 1, x, "P-not-in-Q"))
            y = point[-1]
            if y in px:
                qy = eval_value(game, game.comps[i], _with_coord(x, i, y))
                if not qy <= px:
                    return Verdict(name, "fails", witness=(i + 1, x, y))
    return Verdict(name, "holds")


def _check_pointwise(game: Game, name: str, pred) -> Verdict:
    """Run a per-profile predicate over every profile, or over one profile
    per order cell of a continuum game.

    pred(i, x) returns None or a witness tuple.
    """
    for i in range(game.n):
        for x in _points(game, list(range(game.n))):
            bad = pred(i, x)
            if bad is not None:
                return Verdict(name, "fails", witness=bad)
    return Verdict(name, "holds")


def check_irreflexive(game: Game) -> Verdict:
    def pred(i, x):
        v = eval_value(game, game.prefs[i], x)
        return (i + 1, x) if x[i] in v else None

    return _check_pointwise(game, "irreflexive", pred)


def check_strong_irreflexive(game: Game) -> Verdict:
    """No strategy sits in the closure of what it is beaten by."""

    def pred(i, x):
        v = _closure(eval_value(game, game.prefs[i], x))
        return (i + 1, x) if x[i] in v else None

    return _check_pointwise(game, "strong-irreflexive", pred)


def check_q_reflexive(game: Game) -> Verdict:
    name = "q-reflexive"
    if game.comps is None:
        return Verdict(name, "not-checkable", note="game has no comparison map")

    def pred(i, x):
        v = eval_value(game, game.comps[i], x)
        return None if x[i] in v else (i + 1, x)

    return _check_pointwise(game, name, pred)


def check_q_closed_convex(game: Game) -> Verdict:
    name = "q-closed-convex"
    if game.comps is None:
        return Verdict(name, "not-checkable", note="game has no comparison map")
    if game.is_finite:
        # label order stands in for the line: values must be contiguous runs
        def pred(i, x):
            v = eval_value(game, game.comps[i], x)
            if not v:
                return None
            order = {s: k for k, s in enumerate(game.labels(i))}
            idx = sorted(order[s] for s in v)
            if idx[-1] - idx[0] + 1 != len(idx):
                return (i + 1, x)
            return None

        return _check_pointwise(game, name, pred)

    def pred(i, x):
        v = eval_value(game, game.comps[i], x)
        if v.is_empty:
            return None
        if len(v.parts) > 1 or v.closure() != v:
            return (i + 1, x)
        return None

    return _check_pointwise(game, name, pred)


def check_open_lower_sections(game: Game) -> Verdict:
    """Each set of profiles ranking a fixed strategy above the current one
    must be open in the product (relative to the carriers)."""
    name = "open-lower-sections"
    if game.is_finite:
        return Verdict(name, "holds", note="finite spaces are discrete")
    base_points = _global_breakpoints(game)
    carriers = [game.carrier(j) for j in range(game.n)]

    # P_i(x) per (i, x), kept for this call only: the probes revisit profiles
    values: dict[tuple, IntervalSet] = {}

    def member(i: int, y: Fraction, x) -> bool:
        if (i, x) not in values:
            values[i, x] = eval_value(game, game.prefs[i], x)
        return y in values[i, x]

    for i in range(game.n):
        for (y,) in _order_cells(game, [i]):
            probe_opts: list[dict[Fraction, list[Fraction]]] = []
            for carrier in carriers:
                cells = list(carrier.split([*base_points, y]))
                opts = {}
                for k, (a, b, t) in enumerate(cells):
                    # a constant is probed with the midpoints of the gaps beside it
                    near = cells[max(k - 1, 0) : k + 2] if a == b else []
                    opts[t] = [t] + [m for c, d, m in near if c != d and t in (c, d)]
                probe_opts.append(opts)
            for x in itertools.product(*probe_opts):
                if not member(i, y, x):
                    continue
                for probe in itertools.product(*(o[c] for o, c in zip(probe_opts, x))):
                    if not member(i, y, probe):
                        return Verdict(name, "fails", witness=(i + 1, y, x))
    return Verdict(name, "holds")


def check_z_star(game: Game) -> Verdict:
    """Existence, at every profile, of an own strategy comparable to all
    own replacements at once."""
    name = "z-star"
    if not game.is_finite:
        return Verdict(
            name, "not-checkable", note="needs finite spaces"
        )
    if game.comps is None:
        return Verdict(name, "not-checkable", note="game has no comparison map")
    for x in game.profiles():
        for i in range(game.n):
            common = None
            for z in game.labels(i):
                v = eval_value(game, game.comps[i], _with_coord(x, i, z))
                common = v if common is None else common & v
                if not common:
                    return Verdict(name, "fails", witness=(i + 1, x))
    return Verdict(name, "holds")


HYPOTHESIS_CHECKS = {
    "irreflexive": check_irreflexive,
    "strong-irreflexive": check_strong_irreflexive,
    "propertyT-single": check_property_T_single,
    "propertyT-pair": check_property_T_pair,
    "q-reflexive": check_q_reflexive,
    "q-closed-convex": check_q_closed_convex,
    "open-lower-sections": check_open_lower_sections,
    "z-star": check_z_star,
}


def check_hypotheses(game: Game, names: list[str] | None = None) -> dict[str, Verdict]:
    if names is None:
        names = list(HYPOTHESIS_CHECKS)
    unknown = [name for name in names if name not in HYPOTHESIS_CHECKS]
    if unknown:
        raise GameError(f"unknown hypothesis {unknown[0]!r}")
    return {name: HYPOTHESIS_CHECKS[name](game) for name in names}


def check_condition_D(game: Game, h: Pairing) -> Verdict:
    """Everything dominated at h has a dominator still alive in h."""
    name = "condition-D"
    full = full_pairing(game)
    for i in range(game.n):
        dominated = _region_where(game, h, i, domain=full[i])
        bad = dominated - _region_where(game, h, i, domain=dominated, member=h[i])
        if bad:
            return Verdict(name, "fails", witness=(i + 1, factor_pick(game, i, bad)))
    return Verdict(name, "holds")


def check_condition_C(game: Game, h: Pairing) -> Verdict:
    """Everything dominated at h has a dominator that is itself
    undominated at h."""
    name = "condition-C"
    full = full_pairing(game)
    for i in range(game.n):
        dominated = _region_where(game, h, i, domain=full[i])
        good = _region_where(game, h, i, domain=dominated, member=full[i] - dominated)
        bad = dominated - good
        if bad:
            return Verdict(name, "fails", witness=(i + 1, factor_pick(game, i, bad)))
    return Verdict(name, "holds")


@dataclass
class DominatorSearch:
    strategy: object | None
    definitive: bool


def find_undominated_dominator(game: Game, h: Pairing, i: int, x) -> DominatorSearch:
    """A dominator of x at h that is itself undominated at h, drawn from
    the player's surviving set. A continuum miss is inconclusive."""
    if not all(h[j] for j in range(game.n) if j != i):
        raise GameError("precondition unmet: an opponent factor is empty")
    d = dominator_set(game, h, i, x).strategies
    if not d:
        raise GameError("precondition unmet: the strategy is not dominated")
    if game.is_finite:
        dom = _finite_rows(game, i).dominators(h)
        for y in game.labels(i):
            if y in d and y in h[i] and not dom[y]:
                return DominatorSearch(y, True)
        return DominatorSearch(None, True)
    domain = game.carrier(i)
    dominated = _region_where(game, h, i, domain=domain)
    pool = d.intersect(h[i]).difference(dominated)
    if not pool.is_empty:
        return DominatorSearch(pool.pick(), True)
    return DominatorSearch(None, False)


@dataclass
class MaximalElements:
    kind: str  # "profiles" | "boxes"
    profiles: list[tuple] = field(default_factory=list)
    boxes: list[Box] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not self.profiles and not self.boxes


def _value_empty_boxes(game: Game, corr: PiecewiseMap, piece) -> list[Box]:
    """The part of the piece's cell where its value, clip included, is empty.

    The value reads at most one coordinate j and compares it only with its
    constant ends and the clip's endpoints, so a scan of the cell's factor j
    over those cuts decides the region exactly. A constant value reads no
    coordinate; scanning factor 0 then keeps all of it or nothing.
    """
    cell: Box = tuple(piece.cell.factors)
    v = piece.value
    if isinstance(v, EmptyValue):
        return [cell]
    read = {e.player - 1 for e in (v.lo, v.hi) if isinstance(e, Coord)}
    if len(read) > 1:
        raise GameError(
            "region extraction does not support values whose two "
            "endpoints track different players"
        )
    j = read.pop() if read else 0
    cuts = [e.value for e in (v.lo, v.hi) if isinstance(e, Const)]
    if corr.clip is not None:
        cuts.extend(corr.clip.endpoints())
    n = game.n
    factor = cell[j].select(cuts, lambda t: piece_value(corr, piece, (t,) * n).is_empty)
    return [cell[:j] + (factor,) + cell[j + 1 :]] if factor else []


def _merge_boxes(boxes: list[Box]) -> list[Box]:
    current = [b for b in boxes if not box_is_empty(b)]
    changed = True
    while changed:
        changed = False
        for a in range(len(current)):
            for b in range(a + 1, len(current)):
                diff = [
                    k
                    for k in range(len(current[a]))
                    if current[a][k] != current[b][k]
                ]
                if len(diff) <= 1:
                    merged = list(current[a])
                    if diff:
                        k = diff[0]
                        merged[k] = current[a][k].union(current[b][k])
                    current = (
                        current[:a]
                        + [tuple(merged)]
                        + current[a + 1 : b]
                        + current[b + 1 :]
                    )
                    changed = True
                    break
            if changed:
                break
    return sorted(current, key=lambda box: [f.render() for f in box])


def maximal_elements(game: Game) -> MaximalElements:
    """Profiles at which nobody prefers any replacement: all P_i empty.
    Finite profiles come in product order, read from the compiled masks."""
    if game.is_finite:
        masks = zip(*(_finite_rows(game, i).flat for i in range(game.n)))
        profiles = list(itertools.compress(game.profiles(), (not any(m) for m in masks)))
        return MaximalElements("profiles", profiles=profiles)
    regions = [[tuple(game.carrier(j) for j in range(game.n))]]
    for i in range(game.n):
        corr = game.prefs[i]
        empty_boxes: list[Box] = []
        for piece in corr.pieces:
            empty_boxes.extend(_value_empty_boxes(game, corr, piece))
        regions.append(empty_boxes)
    current = regions[0]
    for empty_boxes in regions[1:]:
        nxt = []
        for a in current:
            for b in empty_boxes:
                cut = box_intersect(a, b)
                if not box_is_empty(cut):
                    nxt.append(cut)
        current = nxt
    return MaximalElements("boxes", boxes=_merge_boxes(current))


@dataclass
class PreservationReport:
    equal: bool
    original: MaximalElements
    reduced: MaximalElements
    witness: tuple | None
    hypotheses: dict[str, Verdict]
    label: str | None

    def to_dict(self) -> dict:
        def side(m: MaximalElements) -> list:
            if m.kind == "profiles":
                return [list(x) for x in m.profiles]
            return [[f.render() for f in box] for box in m.boxes]

        out = {
            "equal": self.equal,
            "original_maximal": side(self.original),
            "reduced_maximal": side(self.reduced),
            "hypotheses": {k: v.to_dict() for k, v in self.hypotheses.items()},
        }
        if self.witness is not None:
            out["witness"] = [str(w) for w in self.witness]
        if self.label is not None:
            out["label"] = self.label
        return out


def check_preservation(game: Game, final: Pairing) -> PreservationReport:
    """Compare maximal elements before reduction and inside the reduced
    game. Inequality is labeled an expected counterexample whenever one of
    the preservation hypotheses already fails (or cannot be checked)."""
    original = maximal_elements(game)
    reduced_game = restrict(game, final)
    reduced = maximal_elements(reduced_game)
    witness = None
    if game.is_finite:
        a, b = set(original.profiles), set(reduced.profiles)
        equal = a == b
        if not equal:
            sym = sorted(a ^ b)
            witness = sym[0]
    else:
        only_a = boxes_subtract(original.boxes, reduced.boxes)
        only_b = boxes_subtract(reduced.boxes, original.boxes)
        equal = not only_a and not only_b
        if not equal:
            pool = only_a if only_a else only_b
            witness = box_pick_point(pool[0])
    hypotheses = {
        "irreflexive": check_irreflexive(game),
        "propertyT-pair": check_property_T_pair(game),
        "z-star": check_z_star(game),
    }
    label = None
    if not equal:
        if all(v.status == "holds" for v in hypotheses.values()):
            label = "THEOREM-VIOLATION"
        else:
            label = "EXPECTED-COUNTEREXAMPLE"
    return PreservationReport(
        equal=equal,
        original=original,
        reduced=reduced,
        witness=witness,
        hypotheses=hypotheses,
        label=label,
    )
