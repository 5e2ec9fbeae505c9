"""Checkers: structural hypotheses, elimination safety conditions,
maximal elements, and preservation of maximal elements under reduction.
Continuum checks are decided exactly on order cells over the game's cut
points (see ``games._global_breakpoints``), walked in rank space (see
``games._Ranks``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import and_

from .games import Game, GameError, _Ranks, _ranks, _scan, eval_value
from .intervals import IntervalSet
from .engine import (
    Pairing,
    _region_where,
    dominator_set,
    factor_pick,
    full_pairing,
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


def _closure(v):
    return v if isinstance(v, frozenset) else v.closure()


def _with_coord(profile, i: int, y):
    return profile[:i] + (y,) + profile[i + 1 :]


def _scan_players(game: Game, name: str, fault, reads) -> Verdict:
    """Verdict name from fault(i, axes), player i's first witness on the
    ``cells`` walk with coordinate j on axes[j], or None. Player i's verdict
    depends only on the coordinates reads(i), so a walk that holds every
    other coordinate j at its first rank (axes[j] = n + j, see
    ``games._Ranks.axes``) and finds no fault decides it; one that faults
    (or raises) is walked again over every carrier, which meets the first
    witness of the full scan."""
    n = game.n
    every = list(range(n))
    for i in every:
        read = reads(i)
        if len(read) < n:
            try:
                if fault(i, [j if j in read else n + j for j in every]) is None:
                    continue
            except GameError:
                pass
        witness = fault(i, every)
        if witness is not None:
            return Verdict(name, "fails", witness=witness)
    return Verdict(name, "holds")


def _check_property_T(game: Game, pair: bool) -> Verdict:
    """One joint scan of x and y per player i: each y in P_i(x)
    must have a set at x with y inside P_i(x). That set is the closure of
    P_i for the single check, and Q_i for the pair check, which also needs
    P_i(x) inside Q_i(x)."""
    name = "propertyT-pair" if pair else "propertyT-single"
    if (game.comps if pair else game.prefs) is None:
        return Verdict(name, "not-checkable", note="game has no comparison map")
    scan = _scan(game)
    corrs = scan.comps if pair else scan.prefs

    def fault(i: int, axes):
        x, walk = None, scan.cells([*axes, i])
        for point in walk:
            if point[:-1] != x:
                x = point[:-1]
                px = scan.value(scan.prefs[i], x)
                if pair and not px <= scan.value(corrs[i], x):
                    return i + 1, scan.profile(x), "P-not-in-Q"
                if not px:  # no y of this x can fault
                    scan.skip(walk)
                    continue
            y = point[-1]
            if y in px:
                up = scan.value(corrs[i], _with_coord(x, i, y))
                if not (up if pair else _closure(up)) <= px:
                    return i + 1, scan.profile(x), scan.coord(y)

    reads = lambda i: scan.reads(scan.prefs[i]) | scan.reads(corrs[i]) | {i}
    return _scan_players(game, name, fault, reads)


def check_property_T_single(game: Game) -> Verdict:
    """Preferred sets shrink along preference: y above x forces everything
    above y (closure included) to sit above x as well."""
    return _check_property_T(game, pair=False)


def check_property_T_pair(game: Game) -> Verdict:
    """The comparison map must extend preference and collapse into it one
    step up: y above x makes everything comparable to y sit above x."""
    return _check_property_T(game, pair=True)


def _check_pointwise(game: Game, name: str, bad, comps: bool = False) -> Verdict:
    """Scan every profile x, or one per order cell of a continuum game, for
    each player i; fail at the first where bad(i, x, v) holds for v the
    value at x of P_i, or of Q_i when comps."""
    if comps and game.comps is None:
        return Verdict(name, "not-checkable", note="game has no comparison map")
    scan = _scan(game)
    corrs = scan.comps if comps else scan.prefs

    def fault(i: int, axes):
        for x in scan.cells(axes):
            if bad(i, x, scan.value(corrs[i], x)):
                return i + 1, scan.profile(x)

    return _scan_players(game, name, fault, lambda i: scan.reads(corrs[i]) | {i})


def check_irreflexive(game: Game) -> Verdict:
    return _check_pointwise(game, "irreflexive", lambda i, x, v: x[i] in v)


def check_strong_irreflexive(game: Game) -> Verdict:
    """No strategy sits in the closure of what it is beaten by."""
    return _check_pointwise(
        game, "strong-irreflexive", lambda i, x, v: x[i] in _closure(v)
    )


def check_q_reflexive(game: Game) -> Verdict:
    return _check_pointwise(game, "q-reflexive", lambda i, x, v: x[i] not in v, comps=True)


def check_q_closed_convex(game: Game) -> Verdict:
    def bad(i, x, v) -> bool:
        if game.is_finite:
            # label order stands in for the line: values must be contiguous runs
            idx = sorted(map(game.labels(i).index, v))
            return bool(idx) and idx[-1] - idx[0] + 1 != len(idx)
        return len(v) > 1 or v.closure() != v

    return _check_pointwise(game, "q-closed-convex", bad, comps=True)


def check_open_lower_sections(game: Game) -> Verdict:
    """Each set of profiles ranking a fixed strategy above the current one
    must be open in the product (relative to the carriers)."""
    name = "open-lower-sections"
    if game.is_finite:
        return Verdict(name, "holds", note="finite spaces are discrete")
    ranks = _scan(game)
    carriers = [ranks.span(c) for c in ranks.carriers]

    def fault(i: int, axes):
        for (y,) in ranks.cells([i]):
            # the points and y, each probed with the midpoints of the gaps
            # beside it, and those midpoints, in order; a midpoint of ranks
            # is a rank. A coordinate held fixed is probed at its rank alone.
            cuts = sorted({*ranks.rank.values(), y})
            gaps = [(a, b, (a + b) // 2) for a, b in zip(cuts, cuts[1:])]
            near = {t: [t] for t in sorted(cuts + [m for *_, m in gaps])}
            for a, b, m in gaps:
                near[a].append(m)
                near[b].append(m)
            probe_opts = [
                {t: [p for p in probes if p in c] for t, probes in near.items() if t in c}
                if a < game.n
                else {r: [r] for r, *_ in ranks.axes[a]}
                for a, c in zip(axes, carriers)
            ]
            for x in itertools.product(*probe_opts):
                if y not in ranks.value(ranks.prefs[i], x):
                    continue
                for probe in itertools.product(*(o[c] for o, c in zip(probe_opts, x))):
                    if y not in ranks.value(ranks.prefs[i], probe):
                        return i + 1, ranks.coord(y), ranks.profile(x)

    return _scan_players(game, name, fault, lambda i: ranks.reads(ranks.prefs[i]))


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


def find_undominated_dominator(game: Game, h: Pairing, i: int, x):
    """A dominator of x at h that is itself undominated at h, drawn from
    the player's surviving set, or None when there is none. The regions
    are exact, so a miss is definitive on continuum games too."""
    if not all(h[j] for j in range(game.n) if j != i):
        raise GameError("precondition unmet: an opponent factor is empty")
    d = dominator_set(game, h, i, x).strategies
    if not d:
        raise GameError("precondition unmet: the strategy is not dominated")
    pool = (d & h[i]) - _region_where(game, h, i, domain=full_pairing(game)[i])
    return factor_pick(game, i, pool) if pool else None


@dataclass
class MaximalElements:
    """Profiles of a finite game in product order, or the canonical boxes
    (see ``_boxes``) of a continuum region, sorted by their rendering."""

    kind: str  # "profiles" | "boxes"
    profiles: list[tuple] = field(default_factory=list)
    boxes: list[tuple[IntervalSet, ...]] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not self.profiles and not self.boxes


def _boxes(ranks: _Ranks, cells: set[tuple[tuple[int, int], ...]]) -> list[tuple]:
    """The canonical boxes of a union of product cells, each a tuple of
    rank parts (see ``games._Ranks.part``). At the first coordinate, the
    parts with the same cross-section share one factor, and each
    cross-section is split likewise, so the boxes depend on the region
    only, not on the points that cut it."""

    def split(cells) -> list[tuple]:
        if () in cells:
            return [()]
        sections: dict[tuple, set] = {}
        for c in cells:
            sections.setdefault(c[0], set()).add(c[1:])
        groups: dict[frozenset, list[tuple]] = {}
        for part, tails in sections.items():
            groups.setdefault(frozenset(tails), []).append(part)
        return [
            (ranks.back(parts),) + box
            for tails, parts in groups.items()
            for box in split(tails)
        ]

    return sorted(split(cells), key=lambda box: [f.render() for f in box])


def _continuum_regions(game: Game, h: Pairing):
    """Maximal elements of a continuum game and of the game reduced to h,
    and the first order-cell point maximal in the first only, or else in
    the second only (None when they agree). At a profile x of h the
    reduced P_i(x) is P_i(x) cut to h[i], so one pass over the order
    cells, cut at h's endpoints too, decides both. A union of boxes holds
    each product cell (a constant or open gap on every axis) wholly or not
    at all; a region that splits one, like x1 >= x2, raises GameError."""
    ranks, kept = _ranks(game, *h)
    cells: dict[tuple, tuple[bool, bool]] = {}
    first: dict[tuple[bool, bool], tuple] = {}
    for x in ranks.cells(list(range(game.n))):
        key = tuple(map(ranks.part, x))
        orig, red = True, all(t in f for t, f in zip(x, kept))
        for corr, f in zip(ranks.prefs, kept):
            if not (orig or red):
                break
            v = ranks.value(corr, x)
            if v:
                orig, red = False, red and not (v & f)
        if cells.setdefault(key, (orig, red)) != (orig, red):
            raise GameError(
                "the maximal elements are not a finite union of boxes: "
                f"near profile {_fmt(ranks.profile(x))} they depend on the order of coordinates"
            )
        first.setdefault((orig, red), x)
    original, reduced = (
        MaximalElements("boxes", boxes=_boxes(ranks, {c for c, m in cells.items() if m[k]}))
        for k in (0, 1)
    )
    witness = first.get((True, False)) or first.get((False, True))
    return original, reduced, witness and ranks.profile(witness)


def maximal_elements(game: Game) -> MaximalElements:
    """Profiles at which nobody prefers any replacement: all P_i empty.
    Finite profiles come in product order, read from the compiled masks;
    a continuum region comes as its canonical boxes, or raises GameError
    when it is not a finite union of boxes (see ``_continuum_regions``)."""
    if game.is_finite:
        masks = zip(*(r.flat for r in _scan(game).rows))
        profiles = list(itertools.compress(game.profiles(), (not any(m) for m in masks)))
        return MaximalElements("profiles", profiles=profiles)
    # reduced to empty sets, the game has no maximal elements: the scan
    # evaluates the original side only
    return _continuum_regions(game, (IntervalSet.empty(),) * game.n)[0]


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
    the preservation hypotheses already fails (or cannot be checked).

    The reduced game is never built: at a profile x of final its P_i(x)
    is P_i(x) cut to final[i]. A finite witness is the least profile
    maximal on one side only, a continuum one as in ``_continuum_regions``.
    """
    if game.is_finite:
        original = maximal_elements(game)
        rows = _scan(game).rows
        keep = [sum(b for s, b in r.bit.items() if s in f) for r, f in zip(rows, final)]
        profiles = [
            x
            for x, *masks in zip(game.profiles(), *(r.flat for r in rows))
            if all(t in f for t, f in zip(x, final)) and not any(map(and_, masks, keep))
        ]
        reduced = MaximalElements("profiles", profiles=profiles)
        witness = min(set(original.profiles) ^ set(reduced.profiles), default=None)
    else:
        original, reduced, witness = _continuum_regions(game, final)
    equal = witness is None
    hypotheses = check_hypotheses(game, ["irreflexive", "propertyT-pair", "z-star"])
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
