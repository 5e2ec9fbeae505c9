"""Self-test of the reference code on games worked out by hand.

Every benchmark run runs it before timing, in the process that computes
the reference answers, and reports ``correct: false`` if any case fails.
"""

from __future__ import annotations

from fractions import Fraction as F

import reference as ref

HALF = F(1, 2)


def _fxf1():
    """fxf1.qg: a beats b for player 1 and c beats d for player 2 whatever
    the other plays, so one step leaves {a} x {c}, the only maximal
    profile. Single removals reach 4 states: full, drop b, drop d, both."""
    labels = [("a", "b"), ("c", "d")]
    u1 = {("a", "c"): 1, ("a", "d"): 1, ("b", "c"): 0, ("b", "d"): 0}
    u2 = {("a", "c"): 1, ("a", "d"): 0, ("b", "c"): 1, ("b", "d"): 0}
    return ref.FiniteRef.from_utils(labels, [u1, u2])


def _fx1_grid_half():
    """fx1-grid-half.qg typed from the file: P_i(x) = grid points above x_i."""
    pts = ("0", "1/2", "1")
    above = {"0": {"1/2", "1"}, "1/2": {"1"}, "1": set()}
    better = [
        {(a, b): frozenset(above[a]) for a in pts for b in pts},
        {(a, b): frozenset(above[b]) for a in pts for b in pts},
    ]
    return ref.FiniteRef([pts, pts], better)


def cases():
    fxf1 = _fxf1()
    limit = (frozenset("a"), frozenset("c"))
    for op in ref.OPS:
        yield f"fxf1 {op} limit", fxf1.fast_stages(op)[-1] == limit
        yield f"fxf1 {op} stages", len(fxf1.fast_stages(op)) == 2
    yield "fxf1 maximal", fxf1.maximal() == {("a", "c")}
    yield "fxf1 walk", fxf1.walk() == (4, {limit}, True)
    yield "fxf1 condition D at full", not any(fxf1.condition_bad(fxf1.full(), "D"))

    grid = _fx1_grid_half()
    one = (frozenset({"1"}), frozenset({"1"}))
    yield "fx1-grid-half double stages", grid.fast_stages("double") == (grid.full(), one)
    yield "fx1-grid-half maximal", grid.maximal() == {("1", "1")}
    # 3 points per axis, 2 players: 2^(2*(3-1)) = 16 states, one terminal
    yield "fx1-grid-half walk", grid.walk() == (16, {one}, True)

    fx1 = ref.Plateau(0, 1, (1, 1), with_comps=False)
    snap = ref.plateau_snapshot(fx1, HALF)
    yield "fx1 snapshot matches the file", snap.better == grid.better
    yield "fx1 oracle count", ref.plateau_oracle_count(fx1, HALF) == (16, one)

    # a cut at 1/2 on [0,1] with step 1/4: points 0 and 1/4 fall below
    # it for each player, so 2^4 states end at {1/2,3/4,1}^2
    p = ref.Plateau(0, 1, (HALF, HALF), with_comps=False)
    count, terminal = ref.plateau_oracle_count(p, F(1, 4))
    visited, ends, _ = ref.plateau_snapshot(p, F(1, 4)).walk()
    yield "plateau count by formula", count == 16 and terminal[0] == {"1/2", "3/4", "1"}
    yield "plateau count by walk", (visited, ends) == (count, {terminal})
    # the rows the snapshot check uses agree with the table at every profile
    p = ref.Plateau(0, 1, (F(1, 3), F(2, 3)), with_comps=False)
    snap = ref.plateau_snapshot(p, F(1, 6))
    labels, rows = ref.plateau_rows(p, F(1, 6))
    yield "plateau rows match the snapshot", all(
        snap.better[i][x] == rows[i][x[i]] for i in range(p.n) for x in snap.profiles()
    ) and snap.labels == [labels] * p.n

    half_open = ref.iv(0, 1, False, True)
    yield "interval ends", not ref.contains(half_open, 0) and ref.contains(half_open, 1)
    yield "empty interval", ref.iv(1, 1, False, True) == ()

    cross = ref.Crossing(1, 2)  # fx4.qg
    yield "fx4 strong-irreflexive witness", ref.witness_ok(cross, "strong-irreflexive", (1, (F(1), F(2))))
    yield "fx4 non-witness", not ref.witness_ok(cross, "strong-irreflexive", (1, (F(0), F(2))))
    yield "fx4 open-lower-sections witness", ref.witness_ok(cross, "open-lower-sections", (1, F(2), (F(1), F(2))))
    yield "fx4 interior non-witness", not ref.witness_ok(
        cross, "open-lower-sections", (1, F(3, 2), (HALF, F(7, 4)))
    )
    yield "fx4 maximal", cross.maximal((F(0), F(1))) and cross.maximal((F(2), F(3, 2)))
    yield "fx4 not maximal", not cross.maximal((F(1), F(2)))


def run() -> list[str]:
    return [name for name, ok in cases() if not ok]
