"""Acceptance gate: twelve scenario criteria with wall-clock budgets, the
last two a scaling ceiling for the continuum checks.

Each test prints one pass/fail line. Budgets are generous on purpose;
the point is catching accidental blowups, not benchmarking.
"""

import contextlib
import random
import time
from fractions import Fraction as F

from qualred.analysis import (
    check_open_lower_sections,
    check_preservation,
    check_property_T_single,
    maximal_elements,
)
from qualred.dsl import parse_game, parse_path_script, serialize_game
from qualred.engine import (
    Operator,
    dominator_set,
    eliminated_region,
    full_pairing,
)
from qualred.intervals import IntervalSet, parse_interval_set
from qualred.lab import (
    FuzzConfig,
    GeneratorConfig,
    discretize,
    enumerate_maximal_reductions,
    fuzz,
    generate_game,
)
from qualred.reduction import (
    TraceStatus,
    is_maximal,
    run_path,
    star_reduce,
)

from conftest import fixture_text, fx1_style_text

I = IntervalSet.interval
P = IntervalSet.point

CONTINUUM_FIXTURES = ("fx1.qg", "fx4.qg", "fx5-derived.qg", "fx5-as-printed.qg")
ALL_FIXTURES = CONTINUUM_FIXTURES + (
    "fxf1.qg",
    "fx1-grid-half.qg",
    "fx5-derived-grid-half.qg",
)


@contextlib.contextmanager
def criterion(num: int, label: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL: {label}")
        raise
    took = time.perf_counter() - start
    print(f"criterion {num:02d} PASS in {took:.2f}s (budget {budget:.0f}s): {label}")
    assert took < budget, f"criterion {num} took {took:.2f}s, budget {budget}s"


def test_criterion_01(load_game):
    with criterion(1, "unique maximal element of fx1", 1.0):
        m = maximal_elements(load_game("fx1.qg"))
        assert m.kind == "boxes"
        assert [[f.render() for f in b] for b in m.boxes] == [["{1}", "{1}"]]


def test_criterion_02(load_game):
    with criterion(2, "fx1 fast limit {1}x{1}, grid oracles agree", 5.0):
        g = load_game("fx1.qg")
        t = star_reduce(g, Operator.DOUBLE)
        assert t.status is TraceStatus.CONVERGED
        assert len(t.stages) <= 2
        assert t.final == (P(1), P(1))
        for step in (F(1, 10), F(1, 100)):
            grid = discretize(g, step)
            gt = star_reduce(grid, Operator.DOUBLE)
            assert gt.final == (frozenset({"1"}), frozenset({"1"})), step


def test_criterion_03(load_game):
    with criterion(3, "three scripted limits besides the fast one", 5.0):
        g = load_game("fx5-derived.qg")
        finals = set()
        for q, name in (
            (F(1, 4), "restrict-to-1-and-quarter.path"),
            (F(1, 2), "restrict-to-1-and-half.path"),
            (F(9, 10), "restrict-to-1-and-nine-tenths.path"),
        ):
            steps = parse_path_script(fixture_text(name), g)
            t = run_path(g, Operator.DOUBLE, steps)
            assert t.path_valid == (True,), name
            expected = P(q).union(P(1))
            assert t.final == (expected, expected), name
            assert is_maximal(g, t.final, Operator.DOUBLE), name
            finals.add(t.final)
        assert len(finals) >= 3


def test_criterion_04(load_game):
    with criterion(4, "restricting fx1 to a non-limit singleton breaks equality", 1.0):
        g = load_game("fx1.qg")
        steps = parse_path_script(fixture_text("singletons.path"), g)
        t = run_path(g, Operator.DOUBLE, steps, validate=False)
        rep = check_preservation(g, t.final)
        assert not rep.equal
        assert rep.label == "EXPECTED-COUNTEREXAMPLE"
        assert rep.witness == (F(1), F(1))


def test_criterion_05():
    with criterion(5, "500-game suite: tail limit inside double limit", 60.0):
        rep = fuzz(FuzzConfig(trials=500, seed=0, checks=("limit-containment",)))
        assert len(rep.records) == 500
        assert rep.violation_count == 0, [f.to_dict() for f in rep.findings]


def test_criterion_06():
    with criterion(6, "500-game suite: C implies D at every stage", 60.0):
        rep = fuzz(FuzzConfig(trials=500, seed=0, checks=("c-implies-d",)))
        assert len(rep.records) == 500
        assert rep.violation_count == 0, [f.to_dict() for f in rep.findings]


def test_criterion_07():
    with criterion(7, "10000-seed sweep: D everywhere forces one limit", 600.0):
        sizes_cycle = ((2, 2), (2, 3), (3, 2), (3, 3))
        premise_held = 0
        for seed in range(10_000):
            g = generate_game(
                GeneratorConfig(sizes=sizes_cycle[seed % 4], seed=seed)
            )
            enum = enumerate_maximal_reductions(
                g, Operator.DOUBLE, track_condition_D=True
            )
            if not enum.condition_D_everywhere:
                continue
            premise_held += 1
            fast = star_reduce(g, Operator.DOUBLE).final
            assert enum.pairings == [fast], (seed, enum.pairings, fast)
        assert premise_held > 0


def test_criterion_08():
    with criterion(8, "500-game suite: stagewise tail/double agreement under D", 60.0):
        rep = fuzz(FuzzConfig(trials=500, seed=0, checks=("stagewise-agreement",)))
        assert len(rep.records) == 500
        assert rep.violation_count == 0, [f.to_dict() for f in rep.findings]


def test_criterion_09():
    with criterion(9, "500 games with full comparison: limits keep maximal elements", 120.0):
        for seed in range(500):
            g = generate_game(
                GeneratorConfig(sizes=(3, 3), seed=seed, with_q_reflexive=True)
            )
            t = star_reduce(g, Operator.DOUBLE)
            rep = check_preservation(g, t.final)
            assert rep.equal, (seed, rep.to_dict())


def _random_interval_set(rng: random.Random) -> IntervalSet:
    out = IntervalSet.empty()
    for _ in range(rng.randrange(4)):
        a = F(rng.randrange(-8, 9), rng.randrange(1, 5))
        b = F(rng.randrange(-8, 9), rng.randrange(1, 5))
        if a > b:
            a, b = b, a
        if a == b:
            out = out.union(P(a))
        else:
            out = out.union(I(a, b, rng.random() < 0.5, rng.random() < 0.5))
    return out


def _assert_canonical(s: IntervalSet) -> None:
    for part in s.parts:
        assert part.lo.lo_key() <= part.hi.hi_key()
    for left, right in zip(s.parts, s.parts[1:]):
        assert left.hi.hi_key() < right.lo.lo_key()
        touching = left.hi.value == right.lo.value and (
            left.hi.closed or right.lo.closed
        )
        assert not touching


def _grid_soundness(game, step: F) -> None:
    """The grid snapshot never invents eliminations or loses dominators."""
    grid = discretize(game, step)
    h = full_pairing(game)
    hg = full_pairing(grid)
    for i in range(game.n):
        sym_elim = eliminated_region(game, h, i, Operator.DOUBLE)
        grid_elim = eliminated_region(grid, hg, i, Operator.DOUBLE)
        for label in grid_elim:
            assert sym_elim.contains(F(label)), (game.name, step, i, label)
        for label in grid.labels(i):
            sym_d = dominator_set(game, h, i, F(label)).strategies
            grid_d = dominator_set(grid, hg, i, label).strategies
            for y in grid.labels(i):
                if sym_d.contains(F(y)):
                    assert y in grid_d, (game.name, step, i, label, y)


def test_criterion_10(load_game):
    with criterion(10, "algebra laws x10000, corpus round-trip, grid soundness", 60.0):
        rng = random.Random(101)
        carrier = I(-10, 10)
        for _ in range(10_000):
            a, b, c = (_random_interval_set(rng) for _ in range(3))
            u, n, d = a.union(b), a.intersect(b), a.difference(b)
            _assert_canonical(u)
            _assert_canonical(n)
            _assert_canonical(d)
            assert u == b.union(a) and n == b.intersect(a)
            assert a.union(b.union(c)) == u.union(c)
            assert a.intersect(b.intersect(c)) == n.intersect(c)
            assert a.union(n) == a and a.intersect(u) == a
            assert a.intersect(b.union(c)) == n.union(a.intersect(c))
            assert carrier - u == (carrier - a).intersect(carrier - b)
            cl = a.closure()
            assert cl.closure() == cl and a.is_subset(cl)
            p = F(rng.randrange(-40, 41), 4)
            assert u.contains(p) == (a.contains(p) or b.contains(p))
            assert n.contains(p) == (a.contains(p) and b.contains(p))
            assert d.contains(p) == (a.contains(p) and not b.contains(p))
            assert parse_interval_set(a.render()) == a

        for name in ALL_FIXTURES:
            text = fixture_text(name)
            assert serialize_game(parse_game(text)) == text, name

        for name in CONTINUUM_FIXTURES:
            for step in (F(1, 10), F(1, 100)):
                _grid_soundness(load_game(name), step)


def test_plateau_checks_scale_with_the_coordinates_read():
    # fx1-style with 4 players and 4 pieces each: every map reads its own
    # coordinate only, so neither walk grows with the other three
    for num, check in ((11, check_property_T_single), (12, check_open_lower_sections)):
        game = parse_game(fx1_style_text(4, 4))
        with criterion(num, f"{check.__name__} on fx1-style n=4, m=4", 1.0):
            assert check(game).status == "holds"
