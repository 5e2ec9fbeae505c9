"""Reduction driver: fast iteration, scripted paths, operator semantics."""

import inspect
import random
from fractions import Fraction as F
from importlib import resources

import pytest

from qualred import engine, reduction
from qualred.dsl import PathScriptError, parse_game, parse_path_script
from qualred.engine import Operator, _region_where, eliminated_region, full_pairing, restrict
from qualred.games import GameError
from qualred.intervals import IntervalSet
from qualred.lab import GeneratorConfig, generate_game
from qualred.reduction import (
    InvalidRemoval,
    TraceStatus,
    is_maximal,
    path_step,
    run_path,
    star_reduce,
)

from conftest import fixture_text
from test_cell_scan import random_game_text
from test_maximal_regions import _restriction

I = IntervalSet.interval
P = IntervalSet.point


def script(name: str, game):
    return parse_path_script(fixture_text(name), game)


def test_fast_reduce_fx1_two_stages(load_game):
    g = load_game("fx1.qg")
    t = star_reduce(g, Operator.DOUBLE)
    assert t.status is TraceStatus.CONVERGED
    assert len(t.stages) == 2
    assert t.final == (P(1), P(1))
    assert t.eliminated[0] == (I(0, 1, True, False), I(0, 1, True, False))
    # simultaneous removal: each survivor ruled out by the surviving 1
    assert t.fast_condition_audit == (True,)


def test_fast_reduce_all_operators_agree_on_fx1(load_game):
    g = load_game("fx1.qg")
    finals = {op: star_reduce(g, op).final for op in Operator}
    assert set(finals.values()) == {(P(1), P(1))}


def test_fast_reduce_finite(load_game):
    g = load_game("fxf1.qg")
    t = star_reduce(g, Operator.DOUBLE)
    assert t.status is TraceStatus.CONVERGED
    assert t.final == (frozenset({"a"}), frozenset({"c"}))
    assert t.kind == "fast"


def test_max_iters_caps(load_game):
    g = load_game("fx5-derived.qg")
    t = star_reduce(g, Operator.DOUBLE, max_iters=1)
    # the fast double step leaves {1}x{1} immediately here, so force arrow
    assert t.status in (TraceStatus.CONVERGED, TraceStatus.CAPPED)
    assert len(t.stages) <= 2


def test_scripted_paths_reach_distinct_limits(load_game):
    g = load_game("fx5-derived.qg")
    finals = set()
    for name in (
        "restrict-to-1-and-quarter.path",
        "restrict-to-1-and-half.path",
        "restrict-to-1-and-nine-tenths.path",
    ):
        t = run_path(g, Operator.DOUBLE, script(name, g))
        assert t.status is TraceStatus.CONVERGED
        assert t.path_valid == (True,)
        assert is_maximal(g, t.final, Operator.DOUBLE)
        finals.add(t.final)
    assert len(finals) == 3
    fast = star_reduce(g, Operator.DOUBLE).final
    assert fast == (P(1), P(1))
    assert fast not in finals


def test_path_operator_semantics_differ(load_game):
    g = load_game("fx5-derived.qg")
    # removing [0,1/2) for player 1 only: dominators of x < 1/2 must
    # survive the step for tail, but only pre-step presence matters for arrow
    steps = [{0: I(0, F(1, 2), True, False)}]
    for op in (Operator.ARROW, Operator.TAIL, Operator.DOUBLE):
        t = run_path(g, op, steps)
        assert t.path_valid == (True,), op


def test_invalid_removal_raises_with_witness(load_game):
    g = load_game("fx1.qg")
    steps = [{0: P(1)}]  # 1 is never dominated
    with pytest.raises(InvalidRemoval) as info:
        run_path(g, Operator.DOUBLE, steps)
    assert info.value.player == 1
    assert info.value.witness == F(1)


def test_validate_off_records_invalid_steps(load_game):
    g = load_game("fx1.qg")
    t = run_path(g, Operator.DOUBLE, script("singletons.path", g), validate=False)
    assert t.path_valid == (False,)
    assert t.final == (P(F(1, 2)), P(F(1, 2)))
    assert t.status is TraceStatus.CONVERGED  # nothing eliminable remains


def test_removal_outside_current_set_always_rejected(load_game):
    g = load_game("fx1.qg")
    steps = [{0: I(2, 3)}]
    with pytest.raises(InvalidRemoval):
        run_path(g, Operator.DOUBLE, steps, validate=False)


def test_vacuous_when_everything_removed(load_game):
    g = load_game("fxf1.qg")
    steps = [{0: frozenset({"a", "b"})}]
    t = run_path(g, Operator.DOUBLE, steps, validate=False)
    assert t.status is TraceStatus.VACUOUS


@pytest.mark.parametrize("op", list(Operator))
def test_an_empty_factor_from_the_start_is_vacuous(load_game, op):
    # both reductions read one rule: a trace ending at an empty factor is vacuous
    g = restrict(load_game("fxf1.qg"), (frozenset(), frozenset({"c", "d"})))
    fast, path = star_reduce(g, op), run_path(g, op, [{}])
    assert fast.stages == path.stages[:1] == (full_pairing(g),)
    assert fast.status is path.status is TraceStatus.VACUOUS


def test_path_script_parse_errors(load_game):
    g = load_game("fx1.qg")
    with pytest.raises(PathScriptError) as info:
        parse_path_script("step: player=1 remove=[0,oops)\n", g)
    assert info.value.line == 1
    with pytest.raises(PathScriptError):
        parse_path_script("step: player=9 remove=[0,1/2)\n", g)
    with pytest.raises(PathScriptError):
        parse_path_script("wat\n", g)
    gf = load_game("fxf1.qg")
    with pytest.raises(PathScriptError):
        # finite removals need label-set syntax
        parse_path_script("step: player=1 remove=[0,1/2)\n", gf)
    steps = parse_path_script("# comment\n\nstep: player=1 remove={a}\n", gf)
    assert steps == [{0: frozenset({"a"})}]


def test_audit_flags_mutually_supporting_removals(load_game):
    g = load_game("fxf1.qg")
    gm = restrict(g, full_pairing(g))  # identity restrict keeps tables
    t = star_reduce(gm, Operator.DOUBLE)
    assert all(t.fast_condition_audit)


def test_grid_traces(load_game):
    g = load_game("fx1-grid-half.qg")
    t = star_reduce(g, Operator.DOUBLE)
    assert t.final == (frozenset({"1"}), frozenset({"1"}))
    g5 = load_game("fx5-derived-grid-half.qg")
    t5 = star_reduce(g5, Operator.DOUBLE)
    assert t5.final == (frozenset({"1/2", "1"}), frozenset({"1/2", "1"}))
    assert is_maximal(g5, t5.final, Operator.DOUBLE)


ARROW_AUDIT = """game "arrow-audit"
space 1 = finite {a, b}
space 2 = finite {c}
pref 1 table:
  at a,c: {b}
  at b,c: {}
pref 2 table:
  at a,c: {c}
  at b,c: {c}
"""


@pytest.mark.parametrize("op", [Operator.ARROW, Operator.TAIL])
def test_audit_reads_the_produced_pairing(op):
    # one fast step removes a and empties player 2; on the produced pairing
    # a has no opponent left to be beaten against, so the audit fails under
    # both operators, as the step's condition is the same
    g = parse_game(ARROW_AUDIT)
    t = star_reduce(g, op)
    assert t.eliminated[0] == (frozenset({"a"}), frozenset({"c"}))
    assert t.fast_condition_audit == (False,)


@pytest.mark.parametrize("name", ["fx1.qg", "fx4.qg", "fxf1.qg"])
def test_one_judgement_per_player_per_stage(load_game, name, monkeypatch):
    """A converged fast reduction asks for each player's region once at
    every stage: the next removals and the step's audit share it."""
    g = load_game(name)
    calls = []
    for module in (engine, reduction):
        real = module._region_where
        monkeypatch.setattr(
            module, "_region_where", lambda *a, real=real, **k: calls.append(1) or real(*a, **k)
        )
    for op in Operator:
        calls.clear()
        t = star_reduce(g, op)
        assert t.status is TraceStatus.CONVERGED
        assert len(calls) == g.n * len(t.stages), op


def _seeded_restriction(g, rng):
    if not g.is_finite:
        return tuple(map(IntervalSet.intersect, _restriction(rng, g.n), full_pairing(g)))
    return tuple(
        frozenset(rng.sample(g.labels(i), rng.randint(1, len(g.labels(i)))))
        for i in range(g.n)
    )


def _audit_cases():
    """Seeded finite games in utility and raw mode and seeded continuum
    games, each with a restricted copy."""
    games = [
        generate_game(GeneratorConfig(players=len(sizes), sizes=sizes, seed=seed, mode=mode))
        for mode in ("utility", "raw")
        for sizes in ((2, 2), (3, 3), (2, 2, 2))
        for seed in range(10)
    ]
    games += [
        parse_game(random_game_text(seed, n, comps=False, shaped=seed % 2 == 0))
        for n, seeds in ((2, 40), (3, 10))
        for seed in range(seeds)
    ]
    rng = random.Random(18)
    for g in games:
        yield g
        yield restrict(g, _seeded_restriction(g, rng))


def test_fast_audits_and_removals_keep_their_definitions():
    """Each fast audit is the operator's condition on the produced pairing,
    judged over every nonempty removal, and each step removes exactly the
    eliminated region of the stage before it, capped and vacuous traces
    included."""
    statuses = set()
    for g in _audit_cases():
        for op in Operator:
            for max_iters in (1, 2, 1000):
                t = star_reduce(g, op, max_iters=max_iters)
                statuses.add(t.status)
                assert len(t.fast_condition_audit) == len(t.eliminated) == len(t.stages) - 1
                for k, (pre, post) in enumerate(zip(t.stages, t.stages[1:])):
                    audit = True
                    for i in range(g.n):
                        removed = t.eliminated[k][i]
                        assert removed == eliminated_region(g, pre, i, op), (g.name, op, k, i)
                        member = post[i] if op is Operator.DOUBLE else None
                        if removed:
                            region = _region_where(g, post, i, domain=removed, member=member)
                            audit = audit and removed <= region
                    assert t.fast_condition_audit[k] == audit, (g.name, op, k)
    assert statuses == set(TraceStatus)


@pytest.mark.parametrize("key", [-1, 2])
def test_removal_keyed_outside_the_players_is_refused(load_game, key, monkeypatch):
    """A removal keyed outside 0..n-1 names no player: it is refused before
    any region is judged, not read as another player's or as an index."""
    g = load_game("fx1.qg")
    calls = []
    for module in (engine, reduction):
        real = module._region_where
        monkeypatch.setattr(
            module, "_region_where", lambda *a, real=real, **k: calls.append(1) or real(*a, **k)
        )
    removals = {key: I(0, 1, True, False)}
    for op in Operator:
        for validate in (True, False):
            with pytest.raises(GameError, match=f"^no player {key + 1} in this game$"):
                run_path(g, op, [removals], validate=validate)
            with pytest.raises(GameError, match=f"^no player {key + 1} in this game$"):
                path_step(g, full_pairing(g), op, removals, validate=validate)
    assert calls == []


@pytest.mark.parametrize("max_iters", [0, -1])
def test_max_iters_below_one_is_refused(load_game, max_iters):
    g = load_game("fx1.qg")
    with pytest.raises(GameError, match="max_iters must be at least 1"):
        star_reduce(g, Operator.DOUBLE, max_iters=max_iters)


@pytest.mark.parametrize("name", ["fx1.qg", "fx4.qg", "fxf1.qg", "fx5-derived.qg"])
def test_no_reduction_asks_the_same_question_twice(load_game, name, monkeypatch):
    """Within one fast reduction or one scripted path, every region call
    has its own arguments: a step's audit, its path condition, the next
    removals and the final status share the stage's one judgement."""
    g = load_game(name)
    calls = []
    for module in (engine, reduction):
        real = module._region_where
        bind = inspect.signature(real).bind

        def spy(*a, real=real, bind=bind, **k):
            args = bind(*a, **k)
            args.apply_defaults()
            calls.append(tuple(args.arguments.values()))
            return real(*a, **k)

        monkeypatch.setattr(module, "_region_where", spy)
    runs = [lambda op: star_reduce(g, op)]
    fixtures = resources.files("qualred").joinpath("fixtures").iterdir()
    for path in sorted(f.name for f in fixtures if f.name.endswith(".path")):
        try:
            steps = script(path, g)
        except PathScriptError:
            continue
        runs.append(lambda op, steps=steps: run_path(g, op, steps, validate=False))
    assert len(runs) > 1 or g.is_finite
    # steps that remove nothing leave the stage as it was judged
    empty = parse_path_script("step:\nstep:\nstep:\n", g)
    runs += [lambda op, v=v: run_path(g, op, empty, validate=v) for v in (True, False)]
    for op in Operator:
        for run in runs:
            calls.clear()
            run(op)
            assert calls
            for k, call in enumerate(calls):
                assert call not in calls[k + 1 :], (name, op)


def test_a_replayed_fast_trace_agrees_with_it():
    """Replaying a fast trace's removals as a script gives its stages and
    audits, and its status unless it was capped; every replayed step meets
    ARROW's path condition, and TAIL's path condition is the audit."""
    for g in _audit_cases():
        for op in Operator:
            for max_iters in (1, 2, 1000):
                t = star_reduce(g, op, max_iters=max_iters)
                steps = [dict(enumerate(row)) for row in t.eliminated]
                p = run_path(g, op, steps, validate=False)
                assert (p.stages, p.fast_condition_audit) == (t.stages, t.fast_condition_audit)
                if t.status is not TraceStatus.CAPPED:
                    assert p.status is t.status, (g.name, op, max_iters)
                if op is Operator.ARROW:
                    assert all(p.path_valid), (g.name, max_iters)
                if op is Operator.TAIL:
                    assert p.path_valid == p.fast_condition_audit, (g.name, max_iters)
                # an empty step after each one repeats its stage and changes no verdict;
                # a vacuous stage ends the run before the empty step after it
                q = run_path(g, op, [s for step in steps for s in (step, {})], validate=False)
                end = -1 if p.status is TraceStatus.VACUOUS else None
                assert q.stages == (p.stages[0], *(x for h in p.stages[1:] for x in (h, h)))[:end]
                assert q.path_valid == tuple(x for v in p.path_valid for x in (v, True))[:end]
                assert q.fast_condition_audit == tuple(
                    x for a in p.fast_condition_audit for x in (a, True)
                )[:end]
                assert q.status is p.status, (g.name, op, max_iters)
