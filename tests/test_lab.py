"""Generator, discretization, enumeration oracle, fuzz harness."""

from fractions import Fraction as F

import pytest

from qualred.analysis import check_hypotheses
from qualred.dsl import parse_game, serialize_game
from qualred.engine import Operator
from qualred.games import FiniteSpace, FiniteTable, Game, GameError, eval_value
from qualred.lab import (
    BoundExceeded,
    FuzzConfig,
    GeneratorConfig,
    discretize,
    enumerate_maximal_reductions,
    fuzz,
    generate_game,
    resolve_check_name,
)
from qualred.reduction import star_reduce


def test_generator_is_deterministic():
    cfg = GeneratorConfig(players=2, sizes=(2, 2), seed=7, irreflexive=True)
    assert serialize_game(generate_game(cfg)) == serialize_game(generate_game(cfg))


def test_generator_names_and_flags():
    cfg = GeneratorConfig(sizes=(2, 2), seed=7, irreflexive=True)
    g = generate_game(cfg)
    assert g.name == "gen-utility-2x2-7"
    assert check_hypotheses(g, ["irreflexive"])["irreflexive"].ok


def test_generator_raw_mode_with_pair_t():
    g = generate_game(GeneratorConfig(sizes=(3, 3), seed=11, mode="raw",
                                      property_t_pair=True))
    assert g.name.startswith("gen-raw-3x3")
    assert check_hypotheses(g, ["propertyT-pair"])["propertyT-pair"].ok


def test_generator_attaches_reflexive_comparison():
    g = generate_game(GeneratorConfig(sizes=(3, 3), seed=3, with_q_reflexive=True))
    assert g.comps is not None
    assert check_hypotheses(g, ["q-reflexive"])["q-reflexive"].ok


def test_generator_refuses_zero_players():
    config = GeneratorConfig(players=0, sizes=())
    with pytest.raises(GameError, match="at least one player"):
        generate_game(config)
    with pytest.raises(GameError, match="at least one player"):
        fuzz(FuzzConfig(players=0, sizes=(), trials=1))


def test_generated_game_round_trips():
    g = generate_game(GeneratorConfig(sizes=(3, 2), seed=19))
    text = serialize_game(g)
    assert serialize_game(parse_game(text)) == text


def test_discretize_fx1(load_game):
    d = discretize(load_game("fx1.qg"), F(1, 2))
    assert d.name == "fx1-grid-1/2"
    assert d.labels(0) == ("0", "1/2", "1")
    assert eval_value(d, d.prefs[0], ("0", "0")) == frozenset({"1/2", "1"})
    assert eval_value(d, d.prefs[0], ("1", "1/2")) == frozenset()
    t = star_reduce(d, Operator.DOUBLE)
    assert t.final == (frozenset({"1"}), frozenset({"1"}))


def test_discretize_matches_shipped_grid_fixture(load_game):
    d = discretize(load_game("fx5-derived.qg"), F(1, 2))
    assert serialize_game(d) == serialize_game(load_game("fx5-derived-grid-half.qg"))


def test_discretize_rejects_non_dividing_step(load_game):
    with pytest.raises(GameError):
        discretize(load_game("fx1.qg"), F(2, 7))
    with pytest.raises(GameError):
        discretize(load_game("fx4.qg"), F(3, 4))


def test_enumeration_single_limit_despite_choice(load_game):
    d = discretize(load_game("fx5-derived.qg"), F(1, 2))
    enum = enumerate_maximal_reductions(d, Operator.DOUBLE)
    assert enum.pairings == [(frozenset({"1/2", "1"}), frozenset({"1/2", "1"}))]
    assert not enum.order_dependent
    assert enum.visited >= 1


def test_enumeration_nine_point_grid_keeps_penultimate(load_game):
    d = discretize(load_game("fx5-derived.qg"), F(1, 10))
    assert len(d.labels(0)) == 11
    t = star_reduce(d, Operator.DOUBLE)
    assert sorted(t.final[0], key=F) == ["9/10", "1"]


def test_enumeration_bound(load_game):
    d = discretize(load_game("fx5-derived.qg"), F(1, 10))
    with pytest.raises(BoundExceeded) as info:
        enumerate_maximal_reductions(d, Operator.DOUBLE)
    assert info.value.size == 121


def test_enumeration_trivial_game_full_pairing():
    rows = {x: frozenset() for x in (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"))}
    g = Game(
        name="trivial",
        spaces=(FiniteSpace(("a", "b")), FiniteSpace(("c", "d"))),
        prefs=(FiniteTable(1, dict(rows)), FiniteTable(2, dict(rows))),
    )
    enum = enumerate_maximal_reductions(g, Operator.DOUBLE, track_condition_D=True)
    assert enum.pairings == [(frozenset({"a", "b"}), frozenset({"c", "d"}))]
    assert enum.condition_D_everywhere


def test_check_name_aliases():
    assert resolve_check_name("lemma1") == "limit-containment"
    assert resolve_check_name("lemma2") == "c-implies-d"
    assert resolve_check_name("theorem3") == "confluence"
    assert resolve_check_name("theorem10") == "preservation"
    assert resolve_check_name("seq") == "stagewise-agreement"
    assert resolve_check_name("confluence") == "confluence"
    with pytest.raises(GameError):
        resolve_check_name("lemma9")


def test_fuzz_utility_mode_clean():
    rep = fuzz(FuzzConfig(trials=25, seed=42))
    assert rep.violation_count == 0, [f.to_dict() for f in rep.findings]
    assert len(rep.records) == 25
    assert rep.records[0].seed == 42 * 1_000_003
    csv_text = rep.to_csv()
    lines = csv_text.splitlines()
    assert len(lines) == 26
    assert lines[0] == "trial,seed,game,tail_limit,double_limit,order_dependent,violations"


def test_fuzz_is_deterministic():
    cfg = FuzzConfig(trials=10, seed=9)
    assert fuzz(cfg).to_dict() == fuzz(cfg).to_dict()


def test_fuzz_raw_finds_confluence_gap_and_shrinks():
    # raw relations may dominate through strategies that die simultaneously,
    # so the enumerated one-at-a-time limits can be strictly larger than the
    # fast simultaneous limit
    rep = fuzz(FuzzConfig(trials=1, seed=0, mode="raw", checks=("confluence",)))
    assert rep.violation_count == 1
    finding = rep.findings[0]
    assert finding.check == "confluence"
    assert finding.game_text.startswith('game "gen-raw-3x3')
    assert finding.shrunk_game_text is not None
    shrunk = parse_game(finding.shrunk_game_text)
    assert all(len(shrunk.labels(i)) == 1 for i in range(shrunk.n))


def test_fuzz_csv_quotes_limits():
    rep = fuzz(FuzzConfig(trials=2, seed=1))
    lines = rep.to_csv().splitlines()
    assert len(lines) == 3
    assert all(line.count(",") >= 6 for line in lines)
