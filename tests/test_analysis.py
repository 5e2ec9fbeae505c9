"""Hypothesis checks, dominator search, maximal elements, preservation."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from qualred.analysis import (
    HYPOTHESIS_CHECKS,
    check_condition_C,
    check_condition_D,
    check_hypotheses,
    check_preservation,
    check_z_star,
    find_undominated_dominator,
    maximal_elements,
)
from qualred.dsl import parse_game
from qualred.engine import Operator, full_pairing
from qualred.games import GameError
from qualred.intervals import IntervalSet
from qualred.lab import discretize

P = IntervalSet.point
I = IntervalSet.interval


def boxes(m):
    return [[f.render() for f in b] for b in m.boxes]


def test_maximal_elements_continuum(load_game):
    m = maximal_elements(load_game("fx1.qg"))
    assert m.kind == "boxes"
    assert boxes(m) == [["{1}", "{1}"]]


def test_maximal_elements_two_regions(load_game):
    m = maximal_elements(load_game("fx4.qg"))
    assert boxes(m) == [["(1,2]", "(1,2]"], ["[0,1]", "[0,1]"]]


def test_maximal_elements_finite(load_game):
    m = maximal_elements(load_game("fxf1.qg"))
    assert m.kind == "profiles"
    assert m.profiles == [("a", "c")]


def test_hypothesis_checks_fx1(load_game):
    hyp = check_hypotheses(load_game("fx1.qg"))
    assert set(hyp) == set(HYPOTHESIS_CHECKS)
    assert hyp["irreflexive"].ok
    assert hyp["propertyT-single"].ok
    assert hyp["open-lower-sections"].ok
    assert hyp["strong-irreflexive"].status == "fails"
    # closure of (x,1] reaches back to x itself
    assert hyp["strong-irreflexive"].witness is not None
    assert hyp["propertyT-pair"].status == "not-checkable"
    assert hyp["z-star"].status == "not-checkable"


def test_hypothesis_checks_fx4(load_game):
    hyp = check_hypotheses(load_game("fx4.qg"))
    for name in ("irreflexive", "propertyT-single", "propertyT-pair",
                 "q-reflexive", "q-closed-convex"):
        assert hyp[name].ok, hyp[name]
    assert hyp["strong-irreflexive"].status == "fails"
    assert hyp["open-lower-sections"].status == "fails"


def test_property_T_closes_P_but_not_Q():
    # everything above y is (y, 1): inside (x1, 1), but its closure is not
    game = parse_game(
        'game "open-top"\nspace 1 = interval [0,1]\nspace 2 = interval [0,1]\n'
        "pref 1 piecewise:\n  when x1 in [0,1]: (x1, 1)\n"
        "pref 2 piecewise:\n  when x2 in [0,1]: empty\n"
        "comp 1 piecewise:\n  when x1 in [0,1]: (x1, 1)\n"
        "comp 2 piecewise:\n  when x2 in [0,1]: empty\n"
    )
    hyp = check_hypotheses(game, ["propertyT-single", "propertyT-pair"])
    assert hyp["propertyT-single"].witness == (1, (0, 0), F(1, 4))
    assert hyp["propertyT-pair"].ok


def test_open_lower_sections_detects_jump(load_game):
    v = check_hypotheses(load_game("fx5-as-printed.qg"), ["open-lower-sections"])
    assert v["open-lower-sections"].status == "fails"


def test_open_lower_sections_on_finite_games(load_game):
    v = check_hypotheses(load_game("fxf1.qg"), ["open-lower-sections"])
    assert v["open-lower-sections"].ok
    assert "discrete" in v["open-lower-sections"].note


def test_z_star_needs_finite_comparison(load_game):
    assert check_z_star(load_game("fxf1.qg")).status == "not-checkable"
    grid = discretize(load_game("fx4.qg"), F(1))
    assert grid.labels(0) == ("0", "1", "2")
    assert check_z_star(grid).ok


def test_unknown_hypothesis_name_rejected(load_game):
    with pytest.raises(GameError):
        check_hypotheses(load_game("fx1.qg"), ["no-such-check"])


def test_conditions_at_full_pairing(load_game):
    g = load_game("fx1.qg")
    h = full_pairing(g)
    assert check_condition_D(g, h).ok
    assert check_condition_C(g, h).ok
    gf = load_game("fxf1.qg")
    hf = full_pairing(gf)
    assert check_condition_D(gf, hf).ok
    assert check_condition_C(gf, hf).ok


def test_conditions_hold_vacuously_at_fixpoint(load_game):
    g = load_game("fx1.qg")
    at_limit = (P(1), P(1))
    assert check_condition_D(g, at_limit).ok
    assert check_condition_C(g, at_limit).ok


def test_find_undominated_dominator(load_game):
    g = load_game("fx1.qg")
    h = full_pairing(g)
    assert find_undominated_dominator(g, h, 0, F(1, 2)) == F(1)
    # without 1, every surviving dominator is itself dominated: a definitive miss
    assert find_undominated_dominator(g, (I(0, 1, True, False), h[1]), 0, F(1, 2)) is None
    with pytest.raises(GameError):
        find_undominated_dominator(g, h, 0, F(1))  # not dominated


def test_find_undominated_dominator_finite(load_game):
    g = load_game("fxf1.qg")
    h = full_pairing(g)
    assert find_undominated_dominator(g, h, 0, "b") == "a"


def test_preservation_equal_at_true_limit(load_game):
    g = load_game("fx1.qg")
    rep = check_preservation(g, (P(1), P(1)))
    assert rep.equal and rep.label is None


def test_preservation_flags_expected_counterexample(load_game):
    g = load_game("fx1.qg")
    rep = check_preservation(g, (P(F(1, 2)), P(F(1, 2))))
    assert not rep.equal
    assert rep.label == "EXPECTED-COUNTEREXAMPLE"
    assert boxes(rep.reduced) == [["{1/2}", "{1/2}"]]
    assert rep.witness == (F(1), F(1))
    d = rep.to_dict()
    assert d["status" if "status" in d else "equal"] in (False, "NOT-EQUAL")
    assert d["label"] == "EXPECTED-COUNTEREXAMPLE"


def test_preservation_finite_equal(load_game):
    g = load_game("fxf1.qg")
    rep = check_preservation(g, (frozenset({"a"}), frozenset({"c"})))
    assert rep.equal


def test_continuum_checks_are_deterministic(load_game):
    g = load_game("fx5-derived.qg")
    a = check_hypotheses(g)
    b = check_hypotheses(g)
    assert {k: v.to_dict() for k, v in a.items()} == {
        k: v.to_dict() for k, v in b.items()
    }


def _table_game_4x2() -> str:
    """Player 1 prefers b, c and d at (a, e); c and d, not b, lead back to a.
    The comparison tables copy the preference tables."""
    rows = {("a", "e"): "b, c, d", ("c", "e"): "a", ("d", "e"): "a"}
    profiles = [(s, t) for s in "abcd" for t in "ef"]
    lines = ['game "t42"', "space 1 = finite {a, b, c, d}", "space 2 = finite {e, f}"]
    for kw in ("pref", "comp"):
        for player, table in ((1, rows), (2, {})):
            lines.append(f"{kw} {player} table:")
            lines += [f"  at {s},{t}: {{{table.get((s, t), '')}}}" for s, t in profiles]
    return "\n".join(lines) + "\n"


def test_finite_witnesses_ignore_the_hash_seed(tmp_path):
    path = tmp_path / "t42.qg"
    path.write_text(_table_game_4x2())
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = [sys.executable, "-m", "qualred.cli", "check", str(path),
            "--hypotheses", "propertyT-single,propertyT-pair"]
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        assert proc.returncode == 5, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    verdicts = json.loads(outs[0])["hypotheses"]
    for name in ("propertyT-single", "propertyT-pair"):
        assert verdicts[name]["witness"] == ["1", "(a, e)", "c"]
