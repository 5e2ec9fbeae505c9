"""The package's exported names stay put and resolve where they live."""

import qualred
import qualred.dsl
import qualred.reduction

EXPORTS = [
    "BoundExceeded", "ContinuumSpace", "FiniteSpace", "FuzzConfig", "FuzzReport",
    "Game", "GameError", "GameParseError", "GeneratorConfig", "Interval",
    "IntervalSet", "IntervalSetParseError", "InvalidRemoval", "MaximalElements",
    "Operator", "PathScriptError", "PreservationReport", "ReductionTrace",
    "TraceStatus", "Verdict", "check_condition_C", "check_condition_D",
    "check_hypotheses", "check_preservation", "derive_pref_from_utility",
    "discretize", "dominator_set", "eliminated_region",
    "enumerate_maximal_reductions", "find_undominated_dominator", "full_pairing",
    "fuzz", "generate_game", "is_maximal", "maximal_elements", "parse_game",
    "parse_interval_set", "parse_path_script", "render_pairing", "restrict",
    "run_path", "serialize_game", "star_reduce",
]


def test_all_lists_the_exports_and_each_resolves():
    assert qualred.__all__ == EXPORTS
    assert [name for name in EXPORTS if not hasattr(qualred, name)] == []


def test_text_readers_are_exported_from_dsl():
    assert qualred.parse_path_script is qualred.dsl.parse_path_script
    assert qualred.PathScriptError is qualred.dsl.PathScriptError
    assert qualred.parse_game is qualred.dsl.parse_game
    assert not hasattr(qualred.reduction, "parse_path_script")
    assert not hasattr(qualred.reduction, "PathScriptError")
