"""Exact reduction toolkit for qualitative games.

Strategy spaces are finite label sets or rational intervals, preferences
are piecewise interval-valued maps, and every computation runs on exact
rational arithmetic.
"""

from qualred.analysis import (
    MaximalElements,
    PreservationReport,
    Verdict,
    check_condition_C,
    check_condition_D,
    check_hypotheses,
    check_preservation,
    find_undominated_dominator,
    maximal_elements,
)
from qualred.dsl import (
    GameParseError,
    PathScriptError,
    parse_game,
    parse_path_script,
    serialize_game,
)
from qualred.engine import (
    Operator,
    dominator_set,
    eliminated_region,
    full_pairing,
    render_pairing,
    restrict,
)
from qualred.games import (
    ContinuumSpace,
    FiniteSpace,
    Game,
    GameError,
    derive_pref_from_utility,
)
from qualred.intervals import (
    Interval,
    IntervalSet,
    IntervalSetParseError,
    parse_interval_set,
)
from qualred.lab import (
    BoundExceeded,
    FuzzConfig,
    FuzzReport,
    GeneratorConfig,
    discretize,
    enumerate_maximal_reductions,
    fuzz,
    generate_game,
)
from qualred.reduction import (
    InvalidRemoval,
    ReductionTrace,
    TraceStatus,
    is_maximal,
    run_path,
    star_reduce,
)

__version__ = "0.1.0"

__all__ = [
    "BoundExceeded",
    "ContinuumSpace",
    "FiniteSpace",
    "FuzzConfig",
    "FuzzReport",
    "Game",
    "GameError",
    "GameParseError",
    "GeneratorConfig",
    "Interval",
    "IntervalSet",
    "IntervalSetParseError",
    "InvalidRemoval",
    "MaximalElements",
    "Operator",
    "PathScriptError",
    "PreservationReport",
    "ReductionTrace",
    "TraceStatus",
    "Verdict",
    "check_condition_C",
    "check_condition_D",
    "check_hypotheses",
    "check_preservation",
    "derive_pref_from_utility",
    "discretize",
    "dominator_set",
    "eliminated_region",
    "enumerate_maximal_reductions",
    "find_undominated_dominator",
    "full_pairing",
    "fuzz",
    "generate_game",
    "is_maximal",
    "maximal_elements",
    "parse_game",
    "parse_interval_set",
    "parse_path_script",
    "render_pairing",
    "restrict",
    "run_path",
    "serialize_game",
    "star_reduce",
]
