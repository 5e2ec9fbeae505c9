"""The check registries keep the contracts their readers rely on."""

import pytest

import qualred.analysis
from qualred.analysis import HYPOTHESIS_CHECKS
from qualred.games import GameError
from qualred.lab import CHECK_ALIASES, CHECK_NAMES, CHECKS, FuzzConfig, fuzz


@pytest.mark.parametrize("name", list(HYPOTHESIS_CHECKS))
def test_hypothesis_checks_are_module_functions_by_name(name):
    # span tracing finds each check as the module attribute its __name__ names
    fn = HYPOTHESIS_CHECKS[name]
    assert getattr(qualred.analysis, fn.__name__) is fn


def test_fuzz_check_names_list_the_registry():
    assert CHECK_NAMES == tuple(CHECKS)


def test_fuzz_check_aliases_name_registered_checks():
    assert set(CHECK_ALIASES.values()) <= set(CHECKS)


def test_unknown_fuzz_check_is_a_game_error():
    with pytest.raises(GameError, match="unknown fuzz check 'bogus'"):
        fuzz(FuzzConfig(trials=1, checks=("bogus",)))


@pytest.mark.parametrize(
    "config,message",
    [
        (FuzzConfig(trials=0), "fuzz trials must be at least 1, got 0"),
        (FuzzConfig(trials=-2), "fuzz trials must be at least 1, got -2"),
        (
            FuzzConfig(trials=3, mode="raw", checks=("confluence",), oracle_bound=0),
            "fuzz oracle_bound must be at least 1, got 0",
        ),
    ],
    ids=["trials-0", "trials-negative", "oracle-bound-0"],
)
def test_fuzz_counts_below_one_are_game_errors(config, message):
    # a bound of 0 would skip the confluence law on every trial unreported
    with pytest.raises(GameError, match=message):
        fuzz(config)
