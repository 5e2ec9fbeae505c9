"""No compiled record keeps its game alive.

A game caches what its scans read in game._scan (``games._scan``): the
``_Tables`` of a finite game, with its ``_FiniteRows``, or the ``_Ranks``
of a continuum one; its piecewise maps cache their piece indexes. None of
these refer back to the game, so a game is freed by refcount alone as soon
as its last reference goes. These tests run with the cyclic collector off
and watch each game through a weakref.
"""

import gc
import weakref
from fractions import Fraction as F

import pytest
from conftest import fixture_text

from qualred.analysis import check_hypotheses, check_preservation, maximal_elements
from qualred.dsl import parse_game
from qualred.engine import Operator
from qualred.lab import discretize
from qualred.reduction import star_reduce


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_a_checked_snapshot_is_freed(no_cyclic_gc):
    game = parse_game(fixture_text("fx1.qg"))
    snapshot = discretize(game, F(1, 48))
    check_hypotheses(snapshot)
    check_preservation(snapshot, star_reduce(snapshot, Operator.DOUBLE).final)
    assert "rows" in vars(snapshot._scan)  # the masks were compiled too
    watched = [weakref.ref(game), weakref.ref(snapshot)]
    del game, snapshot
    assert [ref() for ref in watched] == [None, None]


def test_a_reduced_continuum_game_is_freed(no_cyclic_gc):
    game = parse_game(fixture_text("fx4.qg"))
    check_hypotheses(game)
    star_reduce(game, Operator.DOUBLE)
    maximal_elements(game)
    assert game._scan is not None and "prefs" in vars(game._scan)
    watched = weakref.ref(game)
    del game
    assert watched() is None
