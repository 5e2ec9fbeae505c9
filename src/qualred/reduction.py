"""Iterated elimination: fast maximal steps, scripted paths, traces.

A fast step removes, for every player at once, everything the operator's
condition currently marks as dominated. A scripted path removes exactly
the sets a script names, validating each step against the operator: the
dominator condition with opponents taken before the step for ARROW and
after it for TAIL and DOUBLE, DOUBLE drawing dominators from the player's
own set as the step began (minus the removed strategy itself), so
strategies removed together may lean on one another. Each step's audit
flag tells whether its removals meet the operator's condition on the
produced pairing; removals that prop each other up show there as False.

Both reductions run one stage loop, which judges each stage once per
player over the set the player held before the step. That judgement
gives the step's audit, TAIL's path condition, the next fast removals and
a script's final status; the judgement of the stage before a step gives
ARROW's. Only DOUBLE's lone-removal condition is judged apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import and_, sub

from .games import Game, GameError
from .engine import (
    Factor,
    Operator,
    Pairing,
    condition_region,
    eliminated_region,
    factor_pick,
    full_pairing,
    _checked,
    _region_where,
)


class TraceStatus(Enum):
    CONVERGED = "CONVERGED"
    CAPPED = "CAPPED"
    VACUOUS = "VACUOUS"


@dataclass
class ReductionTrace:
    """Stages, one audit per step and, on a path, one validity flag per
    step. ``eliminated`` is derived from the stages: every removal lies in
    the current set, so step t removed stages[t] - stages[t + 1]."""

    game_name: str
    op: Operator
    kind: str  # "fast" or "path"
    stages: tuple[Pairing, ...]
    status: TraceStatus
    fast_condition_audit: tuple[bool, ...]
    path_valid: tuple[bool, ...] | None = None

    @property
    def final(self) -> Pairing:
        return self.stages[-1]

    @property
    def eliminated(self) -> tuple[tuple[Factor, ...], ...]:
        steps = zip(self.stages, self.stages[1:])
        return tuple(tuple(map(sub, pre, post)) for pre, post in steps)


class InvalidRemoval(GameError):
    def __init__(self, player: int, witness, message: str):
        super().__init__(message)
        self.player = player
        self.witness = witness


def _judge(game: Game, h: Pairing, op: Operator, before: Pairing) -> Pairing:
    """A stage's judgement: each player's condition region at h, over the
    set the player held before the step."""
    return tuple(condition_region(game, h, i, op, f) for i, f in enumerate(before))


def _refuse(game: Game, i: int, rest: Factor, why: str) -> InvalidRemoval:
    witness = factor_pick(game, i, rest)
    return InvalidRemoval(i + 1, witness, f"player {i + 1}: " + why.format(witness))


def _step(
    game: Game, h: Pairing, judged: Pairing | None, op: Operator,
    removals: dict[int, Factor], validate: bool | None,
) -> tuple[Pairing, Pairing, bool, bool | None]:
    """One step of the stage loop from h, judged `judged` (None: ARROW's path
    condition judges the removals alone). Returns the produced pairing, its
    judgement, the audit and the path condition (validate None skips it)."""
    # a script's removals are checked; a fast step's lie in h by construction
    for i, removed in removals.items() if validate is not None else ():
        _checked(game, h, i)
        if not removed <= h[i]:
            why = "removal of {} is outside the current strategy set"
            raise _refuse(game, i, removed - h[i], why)
    post = tuple(f - removals[i] if i in removals else f for i, f in enumerate(h))
    empty = judged is not None and not any(removals.values())  # h stays as it was judged
    after = tuple(map(and_, judged, h)) if empty else _judge(game, post, op, h)
    audit = all(removed <= after[i] for i, removed in removals.items())
    if validate is None:
        return post, after, audit, None
    valid = True
    for i, removed in removals.items():
        if op is Operator.ARROW:
            region = judged[i] if judged else condition_region(game, h, i, op, removed)
        elif op is Operator.TAIL:
            region = after[i]
        else:  # a lone removal: dominators from the set before the step, x itself excluded
            region = removed and _region_where(game, post, i, removed, h[i], exclude_self=True)
        if not removed <= region:
            valid = False
            if validate:
                why = f"strategy {{}} is not eliminable under {op.value}"
                raise _refuse(game, i, removed - region, why)
    return post, after, audit, valid


def _reduce(game: Game, op: Operator, steps, validate: bool | None) -> ReductionTrace:
    """The stage loop of both reductions. A fast reduction (validate None)
    takes None steps, each removing what the stage's judgement marks in the
    current sets, up to the stage where it marks nothing. The full pairing
    is judged whole, over itself, only when a fast step or a script's final
    status reads it; a script's first step judges its ARROW removals alone."""
    h, judged = full_pairing(game), None
    stages, audits, valids = [h], [], []
    status = TraceStatus.CAPPED
    for removals in steps:
        if removals is None:
            removals = dict(enumerate(map(and_, judged, h) if judged else _judge(game, h, op, h)))
            if not any(removals.values()):
                status = TraceStatus.CONVERGED
                break
        h, judged, audit, valid = _step(game, h, judged, op, removals, validate)
        stages.append(h)
        audits.append(audit)
        valids.append(valid)
        if not all(h):
            break
    else:  # a script that stops short of a fixpoint ran out of steps
        if validate is not None and not any(map(and_, judged or _judge(game, h, op, h), h)):
            status = TraceStatus.CONVERGED
    if not all(h):  # one rule for both: an empty factor, even the full pairing's, is vacuous
        status = TraceStatus.VACUOUS
    return ReductionTrace(
        game.name, op, "fast" if validate is None else "path", tuple(stages), status,
        fast_condition_audit=tuple(audits), path_valid=None if validate is None else tuple(valids),
    )


def star_reduce(game: Game, op: Operator, max_iters: int = 1000) -> ReductionTrace:
    """Iterate fast steps to a fixpoint, an empty factor, or the cap of
    max_iters steps, which is capped even when its last stage is a fixpoint."""
    if max_iters < 1:
        raise GameError(f"max_iters must be at least 1, got {max_iters}")
    return _reduce(game, op, repeat(None, max_iters), None)


def path_step(
    game: Game, h: Pairing, op: Operator, removals: dict[int, Factor], validate: bool = True
) -> tuple[Pairing, bool, bool]:
    """Apply one scripted removal step; returns (pairing, audit, valid).

    One step of the stage loop, reading the same per-stage judgement as the
    fast reduction. With validate on, an invalid removal raises
    InvalidRemoval naming a witness strategy. Subset violations always
    raise, and so does a player outside the game or a malformed pairing
    (see ``engine._checked``), with GameError."""
    _checked(game, h)
    post, _, audit, valid = _step(game, h, None, op, removals, validate)
    return post, audit, valid


def run_path(
    game: Game, op: Operator, steps: list[dict[int, Factor]], validate: bool = True
) -> ReductionTrace:
    """Execute a parsed script in the stage loop, its steps reading the same
    per-stage judgement as the fast reduction. With validate off the steps
    are applied as bare restrictions and per-step validity is only
    recorded. A script ending at a fixpoint is converged, short of one capped."""
    return _reduce(game, op, steps, validate)


def is_maximal(game: Game, h: Pairing, op: Operator) -> bool:
    """True when no player has anything left to eliminate at h."""
    return not any(eliminated_region(game, h, i, op) for i in range(game.n))
