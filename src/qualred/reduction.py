"""Iterated elimination: fast maximal steps, scripted paths, traces.

A fast step removes, for every player at once, everything the operator's
condition currently marks as dominated. A scripted path removes exactly
the sets a script names, validating each step against the operator.

Validation tests the dominator condition with opponents taken before the
step for ARROW and after it for TAIL and DOUBLE; DOUBLE draws dominators
from the player's own set as it stood when the step began (minus the
removed strategy itself), so strategies removed together may lean on one
another. Each executed step also records an audit flag telling whether
the removals satisfy the operator's condition re-evaluated purely on the
produced pairing; simultaneous removals that prop each other up show up
there as a False. The fast reduction judges each stage once per player,
and a step's audit is read off the next stage's judgement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from operator import sub

from .games import Game, GameError
from .intervals import IntervalSetParseError, parse_interval_set
from .engine import (
    Factor,
    Operator,
    Pairing,
    condition_region,
    eliminated_region,
    factor_pick,
    full_pairing,
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


class PathScriptError(GameError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _step_region(
    game: Game, pre: Pairing, post: Pairing, i: int, removed: Factor, op: Operator
) -> Factor:
    """Part of a removal set meeting the operator's path condition."""
    if op is not Operator.DOUBLE:
        at = pre if op is Operator.ARROW else post
        return _region_where(game, at, i, domain=removed)
    return _region_where(game, post, i, domain=removed, member=pre[i], exclude_self=True)


def _audit_step(game: Game, post: Pairing, removals: dict[int, Factor], op: Operator) -> bool:
    """Literal operator condition on the produced pairing, per removed point."""
    return all(
        removed <= condition_region(game, post, i, op, removed)
        for i, removed in removals.items()
        if removed
    )


def star_reduce(game: Game, op: Operator, max_iters: int = 1000) -> ReductionTrace:
    """Iterate fast steps to a fixpoint, an empty factor, or the cap.

    Each stage is judged once per player, over the set the player held
    before the step: the step's audit is read off that judgement, and so
    are the next stage's removals.
    """
    h = full_pairing(game)
    removed = tuple(eliminated_region(game, h, i, op) for i in range(game.n))
    stages = [h]
    audits: list[bool] = []
    status = TraceStatus.CAPPED
    for _ in range(max_iters):
        if not any(removed):
            status = TraceStatus.CONVERGED
            break
        new = tuple(f - r for f, r in zip(h, removed))
        regions = [condition_region(game, new, i, op, h[i]) for i in range(game.n)]
        stages.append(new)
        audits.append(all(r <= region for r, region in zip(removed, regions)))
        if not all(new):
            status = TraceStatus.VACUOUS
            break
        h, removed = new, tuple(region & f for region, f in zip(regions, new))
    return ReductionTrace(
        game_name=game.name,
        op=op,
        kind="fast",
        stages=tuple(stages),
        status=status,
        fast_condition_audit=tuple(audits),
    )


def path_step(
    game: Game,
    h: Pairing,
    op: Operator,
    removals: dict[int, Factor],
    validate: bool = True,
) -> tuple[Pairing, bool, bool]:
    """Apply one scripted removal step; returns (pairing, audit, valid).

    With validate on, an invalid removal raises InvalidRemoval naming a
    witness strategy. Subset violations always raise.
    """
    for i, removed in removals.items():
        if not removed <= h[i]:
            witness = factor_pick(game, i, removed - h[i])
            raise InvalidRemoval(
                i + 1,
                witness,
                f"player {i + 1}: removal of {witness} is outside the "
                "current strategy set",
            )
    post = tuple(h[i] - removals[i] if i in removals else h[i] for i in range(game.n))
    valid = True
    for i, removed in removals.items():
        region = _step_region(game, h, post, i, removed, op)
        if not removed <= region:
            valid = False
            if validate:
                witness = factor_pick(game, i, removed - region)
                raise InvalidRemoval(
                    i + 1,
                    witness,
                    f"player {i + 1}: strategy {witness} is not eliminable "
                    f"under {op.value}",
                )
    return post, _audit_step(game, post, removals, op), valid


def run_path(
    game: Game,
    op: Operator,
    steps: list[dict[int, Factor]],
    validate: bool = True,
) -> ReductionTrace:
    """Execute a parsed script. With validate off the steps are applied as
    bare restrictions and per-step validity is only recorded."""
    stages = [full_pairing(game)]
    audits: list[bool] = []
    valids: list[bool] = []
    for removals in steps:
        post, audit, valid = path_step(game, stages[-1], op, removals, validate=validate)
        stages.append(post)
        audits.append(audit)
        valids.append(valid)
        if not all(post):
            break
    final = stages[-1]
    if not all(final):
        status = TraceStatus.VACUOUS
    elif is_maximal(game, final, op):
        status = TraceStatus.CONVERGED
    else:
        # a script that stops short of a fixpoint ran out of steps
        status = TraceStatus.CAPPED
    return ReductionTrace(
        game_name=game.name,
        op=op,
        kind="path",
        stages=tuple(stages),
        status=status,
        fast_condition_audit=tuple(audits),
        path_valid=tuple(valids),
    )


def is_maximal(game: Game, h: Pairing, op: Operator) -> bool:
    """True when no player has anything left to eliminate at h."""
    return not any(eliminated_region(game, h, i, op) for i in range(game.n))


_STEP_RE = re.compile(r"^step:\s*(.*)$")
_CLAUSE_RE = re.compile(r"^player\s*=\s*(\d+)\s+remove\s*=\s*(.+)$")
_FINITE_SET_RE = re.compile(r"^\{(.*)\}$")


def parse_path_script(text: str, game: Game) -> list[dict[int, Factor]]:
    """Parse removal steps: `step: player=1 remove=[0,1/2) ; player=2 ...`."""
    steps: list[dict[int, Factor]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        row = raw.strip()
        if not row or row.startswith("#"):
            continue
        m = _STEP_RE.match(row)
        if m is None:
            raise PathScriptError(f"expected a step: line, got {row!r}", lineno)
        removals: dict[int, Factor] = {}
        body = m.group(1).strip()
        clauses = [c.strip() for c in body.split(";")] if body else []
        for clause in clauses:
            if not clause:
                continue
            cm = _CLAUSE_RE.match(clause)
            if cm is None:
                raise PathScriptError(f"bad clause {clause!r}", lineno)
            player = int(cm.group(1))
            if not 1 <= player <= game.n:
                raise PathScriptError(
                    f"no player {player} in this game", lineno
                )
            if player - 1 in removals:
                raise PathScriptError(
                    f"player {player} named twice in one step", lineno
                )
            settext = cm.group(2).strip()
            if game.is_finite:
                fs = _FINITE_SET_RE.match(settext)
                if fs is None:
                    raise PathScriptError(
                        f"expected {{label,...}} removal, got {settext!r}",
                        lineno,
                    )
                inner = fs.group(1).strip()
                labels = (
                    frozenset(s.strip() for s in inner.split(","))
                    if inner
                    else frozenset()
                )
                unknown = labels - set(game.labels(player - 1))
                if unknown:
                    raise PathScriptError(
                        f"unknown strategy {sorted(unknown)[0]!r} "
                        f"for player {player}",
                        lineno,
                    )
                removals[player - 1] = labels
            else:
                try:
                    removals[player - 1] = parse_interval_set(settext)
                except IntervalSetParseError as e:
                    raise PathScriptError(str(e), lineno) from None
        steps.append(removals)
    if not steps:
        raise PathScriptError("script contains no steps", 1)
    return steps
