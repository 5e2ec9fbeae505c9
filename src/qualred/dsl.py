"""Line-oriented text formats for games and path scripts.

    game "fx1"
    space 1 = interval [0,1]
    pref 1 piecewise:
      when x1 in [0,1): (x1, 1]
      when x1 in {1}: empty

Finite players use `finite {a, b}` spaces and `table:` blocks with one
`at` row per profile. `util N table:` rows carry rational payoffs; a game
declaring utilities and no pref blocks gets its preferences derived from
them. A path script holds removal steps, one `step:` line each, as in
`step: player=1 remove={a} ; player=2 remove=[0,1/2)`. Both formats skip
blank lines and `#` comments.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .games import (
    Cell,
    Const,
    ContinuumSpace,
    Coord,
    EMPTY_VALUE,
    EmptyValue,
    FiniteSpace,
    FiniteTable,
    Game,
    GameError,
    Piece,
    PiecewiseMap,
    SymInterval,
    UtilityTable,
    _table_rows,
    derive_pref_from_utility,
    validate_finite_table,
    validate_piecewise,
)
from .intervals import (
    _RAT,
    IntervalSet,
    IntervalSetParseError,
    parse_interval_set,
)


class GameParseError(GameError):
    def __init__(self, message: str, line: int, col: int = 1, kind: str = "syntax"):
        super().__init__(f"line {line}, col {col}: {message}", kind=kind)
        self.line = line
        self.col = col


_GAME_RE = re.compile(r'^game\s+"([^"]*)"\s*$')
_SPACE_RE = re.compile(r"^space\s+(\d+)\s*=\s*(finite|interval)\s+(.*)$")
_FINITE_BODY_RE = re.compile(r"^\{(.*)\}$")
_DECL_RE = re.compile(r"^(pref|comp|util)\s+(\d+)\s+(piecewise|table):\s*$")
_WHEN_RE = re.compile(r"^when\s+(.*?)\s*:\s*(.*)$")
_BLOCK_ROW = ("when ", "at ")  # rows that join the open declaration
_AT_TABLE_RE = re.compile(r"^at\s+(.*?)\s*:\s*(\{.*\})\s*$")
_AT_UTIL_RE = re.compile(rf"^at\s+(.*?)\s*=\s*({_RAT})\s*$")
_COND_ATOM_RE = re.compile(r"^x(\d+)\s+in\s+(.+)$")
_EXPR = rf"(?:x\d+|{_RAT})"
_VALUE_RE = re.compile(rf"^([\[\(])\s*({_EXPR})\s*,\s*({_EXPR})\s*([\]\)])$")
_LABEL_RE = re.compile(r"^[A-Za-z0-9_./+-]+$")
_STEP_RE = re.compile(r"^step:\s*(.*)$")
_CLAUSE_RE = re.compile(r"^player\s*=\s*(\d+)\s+remove\s*=\s*(.+)$")


def _parse_expr(text: str, n: int, line: int):
    if text.startswith("x"):
        player = int(text[1:])
        if not 1 <= player <= n:
            raise GameParseError(
                f"value references player {player}, game has {n}",
                line,
                kind="unknown-player",
            )
        return Coord(player)
    return Const(Fraction(text))


def _parse_value(text: str, n: int, line: int):
    if text == "empty":
        return EMPTY_VALUE
    m = _VALUE_RE.match(text)
    if m is None:
        raise GameParseError(f"bad value {text!r}", line)
    return SymInterval(
        _parse_expr(m.group(2), n, line),
        m.group(1) == "[",
        _parse_expr(m.group(3), n, line),
        m.group(4) == "]",
    )


def _parse_cond(text: str, n: int, line: int) -> dict[int, IntervalSet]:
    out: dict[int, IntervalSet] = {}
    for atom in text.split(" and "):
        m = _COND_ATOM_RE.match(atom.strip())
        if m is None:
            raise GameParseError(f"bad condition {atom.strip()!r}", line)
        player = int(m.group(1))
        if not 1 <= player <= n:
            raise GameParseError(
                f"condition references player {player}, game has {n}",
                line,
                kind="unknown-player",
            )
        try:
            part = parse_interval_set(m.group(2))
        except IntervalSetParseError as e:
            raise GameParseError(str(e), line, col=atom.find("in") + 1) from None
        # repeated atoms for one player intersect
        out[player] = part if player not in out else out[player].intersect(part)
    return out


def _parse_profile(text: str, spaces, line: int) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in text.split(","))
    if len(parts) != len(spaces):
        raise GameParseError(
            f"profile {text!r} has {len(parts)} coordinates, "
            f"game has {len(spaces)} players",
            line,
        )
    for k, label in enumerate(parts):
        if label not in spaces[k].labels:
            raise GameParseError(
                f"unknown strategy {label!r} for player {k + 1}", line
            )
    return parts


def _at_rows(rows, pattern, what: str, spaces) -> dict[tuple[str, ...], str]:
    """Profile to the text after it, for each `at` row of a table block."""
    out: dict[tuple[str, ...], str] = {}
    for rline, rtext in rows:
        m = pattern.match(rtext)
        if m is None:
            raise GameParseError(f"bad {what} row {rtext!r}", rline)
        profile = _parse_profile(m.group(1), spaces, rline)
        if profile in out:
            raise GameParseError(
                f"duplicate row for {m.group(1)}", rline, kind="overlap"
            )
        out[profile] = m.group(2)
    return out


def _rows(text: str) -> list[tuple[int, str]]:
    """(line number, stripped row) of each line that is not blank or a comment."""
    return [
        (k, row)
        for k, raw in enumerate(text.splitlines(), start=1)
        if (row := raw.strip()) and not row.startswith("#")
    ]


def _label_set(text: str) -> frozenset[str] | None:
    """The labels of a `{a, b}` set, split at commas if it has any and else
    at blanks, so `{}` is empty; None when text is not braced."""
    if not (text.startswith("{") and text.endswith("}")):
        return None
    body = text[1:-1].strip()
    return frozenset(s.strip() for s in body.split("," if "," in body else None))


def parse_game(text: str) -> Game:
    lines = _rows(text)
    first = lines[0] if lines else (1, "")
    m = _GAME_RE.match(first[1])
    if m is None:
        raise GameParseError('expected game "<name>" header', first[0])
    name = m.group(1)

    spaces: dict[int, object] = {}
    decls: list[tuple[str, int, str, int, list[tuple[int, str]]]] = []
    block = None  # the rows of the open declaration
    for k in range(1, len(lines)):
        lineno, row = lines[k]
        if block is not None and row.startswith(_BLOCK_ROW):
            block.append(lines[k])
            continue
        block = None
        m = _SPACE_RE.match(row)
        if m is not None:
            idx = int(m.group(1))
            if idx in spaces:
                raise GameParseError(f"player {idx} declared twice", lineno)
            if m.group(2) == "finite":
                body = _FINITE_BODY_RE.match(m.group(3).strip())
                if body is None:
                    raise GameParseError("expected finite {a, b, ...}", lineno)
                labels = tuple(s.strip() for s in body.group(1).split(","))
                if any(not _LABEL_RE.match(s) for s in labels):
                    raise GameParseError("bad strategy label", lineno)
                if len(set(labels)) != len(labels):
                    raise GameParseError("duplicate strategy label", lineno)
                spaces[idx] = FiniteSpace(labels)
            else:
                try:
                    carrier = parse_interval_set(m.group(3))
                except IntervalSetParseError as e:
                    raise GameParseError(str(e), lineno, col=row.find("=") + 2) from None
                if carrier.is_empty:
                    raise GameParseError("carrier must be nonempty", lineno)
                spaces[idx] = ContinuumSpace(carrier)
            continue
        m = _DECL_RE.match(row)
        if m is None:
            raise GameParseError(f"unrecognized declaration {row!r}", lineno)
        if k + 1 == len(lines) or not lines[k + 1][1].startswith(_BLOCK_ROW):
            raise GameParseError("declaration block has no rows", lineno)
        block = []
        decls.append((m.group(1), int(m.group(2)), m.group(3), lineno, block))

    if not spaces:
        raise GameParseError("game declares no strategy spaces", first[0])
    n = max(spaces)
    if sorted(spaces) != list(range(1, n + 1)):
        missing = next(k for k in range(1, n + 1) if k not in spaces)
        raise GameParseError(
            f"player {missing} has no space declaration",
            first[0],
            kind="unknown-player",
        )
    ordered = tuple(spaces[k] for k in range(1, n + 1))
    kinds = {isinstance(s, FiniteSpace) for s in ordered}
    if len(kinds) == 2:
        raise GameParseError("finite and interval spaces cannot mix", first[0])
    finite = kinds.pop()

    game = Game(name=name, spaces=ordered, prefs=())
    prefs: dict[int, object] = {}
    comps: dict[int, object] = {}
    utils: dict[int, UtilityTable] = {}
    for decl, player, shape, lineno, rows in decls:
        if not 1 <= player <= n:
            raise GameParseError(
                f"{decl} names player {player}, game has {n}",
                lineno,
                kind="unknown-player",
            )
        target = {"pref": prefs, "comp": comps, "util": utils}[decl]
        if player in target:
            raise GameParseError(
                f"{decl} {player} declared twice", lineno, kind="overlap"
            )
        if decl == "util":
            if shape != "table" or not finite:
                raise GameParseError(
                    "utilities need a table over finite spaces", lineno
                )
            table = {
                x: Fraction(v)
                for x, v in _at_rows(rows, _AT_UTIL_RE, "utility", ordered).items()
            }
            for x in itertools.product(*(s.labels for s in ordered)):
                if x not in table:
                    raise GameParseError(
                        f"util {player} has no row for {','.join(x)}",
                        lineno,
                        kind="uncovered",
                    )
            utils[player] = UtilityTable(player, table)
            continue
        if finite:
            if shape != "table":
                raise GameParseError(
                    "finite spaces take table: blocks", lineno
                )
            sets = _at_rows(rows, _AT_TABLE_RE, "table", ordered)
            corr = FiniteTable(player, {x: _label_set(s) for x, s in sets.items()})
        else:
            if shape != "piecewise":
                raise GameParseError(
                    "interval spaces take piecewise: blocks", lineno
                )
            pieces = []
            for rline, rtext in rows:
                m = _WHEN_RE.match(rtext)
                if m is None:
                    raise GameParseError(f"bad piece row {rtext!r}", rline)
                cond = _parse_cond(m.group(1), n, rline)
                value = _parse_value(m.group(2).strip(), n, rline)
                factors = tuple(
                    cond[k + 1].intersect(ordered[k].carrier)
                    if k + 1 in cond
                    else ordered[k].carrier
                    for k in range(n)
                )
                pieces.append(Piece(Cell(factors), value))
            corr = PiecewiseMap(player, tuple(pieces))
        try:
            (validate_finite_table if finite else validate_piecewise)(game, corr)
        except GameError as e:
            raise GameParseError(str(e), lineno, kind=e.kind) from None
        target[player] = corr

    def complete(group: dict, what: str):
        if not group:
            return None
        for k in range(1, n + 1):
            if k not in group:
                raise GameParseError(
                    f"{what} declared for some players but not player {k}",
                    first[0],
                )
        return tuple(group[k] for k in range(1, n + 1))

    pref_tuple = complete(prefs, "pref")
    comp_tuple = complete(comps, "comp")
    util_tuple = complete(utils, "util")
    if pref_tuple is None and util_tuple is None:
        raise GameParseError("game needs pref blocks or full utility tables", first[0])
    game = Game(
        name=name, spaces=ordered, prefs=pref_tuple or (), comps=comp_tuple,
        utils=util_tuple,
    )
    return game if pref_tuple is not None else derive_pref_from_utility(game)


class PathScriptError(GameError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_path_script(text: str, game: Game) -> list[dict[int, frozenset[str] | IntervalSet]]:
    """Parse removal steps: `step: player=1 remove=[0,1/2) ; player=2 ...`.
    A finite game's removals are `{a, b}` label sets, read as in table rows."""
    steps = []
    for lineno, row in _rows(text):
        m = _STEP_RE.match(row)
        if m is None:
            raise PathScriptError(f"expected a step: line, got {row!r}", lineno)
        removals = {}
        for clause in filter(None, map(str.strip, m.group(1).split(";"))):
            cm = _CLAUSE_RE.match(clause)
            if cm is None:
                raise PathScriptError(f"bad clause {clause!r}", lineno)
            player = int(cm.group(1))
            if not 1 <= player <= game.n:
                raise PathScriptError(f"no player {player} in this game", lineno)
            if player - 1 in removals:
                raise PathScriptError(f"player {player} named twice in one step", lineno)
            settext = cm.group(2)
            runon = re.search(r"player\s*=", settext)  # never part of a set
            if runon:
                raise PathScriptError(f"missing ';' before {settext[runon.start():]!r}", lineno)
            if game.is_finite:
                labels = _label_set(settext)
                if labels is None:
                    why = f"expected {{label,...}} removal, got {settext!r}"
                    raise PathScriptError(why, lineno)
                unknown = labels - set(game.labels(player - 1))
                if unknown:
                    why = f"unknown strategy {sorted(unknown)[0]!r} for player {player}"
                    raise PathScriptError(why, lineno)
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


def _render_expr(expr) -> str:
    if isinstance(expr, Const):
        return str(expr.value)
    return f"x{expr.player}"


def _render_value(value) -> str:
    if isinstance(value, EmptyValue):
        return "empty"
    bra = "[" if value.lo_closed else "("
    ket = "]" if value.hi_closed else ")"
    return f"{bra}{_render_expr(value.lo)}, {_render_expr(value.hi)}{ket}"


def serialize_game(game: Game) -> str:
    """Canonical text for a game; parse(serialize(g)) rebuilds g."""
    if '"' in game.name or "".join(game.name.splitlines()) != game.name:
        raise GameError(
            f"game name {game.name!r} has a quote or a line break, "
            "which the text format cannot hold"
        )
    out = [f'game "{game.name}"']
    for k, space in enumerate(game.spaces):
        if isinstance(space, FiniteSpace):
            out.append(f"space {k + 1} = finite {{{', '.join(space.labels)}}}")
        else:
            out.append(f"space {k + 1} = interval {space.carrier.render()}")

    def emit_corr(kw: str, corr) -> None:
        if isinstance(corr, FiniteTable):
            out.append(f"{kw} {corr.player} table:")
            order = {s: j for j, s in enumerate(game.labels(corr.player - 1))}
            for x, row in zip(game.profiles(), _table_rows(corr, game.profiles())):
                labels = sorted(row, key=order.__getitem__)
                out.append(f"  at {','.join(x)}: {{{', '.join(labels)}}}")
        else:
            if corr.clip is not None:
                raise GameError("restricted games are not serializable")
            out.append(f"{kw} {corr.player} piecewise:")
            for piece in corr.pieces:
                atoms = [
                    f"x{j + 1} in {f.render()}"
                    for j, f in enumerate(piece.cell.factors)
                    if f != game.carrier(j)
                ]
                if not atoms:
                    atoms = [f"x1 in {game.carrier(0).render()}"]
                cond = " and ".join(atoms)
                out.append(f"  when {cond}: {_render_value(piece.value)}")

    if game.prefs_derived:
        assert game.utils is not None
    else:
        for corr in game.prefs:
            emit_corr("pref", corr)
    if game.comps is not None:
        for corr in game.comps:
            emit_corr("comp", corr)
    if game.utils is not None:
        for u in game.utils:
            out.append(f"util {u.player} table:")
            for x, v in zip(game.profiles(), _table_rows(u, game.profiles())):
                out.append(f"  at {','.join(x)} = {v}")
    return "\n".join(out) + "\n"
