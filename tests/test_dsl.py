"""DSL parsing, serialization round-trips, and diagnostics."""

import pytest

from qualred.dsl import (
    GameParseError,
    PathScriptError,
    parse_game,
    parse_path_script,
    serialize_game,
)

from conftest import fixture_text

FIXTURES = [
    "fx1.qg",
    "fx4.qg",
    "fx5-derived.qg",
    "fx5-as-printed.qg",
    "fxf1.qg",
    "fx1-grid-half.qg",
    "fx5-derived-grid-half.qg",
]


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_round_trips_byte_exact(name):
    text = fixture_text(name)
    assert serialize_game(parse_game(text)) == text


def test_parse_names_and_shapes(load_game):
    g = load_game("fx1.qg")
    assert g.name == "fx1" and g.n == 2 and not g.is_finite
    gf = load_game("fxf1.qg")
    assert gf.is_finite and gf.utils is not None
    assert gf.labels(1) == ("c", "d")


HEADER = 'game "t"\nspace 1 = interval [0,1]\nspace 2 = interval [0,1]\n'


def err(text: str) -> GameParseError:
    with pytest.raises(GameParseError) as info:
        parse_game(text)
    return info.value


def test_syntax_diagnostic_carries_line():
    e = err(HEADER + "pref 1 piecewise:\n  when x1 in [0,1]: (x1 1]\n" +
            "pref 2 piecewise:\n  when x2 in [0,1]: empty\n")
    assert e.kind == "syntax"
    assert e.line == 5


def test_overlap_diagnostic():
    e = err(
        HEADER
        + "pref 1 piecewise:\n"
        + "  when x1 in [0,1]: empty\n"
        + "  when x1 in [1/2,1]: empty\n"
        + "pref 2 piecewise:\n  when x2 in [0,1]: empty\n"
    )
    assert e.kind == "overlap"
    assert "overlap" in str(e)


def test_uncovered_diagnostic():
    e = err(
        HEADER
        + "pref 1 piecewise:\n  when x1 in [0,1/2): empty\n"
        + "pref 2 piecewise:\n  when x2 in [0,1]: empty\n"
    )
    assert e.kind == "uncovered"


def _pref1(*rows: str) -> str:
    return (
        HEADER
        + "pref 1 piecewise:\n"
        + "".join(f"  when {r}\n" for r in rows)
        + "pref 2 piecewise:\n  when x2 in [0,1]: empty\n"
    )


def test_one_point_overlap_names_its_profile():
    e = err(_pref1("x1 in [0,1/2]: empty", "x1 in [1/2,1]: empty"))
    assert e.kind == "overlap"
    assert "player 1: pieces 1 and 2 overlap at profile ('1/2', '0')" in str(e)


def test_one_point_gap_names_its_profile():
    e = err(_pref1("x1 in [0,1/2): empty", "x1 in (1/2,1]: empty"))
    assert e.kind == "uncovered"
    assert "player 1: profile ('1/2', '0') is not covered by any piece" in str(e)


def test_overlaps_are_reported_in_lexicographic_order():
    rows = [
        "x1 in [1/2,1] and x2 in [0,1/2]: empty",
        "x1 in [1/2,1] and x2 in [1/2,1]: empty",
        "x1 in [0,1/2) and x2 in [0,1/4]: empty",
        "x1 in [0,1/2) and x2 in [1/4,1]: empty",
    ]
    e = err(_pref1(*rows))
    assert e.kind == "overlap"
    assert "pieces 3 and 4 overlap at profile ('0', '1/4')" in str(e)
    rows[3] = "x1 in [0,1/2) and x2 in (1/4,1]: empty"
    e = err(_pref1(*rows))
    assert e.kind == "overlap"
    assert "pieces 1 and 2 overlap at profile ('1/2', '1/2')" in str(e)


def test_grid_game_with_256_pieces_parses():
    def factor(k: int) -> str:
        return f"[{k}/16,{k + 1}/16{']' if k == 15 else ')'}"

    rows = [
        f"x1 in {factor(a)} and x2 in {factor(b)}: empty"
        for a in range(16)
        for b in range(16)
    ]
    game = parse_game(_pref1(*rows))
    assert len(game.prefs[0].pieces) == 256


def test_escape_diagnostic():
    e = err(
        HEADER
        + "pref 1 piecewise:\n  when x1 in [0,1]: [0, 2]\n"
        + "pref 2 piecewise:\n  when x2 in [0,1]: empty\n"
    )
    assert e.kind == "escape"
    assert "carrier" in str(e)


def test_unknown_player_diagnostic():
    e = err(
        HEADER
        + "pref 1 piecewise:\n  when x3 in [0,1]: empty\n"
        + "pref 2 piecewise:\n  when x2 in [0,1]: empty\n"
    )
    assert e.kind == "unknown-player"
    e = err(
        HEADER
        + "pref 1 piecewise:\n  when x1 in [0,1]: (x7, 1]\n"
        + "pref 2 piecewise:\n  when x2 in [0,1]: empty\n"
    )
    assert e.kind == "unknown-player"


def test_missing_pref_block_rejected():
    e = err(HEADER + "pref 1 piecewise:\n  when x1 in [0,1]: empty\n")
    assert "player 2" in str(e)


def test_duplicate_space_rejected():
    e = err('game "t"\nspace 1 = interval [0,1]\nspace 1 = interval [0,1]\n')
    assert "twice" in str(e)


def test_finite_game_table_checks():
    base = 'game "t"\nspace 1 = finite {a, b}\nspace 2 = finite {c}\n'
    e = err(base + "pref 1 table:\n  at a,c: {b}\npref 2 table:\n  at a,c: {c}\n  at b,c: {c}\n")
    assert e.kind == "uncovered"  # a,c row alone leaves b,c uncovered
    e = err(base + "pref 1 table:\n  at a,c: {z}\n  at b,c: {}\n"
            + "pref 2 table:\n  at a,c: {}\n  at b,c: {}\n")
    assert "unknown" in str(e) or e.kind == "escape"
    e = err(base + "pref 1 table:\n  at a,c: {b}\n  at q,c: {b}\n  at b,c: {}\n"
            + "pref 2 table:\n  at a,c: {}\n  at b,c: {}\n")
    assert e.kind == "syntax" and e.line == 6
    assert "unknown strategy 'q' for player 1" in str(e)


def test_comment_and_blank_lines_ignored():
    text = HEADER + "# comment\n\npref 1 piecewise:\n  when x1 in [0,1]: empty\n" \
        + "pref 2 piecewise:\n  when x2 in [0,1]: empty\n"
    g = parse_game(text)
    assert g.name == "t"
    text = 'game "t"\nspace 1 = finite {a, b}\nspace 2 = finite {c}\n' \
        + "pref 1 table:\n  at a,c: {b}\n  # c\n\n  at b,c: {}\n" \
        + "pref 2 table:\n  at a,c: {c}\n  at b,c: {c}\n"
    assert parse_game(text).prefs[0].table == {("a", "c"): {"b"}, ("b", "c"): set()}


def test_serialize_restricted_game_rejected(load_game):
    from fractions import Fraction as F

    from qualred.engine import restrict
    from qualred.games import GameError
    from qualred.intervals import IntervalSet

    g = load_game("fx1.qg")
    clipped = restrict(g, (IntervalSet.point(F(1)), IntervalSet.point(F(1))))
    with pytest.raises(GameError):
        serialize_game(clipped)


@pytest.mark.parametrize("name", ['say "hi"', "two\nlines", "ends\r"])
def test_serialize_rejects_names_the_header_cannot_hold(load_game, name):
    from dataclasses import replace

    from qualred.games import GameError

    with pytest.raises(GameError):
        serialize_game(replace(load_game("fx1.qg"), name=name))


def test_odd_name_round_trips(load_game):
    from dataclasses import replace

    g = replace(load_game("fx1.qg"), name=" a # b, 'c' ")
    assert parse_game(serialize_game(g)).name == g.name


FINITE = 'game "t"\nspace 1 = finite {a, b}\nspace 2 = finite {c}\n'
PREF1 = "pref 1 table:\n  at a,c: {b}\n  at b,c: {}\n"
PREF2 = "pref 2 table:\n  at a,c: {c}\n  at b,c: {c}\n"
PIECES = "pref 1 piecewise:\n  when x1 in [0,1]: empty\npref 2 piecewise:\n  when x2 in [0,1]: empty\n"


@pytest.mark.parametrize(
    "text, message, kind, line",
    [
        ("  \n# only a comment\n\n", 'expected game "<name>" header', "syntax", 1),
        ('game "t"\n', "game declares no strategy spaces", "syntax", 1),
        ('# c\ngame "t"\n', "game declares no strategy spaces", "syntax", 2),
        (FINITE + "pref 1 table:\n" + PREF2, "declaration block has no rows", "syntax", 4),
        (FINITE + PREF1 + "pref 2 table:\n", "declaration block has no rows", "syntax", 7),
        (FINITE + "pref 1 table:\nbogus\n", "declaration block has no rows", "syntax", 4),
        (
            FINITE + "  at a,c: {b}\n" + PREF1 + PREF2,
            "unrecognized declaration 'at a,c: {b}'", "syntax", 4,
        ),
        (
            FINITE + PREF1 + "space 3 = finite {e}\n  at a,c: {b}\n",
            "unrecognized declaration 'at a,c: {b}'", "syntax", 8,
        ),
        (
            HEADER + PIECES + "  when x1 in [0,1]: empty\n",
            "player 2: pieces 1 and 2 overlap at profile ('0', '0')", "overlap", 6,
        ),
        (
            FINITE + "pref 1 table:\n  at a,c: {b}\n  at a,c: {}\n  at b,c: {}\n" + PREF2,
            "duplicate row for a,c", "overlap", 6,
        ),
        (
            FINITE + "util 1 table:\n  at a,c = 1\nutil 2 table:\n  at a,c = 1\n  at b,c = 0\n",
            "util 1 has no row for b,c", "uncovered", 4,
        ),
        (
            FINITE + "util 1 table:\n  at a,c = 1\n  at b,c = 0\n",
            "util declared for some players but not player 2", "syntax", 1,
        ),
    ],
)
def test_game_diagnostics_name_message_kind_and_place(text, message, kind, line):
    e = err(text)
    assert (str(e), e.kind, e.line, e.col) == (f"line {line}, col 1: {message}", kind, line, 1)


def script_error(text: str, game) -> PathScriptError:
    with pytest.raises(PathScriptError) as info:
        parse_path_script(text, game)
    return info.value


def test_path_script_diagnostics_keep_their_line():
    g = parse_game(FINITE + PREF1 + PREF2)
    for text, line, message in [
        ("# c\n\nstep: player=3 remove={a}\n", 3, "no player 3 in this game"),
        ("step: player=1 remove={a,}\n", 1, "unknown strategy '' for player 1"),
        ("step: player=1 remove={a} ; player=1 remove={b}\n", 1, "player 1 named twice in one step"),
        ("step: player=1 remove=a\n", 1, "expected {label,...} removal, got 'a'"),
        ("", 1, "script contains no steps"),
        ("# c\n\n", 1, "script contains no steps"),
    ]:
        e = script_error(text, g)
        assert (str(e), e.line) == (f"line {line}: {message}", line)
    e = script_error("step: player=1 remove={a}\n", parse_game(HEADER + PIECES))
    assert (str(e), e.line) == ("line 1: bad interval syntax: '{a}'", 1)


def test_path_script_names_a_missing_semicolon_between_clauses():
    finite, continuum = parse_game(FINITE + PREF1 + PREF2), parse_game(HEADER + PIECES)
    for game, first, rest in [
        (finite, "player=1 remove={a} ", "player=2 remove={c}"),
        (finite, "player=1 remove={a}", "player = 2 remove={c}"),
        (continuum, "player=1 remove=[0,1] ", "player=2 remove=[0,1]"),
    ]:
        e = script_error(f"# c\nstep: {first}{rest}\n", game)
        assert (str(e), e.line) == (f"line 2: missing ';' before {rest!r}", 2)


def test_path_script_skips_empty_clauses_and_reads_empty_sets():
    g = parse_game(FINITE + PREF1 + PREF2)
    steps = parse_path_script("step: player=1 remove={a} ;; player=2 remove={c} ;\n", g)
    assert steps == [{0: {"a"}, 1: {"c"}}]
    steps = parse_path_script("step: player=1 remove={}\nstep: player=1 remove={ }\n", g)
    assert steps == [{0: frozenset()}, {0: frozenset()}]


def test_path_script_reads_a_label_set_as_a_table_row_does():
    g = parse_game(FINITE + PREF1 + PREF2)
    assert parse_path_script("step: player=1 remove={a b}\n", g) == [{0: {"a", "b"}}]
    assert parse_path_script("step: player=1 remove={ a , b }\n", g) == [{0: {"a", "b"}}]
