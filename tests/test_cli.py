"""CLI surface: exit codes, schema validity, deterministic reports."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from qualred.cli import main

SCHEMA = json.loads(
    resources.files("qualred").joinpath("schema.json").read_text(encoding="utf-8")
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    payload = json.loads(out)
    VALIDATOR.validate(payload)
    return code, payload


def test_reduce_fx1(capsys):
    code, payload = run_json(capsys, ["reduce", "fx1.qg", "--op", "double"])
    assert code == 0
    assert payload["status"] == "CONVERGED"
    assert payload["stages"][-1] == {"1": "{1}", "2": "{1}"}


def test_reduce_scripted_path(capsys):
    code, payload = run_json(
        capsys,
        ["reduce", "fx5-derived.qg", "--op", "double",
         "--path", "restrict-to-1-and-half.path"],
    )
    assert code == 0
    assert payload["kind"] == "path"
    assert payload["stages"][-1] == {"1": "{1/2} u {1}", "2": "{1/2} u {1}"}
    assert payload["path_valid"] == [True]


def test_missing_file_exit_1(capsys):
    code, out, err = run(capsys, ["reduce", "missing.qg"])
    assert code == 1
    assert "missing.qg" in err


@pytest.mark.parametrize("case", ["directory", "game bytes", "script bytes"])
def test_unreadable_input_exit_1(capsys, tmp_path, case):
    bad = tmp_path / "bad"
    if case == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe")
    argv = ["maximal", str(bad)]
    if case == "script bytes":
        argv = ["reduce", "fx1.qg", "--path", str(bad)]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    reason = "Is a directory" if case == "directory" else "'utf-8' codec can't decode byte 0xff"
    assert err.startswith(f"qualred: cannot read {str(bad)!r}: {reason}") and "\n" not in err[:-1]


def test_unwritable_out_exit_2(capsys, tmp_path):
    target = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run(capsys, ["maximal", "fx1.qg", "--out", str(target)])
    assert code == 2 and out == ""
    assert err == f"qualred: cannot write {str(target)!r}: No such file or directory\n"


def test_bad_script_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.path"
    bad.write_text("step: player=1 remove=[nope)\n")
    code, out, err = run(capsys, ["reduce", "fx1.qg", "--path", str(bad)])
    assert code == 2
    assert "line 1" in err


def test_invalid_elimination_exit_2(capsys):
    code, out, err = run(
        capsys, ["reduce", "fx1.qg", "--path", "singletons.path"]
    )
    assert code == 2
    assert "not eliminable" in err


@pytest.mark.parametrize("command", ["reduce", "preserve"])
def test_removal_outside_the_current_set_exit_2(capsys, tmp_path, command):
    # preserve runs the script unvalidated, but a removal of a strategy
    # already gone is refused by both commands alike
    script = tmp_path / "twice.path"
    script.write_text("step: player=1 remove={b}\nstep: player=1 remove={b}\n")
    code, out, err = run(capsys, [command, "fxf1.qg", "--path", str(script)])
    assert code == 2
    assert err == (
        f"qualred: {script}: player 1: removal of b is outside the current strategy set\n"
    )


def test_check_hypotheses_pass_and_fail(capsys):
    code, payload = run_json(
        capsys,
        ["check", "fx4.qg", "--hypotheses", "propertyT-pair,q-reflexive,q-closed-convex"],
    )
    assert code == 0
    assert all(v["status"] == "holds" for v in payload["hypotheses"].values())

    code, payload = run_json(
        capsys, ["check", "fx1.qg", "--hypotheses", "strong-irreflexive"]
    )
    assert code == 5
    assert payload["hypotheses"]["strong-irreflexive"]["status"] == "fails"
    assert "witness" in payload["hypotheses"]["strong-irreflexive"]


def test_check_conditions_per_stage(capsys):
    code, payload = run_json(
        capsys, ["check", "fxf1.qg", "--conditions", "C,D", "--op", "double"]
    )
    assert code == 0
    cond = payload["conditions"]
    assert cond["all_hold"]
    assert [row["stage"] for row in cond["stages"]] == [0, 1]


def test_check_unknown_name_exit_1(capsys):
    code, out, err = run(capsys, ["check", "fx1.qg", "--hypotheses", "bogus"])
    assert code == 1


def test_maximal_payloads(capsys):
    code, payload = run_json(capsys, ["maximal", "fx1.qg"])
    assert code == 0 and payload == [["1", "1"]]
    code, payload = run_json(capsys, ["maximal", "fxf1.qg"])
    assert code == 0 and payload == [["a", "c"]]
    code, payload = run_json(capsys, ["maximal", "fx4.qg"])
    assert payload == [["(1,2]", "(1,2]"], ["[0,1]", "[0,1]"]]


def test_preserve_exit_codes(capsys):
    code, payload = run_json(capsys, ["preserve", "fxf1.qg"])
    assert code == 0 and payload["status"] == "EQUAL"

    code, payload = run_json(
        capsys, ["preserve", "fx1.qg", "--op", "double", "--path", "singletons.path"]
    )
    assert code == 6
    assert payload["status"] == "NOT-EQUAL"
    assert payload["label"] == "EXPECTED-COUNTEREXAMPLE"
    assert payload["path_valid"] == [False]


DIAGONAL = (
    'game "diagonal"\nspace 1 = interval [0,1]\nspace 2 = interval [0,1]\n'
    "pref 1 piecewise:\n  when x1 in [0,1]: (x1, x2]\n"
    "pref 2 piecewise:\n  when x2 in [0,1]: empty\n"
)


@pytest.mark.parametrize("command", ["maximal", "preserve"])
def test_region_not_a_union_of_boxes_exit_1(capsys, tmp_path, command):
    # maximal where x1 >= x2: the square cut along its diagonal
    game = tmp_path / "diagonal.qg"
    game.write_text(DIAGONAL)
    code, out, err = run(capsys, [command, str(game)])
    assert code == 1 and out == ""
    assert err.startswith("qualred: the maximal elements are not a finite union of boxes")
    assert len(err.splitlines()) == 1


def test_fuzz_csv_row_count(capsys):
    code, out, err = run(
        capsys,
        ["fuzz", "--players", "2", "--sizes", "3,3", "--trials", "20",
         "--seed", "42", "--check", "lemma1,lemma2,theorem3,theorem10",
         "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 21
    assert lines[0].startswith("trial,seed,game")


def test_fuzz_json_validates(capsys):
    code, payload = run_json(capsys, ["fuzz", "--trials", "5", "--seed", "3"])
    assert code == 0
    assert payload["violation_count"] == 0
    assert len(payload["records"]) == 5


def test_fuzz_raw_violation_exit_5(capsys):
    code, payload = run_json(
        capsys,
        ["fuzz", "--trials", "1", "--seed", "0", "--mode", "raw",
         "--check", "theorem3"],
    )
    assert code == 5
    assert payload["findings"][0]["check"] == "confluence"


def test_oracle_reports(capsys):
    code, payload = run_json(capsys, ["oracle", "fx5-derived-grid-half.qg"])
    assert code == 0
    assert payload["pairings"] == [{"1": "{1/2,1}", "2": "{1/2,1}"}]
    assert payload["condition_D_everywhere"] is True
    assert payload["order_dependent"] is False


def test_oracle_bound_exit_7(capsys, tmp_path):
    from qualred.dsl import parse_game, serialize_game
    from qualred.lab import discretize
    from fractions import Fraction as F
    from conftest import fixture_text

    big = discretize(parse_game(fixture_text("fx5-derived.qg")), F(1, 10))
    path = tmp_path / "big.qg"
    path.write_text(serialize_game(big))
    code, out, err = run(capsys, ["oracle", str(path)])
    assert code == 7
    assert "121" in err


def test_oracle_continuum_exit_1(capsys):
    code, out, err = run(capsys, ["oracle", "fx1.qg"])
    assert code == 1


def test_reports_are_byte_deterministic(capsys):
    argv = ["fuzz", "--trials", "6", "--seed", "13"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, ["maximal", "fx1.qg", "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == [["1", "1"]]


def test_text_format_plain_and_colored(capsys, monkeypatch):
    monkeypatch.delenv("QUALRED_COLOR", raising=False)
    code, out, err = run(capsys, ["reduce", "fx1.qg", "--format", "text"])
    assert code == 0
    assert "status CONVERGED" in out
    assert "\x1b[" not in out
    monkeypatch.setenv("QUALRED_COLOR", "1")
    code, out, err = run(capsys, ["reduce", "fx1.qg", "--format", "text"])
    assert "\x1b[32mCONVERGED\x1b[0m" in out


def test_csv_limited_to_fuzz(capsys):
    for command in ("reduce", "check", "maximal", "preserve", "oracle"):
        with pytest.raises(SystemExit) as info:
            main([command, "fx1.qg", "--format", "csv"])
        assert info.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["maximal", "fx1.qg", "--op", "arrow"],
        ["maximal", "fx1.qg", "--max-iters", "1"],
        ["fuzz", "--trials", "1", "--op", "arrow"],
        ["fuzz", "--trials", "1", "--max-iters", "1"],
        ["oracle", "fxf1.qg", "--max-iters", "1"],
        ["check", "fxf1.qg", "--max-iters", "1"],
        ["reduce", "fx1.qg", "--max-iters", "0"],
        ["preserve", "fx1.qg", "--max-iters", "0"],
        ["fuzz", "--trials", "-2"],
        ["fuzz", "--trials", "1", "--oracle-bound", "-1"],
        ["fuzz", "--trials", "1", "--players", "0"],
        ["oracle", "fxf1.qg", "--bound", "0"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}={argv[-1]}",
)
def test_unread_or_invalid_option_is_a_usage_error(capsys, argv):
    # each subcommand declares only the options it reads, and argparse
    # refuses an iteration cap, trial count, player count or bound below 1
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qualred ") and argv[-2] in err.splitlines()[-1]


def test_local_file_beats_fixture_lookup(capsys, tmp_path, monkeypatch):
    # a file with a fixture's name in the working directory wins
    local = tmp_path / "fx1.qg"
    local.write_text(
        'game "local"\nspace 1 = interval [0,1]\nspace 2 = interval [0,1]\n'
        "pref 1 piecewise:\n  when x1 in [0,1]: empty\n"
        "pref 2 piecewise:\n  when x2 in [0,1]: empty\n"
    )
    monkeypatch.chdir(tmp_path)
    code, payload = run_json(capsys, ["reduce", "fx1.qg"])
    assert payload["game"] == "local"


ZERO_DENOMINATORS = {
    "util.qg": (
        'game "u"\nspace 1 = finite {a, b}\nspace 2 = finite {c}\n'
        "util 1 table:\n  at a,c = 1/0\n  at b,c = 1\n"
        "util 2 table:\n  at a,c = 0\n  at b,c = 0\n"
    ),
    "space.qg": (
        'game "s"\nspace 1 = interval [0,1/0]\nspace 2 = interval [0,1]\n'
        "pref 1 piecewise:\n  when x1 in [0,1]: empty\n"
        "pref 2 piecewise:\n  when x2 in [0,1]: empty\n"
    ),
    "value.qg": (
        'game "v"\nspace 1 = interval [0,1]\nspace 2 = interval [0,1]\n'
        "pref 1 piecewise:\n  when x1 in [0,1]: (x1, 1/0]\n"
        "pref 2 piecewise:\n  when x2 in [0,1]: empty\n"
    ),
}


@pytest.mark.parametrize(
    "argv, code",
    [(["reduce", name], 1) for name in ZERO_DENOMINATORS]
    + [(["reduce", "fx1.qg", "--path", "zero.path"], 2)],
    ids=["util", "space", "value", "path"],
)
def test_zero_denominator_is_a_parse_error(tmp_path, argv, code):
    for name, text in ZERO_DENOMINATORS.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "zero.path").write_text("step: player=1 remove=[0,1/0]\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "qualred.cli", *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == code
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qualred: "), proc.stderr
