"""Golden reports: CLI calls over the bundled fixtures, compared byte for byte.

Each case's golden file holds the report the call writes with ``--out``, or
its stderr when it writes no report. Regenerate after an intended change of
behaviour with ``PYTHONPATH=src python tests/test_golden.py``. A case whose
exit code disagrees with ``CASES`` keeps its old golden file, and the script
then exits non-zero naming every such case.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from qualred.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# (golden file, argv without --out, exit code)
CASES = [
    ("reduce-fx1.json", ["reduce", "fx1.qg"], 0),
    ("reduce-fx4-arrow.txt", ["reduce", "fx4.qg", "--op", "arrow", "--format", "text"], 0),
    ("reduce-fx5-derived-path.json",
     ["reduce", "fx5-derived.qg", "--path", "restrict-to-1-and-half.path"], 0),
    ("reduce-fx5-derived-path-arrow.txt",
     ["reduce", "fx5-derived.qg", "--path", "restrict-to-1-and-half.path", "--op", "arrow",
      "--format", "text"], 3),
    ("reduce-fx5-derived-path-tail.json",
     ["reduce", "fx5-derived.qg", "--path", "restrict-to-1-and-half.path", "--op", "tail"], 3),
    ("reduce-fx1-capped.txt", ["reduce", "fx1.qg", "--max-iters", "1", "--format", "text"], 3),
    ("reduce-missing.err", ["reduce", "missing.qg"], 1),
    ("reduce-bad-path.err", ["reduce", "fx1.qg", "--path", "bad.path"], 2),
    ("reduce-singletons.err", ["reduce", "fx1.qg", "--path", "singletons.path"], 2),
    ("reduce-singletons-tail.err",
     ["reduce", "fx1.qg", "--path", "singletons.path", "--op", "tail"], 2),
    ("check-fx1.json", ["check", "fx1.qg"], 5),
    ("check-fx4.json", ["check", "fx4.qg"], 5),
    ("check-fx4-all.txt",
     ["check", "fx4.qg", "--hypotheses", "all", "--conditions", "C,D", "--format", "text"], 5),
    ("check-fx5-as-printed.txt", ["check", "fx5-as-printed.qg", "--format", "text"], 5),
    ("check-fx5-derived.json", ["check", "fx5-derived.qg", "--conditions", "C,D"], 5),
    ("check-fx1-grid-half.json", ["check", "fx1-grid-half.qg", "--hypotheses", "all"], 5),
    ("check-fx5-derived-grid-half.json", ["check", "fx5-derived-grid-half.qg"], 5),
    ("check-fxf1-conditions.txt",
     ["check", "fxf1.qg", "--conditions", "C,D", "--op", "tail", "--format", "text"], 0),
    ("maximal-fx4.json", ["maximal", "fx4.qg"], 0),
    ("maximal-fx1.txt", ["maximal", "fx1.qg", "--format", "text"], 0),
    ("maximal-fx5-derived-grid-half.json", ["maximal", "fx5-derived-grid-half.qg"], 0),
    ("maximal-fx6-cross.txt", ["maximal", "fx6-cross.qg", "--format", "text"], 0),
    ("preserve-fxf1.json", ["preserve", "fxf1.qg"], 0),
    ("preserve-fx4.json", ["preserve", "fx4.qg"], 0),
    ("preserve-fx1-singletons.json", ["preserve", "fx1.qg", "--path", "singletons.path"], 6),
    ("preserve-fx5-as-printed.txt", ["preserve", "fx5-as-printed.qg", "--format", "text"], 0),
    ("preserve-fx6-cross.json", ["preserve", "fx6-cross.qg"], 0),
    ("fuzz-seed42.csv",
     ["fuzz", "--trials", "20", "--seed", "42",
      "--check", "lemma1,lemma2,theorem3,theorem10", "--format", "csv"], 0),
    ("fuzz-raw.json",
     ["fuzz", "--trials", "1", "--seed", "0", "--mode", "raw", "--check", "theorem3"], 5),
    ("fuzz-3p.txt",
     ["fuzz", "--players", "3", "--sizes", "2,2,2", "--trials", "8", "--seed", "5",
      "--mode", "raw", "--format", "text"], 5),
    ("oracle-fx5-derived-grid-half.json", ["oracle", "fx5-derived-grid-half.qg"], 0),
    ("oracle-fx1-grid-half.txt",
     ["oracle", "fx1-grid-half.qg", "--op", "tail", "--format", "text"], 0),
    ("oracle-bound.err", ["oracle", "fx1-grid-half.qg", "--bound", "1"], 7),
]


def _run(argv: list[str], report: Path) -> tuple[int, bytes]:
    """Exit code and the report bytes, or stderr when no report was written."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(report)])
    if report.exists():
        return code, report.read_bytes()
    return code, err.getvalue().encode("utf-8")


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_report(name, argv, code, tmp_path, monkeypatch):
    monkeypatch.delenv("QUALRED_COLOR", raising=False)
    monkeypatch.chdir(GOLDEN)
    got_code, got = _run(argv, tmp_path / "report")
    assert got_code == code
    assert got == (GOLDEN / name).read_bytes()


def _run_under_hash_seed(hash_seed: str, names: set[str], tmp_path: Path) -> None:
    """Run the named cases as CLI processes under the hash seed and compare
    their reports with the golden files; the in-process cases above run
    under one hash seed per pytest run."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "QUALRED_COLOR"}
    env.update(PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
    assert names <= {name for name, *_ in CASES}
    for name, argv, code in CASES:
        if name not in names:
            continue
        report = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "qualred.cli", *argv, "--out", str(report)],
            cwd=GOLDEN,
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == code, proc.stderr
        assert report.read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_fuzz_reports_do_not_depend_on_the_hash_seed(hash_seed, tmp_path):
    names = {name for name, argv, _ in CASES if argv[0] == "fuzz"}
    _run_under_hash_seed(hash_seed, names, tmp_path)


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_reports_do_not_depend_on_the_hash_seed(hash_seed, tmp_path):
    names = {"check-fx4.json", "maximal-fx4.json", "preserve-fxf1.json", "reduce-fx1.json"}
    _run_under_hash_seed(hash_seed, names, tmp_path)


if __name__ == "__main__":
    os.environ.pop("QUALRED_COLOR", None)
    os.chdir(GOLDEN)
    mismatched = []
    for name, argv, code in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            got_code, got = _run(argv, Path(tmp) / "report")
        if got_code != code:
            mismatched.append(name)
            print(f"{name}: exit {got_code}, table says {code}; golden file left untouched")
            continue
        (GOLDEN / name).write_bytes(got)
        print(f"{name}: exit {got_code}")
    if mismatched:
        sys.exit("exit codes disagree with CASES: " + ", ".join(mismatched))
