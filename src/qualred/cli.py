"""Command-line front end: reduce, check, maximal, preserve, fuzz, oracle.

Reports are byte-deterministic for fixed inputs and seeds. Rational
numbers appear in output as strings like ``3/4``. The only environment
variable consulted is ``QUALRED_COLOR`` (text format only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from qualred.analysis import (
    HYPOTHESIS_CHECKS,
    check_condition_C,
    check_condition_D,
    check_hypotheses,
    check_preservation,
    maximal_elements,
)
from qualred.dsl import PathScriptError, parse_game, parse_path_script
from qualred.engine import Operator, render_pairing
from qualred.games import Game, GameError
from qualred.intervals import IntervalSet
from qualred.lab import (
    CHECK_NAMES,
    BoundExceeded,
    FuzzConfig,
    enumerate_maximal_reductions,
    fuzz,
    resolve_check_name,
)
from qualred.reduction import (
    InvalidRemoval,
    ReductionTrace,
    TraceStatus,
    run_path,
    star_reduce,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_BAD_PATH = 2
EXIT_CAPPED = 3
EXIT_VACUOUS = 4
EXIT_CHECK_FAILED = 5
EXIT_NOT_EQUAL = 6
EXIT_BOUND = 7

_OPS = {"arrow": Operator.ARROW, "double": Operator.DOUBLE, "tail": Operator.TAIL}

_STATUS_EXIT = {
    TraceStatus.CONVERGED: EXIT_OK,
    TraceStatus.CAPPED: EXIT_CAPPED,
    TraceStatus.VACUOUS: EXIT_VACUOUS,
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_input(path: str) -> str:
    """Read a file, falling back to the bundled fixture of that name."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    if os.sep not in path:
        bundled = resources.files("qualred").joinpath("fixtures", path)
        if bundled.is_file():
            return bundled.read_text(encoding="utf-8")
    raise CliError(f"cannot read {path!r}: no such file or fixture", EXIT_PARSE)


def _load_game(path: str) -> Game:
    try:
        return parse_game(_read_input(path))
    except GameError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE)


def _color_enabled() -> bool:
    return os.environ.get("QUALRED_COLOR", "").lower() in ("1", "true", "yes", "always", "on")


_COLORS = {"CONVERGED": "32", "holds": "32", "EQUAL": "32",
           "CAPPED": "33", "not-checkable": "33",
           "VACUOUS": "31", "fails": "31", "NOT-EQUAL": "31"}


def _paint(word: str) -> str:
    code = _COLORS.get(word)
    if code is None or not _color_enabled():
        return word
    return f"\x1b[{code}m{word}\x1b[0m"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _factor_label(factor: IntervalSet) -> str:
    """Box factor for maximal-element output: bare rational for a point."""
    parts = factor.parts
    if len(parts) == 1 and parts[0].is_degenerate():
        return str(parts[0].lo.value)
    return factor.render()


def _maximal_payload(m) -> list:
    if m.kind == "profiles":
        return [list(p) for p in m.profiles]
    return [[_factor_label(f) for f in box] for box in m.boxes]


def _trace_payload(game: Game, trace: ReductionTrace) -> dict:
    payload = {
        "game": trace.game_name,
        "operator": trace.op.value,
        "kind": trace.kind,
        "status": trace.status.value,
        "stages": [render_pairing(game, h) for h in trace.stages],
        "eliminated": [render_pairing(game, row) for row in trace.eliminated],
        "audit": list(trace.fast_condition_audit),
    }
    if trace.path_valid is not None:
        payload["path_valid"] = list(trace.path_valid)
    return payload


def _trace_lines(payload: dict) -> list[str]:
    lines = [
        f"game {payload['game']}  operator {payload['operator']}  kind {payload['kind']}",
        f"status {_paint(payload['status'])}",
    ]
    for k, stage in enumerate(payload["stages"]):
        cols = "  ".join(f"{p}={s}" for p, s in stage.items())
        lines.append(f"stage {k}: {cols}")
    for k, row in enumerate(payload["eliminated"]):
        cols = "  ".join(f"{p}-={s}" for p, s in row.items())
        audit = "ok" if payload["audit"][k] else "simultaneous"
        lines.append(f"step {k + 1}: {cols}  [{audit}]")
    if "path_valid" in payload:
        lines.append("valid steps: " + " ".join(str(v) for v in payload["path_valid"]))
    return lines


def _parse_script(arg: str, game: Game):
    try:
        return parse_path_script(_read_input(arg), game)
    except PathScriptError as exc:
        raise CliError(f"{arg}: {exc}", EXIT_BAD_PATH)


def _trace(args, game: Game, validate: bool) -> ReductionTrace:
    """The trace reduce and preserve report: --path's script, validated or
    not, else the fast reduction. A refused removal exits 2, as a bad script."""
    if args.path is None:
        return star_reduce(game, _OPS[args.op], max_iters=args.max_iters)
    steps = _parse_script(args.path, game)
    try:
        return run_path(game, _OPS[args.op], steps, validate)
    except InvalidRemoval as exc:
        raise CliError(f"{args.path}: {exc}", EXIT_BAD_PATH)


# Each cmd_* returns (exit code, JSON payload, text lines); main writes
# whichever of the two reports --format asks for.
Report = tuple[int, object, list[str]]


def cmd_reduce(args) -> Report:
    game = _load_game(args.game)
    trace = _trace(args, game, validate=True)
    payload = _trace_payload(game, trace)
    return _STATUS_EXIT[trace.status], payload, _trace_lines(payload)


def _conditions_payload(game: Game, op: Operator, wanted: list[str]) -> dict:
    trace = star_reduce(game, op)
    stages = []
    all_ok = True
    for k, h in enumerate(trace.stages):
        row: dict = {"stage": k}
        for cond in wanted:
            fn = check_condition_C if cond == "C" else check_condition_D
            v = fn(game, h)
            row[cond] = v.to_dict()
            all_ok = all_ok and v.ok
        stages.append(row)
    return {"operator": op.value, "stages": stages, "all_hold": all_ok}


def cmd_check(args) -> Report:
    game = _load_game(args.game)
    payload: dict = {"game": game.name}
    lines = []
    ok = True

    if args.hypotheses == "all" or (args.hypotheses is None and args.conditions is None):
        names = list(HYPOTHESIS_CHECKS)
    else:
        names = [s.strip() for s in (args.hypotheses or "").split(",") if s.strip()]

    if names:
        verdicts = check_hypotheses(game, names)
        payload["hypotheses"] = {k: v.to_dict() for k, v in verdicts.items()}
        ok = all(v.ok for v in verdicts.values())
        for name, v in payload["hypotheses"].items():
            extra = f"  witness={v['witness']}" if "witness" in v else ""
            lines.append(f"{name}: {_paint(v['status'])}{extra}")

    if args.conditions is not None:
        wanted = [s.strip().upper() for s in args.conditions.split(",") if s.strip()]
        bad = [c for c in wanted if c not in ("C", "D")]
        if bad:
            raise CliError(f"unknown condition {bad[0]!r}", EXIT_PARSE)
        payload["conditions"] = _conditions_payload(game, _OPS[args.op], wanted)
        ok = ok and payload["conditions"]["all_hold"]
        for row in payload["conditions"]["stages"]:
            cols = "  ".join(
                f"{c}={_paint(row[c]['status'])}" for c in row if c != "stage"
            )
            lines.append(f"stage {row['stage']}: {cols}")

    return EXIT_OK if ok else EXIT_CHECK_FAILED, payload, lines


def cmd_maximal(args) -> Report:
    game = _load_game(args.game)
    payload = _maximal_payload(maximal_elements(game))
    return EXIT_OK, payload, [" ".join(row) for row in payload] or ["(none)"]


def cmd_preserve(args) -> Report:
    game = _load_game(args.game)
    trace = _trace(args, game, validate=False)
    report = check_preservation(game, trace.final)
    payload = {
        "game": game.name,
        "operator": trace.op.value,
        "final": render_pairing(game, trace.final),
        "status": "EQUAL" if report.equal else "NOT-EQUAL",
    }
    if trace.path_valid is not None:
        payload["path_valid"] = list(trace.path_valid)
    payload.update(report.to_dict())
    lines = [f"game {payload['game']}  status {_paint(payload['status'])}"]
    if report.label:
        lines.append(f"label {report.label}")
    if report.witness is not None:
        lines.append("witness " + " ".join(str(w) for w in report.witness))
    return EXIT_OK if report.equal else EXIT_NOT_EQUAL, payload, lines


def cmd_fuzz(args) -> Report:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        raise CliError(f"bad --sizes value {args.sizes!r}", EXIT_PARSE)
    if args.check is None:
        checks = CHECK_NAMES
    else:
        checks = tuple(
            resolve_check_name(s.strip()) for s in args.check.split(",") if s.strip()
        )
    config = FuzzConfig(
        trials=args.trials,
        seed=args.seed,
        players=args.players,
        sizes=sizes,
        mode=args.mode,
        irreflexive=args.irreflexive,
        property_t_pair=args.property_t_pair,
        with_q_reflexive=args.with_q_reflexive,
        checks=checks,
        oracle_bound=args.oracle_bound,
    )
    report = fuzz(config)
    if args.format == "csv":
        lines = report.to_csv().splitlines()
    else:
        lines = [
            f"trials {report.config.trials}  seed {report.config.seed}",
            f"violations {report.violation_count}",
            f"order-dependent trials {report.order_dependence_count}",
        ]
        for f in report.findings:
            lines.append(f"finding: {f.check} trial={f.trial} seed={f.seed}")
    code = EXIT_OK if report.violation_count == 0 else EXIT_CHECK_FAILED
    return code, report.to_dict(), lines


def cmd_oracle(args) -> Report:
    game = _load_game(args.game)
    op = _OPS[args.op]
    try:
        result = enumerate_maximal_reductions(
            game, op, bound=args.bound, track_condition_D=True
        )
    except BoundExceeded as exc:
        raise CliError(str(exc), EXIT_BOUND)
    payload = {
        "game": game.name,
        "operator": op.value,
        "bound": args.bound,
        "visited": result.visited,
        "condition_D_everywhere": result.condition_D_everywhere,
        "order_dependent": result.order_dependent,
        "pairings": [render_pairing(game, h) for h in result.pairings],
    }
    lines = [
        f"game {payload['game']}  operator {payload['operator']}",
        f"maximal reductions {len(result.pairings)}  visited {result.visited}",
    ]
    for h in payload["pairings"]:
        lines.append("  " + "  ".join(f"{p}={s}" for p, s in h.items()))
    return EXIT_OK, payload, lines


def positive_int(text: str) -> int:
    """argparse type of the count options: --max-iters, --players, --trials,
    --oracle-bound and --bound."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _subcommand(subs, name: str, fn, summary: str, *, game: bool = True, op: bool = False,
                max_iters: bool = False, formats=("json", "text")) -> argparse.ArgumentParser:
    """A subparser with only the shared options that fn reads."""
    p = subs.add_parser(name, help=summary)
    if game:
        p.add_argument("game", help="game file, or the name of a bundled fixture")
    if op:
        p.add_argument("--op", choices=sorted(_OPS), default="double")
    if max_iters:
        p.add_argument("--max-iters", type=positive_int, default=1000)
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", choices=formats, default="json")
    p.set_defaults(fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qualred",
        description="exact dominance reduction for qualitative games",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(subs, "reduce", cmd_reduce, "run the fast reduction or a scripted path",
                    op=True, max_iters=True)
    p.add_argument("--path", default=None, help="path script to follow")

    p = _subcommand(subs, "check", cmd_check, "verify hypotheses and stage conditions", op=True)
    p.add_argument("--hypotheses", default=None,
                   help="comma-separated hypothesis names, or 'all'")
    p.add_argument("--conditions", default=None, help="comma-separated from C,D")

    _subcommand(subs, "maximal", cmd_maximal, "maximal elements of a game")

    p = _subcommand(subs, "preserve", cmd_preserve,
                    "compare maximal elements before and after reduction",
                    op=True, max_iters=True)
    p.add_argument("--path", default=None,
                   help="path script applied as a restriction; default is the fast limit")

    p = _subcommand(subs, "fuzz", cmd_fuzz, "randomized cross-validation over generated games",
                    game=False, formats=("json", "csv", "text"))
    p.add_argument("--players", type=positive_int, default=2)
    p.add_argument("--sizes", default="3,3")
    p.add_argument("--trials", type=positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", default=None, help="comma-separated check names or aliases")
    p.add_argument("--mode", choices=("utility", "raw"), default="utility")
    p.add_argument("--irreflexive", action="store_true")
    p.add_argument("--property-t-pair", action="store_true")
    p.add_argument("--with-q-reflexive", action="store_true")
    p.add_argument("--oracle-bound", type=positive_int, default=16)

    p = _subcommand(subs, "oracle", cmd_oracle,
                    "enumerate every maximal reduction of a finite game", op=True)
    p.add_argument("--bound", type=positive_int, default=16,
                   help="largest product of strategy counts accepted")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, lines = args.fn(args)
    except (CliError, GameError) as exc:
        print(f"qualred: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else EXIT_PARSE
    text = _json_text(payload) if args.format == "json" else "\n".join(lines) + "\n"
    _emit(text, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
