"""Random finite games, grid discretization, a brute-force reduction
oracle, and a seeded fuzzer for the reduction laws.

The fuzzer treats a law violation as a finding to report (with a greedy
shrink of the witness game), never as a crash: part of the point is
mapping where each law actually holds.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import string
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .analysis import (
    check_condition_C,
    check_condition_D,
    check_hypotheses,
    check_preservation,
)
from .dsl import serialize_game
from .engine import Operator, Pairing, render_pairing, restrict
from .games import (
    FiniteSpace,
    FiniteTable,
    Game,
    GameError,
    UtilityTable,
    _global_breakpoints,
    _piece_index,
    _Ranks,
    _Span,
    _scan,
    derive_pref_from_utility,
    eval_value,
)
from .reduction import ReductionTrace, star_reduce

MODE_UTILITY = "utility"
MODE_RAW = "raw"
# generate_game draws utility payoffs from PAYOFF_LO..PAYOFF_HI, and makes
# up to RETRIES draws to meet the requested constraints
PAYOFF_LO = 0
PAYOFF_HI = 2
RETRIES = 200


class BoundExceeded(GameError):
    def __init__(self, message: str, size: int, bound: int):
        super().__init__(message)
        self.size = size
        self.bound = bound


@dataclass(frozen=True)
class GeneratorConfig:
    players: int = 2
    sizes: tuple[int, ...] = (3, 3)
    seed: int = 0
    mode: str = MODE_UTILITY
    irreflexive: bool = False
    property_t_pair: bool = False
    with_q_reflexive: bool = False


def _letters(sizes: tuple[int, ...]) -> list[tuple[str, ...]]:
    total = sum(sizes)
    if total <= len(string.ascii_lowercase):
        pool = string.ascii_lowercase
    else:
        pool = [f"s{k}" for k in range(total)]
    out = []
    at = 0
    for size in sizes:
        out.append(tuple(pool[at : at + size]))
        at += size
    return out


def _attach_comps(game: Game, config: GeneratorConfig) -> Game:
    """Comparison maps per the requested flags.

    reflexive only: the full own set everywhere. pair flag only: Q = P.
    Both: Q = P plus the diagonal, which stays inside P one step up.
    """
    if not (config.with_q_reflexive or config.property_t_pair):
        return game
    comps = []
    for i in range(game.n):
        own = frozenset(game.labels(i))
        table = {}
        for x in game.profiles():
            if config.property_t_pair:
                base = eval_value(game, game.prefs[i], x)
                if config.with_q_reflexive:
                    base = base | {x[i]}
            else:
                base = own
            table[x] = frozenset(base)
        comps.append(FiniteTable(i + 1, table))
    return replace(game, comps=tuple(comps))


def _requested_checks(config: GeneratorConfig) -> list[str]:
    names = []
    if config.irreflexive:
        names.append("irreflexive")
    if config.property_t_pair:
        names.append("propertyT-pair")
    if config.with_q_reflexive:
        names.append("q-reflexive")
    return names


def generate_game(config: GeneratorConfig) -> Game:
    """Deterministic in the seed; requested constraints are re-verified
    with the analysis checkers, regenerating up to the retry bound."""
    if config.players < 1:
        raise GameError("a game needs at least one player")
    if config.players != len(config.sizes):
        raise GameError("sizes must list one entry per player")
    if any(s < 1 for s in config.sizes):
        raise GameError("sizes must be at least 1")
    if config.mode not in (MODE_UTILITY, MODE_RAW):
        raise GameError(f"unknown generator mode {config.mode!r}")
    rng = random.Random(config.seed)
    label_sets = _letters(config.sizes)
    spaces = tuple(FiniteSpace(ls) for ls in label_sets)
    size_tag = "x".join(str(s) for s in config.sizes)
    name = f"gen-{config.mode}-{size_tag}-{config.seed}"
    checks = _requested_checks(config)
    for _ in range(RETRIES):
        if config.mode == MODE_UTILITY:
            utils = []
            for i in range(config.players):
                table = {
                    x: Fraction(rng.randint(PAYOFF_LO, PAYOFF_HI))
                    for x in itertools.product(*label_sets)
                }
                utils.append(UtilityTable(i + 1, table))
            game = Game(name=name, spaces=spaces, prefs=(), utils=tuple(utils))
            game = derive_pref_from_utility(game)
        else:
            include_p = 0.2 if config.property_t_pair else 0.35
            prefs = []
            for i in range(config.players):
                table = {}
                for x in itertools.product(*label_sets):
                    better = frozenset(
                        y
                        for y in label_sets[i]
                        if (not config.irreflexive or y != x[i])
                        and rng.random() < include_p
                    )
                    table[x] = better
                prefs.append(FiniteTable(i + 1, table))
            game = Game(name=name, spaces=spaces, prefs=tuple(prefs))
        game = _attach_comps(game, config)
        if not checks:
            return game
        verdicts = check_hypotheses(game, checks)
        if all(v.status == "holds" for v in verdicts.values()):
            return game
    raise GameError(
        f"constraint unsatisfiable after {RETRIES} attempts"
    )


def discretize(game: Game, step) -> Game:
    """Finite snapshot of a continuum game on an even rational grid.

    The grid is refined with every piece-cell endpoint so no cell falls
    between grid points. Each table entry is the value eval_value gives at
    the grid profile, cut down to the grid members it contains, read from
    the shapes of a ``games._Ranks`` record over the grid and cut points:
    cells, value ends and clips are int ranks, found in each axis of grid
    ranks by int bisects. Each table is one flat list in product order,
    written piece by piece from the last, so the first piece covering a
    profile wins, and one row slice of the last coordinate at a time; a
    row is built once per tuple of the other coordinates its value names.
    Equal entries are one frozenset, shared by players on equal grids too.
    The first uncovered profile is reported.
    """
    if game.is_finite:
        raise GameError("discretize needs interval spaces")
    step = Fraction(step)
    if step <= 0:
        raise GameError("grid step must be positive")
    # each point is an int over one common denominator; a cut keeps its Fraction
    cuts, corrs = _global_breakpoints(game), game.prefs + (game.comps or ())
    den = math.lcm(step.denominator, *(t.denominator for t in cuts))

    def scaled(t: Fraction) -> int:
        return t.numerator * (den // t.denominator)

    point, unit, axes = dict(zip(map(scaled, cuts), cuts)), scaled(step), []
    for j in range(game.n):
        own = {scaled(t) for c in corrs for t in _piece_index(c, game.n).cuts[j]}
        axis: list[int] = []
        for part in game.carrier(j).parts:
            lo, hi = scaled(part.lo.value), scaled(part.hi.value)
            if (hi - lo) % unit:
                raise GameError(f"grid step {step} does not divide the span of {part.render()}")
            axis += range(lo + unit * (not part.lo.closed), hi + part.hi.closed, unit)
            axis += (v for v in own if lo < v < hi and (v - lo) % unit)  # between grid points
        axes.append(sorted(axis))
    members = set().union(*axes)
    point.update((v, Fraction(v, den)) for v in members - point.keys())
    order = sorted(point)
    ranks = _Ranks(game, list(map(point.__getitem__, order)))
    rank = {v: k * ranks.width for k, v in enumerate(order)}
    grid = [list(map(rank.__getitem__, axis)) for axis in axes]
    name = {v: str(point[v]) for v in members}
    spaces = tuple(FiniteSpace(tuple(map(name.__getitem__, axis))) for axis in axes)
    strides = [math.prod(map(len, axes[j + 1 :])) for j in range(game.n)]
    n, shared = game.n, {}

    def runs(j: int, span) -> list[range]:
        """The indices of grid j in a rank span, as maximal nonempty runs."""
        out: list[range] = []
        for lo, hi in span:
            a, b = bisect_left(grid[j], lo), bisect_right(grid[j], hi)
            if a < b:
                if out and out[-1].stop == a:
                    a = out.pop().start
                out.append(range(a, b))
        return out

    def tabulate(corr, i: int) -> FiniteTable:
        labels = spaces[i].labels
        sets = shared.setdefault(labels, {})  # players on equal grids share sets
        ends, clip, cells = ranks.shape(corr)
        flat: list[frozenset[str] | None] = [None] * math.prod(map(len, axes))
        for (lj, lc, hj, hc), cell in zip(reversed(ends), reversed(cells)):
            # the value depends on the profile only through the coordinates
            # its ends name, so a row only through the others it names
            named = {lj, hj} - {n}
            keyed = sorted(named - {n - 1})
            rows: dict[tuple[int, ...], list[frozenset[str]]] = {}

            def value(idx: tuple[int, ...]) -> frozenset[str]:
                z = (*map(list.__getitem__, grid, idx), 0)
                span = ((z[lj] + lc, z[hj] + hc),)
                key = tuple(runs(i, span if clip is None else _Span(span) & clip))
                if key not in sets:
                    sets[key] = frozenset().union(*[labels[r.start : r.stop] for r in key])
                return sets[key]

            *head, tail = [runs(j, f) for j, f in enumerate(cell)]
            for idx in itertools.product(*(itertools.chain(*r) for r in head)):
                base = sum(k * s for k, s in zip(idx, strides))
                for run in tail:
                    key = (run.start, *(idx[j] for j in keyed))
                    if key not in rows:
                        if n - 1 in named:
                            rows[key] = [value(idx + (k,)) for k in run]
                        else:
                            rows[key] = [value(idx + (run.start,))] * len(run)
                    flat[base + run.start : base + run.stop] = rows[key]
        if None in flat:
            k = flat.index(None)
            at = tuple(sp.labels[k // s % len(sp.labels)] for sp, s in zip(spaces, strides))
            raise GameError(f"profile {at} not covered by any piece")
        profiles = itertools.product(*(sp.labels for sp in spaces))
        return FiniteTable(i + 1, dict(zip(profiles, flat)))

    return Game(
        name=f"{game.name}-grid-{step}",
        spaces=spaces,
        prefs=tuple(tabulate(c, i) for i, c in enumerate(game.prefs)),
        comps=game.comps and tuple(tabulate(c, i) for i, c in enumerate(game.comps)),
    )


@dataclass
class EnumerationResult:
    """``condition_D_everywhere`` is computed only when the walk tracks
    condition D; untracked it reads True, even where D fails."""

    pairings: list[Pairing]
    condition_D_everywhere: bool
    visited: int

    @property
    def order_dependent(self) -> bool:
        return len(self.pairings) > 1


def enumerate_maximal_reductions(
    game: Game, op: Operator, bound: int = 16, track_condition_D: bool = False
) -> EnumerationResult:
    """Every maximal pairing reachable by single-strategy eliminations.

    Exhaustive depth-first walk with memoized pairings; games larger than
    the bound (product of strategy counts) are refused. A pairing is one
    int packed as in games._Tables, marked seen when pushed; a child
    clears one bit. Per player and opponents' bits (the pairing less the
    player's field), a plan is memoised from the dominator masks: each
    movable bit with the mask the pairing must meet for it to go (under
    DOUBLE the dominator mask less the bit, else all ones), and the
    inclusion-minimal nonzero dominator masks, all that condition D needs
    to test. A state loops over its movable bits; visited counts every
    pairing reached. Condition D is tested only with track_condition_D;
    without it the result's condition_D_everywhere is True unexamined.

    Under ARROW and TAIL the walk is order independent. Both remove x from
    H_i when the opponent factors of H are nonempty and the P_i(x, o) over
    the opponent profiles o of H meet; H_i is never read. So if x is
    removable at H, it is at every G <= H with nonempty opponent factors.
    Let L be the fast limit of stages G_t. (a) A nonvacuous (no empty
    factor) maximal M lies in every G_t: given M <= G_t, a member of M
    removed at G_t would be removable at M. (b) If L is nonvacuous, every
    reachable pairing contains L: a move removing a member of L would be
    removable at the fixpoint L. So a nonvacuous L is the only maximal
    pairing, and if L is vacuous, by (a) so is every maximal pairing: the
    monotone case of Apt's order independence (2004). DOUBLE's dominator
    must lie in the shrinking own set: not monotone, so it keeps the walk.
    """
    if not game.is_finite:
        raise GameError("enumeration needs finite spaces")
    size = math.prod(len(game.labels(i)) for i in range(game.n))
    if size > bound:
        raise BoundExceeded(
            f"game size {size} exceeds the enumeration bound {bound}",
            size,
            bound,
        )
    scan, double = _scan(game), op is Operator.DOUBLE
    rows, fields = scan.rows, [sum(bits.values()) for bits in scan.bits]
    plans: list[dict[int, tuple]] = [{} for _ in rows]

    def plan(i: int, key: int) -> tuple[int, dict[int, int], list[int]]:
        at, meets, least = rows[i].shift, {}, []
        if all(map((key | fields[i]).__and__, fields)):  # no opponent factor is empty
            dom = rows[i].at(key)
            for k, d in enumerate(dom):
                if meet := d & ~(1 << k) if double else d:
                    meets[1 << at + k] = meet << at if double else -1
            for d in sorted({d << at for d in dom} - {0}):  # a proper subset is smaller
                if all(e & d != e for e in least):
                    least.append(d)
        plans[i][key] = out = sum(meets), meets, least
        return out

    stack, others = [sum(fields)], [~f for f in fields]
    seen = set(stack)
    maximal: list[tuple[tuple[str, ...], ...]] = []  # labels in label order
    d_holds = True
    while stack:
        s = stack.pop()
        progressed = False
        for i, memo in enumerate(plans):
            key = s & others[i]
            movable, meets, least = memo.get(key) or plan(i, key)
            if track_condition_D and d_holds:
                d_holds = all(map(s.__and__, least))
            m = s & movable
            while m:
                bit = m & -m
                m ^= bit
                if s & meets[bit]:
                    progressed = True
                    child = s ^ bit
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
        if not progressed:
            maximal.append(
                tuple(tuple(lab for lab, b in bits.items() if s & b) for bits in scan.bits)
            )
    return EnumerationResult(
        pairings=[tuple(map(frozenset, key)) for key in sorted(maximal)],
        condition_D_everywhere=d_holds,
        visited=len(seen),
    )


def _stage_at(trace: ReductionTrace, t: int) -> Pairing:
    return trace.stages[t] if t < len(trace.stages) else trace.stages[-1]


@dataclass
class Evidence:
    """What the fuzz checks read about one game: its TAIL and DOUBLE
    reductions, and its DOUBLE enumeration when confluence is asked for
    and the game is within the oracle bound (else None)."""

    traces: dict[Operator, ReductionTrace]
    enum: EnumerationResult | None = None


def _evidence(game: Game, checks, bound: int) -> Evidence:
    evidence = Evidence({op: star_reduce(game, op) for op in (Operator.TAIL, Operator.DOUBLE)})
    if "confluence" in checks:
        try:
            evidence.enum = enumerate_maximal_reductions(
                game, Operator.DOUBLE, bound, track_condition_D=True
            )
        except BoundExceeded:
            pass
    return evidence


def _check_limit_containment(game: Game, evidence: Evidence) -> str | None:
    tail = evidence.traces[Operator.TAIL].final
    double = evidence.traces[Operator.DOUBLE].final
    if not all(tail + double):
        return None
    for i in range(game.n):
        if not tail[i] <= double[i]:
            extra = ",".join(sorted(tail[i] - double[i]))
            return f"player {i + 1}: tail limit keeps {{{extra}}} outside the double limit"
    return None


def _check_c_implies_d(game: Game, evidence: Evidence) -> str | None:
    for op, trace in evidence.traces.items():
        for t, h in enumerate(trace.stages):
            c = check_condition_C(game, h)
            if c.status != "holds":
                continue
            d = check_condition_D(game, h)
            if d.status != "holds":
                return (
                    f"op {op.value} stage {t}: condition C holds but D fails "
                    f"at {d.witness}"
                )
    return None


def _check_stagewise_agreement(game: Game, evidence: Evidence) -> str | None:
    ta = evidence.traces[Operator.TAIL]
    td = evidence.traces[Operator.DOUBLE]
    for t in range(max(len(ta.stages), len(td.stages))):
        a = _stage_at(ta, t)
        b = _stage_at(td, t)
        if a != b:
            return f"stage {t}: tail and double traces diverge with the D premise intact"
        if check_condition_D(game, a).status != "holds":
            break
    return None


def _check_confluence(game: Game, evidence: Evidence) -> str | None:
    enum = evidence.enum
    if enum is None or not enum.condition_D_everywhere:
        return None
    if len(enum.pairings) != 1:
        return (
            f"condition D held everywhere yet {len(enum.pairings)} "
            "maximal reductions are reachable"
        )
    if enum.pairings[0] != evidence.traces[Operator.DOUBLE].final:
        return "the unique enumerated limit differs from the fast limit"
    return None


def _check_preservation(game: Game, evidence: Evidence) -> str | None:
    report = check_preservation(game, evidence.traces[Operator.DOUBLE].final)
    if report.label == "THEOREM-VIOLATION":
        return (
            "maximal elements changed under reduction although every "
            f"hypothesis held; witness {report.witness}"
        )
    return None


# fuzz check name -> fn(game, evidence), a detail string on a violation
CHECKS = {
    "limit-containment": _check_limit_containment,
    "c-implies-d": _check_c_implies_d,
    "confluence": _check_confluence,
    "preservation": _check_preservation,
    "stagewise-agreement": _check_stagewise_agreement,
}
CHECK_NAMES = tuple(CHECKS)

# opaque ids accepted on the command line for the same checks
CHECK_ALIASES = {
    "lemma1": "limit-containment",
    "lemma2": "c-implies-d",
    "theorem3": "confluence",
    "theorem10": "preservation",
    "seq": "stagewise-agreement",
}


def resolve_check_name(name: str) -> str:
    canon = CHECK_ALIASES.get(name, name)
    if canon not in CHECKS:
        raise GameError(f"unknown fuzz check {name!r}")
    return canon


@dataclass(frozen=True)
class FuzzConfig(GeneratorConfig):
    """A GeneratorConfig extended with the fuzz run: its seed is the base
    of each trial's seed, and the confluence check enumerates only games
    of at most oracle_bound profiles."""

    trials: int = 100
    checks: tuple[str, ...] = CHECK_NAMES
    oracle_bound: int = 16


@dataclass
class Finding:
    check: str
    trial: int
    seed: int
    detail: str
    game_text: str
    shrunk_game_text: str | None = None

    def to_dict(self) -> dict:
        out = {
            "check": self.check,
            "trial": self.trial,
            "seed": self.seed,
            "detail": self.detail,
            "game": self.game_text,
        }
        if self.shrunk_game_text is not None:
            out["shrunk_game"] = self.shrunk_game_text
        return out


@dataclass
class TrialRecord:
    trial: int
    seed: int
    game_name: str
    limits: dict[str, str]
    order_dependent: bool | None
    violations: list[str] = field(default_factory=list)


@dataclass
class FuzzReport:
    config: FuzzConfig
    records: list[TrialRecord]
    findings: list[Finding]

    @property
    def violation_count(self) -> int:
        return len(self.findings)

    @property
    def order_dependence_count(self) -> int:
        return sum(1 for r in self.records if r.order_dependent)

    def to_dict(self) -> dict:
        return {
            "trials": self.config.trials,
            "seed": self.config.seed,
            "mode": self.config.mode,
            "sizes": list(self.config.sizes),
            "checks": list(self.config.checks),
            "violation_count": self.violation_count,
            "order_dependence_count": self.order_dependence_count,
            "records": [
                {
                    "trial": r.trial,
                    "seed": r.seed,
                    "game": r.game_name,
                    "limits": r.limits,
                    "order_dependent": r.order_dependent,
                    "violations": r.violations,
                }
                for r in self.records
            ],
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "trial",
                "seed",
                "game",
                "tail_limit",
                "double_limit",
                "order_dependent",
                "violations",
            ]
        )
        for r in self.records:
            writer.writerow(
                [
                    r.trial,
                    r.seed,
                    r.game_name,
                    r.limits.get("tail", ""),
                    r.limits.get("double", ""),
                    "" if r.order_dependent is None else str(r.order_dependent).lower(),
                    ";".join(r.violations),
                ]
            )
        return buf.getvalue()


def _shrink(game: Game, check: str, bound: int) -> Game:
    """Greedy single-strategy removals preserving the violation."""
    current = game
    improved = True
    while improved:
        improved = False
        for i in range(current.n):
            labels = current.labels(i)
            if len(labels) <= 1:
                continue
            for lab in labels:
                h = tuple(
                    frozenset(current.labels(j)) - ({lab} if j == i else set())
                    for j in range(current.n)
                )
                candidate = restrict(current, h)
                if CHECKS[check](candidate, _evidence(candidate, (check,), bound)) is not None:
                    current = candidate
                    improved = True
                    break
            if improved:
                break
    return current


def fuzz(config: FuzzConfig) -> FuzzReport:
    unknown = [check for check in config.checks if check not in CHECKS]
    if unknown:
        raise GameError(f"unknown fuzz check {unknown[0]!r}")
    for count in ("trials", "oracle_bound"):
        if getattr(config, count) < 1:
            raise GameError(f"fuzz {count} must be at least 1, got {getattr(config, count)}")
    records: list[TrialRecord] = []
    findings: list[Finding] = []
    for t in range(config.trials):
        trial_seed = config.seed * 1_000_003 + t
        game = generate_game(replace(config, seed=trial_seed))
        evidence = _evidence(game, config.checks, config.oracle_bound)
        limits = {
            op.value: json.dumps(
                render_pairing(game, trace.final), separators=(",", ":")
            )
            for op, trace in sorted(evidence.traces.items(), key=lambda kv: kv[0].value)
        }
        violations: list[str] = []
        for check in config.checks:
            detail = CHECKS[check](game, evidence)
            if detail is not None:
                violations.append(check)
                shrunk = _shrink(game, check, config.oracle_bound)
                findings.append(
                    Finding(
                        check=check,
                        trial=t,
                        seed=trial_seed,
                        detail=detail,
                        game_text=serialize_game(game),
                        shrunk_game_text=(
                            serialize_game(shrunk) if shrunk is not game else None
                        ),
                    )
                )
        enum = evidence.enum
        records.append(
            TrialRecord(
                trial=t,
                seed=trial_seed,
                game_name=game.name,
                limits=limits,
                order_dependent=None if enum is None else enum.order_dependent,
                violations=violations,
            )
        )
    return FuzzReport(config=config, records=records, findings=findings)
