"""Spans around qualred's public functions, and direct lower-layer samples.

The traced run wraps the upper layers' entry points from outside: every
qualred module attribute (and the hypothesis table) that names one of the
functions in SPANS is replaced by a wrapper that records a span, and the
original is put back afterwards. Nothing inside the program changes.
Lower layers are called far too often to wrap; ``LayerSampler`` times
them by calling them directly on a fixed sample of each op's games.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

import qualred as q
from qualred import analysis, dsl, games, lab, reduction
from workloads import profile_count

# span name -> (module, attribute) of the function it wraps
SPANS = {
    "dsl.parse_game": (dsl, "parse_game"),
    "games.derive": (games, "derive_pref_from_utility"),
    "reduction.star_reduce": (reduction, "star_reduce"),
    "analysis.condition_C": (analysis, "check_condition_C"),
    "analysis.condition_D": (analysis, "check_condition_D"),
    "analysis.maximal_elements": (analysis, "maximal_elements"),
    "analysis.preservation": (analysis, "check_preservation"),
    "lab.discretize": (lab, "discretize"),
    "lab.oracle": (lab, "enumerate_maximal_reductions"),
}
for _name, _fn in analysis.HYPOTHESIS_CHECKS.items():
    SPANS["analysis." + _name] = (analysis, _fn.__name__)


# span name -> hook that reads a work count off the call's result
COUNTS = {
    "reduction.star_reduce": lambda t: len(t.stages),
    "lab.discretize": profile_count,
    "lab.oracle": lambda e: e.visited,
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent, op, count]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else None
            spans.append([name, time.perf_counter(), None, parent, self.op, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    spans[idx][5] = count(result)
                return result
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        originals = {id(getattr(mod, attr)): name for name, (mod, attr) in SPANS.items()}
        wrappers = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qualred" or mod_name.startswith("qualred.")):
                continue
            for attr, value in list(vars(mod).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[name])
        table = analysis.HYPOTHESIS_CHECKS
        for key, value in list(table.items()):
            self._saved.append((table, key, value))
            table[key] = wrappers["analysis." + key]

    def uninstall(self):
        for owner, key, value in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._saved.clear()

    def self_times(self):
        """Per span: its duration minus the durations of its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, count in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [
            (s[0], (s[2] - s[1]) - child[k], s[2] - s[1], s[4], s[5])
            for k, s in enumerate(self.spans)
        ]

    def dump(self, path, t0):
        """Write every span as [name, start, end, parent, op, count]."""
        rows = [
            [s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3], s[4], s[5]]
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op", "count"], "spans": rows}))


def _interval_sets(game):
    out = []
    corrs = list(game.prefs) + list(game.comps or ())
    for i in range(game.n):
        out.append(game.carrier(i))
    for corr in corrs:
        for piece in corr.pieces:
            out.extend(piece.cell.factors)
    return list(dict.fromkeys(out))


def _axis_points(game, i):
    """Ends of every interval set of the game on axis i, and midpoints."""
    pts = set()
    for corr in list(game.prefs) + list(game.comps or ()):
        for piece in corr.pieces:
            for part in piece.cell.factors[i].parts:
                pts.update((part.lo.value, part.hi.value))
    pts = sorted(pts)
    pts += [(a + b) / 2 for a, b in zip(pts, pts[1:])]
    carrier = game.carrier(i)
    return sorted(p for p in pts if carrier.contains(p))


class LayerSampler:
    """Direct calls into games, intervals and engine on a fixed sample.

    Per game: up to EVAL_PROFILES profiles for eval_value on every map, up
    to SETOP_SETS interval sets for every ordered pair of union, intersect
    and difference, up to DOMINATOR_POINTS strategies per player for
    dominator_set at the full pairing, and eliminated_region (double) for
    each player at the full pairing.
    """

    EVAL_PROFILES = 64
    SETOP_SETS = 8
    DOMINATOR_POINTS = 12

    def __init__(self):
        self.time = {"eval": 0.0, "setop": 0.0, "dominator": 0.0, "region": 0.0}
        self.calls = dict.fromkeys(self.time, 0)

    def _timed(self, kind, calls):
        t0 = time.perf_counter()
        for fn, args in calls:
            fn(*args)
        self.time[kind] += time.perf_counter() - t0
        self.calls[kind] += len(calls)

    def sample(self, game):
        finite = game.is_finite
        if finite:
            axes = [game.labels(i) for i in range(game.n)]
        else:
            axes = [_axis_points(game, i) for i in range(game.n)]
        profiles = list(itertools.islice(itertools.product(*axes), self.EVAL_PROFILES))
        corrs = list(game.prefs) + list(game.comps or ())
        self._timed("eval", [(games.eval_value, (game, c, x)) for x in profiles for c in corrs])
        if not finite:
            sets = _interval_sets(game)[: self.SETOP_SETS]
            calls = []
            for a, b in itertools.product(sets, sets):
                calls += [(a.union, (b,)), (a.intersect, (b,)), (a.difference, (b,))]
            self._timed("setop", calls)
        full = q.full_pairing(game)
        calls = []
        for i in range(game.n):
            pts = axes[i]
            step = max(1, len(pts) // self.DOMINATOR_POINTS)
            calls += [(q.dominator_set, (game, full, i, x)) for x in pts[::step][: self.DOMINATOR_POINTS]]
        self._timed("dominator", calls)
        self._timed(
            "region",
            [(q.eliminated_region, (game, full, i, q.Operator.DOUBLE)) for i in range(game.n)],
        )

    def per_call_us(self, kind):
        n = self.calls[kind]
        return 1e6 * self.time[kind] / n if n else 0.0


def layer_metrics(tracer, sampler, traced_ops, inputs, derive_times, overhead_pct):
    """Per-layer figures from the spans of the traced ops and the samples."""
    self_sum, incl_sum, counts = {}, {}, {}
    for name, self_t, incl, op, count in tracer.self_times():
        key = (name, op is None)
        self_sum[key] = self_sum.get(key, 0.0) + self_t
        incl_sum[key] = incl_sum.get(key, 0.0) + incl
        if count is not None:
            counts.setdefault(name, []).append(count)
    ops = max(traced_ops, 1)

    def per_op(name):
        return self_sum.get((name, False), 0.0) / ops

    def mean_count(name):
        vals = counts.get(name, [])
        return sum(vals) / len(vals) if vals else 0

    m = {}
    m["dsl.parse_game_s"] = (self_sum.get(("dsl.parse_game", True), 0.0) / max(inputs, 1), "s")
    m["games.derive_s"] = (
        sum(derive_times) / len(derive_times) if derive_times else 0.0,
        "s",
    )
    m["games.eval_value_us"] = (sampler.per_call_us("eval"), "us")
    m["intervals.setop_us"] = (sampler.per_call_us("setop"), "us")
    m["engine.dominator_set_us"] = (sampler.per_call_us("dominator"), "us")
    m["engine.eliminated_region_us"] = (sampler.per_call_us("region"), "us")
    m["reduction.star_reduce_s"] = (per_op("reduction.star_reduce"), "s")
    m["reduction.stages"] = (mean_count("reduction.star_reduce"), "count")
    for name in analysis.HYPOTHESIS_CHECKS:
        m[f"analysis.{name}_s"] = (per_op("analysis." + name), "s")
    for name in ("condition_C", "condition_D", "maximal_elements", "preservation"):
        m[f"analysis.{name}_s"] = (per_op("analysis." + name), "s")
    m["lab.discretize_s"] = (per_op("lab.discretize"), "s")
    m["lab.snapshot_profiles"] = (mean_count("lab.discretize"), "count")
    m["lab.oracle_s"] = (per_op("lab.oracle"), "s")
    m["lab.oracle_states"] = (mean_count("lab.oracle"), "count")
    oracle_incl = incl_sum.get(("lab.oracle", False), 0.0)
    oracle_states = sum(counts.get("lab.oracle", []))
    m["lab.oracle_states_per_s"] = (oracle_states / oracle_incl if oracle_incl else 0.0, "1/s")
    m["trace.ops"] = (traced_ops, "count")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m
