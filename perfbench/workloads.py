"""The three workloads: seeded inputs, one op kind each, and its checks.

Each workload turns a seed into game texts and computes the expected
answers with ``reference`` (``make_inputs``, run in a process of its own,
see ``answers.py``). It defines one op that calls qualred on ``games``,
the parsed texts, and a check that compares the op's outputs with those
answers or with a law the paper proves. Program functions are looked up
on the ``qualred`` package at call time, so the traced run can wrap them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import qualred as q

import reference as ref

HYPOTHESES = (
    "irreflexive",
    "strong-irreflexive",
    "propertyT-single",
    "propertyT-pair",
    "q-reflexive",
    "q-closed-convex",
    "open-lower-sections",
    "z-star",
)


class CheckError(Exception):
    """A program output that disagrees with the reference or a law."""


def need(cond, what):
    if not cond:
        raise CheckError(what)


def profile_count(game):
    """Profiles of a finite game: the oracle bound that admits it."""
    size = 1
    for i in range(game.n):
        size *= len(game.labels(i))
    return size


def as_set(s):
    """An IntervalSet as reference tuples, read from its parts."""
    return tuple((p.lo.value, p.lo.closed, p.hi.value, p.hi.closed) for p in s.parts)


# ------------------------------------------------------ continuum-verdicts

CV_GAMES = 8


def _rational(rng, lo, hi):
    """A seeded rational strictly inside (lo, hi) with denominator 3..9."""
    den = rng.randint(3, 9)
    num = rng.randint(lo * den + 1, hi * den - 1)
    return Fraction(num, den)


class ContinuumVerdicts:
    """One seeded piecewise game per op, through a full verdict.

    Games alternate between the Plateau and Crossing families, two players
    each, three distinct constants each, comparison maps on both, so every
    check runs its full scan and every op costs about the same.
    """

    name = "continuum-verdicts"

    def make_inputs(self, seed):
        rng = random.Random(seed)
        fams = []
        for k in range(CV_GAMES):
            if k % 2 == 0:
                c = _rational(rng, 0, 1)
                fams.append(ref.Plateau(0, 1, (c, c)))
            else:
                fams.append(ref.Crossing(_rational(rng, 0, 2), 2))
        self.fams = fams
        return [f.text(f"{f.kind}-{k}") for k, f in enumerate(fams)]

    def op(self, k):
        g = self.games[k % len(self.games)]
        verdicts = q.check_hypotheses(g, list(HYPOTHESES))
        traces = {op: q.star_reduce(g, q.Operator(op)) for op in ref.OPS}
        conds = [
            (q.check_condition_C(g, h), q.check_condition_D(g, h))
            for h in traces["double"].stages
        ]
        maximal = q.maximal_elements(g)
        pres = q.check_preservation(g, traces["double"].final)
        return verdicts, traces, conds, maximal, pres

    def sample_games(self, k):
        return [self.games[k % len(self.games)]]

    def check(self, k, out):
        fam = self.fams[k % len(self.fams)]
        verdicts, traces, conds, maximal, pres = out
        want = fam.verdicts()
        for name in HYPOTHESES:
            v = verdicts[name]
            need(v.status == want[name], f"{name}: {v.status}, expected {want[name]}")
            if v.status == "fails":
                need(
                    ref.witness_ok(fam, name, v.witness),
                    f"{name}: witness {v.witness} does not violate the formula",
                )
        for op, t in traces.items():
            need(t.status is q.TraceStatus.CONVERGED, f"{op}: status {t.status}")
            got = tuple(tuple(as_set(f) for f in h) for h in t.stages)
            need(got == fam.stages(op), f"{op}: stages {got}")
        for a, b in zip(traces["tail"].final, traces["double"].final):
            a, b = as_set(a), as_set(b)
            probes = ref.probe_axis([e for s in (a, b) for part in s for e in part[::2]])
            need(ref.subset_on(a, b, probes), "law: tail limit inside double limit")
        for t, (c, d) in enumerate(conds):
            need(c.status == "holds" and d.status == "holds", f"stage {t}: C/D")
        need(maximal.kind == "boxes", "maximal elements are not boxes")
        self._same_region(fam, maximal.boxes, "maximal elements")
        need(pres.equal and pres.label is None, "preservation: not equal")
        self._same_region(fam, pres.original.boxes, "preserved original")
        self._same_region(fam, pres.reduced.boxes, "preserved reduced")
        for name, v in pres.hypotheses.items():
            need(v.status == want[name], f"preservation {name}: {v.status}")

    @staticmethod
    def _same_region(fam, boxes, what):
        """Program boxes against the family's maximal set, point by point.

        Both regions are unions of boxes whose ends are family constants or
        box ends, so these points and the midpoints between them decide it.
        """
        sets = [[as_set(f) for f in box] for box in boxes]
        axes = []
        for j in range(fam.n):
            pts = set(fam.constants())
            for box in sets:
                for lo, _, hi, _ in box[j]:
                    pts.update((lo, hi))
            carrier = fam.carrier(j)
            axes.append([p for p in ref.probe_axis(pts) if ref.contains(carrier, p)])
        for x in itertools.product(*axes):
            got = any(all(ref.contains(s, v) for s, v in zip(box, x)) for box in sets)
            need(got == fam.maximal(x), f"{what}: wrong at {x}")


# ------------------------------------------------------------ finite-laws

FL_BATCHES = 8
# Per shape, the work signatures its games are drawn to: (states the
# exhaustive walk visits, stages of the double trace, stages of the tail
# trace). Fixing them makes every batch do the same amount of reduction.
FL_SIGNATURES = {
    (2, 2): ((1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 2, 2)),
    (3, 3): ((1, 1, 1), (3, 3, 3), (4, 2, 2), (7, 4, 4)),
    (2, 2, 2): ((1, 1, 1), (2, 2, 2), (4, 4, 4), (5, 3, 3)),
}


def _labels(sizes):
    pool = "abcdefghijklmnopqrstuvwxyz"
    out, at = [], 0
    for size in sizes:
        out.append(tuple(pool[at : at + size]))
        at += size
    return out


def utility_text(name, labels, utils, comps):
    rows = [f'game "{name}"']
    for i, ls in enumerate(labels):
        rows.append(f"space {i + 1} = finite {{{', '.join(ls)}}}")
    if comps is not None:
        for i, table in enumerate(comps):
            rows.append(f"comp {i + 1} table:")
            for x in itertools.product(*labels):
                members = [s for s in labels[i] if s in table[x]]
                rows.append(f"  at {','.join(x)}: {{{', '.join(members)}}}")
    for i, table in enumerate(utils):
        rows.append(f"util {i + 1} table:")
        for x in itertools.product(*labels):
            rows.append(f"  at {','.join(x)} = {table[x]}")
    return "\n".join(rows) + "\n"


def _signature(r):
    return (r.walk()[0], len(r.fast_stages("double")), len(r.fast_stages("tail")))


class FiniteLaws:
    """One fixed batch of small utility games per op, through the laws.

    There are FL_BATCHES batches per seed. A batch holds one game per
    shape and work signature in FL_SIGNATURES with full comparison maps,
    and as many without. Payoffs are seeded integers 0..9, redrawn until
    the game has its slot's signature, so every batch does the same kinds
    and amounts of work.
    """

    name = "finite-laws"

    def make_inputs(self, seed):
        rng = random.Random(seed)
        self.refs = []
        self.want = []
        texts = []
        slots = [(s, sig) for s, sigs in FL_SIGNATURES.items() for sig in sigs]
        for b, with_comps, (sizes, sig) in itertools.product(
            range(FL_BATCHES), (True, False), slots
        ):
            labels = _labels(sizes)
            profiles = list(itertools.product(*labels))
            comps = None
            if with_comps:
                comps = [dict.fromkeys(profiles, frozenset(ls)) for ls in labels]
            while True:
                utils = [{x: rng.randint(0, 9) for x in profiles} for _ in sizes]
                r = ref.FiniteRef.from_utils(labels, utils, comps)
                if _signature(r) == sig:
                    break
            name = f"b{b}-{len(texts)}-{'x'.join(map(str, sizes))}"
            texts.append(utility_text(name, labels, utils, comps))
            self.refs.append(r)
            self.want.append(self._answers(r))
        self.per_batch = len(texts) // FL_BATCHES
        return texts

    @staticmethod
    def _answers(r):
        stages = {op: r.fast_stages(op) for op in ("tail", "double")}
        conds = {
            op: [(r.condition_bad(h, "C"), r.condition_bad(h, "D")) for h in st]
            for op, st in stages.items()
        }
        return {
            "stages": stages,
            "conds": conds,
            "walk": r.walk(),
            "maximal": r.maximal(),
            "hypotheses": r.hypotheses(),
        }

    def _batch(self, k):
        start = (k % FL_BATCHES) * self.per_batch
        return range(start, start + self.per_batch)

    def op(self, k):
        out = []
        for idx in self._batch(k):
            g = self.games[idx]
            traces = {op: q.star_reduce(g, q.Operator(op)) for op in ("tail", "double")}
            conds = {
                op: [(q.check_condition_C(g, h), q.check_condition_D(g, h)) for h in t.stages]
                for op, t in traces.items()
            }
            enum = q.enumerate_maximal_reductions(
                g, q.Operator.DOUBLE, bound=profile_count(g), track_condition_D=True
            )
            maximal = q.maximal_elements(g)
            pres = (
                q.check_preservation(g, traces["double"].final)
                if g.comps is not None
                else None
            )
            verdicts = q.check_hypotheses(g, list(HYPOTHESES))
            out.append((traces, conds, enum, maximal, pres, verdicts))
        return out

    def sample_games(self, k):
        return [self.games[idx] for idx in self._batch(k)]

    def check(self, k, out):
        for idx, res in zip(self._batch(k), out):
            try:
                self._check_game(self.refs[idx], self.want[idx], *res)
            except CheckError as e:
                raise CheckError(f"{self.games[idx].name}: {e}") from None

    @staticmethod
    def _check_game(r, want, traces, conds, enum, maximal, pres, verdicts):
        for op, t in traces.items():
            need(t.stages == want["stages"][op], f"{op}: stages {t.stages}")
        for i in range(r.n):
            need(
                traces["tail"].final[i] <= traces["double"].final[i],
                "law: tail limit inside double limit",
            )
        for op, rows in conds.items():
            for t, (c, d) in enumerate(rows):
                for which, v, bad in zip("CD", (c, d), want["conds"][op][t]):
                    status = "fails" if any(bad) else "holds"
                    need(v.status == status, f"{op} stage {t}: {which} {v.status}")
                    if v.status == "fails":
                        i, x = v.witness
                        need(x in bad[i - 1], f"{which} witness {v.witness}")
                if c.status == "holds":
                    need(d.status == "holds", "law: C implies D")
        visited, terminal, d_all = want["walk"]
        need(enum.visited == visited, f"oracle visited {enum.visited}, expected {visited}")
        need(set(enum.pairings) == terminal, "oracle terminal pairings")
        need(enum.condition_D_everywhere == d_all, "oracle condition D")
        if enum.condition_D_everywhere:
            need(
                enum.pairings == [traces["double"].final],
                "law: D everywhere gives one limit, the fast limit",
            )
        need(set(maximal.profiles) == want["maximal"], "maximal elements")
        if pres is not None:
            limit = traces["double"].final
            need(set(pres.original.profiles) == want["maximal"], "original maximal")
            need(set(pres.reduced.profiles) == r.maximal_within(limit), "reduced maximal")
            need(pres.equal, "law: maximal elements preserved under full comparison")
        for name in HYPOTHESES:
            v = verdicts[name]
            need(
                v.status == want["hypotheses"][name],
                f"{name}: {v.status}, expected {want['hypotheses'][name]}",
            )
            if v.status == "fails":
                need(r.pair_witness_ok(v.witness), f"{name}: witness {v.witness}")


# ----------------------------------------------------------- large-finite

LF_FINE = Fraction(1, 48)
LF_COARSE = Fraction(1, 6)
LF_CUT_SPLITS = ((4, 6), (5, 5), (6, 4))  # coarse points below each cut
LF_BEAUTY = 40


class LargeFinite:
    """Snapshots of Plateau games and a beauty contest, per op.

    Each op discretizes one Plateau game finely and reduces the snapshot,
    reduces the beauty contest, and walks every elimination order on a
    coarse snapshot. Cuts sit on the coarse grid and always leave ten
    coarse points below them in total, so every snapshot has the same
    size and every walk visits 2^10 states. Snapshot tables are checked
    entry by entry against the family's rows (``reference.plateau_rows``);
    no reference table of a snapshot is kept.
    """

    name = "large-finite"

    def make_inputs(self, seed):
        rng = random.Random(seed)
        a = Fraction(rng.randint(-3, 3))
        splits = list(LF_CUT_SPLITS)
        rng.shuffle(splits)
        self.fams = [
            ref.Plateau(a, a + 1, [a + m * LF_COARSE for m in split], with_comps=False)
            for split in splits
        ]
        scale = (rng.randint(1, 5), rng.randint(1, 5))
        shift = (rng.randint(-9, 9), rng.randint(-9, 9))
        labels, utils = ref.beauty_utils(LF_BEAUTY, scale, shift)
        beauty = ref.FiniteRef.from_utils(labels, utils)
        self.beauty_stages = beauty.fast_stages("double")
        self.beauty_maximal = beauty.maximal()
        self.want = [self._answers(fam) for fam in self.fams]
        texts = [f.text(f"plateau-{k}") for k, f in enumerate(self.fams)]
        texts.append(utility_text("beauty", labels, utils, None))
        return texts

    @staticmethod
    def _answers(fam):
        fine = ref.plateau_rows(fam, LF_FINE)
        labels = fine[0]
        full = tuple(frozenset(labels) for _ in fam.cuts)
        limit = tuple(frozenset(s for s in labels if Fraction(s) >= c) for c in fam.cuts)
        return {
            "fine": fine,
            "fine_stages": (full, limit),
            "fine_maximal": set(itertools.product(*(sorted(f) for f in limit))),
            "coarse": ref.plateau_rows(fam, LF_COARSE),
            "walk": ref.plateau_oracle_count(fam, LF_COARSE),
        }

    def op(self, k):
        g = self.games[k % len(self.fams)]
        beauty = self.games[-1]
        fine = q.discretize(g, LF_FINE)
        fine_trace = q.star_reduce(fine, q.Operator.DOUBLE)
        fine_max = q.maximal_elements(fine)
        beauty_trace = q.star_reduce(beauty, q.Operator.DOUBLE)
        beauty_max = q.maximal_elements(beauty)
        coarse = q.discretize(g, LF_COARSE)
        enum = q.enumerate_maximal_reductions(
            coarse, q.Operator.DOUBLE, bound=profile_count(coarse), track_condition_D=True
        )
        return fine, fine_trace, fine_max, beauty_trace, beauty_max, coarse, enum

    def sample_games(self, k):
        return [self.games[k % len(self.fams)], self.games[-1]]

    def check(self, k, out):
        want = self.want[k % len(self.fams)]
        fine, fine_trace, fine_max, beauty_trace, beauty_max, coarse, enum = out
        for snap, (labels, rows), what in (
            (fine, want["fine"], "fine"),
            (coarse, want["coarse"], "coarse"),
        ):
            need(snap.n == len(rows), f"{what} players")
            for i, row in enumerate(rows):
                need(tuple(snap.labels(i)) == labels, f"{what} grid {i + 1}")
                table = snap.prefs[i].table
                need(len(table) == len(labels) ** len(rows), f"{what} table {i + 1} size")
                for x in itertools.product(labels, repeat=len(rows)):
                    need(table.get(x) == row[x[i]], f"{what} table {i + 1} at {x}")
        need(fine_trace.stages == want["fine_stages"], "fine snapshot stages")
        need(set(fine_max.profiles) == want["fine_maximal"], "fine snapshot maximal")
        need(beauty_trace.stages == self.beauty_stages, "beauty contest stages")
        need(set(beauty_max.profiles) == self.beauty_maximal, "beauty contest maximal")
        visited, terminal = want["walk"]
        need(enum.visited == visited, f"oracle visited {enum.visited}, expected {visited}")
        need(enum.pairings == [terminal], "oracle terminal pairing")
        need(enum.condition_D_everywhere, "oracle condition D")


WORKLOADS = {w.name: w for w in (ContinuumVerdicts, FiniteLaws, LargeFinite)}
