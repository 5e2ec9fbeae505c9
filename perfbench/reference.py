"""Reference answers computed apart from qualred.

Nothing here imports the program. Finite games are given by their label
sets and a table of preferred sets ``better[i][profile]``; utility games
derive that table from payoffs. Continuum families give their verdicts,
limits and maximal regions in closed form.

Intervals are plain tuples ``(lo, lo_closed, hi, hi_closed)`` of
Fractions; a set of reals is a tuple of such intervals.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

DOUBLE = "double"
OPS = ("arrow", "tail", "double")


# ---------------------------------------------------------------- finite


class FiniteRef:
    """A finite game: labels per player and preferred sets per profile."""

    def __init__(self, labels, better, comps=None):
        self.labels = [tuple(ls) for ls in labels]
        self.n = len(self.labels)
        self.better = better  # better[i][profile] -> frozenset of labels
        self.comps = comps  # same shape, or None

    @classmethod
    def from_utils(cls, labels, utils, comps=None):
        labels = [tuple(ls) for ls in labels]
        better = []
        for i, u in enumerate(utils):
            table = {}
            for x in itertools.product(*labels):
                base = u[x]
                table[x] = frozenset(
                    y for y in labels[i] if u[x[:i] + (y,) + x[i + 1 :]] > base
                )
            better.append(table)
        return cls(labels, better, comps)

    def full(self):
        return tuple(frozenset(ls) for ls in self.labels)

    def profiles(self, h=None):
        axes = self.labels if h is None else [
            [s for s in self.labels[j] if s in h[j]] for j in range(self.n)
        ]
        return itertools.product(*axes)

    def _beats(self, i, x, h):
        """Strategies preferred to x against every opponent profile in h."""
        axes = [
            [s for s in self.labels[j] if s in h[j]] if j != i else [x]
            for j in range(self.n)
        ]
        out = None
        for z in itertools.product(*axes):
            v = self.better[i][z]
            out = v if out is None else out & v
            if not out:
                return frozenset()
        return out

    def _opponents_empty(self, i, h):
        return any(not h[j] for j in range(self.n) if j != i)

    def eliminable(self, i, h, op):
        """Members of h[i] with a strict dominator; double draws it from h[i]."""
        if self._opponents_empty(i, h):
            return frozenset()
        pool = h[i] if op == DOUBLE else frozenset(self.labels[i])
        return frozenset(x for x in h[i] if self._beats(i, x, h) & pool)

    def fast_stages(self, op):
        """Simultaneous removal of everything eliminable, to a fixpoint."""
        stages = [self.full()]
        while True:
            h = stages[-1]
            new = tuple(h[i] - self.eliminable(i, h, op) for i in range(self.n))
            if new == h:
                return tuple(stages)
            stages.append(new)
            if any(not f for f in new):
                return tuple(stages)

    def condition_bad(self, h, which):
        """Per player, the strategies breaking condition C or D at h."""
        out = []
        for i in range(self.n):
            if self._opponents_empty(i, h):
                out.append(frozenset())
                continue
            beats = {x: self._beats(i, x, h) for x in self.labels[i]}
            dominated = frozenset(x for x, b in beats.items() if b)
            if which == "D":
                pool = h[i]
            else:
                pool = frozenset(self.labels[i]) - dominated
            out.append(frozenset(x for x in dominated if not beats[x] & pool))
        return out

    def maximal(self):
        return {
            x
            for x in self.profiles()
            if all(not self.better[i][x] for i in range(self.n))
        }

    def maximal_within(self, h):
        """Maximal elements of the game restricted to h."""
        return {
            x
            for x in self.profiles(h)
            if all(not (self.better[i][x] & h[i]) for i in range(self.n))
        }

    def walk(self):
        """Every pairing reachable by valid single double-removals.

        Returns (visited, terminal pairings, condition D at every state).
        """
        seen = set()
        terminal = set()
        d_all = True
        stack = [self.full()]
        while stack:
            h = stack.pop()
            if h in seen:
                continue
            seen.add(h)
            if any(self.condition_bad(h, "D")):
                d_all = False
            moved = False
            for i in range(self.n):
                if self._opponents_empty(i, h):
                    continue
                for y in h[i]:
                    if self._beats(i, y, h) & (h[i] - {y}):
                        moved = True
                        stack.append(h[:i] + (h[i] - {y},) + h[i + 1 :])
            if not moved:
                terminal.add(h)
        return len(seen), terminal, d_all

    def hypotheses(self):
        """Closed-form verdict statuses for utility-derived preferences.

        Derived preferences are irreflexive and transitive, so the first
        three hold. With full comparison maps Q_i = S_i everywhere, pair
        property T fails exactly when some preferred set is nonempty.
        """
        out = {
            "irreflexive": "holds",
            "strong-irreflexive": "holds",
            "propertyT-single": "holds",
            "open-lower-sections": "holds",
        }
        if self.comps is None:
            for name in ("propertyT-pair", "q-reflexive", "q-closed-convex", "z-star"):
                out[name] = "not-checkable"
            return out
        any_pref = any(
            self.better[i][x] for i in range(self.n) for x in self.profiles()
        )
        out["propertyT-pair"] = "fails" if any_pref else "holds"
        out["q-reflexive"] = "holds"
        out["q-closed-convex"] = "holds"
        out["z-star"] = "holds"
        return out

    def pair_witness_ok(self, witness):
        """A pair-property-T witness (player, profile, y) re-checked here."""
        i, x, y = witness[0] - 1, tuple(witness[1]), witness[2]
        if y not in self.better[i][x]:
            return False
        q_y = self.comps[i][x[:i] + (y,) + x[i + 1 :]]
        return not q_y <= self.better[i][x]


def beauty_utils(size, scale, shift):
    """Two-player guessing game on 0..size: aim for a third of the sum.

    u_i = shift_i - scale_i * |3 x_i - x_1 - x_2|; a positive scale and
    any shift leave the preferences unchanged.
    """
    labels = [tuple(str(k) for k in range(size + 1))] * 2
    utils = []
    for i in range(2):
        table = {}
        for a in range(size + 1):
            for b in range(size + 1):
                own = (a, b)[i]
                table[(str(a), str(b))] = shift[i] - scale[i] * abs(3 * own - a - b)
        utils.append(table)
    return labels, utils


# ------------------------------------------------------------- intervals


def iv(lo, hi, lo_closed=True, hi_closed=True):
    """One interval as a set, or the empty set when it is empty."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo < hi or (lo == hi and lo_closed and hi_closed):
        return ((lo, lo_closed, hi, hi_closed),)
    return ()


def contains(s, p):
    for lo, lc, hi, hc in s:
        if (lo < p or (lc and lo == p)) and (p < hi or (hc and hi == p)):
            return True
    return False


def closure(s):
    return tuple((lo, True, hi, True) for lo, _, hi, _ in s)


def subset_on(a, b, probes):
    """a inside b at every probe point (exact when probes split both)."""
    return all(contains(b, p) for p in probes if contains(a, p))


def probe_axis(points):
    """Sorted points plus the midpoint of each gap."""
    pts = sorted(set(points))
    mids = [(u + v) / 2 for u, v in zip(pts, pts[1:])]
    return sorted(pts + mids)


# ------------------------------------------------------------ continuum


class Plateau:
    """fx1-style climb to a plateau: P_i = (x_i, c] below c, empty above.

    Spaces [a, b]; Q_i = [x_i, c] below c and {x_i} from c on. Every
    hypothesis but strong irreflexivity holds; every operator removes
    [a, c) in one step; the maximal region is [c, b]^n. Conditions C and
    D hold at every stage: what is dominated is [a, c), beaten by c, which
    is undominated and never removed.
    """

    kind = "plateau"

    def __init__(self, a, b, cuts, with_comps=True):
        self.a, self.b = Fraction(a), Fraction(b)
        self.cuts = tuple(Fraction(c) for c in cuts)
        self.n = len(self.cuts)
        self.with_comps = with_comps

    def constants(self):
        return {self.a, self.b, *self.cuts}

    def carrier(self, i):
        return iv(self.a, self.b)

    def pref(self, i, x):
        c = self.cuts[i]
        return iv(x[i], c, False, True) if x[i] < c else ()

    def verdicts(self):
        return {
            "irreflexive": "holds",
            "strong-irreflexive": "fails",
            "propertyT-single": "holds",
            "propertyT-pair": "holds",
            "q-reflexive": "holds",
            "q-closed-convex": "holds",
            "open-lower-sections": "holds",
            "z-star": "not-checkable",
        }

    def stages(self, op):
        full = tuple(self.carrier(i) for i in range(self.n))
        limit = tuple(iv(c, self.b) for c in self.cuts)
        return (full, limit) if limit != full else (full,)

    def maximal(self, x):
        return all(not self.pref(i, x) for i in range(self.n))

    def text(self, name):
        rows = [f'game "{name}"']
        for i in range(self.n):
            rows.append(f"space {i + 1} = interval [{self.a},{self.b}]")
        for kw in ("pref", "comp") if self.with_comps else ("pref",):
            for i, c in enumerate(self.cuts):
                x = f"x{i + 1}"
                rows.append(f"{kw} {i + 1} piecewise:")
                low = f"({x}, {c}]" if kw == "pref" else f"[{x}, {c}]"
                high = "empty" if kw == "pref" else f"[{x}, {x}]"
                if c > self.a:
                    rows.append(f"  when {x} in [{self.a},{c}): {low}")
                rows.append(f"  when {x} in [{c},{self.b}]: {high}")
        return "\n".join(rows) + "\n"


class Crossing:
    """fx4-style game on [0, r]^2 with threshold c.

    P_1 = (c, x2] where x1 <= c < x2 and P_2 = (c, x1] where x2 <= c < x1,
    empty elsewhere; the comparison maps are fx4's with 1 replaced by c.
    Nothing is ever eliminated, so conditions C and D hold vacuously; the
    maximal region is [0,c]^2 u (c,r]^2; strong irreflexivity and open
    lower sections fail.
    """

    kind = "crossing"
    n = 2

    def __init__(self, c, r):
        self.c, self.r = Fraction(c), Fraction(r)

    def constants(self):
        return {Fraction(0), self.c, self.r}

    def carrier(self, i):
        return iv(0, self.r)

    def pref(self, i, x):
        own, other = x[i], x[1 - i]
        if own <= self.c < other:
            return iv(self.c, other, False, True)
        return ()

    def verdicts(self):
        return {
            "irreflexive": "holds",
            "strong-irreflexive": "fails",
            "propertyT-single": "holds",
            "propertyT-pair": "holds",
            "q-reflexive": "holds",
            "q-closed-convex": "holds",
            "open-lower-sections": "fails",
            "z-star": "not-checkable",
        }

    def stages(self, op):
        return ((self.carrier(0), self.carrier(1)),)

    def maximal(self, x):
        return all(not self.pref(i, x) for i in range(self.n))

    def text(self, name):
        c, r = self.c, self.r
        lo, hi = f"[0,{c}]", f"({c},{r}]"
        return "\n".join(
            [
                f'game "{name}"',
                f"space 1 = interval [0,{r}]",
                f"space 2 = interval [0,{r}]",
                "pref 1 piecewise:",
                f"  when x1 in {lo} and x2 in {hi}: ({c}, x2]",
                f"  when x1 in {hi}: empty",
                f"  when x1 in {lo} and x2 in {lo}: empty",
                "pref 2 piecewise:",
                f"  when x1 in {hi} and x2 in {lo}: ({c}, x1]",
                f"  when x2 in {hi}: empty",
                f"  when x1 in {lo} and x2 in {lo}: empty",
                "comp 1 piecewise:",
                f"  when x1 in {lo} and x2 in {lo}: [0, {c}]",
                f"  when x1 in {lo} and x2 in {hi}: [x1, x2]",
                f"  when x1 in {hi} and x2 in {lo}: [x2, x1]",
                f"  when x1 in {hi} and x2 in {hi}: [x1, x1]",
                "comp 2 piecewise:",
                f"  when x1 in {lo} and x2 in {lo}: [0, {c}]",
                f"  when x1 in {hi} and x2 in {lo}: [x2, x1]",
                f"  when x1 in {lo} and x2 in {hi}: [x1, x2]",
                f"  when x1 in {hi} and x2 in {hi}: [x2, x2]",
            ]
        ) + "\n"


_EPS = Fraction(1, 10**9)


def _inside(fam, x):
    return all(contains(fam.carrier(j), x[j]) for j in range(fam.n))


def witness_ok(fam, name, witness):
    """Re-check a `fails` witness against the family's own formula."""
    if name == "strong-irreflexive":
        i, x = witness[0] - 1, tuple(witness[1])
        return _inside(fam, x) and contains(closure(fam.pref(i, x)), x[i])
    if name == "open-lower-sections":
        i, y, x = witness[0] - 1, witness[1], tuple(witness[2])
        if not (_inside(fam, x) and contains(fam.pref(i, x), y)):
            return False
        # x must sit on the edge of {x' : y in P_i(x')}: some point an
        # epsilon away, still in the space, drops y.
        for j in range(fam.n):
            for d in (_EPS, -_EPS):
                near = x[:j] + (x[j] + d,) + x[j + 1 :]
                if _inside(fam, near) and not contains(fam.pref(i, near), y):
                    return True
        return False
    return False


# ------------------------------------------------------------- snapshots


def grid(a, b, step):
    k = int((b - a) / step)
    return [a + step * t for t in range(k + 1)]


def plateau_snapshot(fam, step):
    """The finite game discretize() should produce from a Plateau."""
    axis = grid(fam.a, fam.b, step)
    labels = [tuple(str(p) for p in axis)] * fam.n
    value = {str(p): p for p in axis}
    better = []
    for i in range(fam.n):
        table = {}
        for x in itertools.product(*labels):
            xf = tuple(value[s] for s in x)
            pref = fam.pref(i, xf)
            table[x] = frozenset(s for s in labels[i] if contains(pref, value[s]))
        better.append(table)
    return FiniteRef(labels, better)


def plateau_rows(fam, step):
    """Grid labels, and per player P_i on the grid by the label of x_i.

    A Plateau's P_i(x) depends on x_i alone, so each entry of the table
    discretize() builds for player i is fixed by its own label: the whole
    table is checked against these rows without storing it.
    """
    axis = grid(fam.a, fam.b, step)
    labels = tuple(str(p) for p in axis)
    rows = []
    for i in range(fam.n):
        row = {}
        for s, p in zip(labels, axis):
            pref = fam.pref(i, (p,) * fam.n)
            row[s] = frozenset(t for t, v in zip(labels, axis) if contains(pref, v))
        rows.append(row)
    return labels, rows


def plateau_oracle_count(fam, step):
    """States of the exhaustive walk on a Plateau snapshot: each player may
    drop any subset of the grid points below its cut, in any order, so
    visited = 2^(sum of those counts), with the single terminal pairing
    (points >= c_i for every i). With every cut at the top of an axis of
    k points this is fx1's 2^(n(k-1))."""
    axis = grid(fam.a, fam.b, step)
    below = sum(sum(1 for p in axis if p < c) for c in fam.cuts)
    terminal = tuple(
        frozenset(str(p) for p in axis if p >= c) for c in fam.cuts
    )
    return 2**below, terminal
