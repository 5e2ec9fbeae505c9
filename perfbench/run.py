"""Benchmark for qualred: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload continuum-verdicts --seed 1 --trace 0
    python3 perfbench/run.py --suite --out perfbench/out/set-a.json
    python3 perfbench/run.py --compare perfbench/out/set-a.json perfbench/out/set-b.json

A run makes its inputs and their expected answers from the seed in a child
process, times the set-up in fresh processes, runs one untimed warm-up op,
then runs ops back to back for the given seconds and checks every answer.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A run is correct
only if no op failed: none raised and every check passed.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("continuum-verdicts", "finite-laws", "large-finite")

# Processor speed on shared machines drifts by tens of percent within
# seconds and minutes. A run therefore times a fixed pure-Python
# calibration slice right before and right after each segment of about
# SEGMENT_S seconds of ops (each op of a slower workload is its own
# segment), and scales every time in the segment to a processor on which
# one slice takes CAL_NOMINAL_S. Calibration time is left out of every
# figure.
CAL_NOMINAL_S = 2.5e-3
CAL_SLICES = 3
SEGMENT_S = 0.5
_HALF = Fraction(1, 2)


def calibration_slice():
    """Fraction arithmetic, compares, tuples and a set, like qualred's work."""
    acc = Fraction(0)
    seen = set()
    for k in range(1, 400):
        f = Fraction(k, k + 7)
        if f < _HALF:
            acc += f
        else:
            acc -= f / 3
        seen.add((k % 17, f.denominator % 13))
    return acc, len(seen)


def calibrate():
    """Median time of CAL_SLICES calibration slices."""
    times = []
    for _ in range(CAL_SLICES):
        t0 = time.perf_counter()
        calibration_slice()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_answers(name, seed):
    """Self-test failures, input texts and workload state from answers.py."""
    job = json.dumps({"src": str(SRC), "workload": name, "seed": seed})
    done = subprocess.run(
        [sys.executable, str(HERE / "answers.py")],
        input=job.encode(),
        capture_output=True,
        timeout=120,
        cwd=ROOT,
        check=True,
    )
    return pickle.loads(done.stdout)


def setup_seconds(texts):
    """Median over SETUP_REPEATS fresh processes of import plus parsing,
    scaled by the calibration around each process.

    One more process runs first, untimed, so every timed one finds the
    bytecode cache as a user's second invocation would.
    """
    job = json.dumps({"src": str(SRC), "texts": texts})
    scaled = []
    before = calibrate()
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            input=job,
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
            check=True,
        )
        after = calibrate()
        if k:
            took = float(done.stdout.strip().splitlines()[-1])
            scaled.append(took * 2 * CAL_NOMINAL_S / (before + after))
        before = after
    return statistics.median(scaled)


class Loop:
    """Closed loop of ops for a fixed time; failed ops are not timed.

    ``times`` and ``elapsed`` are scaled by the calibration around each
    segment and hold no calibration time.
    """

    def __init__(self):
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.elapsed = 0.0

    def _op(self, wl, k, check_error, tracer, after):
        """One op and its check; the op's time, or None if it failed."""
        self.attempted += 1
        if tracer is not None:
            tracer.op = k
        try:
            t0 = time.perf_counter()
            out = wl.op(k)
            took = time.perf_counter() - t0
        except Exception as e:  # an op that raises counts as failed
            self.failed += 1
            self.problems.append(f"op {k} raised {type(e).__name__}: {e}")
            return None
        finally:
            if tracer is not None:
                tracer.op = None
        try:
            wl.check(k, out)
        except check_error as e:
            self.failed += 1
            self.problems.append(f"op {k} wrong: {e}")
            return None
        if after is not None:
            after(k)
        return took

    def run(self, wl, seconds, k, check_error, tracer=None, after=None):
        before = calibrate()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            seg_start = time.perf_counter()
            seg = []
            while not seg or sum(seg) < SEGMENT_S:
                took = self._op(wl, k, check_error, tracer, after)
                k += 1
                if took is not None:
                    seg.append(took)
                elif not seg:
                    break
                if time.perf_counter() >= deadline:
                    break
            seg_wall = time.perf_counter() - seg_start
            after_cal = calibrate()
            scale = 2 * CAL_NOMINAL_S / (before + after_cal)
            self.times += [t * scale for t in seg]
            self.elapsed += seg_wall * scale
            before = after_cal
        return k


def tail(times):
    """The highest percentile with at least ten ops beyond it."""
    ordered = sorted(times)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def end_to_end(loop, setup):
    """The end-to-end metrics. With no op done the op figures read 0.0;
    the run is then not correct, since every op failed."""
    ops = len(loop.times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "ops_per_s": (ops / loop.elapsed if ops else 0.0, "1/s"),
        "op_p50_s": (statistics.median(loop.times) if ops else 0.0, "s"),
        "op_tail_s": (tail(loop.times) if ops else 0.0, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def traced_loop(wl, seconds, k, check_error, games, texts, name, seed):
    """Half the time untraced, half traced with lower-layer samples.

    Returns the loop counts (both halves) and the per-layer metrics; the
    tracing overhead is the traced over the untraced mean op time, less 1.
    """
    import qualred
    import spans

    tracer, sampler = spans.Tracer(), spans.LayerSampler()
    t_origin = time.perf_counter()
    tracer.install()
    for t in texts:  # the set-up again, traced, for dsl.parse_game_s
        qualred.parse_game(t)
    tracer.uninstall()
    derive_times = []
    for g in games:
        if g.utils is not None:
            t0 = time.perf_counter()
            qualred.derive_pref_from_utility(g)
            derive_times.append(time.perf_counter() - t0)

    plain = Loop()
    k = plain.run(wl, seconds / 2, k, check_error)
    traced = Loop()

    def sample(op_k):
        for g in wl.sample_games(op_k):
            sampler.sample(g)

    tracer.install()
    try:
        traced.run(wl, seconds / 2, k, check_error, tracer=tracer, after=sample)
    finally:
        tracer.uninstall()
    overhead = 0.0
    if traced.times and plain.times:
        overhead = 100.0 * (statistics.fmean(traced.times) / statistics.fmean(plain.times) - 1.0)
    metrics = spans.layer_metrics(
        tracer, sampler, len(traced.times), len(texts), derive_times, overhead
    )
    tracer.dump(OUT / f"trace-{name}-{seed}.json", t_origin)
    for part in ("attempted", "failed", "problems"):
        setattr(traced, part, getattr(plain, part) + getattr(traced, part))
    return traced, metrics


def run_once(name, seed, seconds, trace):
    import qualred
    import workloads

    failed_cases, texts, state = reference_answers(name, seed)
    problems = [f"reference self-test failed: {c}" for c in failed_cases]
    wl = workloads.WORKLOADS[name]()
    vars(wl).update(state)
    setup = setup_seconds(texts)

    games = [qualred.parse_game(t) for t in texts]
    wl.games = games
    try:  # one untimed warm-up op, checked like the rest
        wl.check(0, wl.op(0))
    except workloads.CheckError as e:
        problems.append(f"warm-up op wrong: {e}")
    except Exception as e:  # an op that raises makes the run incorrect
        problems.append(f"warm-up op raised {type(e).__name__}: {e}")

    if trace:
        loop, metrics = traced_loop(
            wl, seconds, 1, workloads.CheckError, games, texts, name, seed
        )
    else:
        loop = Loop()
        loop.run(wl, seconds, 1, workloads.CheckError)
        metrics = end_to_end(loop, setup)
        ops = len(loop.times)
        print(
            f"{name} seed {seed}: {ops} ops; tail is op {max(ops - 10, 1)} of {ops} by time",
            file=sys.stderr,
        )
    for p in (problems + loop.problems)[:5]:
        print(p, file=sys.stderr)
    return {
        "correct": not problems and not loop.failed,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--suite", action="store_true", help="run a set of runs of every workload")
    p.add_argument("--first-seed", type=int, default=1, help="suite: seed of the first run")
    p.add_argument("--out", type=Path, help="suite: result file")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = p.parse_args(argv)

    if not (SRC / "qualred" / "__init__.py").is_file():
        print(f"no qualred sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.compare:
        import suite

        return suite.compare(*args.compare)
    if args.suite:
        import suite

        return suite.run_suite(WORKLOAD_NAMES, args.first_seed, args.seconds, args.out)
    if args.workload is None:
        p.error("--workload is required")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    result = run_once(args.workload, args.seed, seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
