"""Sets of runs and their comparison.

``run_suite`` runs every workload RUNS times, each in a fresh process
with its own seed, plus one traced run per workload, and writes all their
result lines to one JSON file. ``compare`` reads two such files and, per
workload, first compares the share of failed ops: if the new side fails
a larger share, or has a run that is not correct, every metric of the
workload is labelled ``worse``. Otherwise it prints, per end-to-end
metric, each side's median and quartiles, the ratio of the new median to
the base one, and a label:

- ``unresolved``: the spread of either side (quartile distance over
  median) is wider than the metric's bound, unless every new run reads
  better than every base run; every metric of a workload with a base run
  that is not correct is ``unresolved``;
- ``worse``: the new median is worse than the base one by more than the
  bound;
- ``within bound`` otherwise.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def quartiles(values):
    """(first quartile, median, third quartile), as statistics.quantiles."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def summarize(runs, metrics):
    rows = []
    for m in metrics:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = quartiles(vals)
        bound = m.get("bound")
        s = spread(vals)
        note = "" if bound is None else f"  spread/bound {s / bound:.2f}"
        rows.append(f"  {m['name']:<24} median {med:<12.6g} [{q1:.6g}, {q3:.6g}] {m['unit']}{note}")
    return rows


def run_suite(workloads, first_seed, seconds, out):
    spec = benchmark_spec()
    seconds = seconds if seconds is not None else spec["run_seconds"]
    result = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seconds": seconds,
        "runs": {},
        "traced": {},
    }
    for w in workloads:
        result["runs"][w] = [one_run(w, first_seed + k, seconds, 0) for k in range(RUNS)]
        result["traced"][w] = one_run(w, first_seed, seconds, 1)
        print(f"{w}: {RUNS} runs, seeds {first_seed}..{first_seed + RUNS - 1}")
        for row in summarize(result["runs"][w], spec["end_to_end"]):
            print(row)
        runs_w = result["runs"][w]
        attempted = sum(r["attempted"] for r in runs_w)
        failed = sum(r["failed"] for r in runs_w)
        wrong = [r["seed"] for r in runs_w if not r["correct"]]
        print(f"  ops attempted {attempted}, failed {failed}; runs not correct: {wrong or 'none'}")
        traced = result["traced"][w]
        print(f"  traced run, seed {first_seed}, correct {traced['correct']}:")
        for name, m in traced["metrics"].items():
            print(f"    {name:<34} {m['value']:.4g} {m['unit']}")
        if out is not None:  # after each workload, so a cut suite keeps its runs
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


def _worse(metric, base, new):
    """How much worse new is than base, as a share of base (negative: better)."""
    if metric["better"] == "lower":
        return new / base - 1.0
    return base / new - 1.0


def failures(runs):
    """(failed ops, attempted ops, runs that are not correct)."""
    return (
        sum(r["failed"] for r in runs),
        sum(r["attempted"] for r in runs),
        sum(1 for r in runs if not r["correct"]),
    )


def compare(base_path, new_path):
    spec = benchmark_spec()
    base = json.loads(Path(base_path).read_text())["runs"]
    new = json.loads(Path(new_path).read_text())["runs"]
    status = 0
    for w in base:
        if w not in new:
            continue
        bf, ba, b_bad = failures(base[w])
        nf, na, n_bad = failures(new[w])
        print(
            f"{w}: failed ops base {bf} of {ba}, new {nf} of {na}; "
            f"runs not correct base {b_bad}, new {n_bad}"
        )
        if n_bad or nf * ba > bf * na:
            print("  every metric worse: the new side fails more or is not correct")
            status = 1
            continue
        if b_bad:
            print("  every metric unresolved: a base run is not correct")
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            b = [r["metrics"][name]["value"] for r in base[w]]
            n = [r["metrics"][name]["value"] for r in new[w]]
            bq, nq = quartiles(b), quartiles(n)
            ratio = nq[1] / bq[1]
            lower = m["better"] == "lower"
            all_better = max(n) < min(b) if lower else min(n) > max(b)
            if max(spread(b), spread(n)) > bound and not all_better:
                label = "unresolved"
            elif _worse(m, bq[1], nq[1]) > bound:
                label = "worse"
                status = 1
            else:
                label = "within bound"
            print(
                f"  {name:<12} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                f"  new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] {m['unit']}"
                f"  new/base {ratio:.3f} (base {bq[1]:.6g})  {label}"
            )
    return status
