#!/usr/bin/env python3
"""Regression gate: the benchmark of record against a base commit.

Runs the benchmark command from BENCHMARK.json on this checkout (the
change) and on a checkout of the base commit, on the same machine. Each
workload runs PAIRS base/change pairs; both sides of a pair use the same
seed, and the side that runs first alternates from pair to pair. For every
end-to-end metric it prints the base and change medians, the base runs'
quartile spread (q3 - q1 as a share of the median) and a verdict against
the metric's bound in BENCHMARK.json: REGRESSED when the change median is
worse than the base median by more than the bound; otherwise `improved`
when the change median is better than the base median by more than the
base spread and every change run beats every base run (a gain the runs
resolve); otherwise `unresolved` when the base spread alone exceeds the
bound (the runs cannot tell a change of that size from noise) unless
every change run beats every base run; otherwise `ok`. A workload with a
REGRESSED metric whose base spread also exceeds its bound runs
EXTRA_PAIRS more pairs (seeds PAIRS onward) and is judged again, by the
same rule, on all of its pairs.

`improved` is not a gain claim. Under pure noise all three change runs
beat all three base runs up to one time in twenty, and the gate judges a
dozen workload-metric pairs, so a stray `improved` is no surprise; a
metric that counts work wrongly reads `improved` too. A claimed
gain still needs at least 10 alternating pairs, the change ahead in at
least 9 of 10, and a median gain larger than the base runs' quartile
spread.

    python3 ci/perf_gate.py BASE_CHECKOUT

Exit codes: 0 no metric regressed; 1 a run failed, reported
`correct: false` or counted failed operations (the outputs no longer
match the pinned digests); 2 some change median is worse than the base
median by more than its bound (after the extra pairs, where they ran).
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

# Base/change pairs per workload, and the pairs added to a workload whose
# regression lies within its base runs' own spread.
PAIRS = 3
EXTRA_PAIRS = 4

CHANGE = Path(__file__).resolve().parent.parent


def run(bench, side, root, workload, seed):
    """One benchmark run in `root`; its result is the last JSON line of
    stdout. The benchmark times itself, so a build that the first run
    triggers does not enter its metrics."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        sys.exit(f"perf-gate: {side} {workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] > 0:
        sys.stderr.write(out.stderr)
        sys.exit(f"perf-gate: {side} {workload} seed {seed}: correct={result['correct']} "
                 f"failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_pairs(bench, roots, workload, runs, seeds):
    """Append one base/change pair per seed; the side that runs first
    alternates with the seed."""
    for seed in seeds:
        order = ("base", "change") if seed % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run(bench, side, roots[side], workload, seed))


def judge(bench, runs):
    """One row per end-to-end metric: (name, base median, change median,
    delta, base spread, bound, verdict)."""
    rows = []
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        was = statistics.median(base)
        now = statistics.median(change)
        q1, _, q3 = statistics.quantiles(base, n=4)
        spread = (q3 - q1) / was if was else float("nan")
        delta = (now - was) / was if was else 0.0
        worse = -delta if metric["better"] == "higher" else delta
        if metric["better"] == "higher":
            beats_all = min(change) > max(base)
        else:
            beats_all = max(change) < min(base)
        if worse > bound:
            verdict = "REGRESSED"
        elif beats_all and -worse > spread:
            verdict = "improved"
        elif spread > bound and not beats_all:
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append((name, was, now, delta, spread, bound, verdict))
    return rows


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    roots = {"base": Path(sys.argv[1]).resolve(), "change": CHANGE}
    with open(CHANGE / "BENCHMARK.json") as f:
        bench = json.load(f)

    regressed = []
    print(f"{'workload':<22} {'metric':<14} {'base':>12} {'change':>12} "
          f"{'delta':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"base": [], "change": []}
        run_pairs(bench, roots, workload, runs, range(PAIRS))
        rows = judge(bench, runs)
        if any(v == "REGRESSED" and spread > bound for *_, spread, bound, v in rows):
            print(f"{workload}: a regression within the base spread; "
                  f"{EXTRA_PAIRS} more pairs", flush=True)
            run_pairs(bench, roots, workload, runs, range(PAIRS, PAIRS + EXTRA_PAIRS))
            rows = judge(bench, runs)
        for name, was, now, delta, spread, bound, verdict in rows:
            if verdict == "REGRESSED":
                regressed.append(f"{workload} {name}")
            print(f"{workload:<22} {name:<14} {was:>12.5g} {now:>12.5g} "
                  f"{delta:>+8.1%} {spread:>7.1%} {bound:>6.0%}  {verdict}", flush=True)
    if regressed:
        print("perf-gate: regressed beyond the BENCHMARK.json bounds: " + ", ".join(regressed))
        sys.exit(2)
    print("perf-gate: no end-to-end metric regressed beyond its bound")


if __name__ == "__main__":
    main()
