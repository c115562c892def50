#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

Usage: python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one `<workload>.jsonl` file per workload: the last
line of every run's output (the result object), one run per line, in the
order the runs were made. Line i of the parent and line i of the change
form pair i, so make the runs alternately, switching which side goes first
from one pair to the next (see NOTES.md).

For every workload and end-to-end metric of BENCHMARK.json this prints each
side's median and quartiles, the pairs the change won, and a verdict:

- gain: at least 10 pairs, the change wins at least 9 in 10 of them (ties
  count for neither side), and the medians differ by more than the
  distance between the parent's quartiles;
- regression: the change's median is worse than the parent's by more than
  the metric's bound;
- unresolved: the parent's own spread (quartile distance over median) is
  wider than the bound, unless every change run beats every parent run;
- no change: none of the above.

A workload's row carries the worst verdict of its metrics. A workload
also regresses, and none of its gains counts, when any change run is
incorrect or the change's runs fail more operations than the parent's.
The exit code is 1 when any workload regressed, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

ORDER = ["regression", "unresolved", "too few pairs", "no change", "gain"]


def load_runs(path):
    runs = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            runs.append(json.loads(line))
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change):
    """Returns (verdict, wins, pairs) for one metric of one workload."""
    lower = metric["better"] == "lower"
    pairs = min(len(parent), len(change))
    wins = sum(
        1
        for p, c in zip(parent, change)
        if (c < p if lower else c > p)
    )
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    # Positive when the change is better.
    gain = (pm - cm) if lower else (cm - pm)
    if pm and -gain > metric["bound"] * abs(pm):
        return "regression", wins, pairs
    all_better = all((c < p if lower else c > p) for c in change for p in parent)
    if pm and (p3 - p1) / abs(pm) > metric["bound"] and not all_better:
        return "unresolved", wins, pairs
    if pairs < 10:
        return "too few pairs", wins, pairs
    if wins >= 0.9 * pairs and gain > (p3 - p1):
        return "gain", wins, pairs
    return "no change", wins, pairs


def fmt(values):
    q1, m, q3 = quartiles(values)
    return f"{m:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent_dir, change_dir = Path(argv[1]), Path(argv[2])
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    regressed = False
    print(f"{'workload / metric':<28} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':>7}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        pfile, cfile = parent_dir / f"{name}.jsonl", change_dir / f"{name}.jsonl"
        if not (pfile.exists() and cfile.exists()):
            print(f"{name:<28} no results on one side")
            continue
        parent_runs, change_runs = load_runs(pfile), load_runs(cfile)
        rows = []
        for metric in spec["end_to_end"]:
            key = metric["name"]
            p = [r["metrics"][key]["value"] for r in parent_runs if key in r["metrics"]]
            c = [r["metrics"][key]["value"] for r in change_runs if key in r["metrics"]]
            if not p or not c:
                continue
            v, wins, pairs = verdict(metric, p, c)
            rows.append((key, p, c, v, wins, pairs))
        worst = min((r[3] for r in rows), key=ORDER.index, default="no data")
        incorrect = sum(not r["correct"] for r in change_runs)
        failed = (sum(r["failed"] for r in parent_runs), sum(r["failed"] for r in change_runs))
        notes = []
        if incorrect:
            notes.append(f"{incorrect} incorrect change runs")
        if failed[1] > failed[0]:
            notes.append(f"{failed[1]} failed operations, parent {failed[0]}")
        if notes:
            worst = "regression"
            rows = [r[:3] + ("void" if r[3] == "gain" else r[3],) + r[4:] for r in rows]
        regressed |= worst == "regression"
        note = f" ({'; '.join(notes)})" if notes else ""
        print(f"{name:<28} {'':<34} {'':<34} {'':>7}  {worst}{note}")
        for key, p, c, v, wins, pairs in rows:
            print(f"  {key:<26} {fmt(p):<34} {fmt(c):<34} {wins:>3}/{pairs:<3}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
