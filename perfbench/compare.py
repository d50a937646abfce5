#!/usr/bin/env python3
"""Same-machine A/B comparator for the repository benchmark (stdlib only).

Compare two run sets (JSONL run records, as written by run.py --record):

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Or make them first, alternating which side runs first in each pair:

    python3 perfbench/compare.py --ab PARENT_CHECKOUT CHANGE_CHECKOUT --out DIR

--ab runs PAIRS pairs of every workload, seeds SEED0, SEED0+1, ... (held
back from development, see README.md), at BENCHMARK.json's run_seconds.
Every record must have that run length; a set recorded at another is
refused.

For every workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change wins, and a verdict, the first
of these that applies:

  better      the change wins at least 9 in 10 pairs and the medians differ
              by more than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the bound in BENCHMARK.json, however wide the spread;
  unresolved  the run-to-run spread is wider than the metric's bound, and
              not every change run beats every parent run;
  no worse    otherwise.

Exit status: 1 when any verdict is "worse"; else 3 when any is
"unresolved"; 2 when the run sets cannot be compared; else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
PAIRS = 10
SEED0 = 1000


def load_records(path):
    """Untraced run records from a JSONL file; other lines are ignored."""
    out = []
    with open(path) as f:
        for line in f:
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict) and "workload" in rec and not rec.get("trace"):
                out.append(rec)
    return out


def pairs_of(parent, change):
    """Pair runs of one workload by seed (k-th with k-th), else by order."""
    by_seed = {}
    for r in change:
        by_seed.setdefault(r["seed"], []).append(r)
    pairs = []
    for r in parent:
        if by_seed.get(r["seed"]):
            pairs.append((r, by_seed[r["seed"]].pop(0)))
    if not pairs:
        pairs = list(zip(parent, change))
    return pairs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, pairs, better, bound):
    """Apply the decision rule to one metric's values; returns a dict."""
    sign = 1 if better == "lower" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    cq1, cq3 = quartiles(change)
    worse_by = sign * (cm - pm) / pm  # > 0: the change is worse
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_share = wins / len(pairs) if pairs else 0.0
    spread = max((pq3 - pq1) / pm, (cq3 - cq1) / cm)
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if win_share >= 0.9 and abs(cm - pm) > (pq3 - pq1) and worse_by < 0:
        v = "better"
    elif worse_by > bound:
        v = "worse"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "no worse"
    return dict(parent=(pm, pq1, pq3), change=(cm, cq1, cq3), worse_by=worse_by,
                win_share=win_share, pairs=len(pairs), spread=spread, verdict=v)


def compare(parent_recs, change_recs, spec):
    """Verdicts keyed by (workload, metric) for every end-to-end metric.

    Raises ValueError when a record's run length is not the benchmark's.
    """
    for r in parent_recs + change_recs:
        if r.get("seconds") != spec["run_seconds"]:
            raise ValueError("%s seed %s was recorded at %s s; the benchmark runs %d s" % (
                r["workload"], r["seed"], r.get("seconds"), spec["run_seconds"]))
    out = {}
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        ps = [r for r in parent_recs if r["workload"] == w]
        cs = [r for r in change_recs if r["workload"] == w]
        if not ps or not cs:
            continue
        pairs = pairs_of(ps, cs)
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in ps]
            cv = [r["metrics"][name]["value"] for r in cs]
            pv_pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs]
            out[(w, name)] = verdict(pv, cv, pv_pairs, m["better"], m["bound"])
    return out


def report(results, spec, parent_recs, change_recs):
    lines = []
    for label, recs in (("parent", parent_recs), ("change", change_recs)):
        machines = sorted({(r.get("cpuModel"), r.get("nproc"), r.get("gomaxprocs"), r.get("goVersion"))
                           for r in recs})
        commits = sorted({r.get("commit") for r in recs})
        lines.append("%s: %d runs, commit %s, machine %s" % (label, len(recs), ", ".join(map(str, commits)),
                                                             "; ".join(map(str, machines))))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines.append("%-14s %-17s %-34s %-34s %6s %7s %7s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "wins", "change", "spread", "bound", "verdict"))
    for (w, name), r in results.items():
        lines.append("%-14s %-17s %-34s %-34s %6s %+6.1f%% %6.1f%% %5.0f%%  %s" % (
            w, name, "%.5g [%.5g, %.5g]" % r["parent"], "%.5g [%.5g, %.5g]" % r["change"],
            "%d/%d" % (round(r["win_share"] * r["pairs"]), r["pairs"]),
            -100 * r["worse_by"], 100 * r["spread"], 100 * bounds[name], r["verdict"]))
    return "\n".join(lines)


def run_pairs(parent_dir, change_dir, spec, out):
    """Run both checkouts in alternating pairs, recording into out/."""
    os.makedirs(out, exist_ok=True)
    sides = [("parent", os.path.abspath(parent_dir)), ("change", os.path.abspath(change_dir))]
    for i in range(PAIRS):
        order = sides if i % 2 == 0 else sides[::-1]
        for w in spec["workloads"]:
            for label, root in order:
                cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", w["name"],
                       "--seed", str(SEED0 + i), "--seconds", str(spec["run_seconds"]), "--trace", "0",
                       "--record", os.path.join(os.path.abspath(out), label + ".jsonl")]
                print("pair %d/%d %s %s" % (i + 1, PAIRS, w["name"], label), file=sys.stderr)
                rc = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL).returncode
                if rc != 0:
                    print("%s run failed (exit %d)" % (label, rc), file=sys.stderr)
    return os.path.join(out, "parent.jsonl"), os.path.join(out, "change.jsonl")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", help="parent run set (JSONL)")
    ap.add_argument("change", nargs="?", help="change run set (JSONL)")
    ap.add_argument("--ab", nargs=2, metavar=("PARENT_CHECKOUT", "CHANGE_CHECKOUT"),
                    help="make both run sets first, in alternating pairs")
    ap.add_argument("--out", default="ab-runs", help="directory for the --ab run sets")
    args = ap.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    if args.ab:
        args.parent, args.change = run_pairs(args.ab[0], args.ab[1], spec, args.out)
    if not (args.parent and args.change):
        ap.error("give two run sets, or --ab")
    parent, change = load_records(args.parent), load_records(args.change)
    try:
        results = compare(parent, change, spec)
    except ValueError as e:
        print(e, file=sys.stderr)
        return 2
    if not results:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    print(report(results, spec, parent, change))
    verdicts = {r["verdict"] for r in results.values()}
    if "worse" in verdicts:
        return 1
    return 3 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
