"""Paired comparison of a parent and a change with the same benchmark code.

    python3 bench/compare.py --parent ../lexacq-parent --change . --pairs 10

Runs this directory's run.py with the working directory set to each tree,
so both sides use identical benchmark code and settings, on every workload
in BENCHMARK.json.  Pair i uses seed SEED0 + i for both sides and
alternates which side runs first; the comparison stops when a run fails
(run.py exits non-zero when an output fails its check).  Each row gives a
workload and end-to-end metric: the median and quartiles of each side, the
share of pairs the change wins (ties count for neither), the parent's
spread (quartile distance over median) against the bound in
BENCHMARK.json, and a verdict:

  outputs differ  the two sides' output digests differ for some seed, so
                  they did not do the same work; no gain is claimed
  unresolved      the parent's spread is wider than the bound, and not
                  every change run beats every parent run
  gain            the change wins at least 9 in 10 pairs and the medians
                  differ by more than the parent's quartile distance
  regression      the change's median is worse than the parent's by more
                  than the bound
  within bound    otherwise
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SEED0 = 1000


def run_once(tree: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("run failed in %s (exit %d):\n%s"
                         % (tree, proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next((l.split()[1] for l in lines
                             if l.startswith("digest ")), None)
    return result


def quartiles(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list, change: list, better: str, bound: float,
            same_outputs: bool = True) -> tuple:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    share = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = (p3 - p1) / pm
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if not same_outputs:
        word = "outputs differ"
    elif spread > bound and not all_better:
        word = "unresolved"
    elif share >= 0.9 and sign * (cm - pm) > p3 - p1:
        word = "gain"
    elif -sign * (cm - pm) > bound * pm:
        word = "regression"
    else:
        word = "within bound"
    return share, spread, word


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout root")
    ap.add_argument("--change", required=True, help="change checkout root")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 10:
        ap.error("at least ten pairs are needed")

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    trees = {"parent": args.parent, "change": args.change}
    rows = []
    for workload in workloads:
        runs = {"parent": [], "change": []}
        same_outputs = True
        for i in range(args.pairs):
            seed = SEED0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                              "parent")
            for side in order:
                runs[side].append(run_once(trees[side], workload, seed,
                                           spec["run_seconds"]))
            p, c = runs["parent"][-1], runs["change"][-1]
            same = p["digest"] == c["digest"]
            same_outputs = same_outputs and same
            print("%s seed %d (%s first): %s" % (
                workload, seed, order[0],
                "same outputs" if same else "OUTPUTS DIFFER"))
            for name in p["metrics"]:
                print("  %-16s parent %12.6g  change %12.6g"
                      % (name, p["metrics"][name]["value"],
                         c["metrics"][name]["value"]))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in rs]
                      for side, rs in runs.items()}
            share, spread, word = verdict(values["parent"], values["change"],
                                          metric["better"], metric["bound"],
                                          same_outputs)
            rows.append((workload, name, quartiles(values["parent"]),
                         quartiles(values["change"]), share, spread,
                         metric["bound"], word))

    print()
    print("%-15s %-16s %-32s %-32s %5s %7s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "spread", "bound", "verdict"))
    for workload, name, pq, cq, share, spread, bound, word in rows:
        print("%-15s %-16s %-32s %-32s %5.2f %7.3f %6.2f  %s" % (
            workload, name, "%.5g [%.5g, %.5g]" % (pq[1], pq[0], pq[2]),
            "%.5g [%.5g, %.5g]" % (cq[1], cq[0], cq[2]), share, spread,
            bound, word))
    return 0


if __name__ == "__main__":
    sys.exit(main())
