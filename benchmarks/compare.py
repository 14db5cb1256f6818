"""Compare two sets of benchmark records: a parent commit and a change.

    python3 benchmarks/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON records that ``run.py --record`` writes for
untraced runs; runs pair up by workload and seed. For every workload and
end-to-end metric one row gives both medians and quartiles, the share of
pairs the change wins (ties count for neither side) and a verdict:

- improved: at least 10 pairs, the change wins at least 9 in 10 of them,
  and the medians differ, in the better direction, by more than the
  parent's interquartile range;
- unresolved: the parent's own spread (interquartile range over median)
  is wider than the metric's bound, and not every change run beats every
  parent run;
- worse: the change's median is worse than the parent's by more than the
  bound;
- unchanged: otherwise.

Bounds come from the repository's BENCHMARK.json. A fingerprint that
differs for the same workload and seed, or a fail ratio that rises, is
flagged. The exit code is 1 when a row is worse or flagged, else 0.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: str) -> dict:
    """workload -> list of untraced records, in file-name order."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if not rec.get("trace"):
            out.setdefault(rec["workload"], []).append(rec)
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def pairs(parent: list, change: list) -> list:
    """(parent record, change record) with equal seeds, in order."""
    by_seed = {}
    for rec in change:
        by_seed.setdefault(rec["seed"], []).append(rec)
    out = []
    for rec in parent:
        if by_seed.get(rec["seed"]):
            out.append((rec, by_seed[rec["seed"]].pop(0)))
    return out


def verdict(metric: dict, par: list, chg: list, paired: list):
    lower = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    q1, pmed, q3 = quartiles(par)
    _, cmed, _ = quartiles(chg)
    wins = sum(better(c, p) for p, c in paired)
    share = wins / len(paired) if paired else 0.0
    worse_by = ((cmed - pmed) if lower else (pmed - cmed)) / pmed
    if (len(paired) >= MIN_PAIRS and share >= WIN_SHARE
            and better(cmed, pmed) and abs(cmed - pmed) > q3 - q1):
        return "improved", share
    if (q3 - q1) / pmed > metric["bound"] and not all(
            better(c, p) for c in chg for p in par):
        return "unresolved", share
    if worse_by > metric["bound"]:
        return "worse", share
    return "unchanged", share


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load(args.parent), load(args.change)

    bad = False
    print("| workload | metric | unit | parent q1 / median / q3 "
          "| change q1 / median / q3 | pairs | change wins | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in sorted(set(parent) | set(change)):
        par, chg = parent.get(workload, []), change.get(workload, [])
        if not par or not chg:
            print(f"| {workload} | - | - | {len(par)} runs | {len(chg)} runs "
                  f"| 0 | - | missing |")
            bad = True
            continue
        paired = pairs(par, chg)
        for m in metrics:
            pv = [r["metrics"][m["name"]]["value"] for r in par]
            cv = [r["metrics"][m["name"]]["value"] for r in chg]
            pv_pairs = [(p["metrics"][m["name"]]["value"],
                         c["metrics"][m["name"]]["value"]) for p, c in paired]
            v, share = verdict(m, pv, cv, pv_pairs)
            bad |= v == "worse"
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"| {workload} | {m['name']} | {m['unit']} | "
                  + " / ".join(f"{x:.4g}" for x in pq) + " | "
                  + " / ".join(f"{x:.4g}" for x in cq)
                  + f" | {len(paired)} | {share:.0%} | {v} |")
        mismatched = sorted({p["seed"] for p, c in paired
                             if p["fingerprint"] != c["fingerprint"]})
        if mismatched:
            bad = True
            print(f"\nFLAG {workload}: fingerprint differs for seeds "
                  f"{mismatched}\n")
        pf = sum(r["failed"] for r in par) / sum(r["attempted"] for r in par)
        cf = sum(r["failed"] for r in chg) / sum(r["attempted"] for r in chg)
        if cf > pf:
            bad = True
            print(f"\nFLAG {workload}: fail_ratio rose from {pf:.4g} "
                  f"to {cf:.4g}\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
