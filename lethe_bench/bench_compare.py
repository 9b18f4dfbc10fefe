#!/usr/bin/env python3
"""Compares two sets of lethe_bench reports: a parent commit and a change.

    python3 lethe_bench/bench_compare.py PARENT CHANGE [--benchmark FILE]

PARENT and CHANGE are report directories (one <workload>.json per workload;
a single report file also works), best the two written by
`run.py --all --parent CHECKOUT --out DIR` as DIR/parent and DIR/change. That
mode alternates the two sides run by run, so run i of each side forms pair i
and both saw the same host conditions. For every workload and end-to-end
metric it prints each side's median and quartiles, the change's relative
difference, the share of pairs the change won (ties count for neither side)
and a verdict:

  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  improved    at least ten interleaved pairs, the change won at least 9 in
              10 of them, and the medians differ, in the better direction,
              by more than the parent's IQR
  unresolved  fewer than ten interleaved pairs (reports from two separate
              campaigns are not pairs: host speed drifts between them), or
              the parent's own spread (IQR / median) exceeds the bound and
              not every change run beats every parent run
  no worse    otherwise: within the bound

Throughput (each untraced run's ops_per_s line) follows the host's speed by
more than any bound allows, so it is not an end-to-end metric; its row shows
`improved` by the same rule, else `unresolved` or `no gain`.

With --layers it also lists the traced per-layer metrics side by side (one
traced run per side, so no verdict). Exits 1 if any metric regressed.
"""

import argparse
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10


def load_reports(path):
    """Returns {workload: report} from a report directory or file."""
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json")] if os.path.isdir(path) else [path])
    reports = {}
    for f in files:
        with open(f) as fh:
            report = json.load(fh)
        reports[report["workload"]] = report
    return reports


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(values):
    return "{:.4g} [{:.4g}, {:.4g}]".format(statistics.median(values),
                                            *quartiles(values))


def verdict(parent, change, better, bound, paired):
    """Returns (verdict, relative difference, pairs won, pairs). `paired`
    says run i of each side was run next to the other."""
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    pairs = list(zip(parent, change)) if paired else []
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (c_med - p_med)
    rel = (c_med - p_med) / p_med if p_med else 0.0
    if p_med and -gain / p_med > bound:
        return "regressed", rel, won, len(pairs)
    if len(pairs) < MIN_PAIRS:
        return "unresolved", rel, won, len(pairs)
    if won >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "improved", rel, won, len(pairs)
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved", rel, won, len(pairs)
    return "no worse", rel, won, len(pairs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--layers", action="store_true",
                        help="also list the traced per-layer metrics")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    parent, change = load_reports(args.parent), load_reports(args.change)
    regressed = False
    for w in spec["workloads"]:
        name = w["name"]
        if name not in parent or name not in change:
            side = "parent" if name not in parent else "change"
            print(f"{name}: no report on the {side} side")
            continue
        p, c = parent[name], change[name]
        p_runs, c_runs = p["runs"], c["runs"]
        paired = (p.get("interleaved", False) and
                  c.get("interleaved", False) and len(p_runs) == len(c_runs))
        print(f"\n{name}  (parent {p['git_sha'][:12]}, {len(p_runs)} runs; "
              f"change {c['git_sha'][:12]}, {len(c_runs)} runs; "
              f"{'interleaved' if paired else 'not interleaved'})")
        print(f"  {'metric':22s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'diff':>8s} {'won':>6s}"
              "  verdict")
        for m in spec["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in p_runs]
            cv = [r["metrics"][m["name"]]["value"] for r in c_runs]
            v, rel, won, n = verdict(pv, cv, m["better"], m["bound"], paired)
            regressed |= v == "regressed"
            print(f"  {m['name']:22s} {summary(pv):>34s} {summary(cv):>34s} "
                  f"{rel:+8.1%} {won:>2d}/{n:<3d}  {v}")
        if p.get("ops_per_s") and c.get("ops_per_s"):
            # Throughput has no bound (it follows the host's speed), so it
            # can show a gain but never a regression.
            pv, cv = p["ops_per_s"], c["ops_per_s"]
            v, rel, won, n = verdict(pv, cv, "higher", math.inf, paired)
            print(f"  {'ops_per_s (no bound)':22s} {summary(pv):>34s} "
                  f"{summary(cv):>34s} {rel:+8.1%} {won:>2d}/{n:<3d}  "
                  f"{'no gain' if v == 'no worse' else v}")
        if args.layers:
            pt, ct = p["traced"]["metrics"], c["traced"]["metrics"]
            for m in spec["per_layer"]:
                if m["name"] in pt and m["name"] in ct:
                    print(f"    {m['name']:42s} {pt[m['name']]['value']:14.4f} "
                          f"{ct[m['name']]['value']:14.4f} {m['unit']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
