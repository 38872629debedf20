#!/usr/bin/env python3
"""Compares two benchmark reports written by run.py (see README.md).

  python3 benchmark/compare.py A.json B.json

A report is out/report.json (every workload) or out/<workload>.json (one).
For every workload both reports hold and every end-to-end metric, prints
both medians and quartiles, the change from A to B, and a verdict under the
metric's bound in BENCHMARK.json:

  unresolved  either side's spread, (q3 - q1) / median, exceeds the bound,
              and neither side's runs all read better than the other's
  regressed   B is worse than A by more than the bound, or the spread is
              wide and every run of B reads worse than every run of A
  improved    the same, the other way round
  unchanged   otherwise

Per-layer metrics follow with their change alone; they have no bound.
Exits 1 when any end-to-end metric regressed or is unresolved.
"""

import json
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path):
    doc = json.loads(Path(path).read_text())
    return doc["workloads"] if "workloads" in doc else {doc["workload"]: doc}


def spread(m):
    return (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0


def change(a, b):
    if a["median"] == 0:
        return "n/a" if b["median"] else "+0%"
    return f"{(b['median'] - a['median']) / a['median']:+.2%}"


def verdict(a, b, bound, better):
    lower = better == "lower"
    worse = (b["median"] - a["median"]) / a["median"] * (1 if lower else -1)
    b_beats = b["max"] < a["min"] if lower else b["min"] > a["max"]
    a_beats = a["max"] < b["min"] if lower else a["min"] > b["max"]
    if max(spread(a), spread(b)) > bound:
        return "improved" if b_beats else "regressed" if a_beats else \
            "unresolved"
    if worse > bound:
        return "regressed"
    return "improved" if worse < -bound else "unchanged"


def fmt(m):
    return f"{m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"


def main(path_a, path_b):
    a_all, b_all = load(path_a), load(path_b)
    bad = 0
    for workload in [w for w in a_all if w in b_all]:
        a, b = a_all[workload], b_all[workload]
        print(f"\n{workload}")
        print(f"  {'end-to-end':22s} {'unit':6s} {'A median [q1, q3]':34s} "
              f"{'B median [q1, q3]':34s} {'change':>8s}  verdict")
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            if name not in a["end_to_end"] or name not in b["end_to_end"]:
                print(f"  {name:22s} missing from a report")
                bad += 1
                continue
            ma, mb = a["end_to_end"][name], b["end_to_end"][name]
            v = verdict(ma, mb, spec["bound"], spec["better"])
            bad += v in ("regressed", "unresolved")
            print(f"  {name:22s} {spec['unit']:6s} {fmt(ma):34s} "
                  f"{fmt(mb):34s} {change(ma, mb):>8s}  {v}")
        layers = [s for s in SPEC["per_layer"]
                  if s["name"] in a["per_layer"] and
                  s["name"] in b["per_layer"]]
        if layers:
            print(f"  {'per-layer':34s} {'unit':6s} {'A':>14s} {'B':>14s} "
                  f"{'change':>8s}")
        for spec in layers:
            ma, mb = a["per_layer"][spec["name"]], b["per_layer"][spec["name"]]
            print(f"  {spec['name']:34s} {spec['unit']:6s} "
                  f"{ma['median']:14.6g} {mb['median']:14.6g} "
                  f"{change(ma, mb):>8s}")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: compare.py A.json B.json")
    sys.exit(main(sys.argv[1], sys.argv[2]))
