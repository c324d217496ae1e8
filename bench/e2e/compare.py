#!/usr/bin/env python3
"""Compares two sets of benchmark runs against the bounds in BENCHMARK.json.

  python3 bench/e2e/compare.py A.json B.json

A and B are files written by `run.py --runs N --out FILE`, A the parent
(or first) set, B the change (or second) set. Prints one row per workload and
end-to-end metric with each side's median and spread (quartile distance as
a share of the median), the change of B's median against A's (positive when
B is better) and a verdict:

  better      B's median is better than A's by more than the bound
  worse       B's median is worse than A's by more than the bound
  same        the medians differ by no more than the bound
  unresolved  a side's spread is wider than the bound, so a difference of
              the bound's size cannot be told from run-to-run noise (unless
              every run of B is better than every run of A: better)

A further row per workload compares failed operations: any increase is
worse. A gain claim needs more than `better` here: alternate parent and
change runs in pairs, as the choosing-metrics method describes. Exits 1 when
any row is worse or unresolved.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values):
    """Quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2)


def verdict(a, b, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    change = sign * (mb - ma) / abs(ma)
    if max(spread(a), spread(b)) > bound:
        if min(sign * x for x in b) > max(sign * x for x in a):
            return change, "better"
        return change, "unresolved"
    if change < -bound:
        return change, "worse"
    if change > bound:
        return change, "better"
    return change, "same"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    a = json.loads(Path(argv[1]).read_text())["results"]
    b = json.loads(Path(argv[2]).read_text())["results"]
    print(f"{'workload':<16}{'metric':<18}{'A median':>14}{'spread':>8}"
          f"{'B median':>14}{'spread':>8}{'change':>9}  verdict")
    bad = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a or name not in b:
            print(f"{name:<16}missing from {'A' if name not in a else 'B'}")
            bad += 1
            continue
        for m in spec["end_to_end"]:
            av = [r["metrics"][m["name"]]["value"] for r in a[name]]
            bv = [r["metrics"][m["name"]]["value"] for r in b[name]]
            if len(av) < 2 or len(bv) < 2:
                print(f"{name:<16}{m['name']:<18}needs 2+ runs per side")
                bad += 1
                continue
            change, v = verdict(av, bv, m["better"], m["bound"])
            bad += v in ("worse", "unresolved")
            print(f"{name:<16}{m['name']:<18}{statistics.median(av):>14.6g}"
                  f"{spread(av):>8.1%}{statistics.median(bv):>14.6g}"
                  f"{spread(bv):>8.1%}{change:>+9.1%}  {v}")
        fa = sum(r["failed"] for r in a[name])
        fb = sum(r["failed"] for r in b[name])
        v = "worse" if fb > fa else "same"
        bad += v == "worse"
        print(f"{name:<16}{'failed_ops':<18}{fa:>14}{'':>8}{fb:>14}{'':>8}"
              f"{'':>9}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
