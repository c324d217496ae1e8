#!/usr/bin/env python3
"""CI perf gate: checks one bench_gate record against bench/gate.json.

build/bench/bench_gate writes one flat JSON object: {"<check>": number,
...} plus the context keys kernel_backend, hardware_concurrency and
threads. Every row of bench/gate.json names one check and one bound:

  floor      the value must be >= floor
  ceiling    the value must be <= ceiling
  baseline   the value must be >= baseline * (1 - tolerance)

A row is reported as SKIP instead of being enforced when

  match                        ({context key: value}) the record's
                               context differs: an absolute throughput
                               from another kernel backend or core count
                               says nothing about this change;
  skip_if_cores_below_threads  the host has fewer cores than the bench's
                               threads: an oversubscribed machine cannot
                               measure a parallel speedup.

A key a row needs that the record lacks, a value that is not a number,
and a malformed row all FAIL: a truncated bench run must never read as
"nothing to check". Exit status 1 on any FAIL.

Usage (CI):
  python3 tools/perf_gate.py BENCH_gate.json --summary perf_trend.md

Self-check (run by ctest as perf_gate_selftest):
  python3 tools/perf_gate.py --self-test
"""

import argparse
import json
import math
import os
import sys

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "bench", "gate.json")
BOUNDS = ("floor", "ceiling", "baseline")


def load(path):
    """Loads a JSON object, turning unusable input into a clean failure
    (an empty or truncated file must never read as 'nothing to check')."""
    try:
        with open(path) as f:
            record = json.load(f)
    except OSError as e:
        sys.exit(f"perf gate: cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"perf gate: {path} is not valid JSON ({e}); "
                 "was the bench run truncated?")
    if not isinstance(record, dict) or not record:
        sys.exit(f"perf gate: {path} holds no record "
                 "(empty or non-object JSON)")
    return record


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_row(row, record):
    """Returns (check, bound, current, delta, verdict, note) for one row."""
    check = row.get("check", "?")
    kinds = [k for k in BOUNDS if k in row]
    if (len(kinds) != 1 or not is_number(row[kinds[0]]) or
            ("baseline" in row) != ("tolerance" in row)):
        return (check, "?", "-", "-", "FAIL",
                f"{check}: table row needs exactly one of floor, ceiling or "
                "baseline (with a tolerance)")
    kind, bound = kinds[0], row[kinds[0]]
    oversubscribable = row.get("skip_if_cores_below_threads", False)
    needed = [check, *row.get("match", {})]
    if oversubscribable:
        needed += ["hardware_concurrency", "threads"]
    missing = [k for k in needed if k not in record]
    if missing:
        return (check, f"{bound:g}", "missing", "-", "FAIL",
                f"{check}: record is missing {', '.join(map(repr, missing))}")
    value = record[check]
    if not is_number(value):
        return (check, f"{bound:g}", repr(value), "-", "FAIL",
                f"{check}: {value!r} is not a number")

    note = None
    cores, threads = record.get("hardware_concurrency"), record.get("threads")
    if oversubscribable and cores < threads:
        note = (f"{check}: host has {cores} cores for a {threads}-thread "
                "bench; not enforced")
    for key, want in row.get("match", {}).items():
        if note is None and record[key] != want:
            note = (f"{check}: {key} {record[key]!r} differs from the "
                    f"baseline's {want!r}; not compared")

    if kind == "floor":
        ok, shown, current, delta = (value >= bound, f">= {bound:g}",
                                     f"{value:.3f}", "-")
    elif kind == "ceiling":
        ok, shown, current, delta = (value <= bound, f"<= {bound:g}",
                                     f"{value:.3f}", "-")
    else:
        ok = value >= bound * (1.0 - row["tolerance"])
        shown, current = f"{bound:.2f}", f"{value:.2f}"
        delta = f"{(value - bound) / bound:+.1%}" if bound > 0 else "-"
    verdict = "SKIP" if note else ("ok" if ok else "FAIL")
    return check, shown, current, delta, verdict, note


class Gate:
    def __init__(self, rows, record):
        self.rows = [check_row(row, record) for row in rows]
        self.failures = [r[5] or r[0] for r in self.rows if r[4] == "FAIL"]
        self.warnings = [r[5] for r in self.rows if r[4] == "SKIP"]

    def summary_markdown(self):
        lines = ["# Perf trend", "",
                 "| check | baseline / bound | current | delta | verdict |",
                 "|---|---|---|---|---|"]
        for check, bound, current, delta, verdict, _ in self.rows:
            lines.append(
                f"| {check} | {bound} | {current} | {delta} | {verdict} |")
        if self.warnings:
            lines += ["", "Warnings:"] + [f"- {w}" for w in self.warnings]
        lines += ["", "**" + ("FAIL" if self.failures else "PASS") + "**"]
        return "\n".join(lines) + "\n"

    def report(self):
        for check, bound, current, delta, verdict, _ in self.rows:
            print(f"  {verdict:4s}  {check}: baseline {bound}, "
                  f"current {current} ({delta})")
        for w in self.warnings:
            print(f"  warn  {w}")
        if self.failures:
            print(f"perf gate: FAIL ({len(self.failures)} check(s)):")
            for f in self.failures:
                print(f"  - {f}")
            print("If this change is intended (or a baseline is from "
                  "different hardware), refresh the row in bench/gate.json "
                  "from a green run's BENCH_gate.json; see README.")
        else:
            print("perf gate: PASS")
        return 1 if self.failures else 0


def self_test():
    rows = load(TABLE)["checks"]
    # A record that sits on the safe side of every committed bound.
    base = {"kernel_backend": "avx2", "hardware_concurrency": 4, "threads": 4}
    for row in rows:
        if "floor" in row:
            base[row["check"]] = row["floor"] * 1.5
        elif "ceiling" in row:
            base[row["check"]] = row["ceiling"] / 2
        else:
            base[row["check"]] = row["baseline"]
    expected_base = {row["check"]: "ok" for row in rows}
    # Its baseline comes from a 1-core host; this record has 4 cores.
    expected_base["ranking.candidates_per_s"] = "SKIP"
    gone = object()

    def scaled(check, factor):
        return base[check] * factor

    # (case, record edits, verdicts that differ from the base record's).
    # Removed keys are set to `gone`. Every FAIL must be listed.
    cases = [
        ("a record on the safe side of every bound passes", {}, {}),
        ("a 30% scoring throughput drop fails",
         {"scoring.TransE.batch_mscores_per_s":
          scaled("scoring.TransE.batch_mscores_per_s", 0.7)},
         {"scoring.TransE.batch_mscores_per_s": "FAIL"}),
        ("a 10% drop is inside the tolerance",
         {"scoring.TransE.batch_mscores_per_s":
          scaled("scoring.TransE.batch_mscores_per_s", 0.9)}, {}),
        ("a batch speedup below the 5x floor fails",
         {"scoring.TransE.batch_speedup": 3.0},
         {"scoring.TransE.batch_speedup": "FAIL"}),
        ("a parallel speedup below 1.0 fails on a host with enough cores",
         {"ranking.parallel_speedup": 0.9},
         {"ranking.parallel_speedup": "FAIL"}),
        ("...and is a SKIP on an oversubscribed host",
         {"ranking.parallel_speedup": 0.9, "hardware_concurrency": 2},
         {"ranking.parallel_speedup": "SKIP"}),
        ("a boolean where a number belongs fails",
         {"scoring.ComplEx.batch_speedup": True},
         {"scoring.ComplEx.batch_speedup": "FAIL"}),
        ("another kernel backend skips the baselines but keeps the floors",
         {"kernel_backend": "portable",
          "scoring.TransE.batch_mscores_per_s": 10.0,
          "storage.float_mscores_per_s": 10.0,
          "storage.int8_mscores_per_s": 10.0,
          "adaptive.facts_per_hour": 10.0,
          "storage.int8_ranking_ratio": 0.5},
         {"scoring.TransE.batch_mscores_per_s": "SKIP",
          "scoring.DistMult.batch_mscores_per_s": "SKIP",
          "scoring.ComplEx.batch_mscores_per_s": "SKIP",
          "storage.float_mscores_per_s": "SKIP",
          "storage.int8_mscores_per_s": "SKIP",
          "adaptive.facts_per_hour": "SKIP",
          "storage.int8_ranking_ratio": "FAIL"}),
        ("a record without any check fails every row",
         {row["check"]: gone for row in rows},
         {row["check"]: "FAIL" for row in rows}),
        ("a missing scoring key fails with its name",
         {"scoring.TransE.batch_speedup": gone},
         {"scoring.TransE.batch_speedup": "FAIL"}),
        ("a missing ranking key or context key fails",
         {"ranking.parallel_speedup": gone, "threads": gone},
         {"ranking.parallel_speedup": "FAIL",
          "ranking.candidates_per_s": "FAIL"}),
        ("an mmap load no faster than ram fails",
         {"storage.cold_start_speedup": 1.2},
         {"storage.cold_start_speedup": "FAIL"}),
        ("int8 ranking slower than float fails",
         {"storage.int8_ranking_ratio": 0.8},
         {"storage.int8_ranking_ratio": "FAIL"}),
        ("NaN fails a floor, a ceiling and a baseline",
         {"storage.cold_start_speedup": math.nan,
          "adaptive.sketch_fraction": math.nan,
          "storage.float_mscores_per_s": math.nan},
         {"storage.cold_start_speedup": "FAIL",
          "adaptive.sketch_fraction": "FAIL",
          "storage.float_mscores_per_s": "FAIL"}),
        ("a 30% storage throughput drop fails",
         {"storage.float_mscores_per_s":
          scaled("storage.float_mscores_per_s", 0.7)},
         {"storage.float_mscores_per_s": "FAIL"}),
        ("...unless the kernel backend differs",
         {"storage.float_mscores_per_s":
          scaled("storage.float_mscores_per_s", 0.7),
          "kernel_backend": "portable"},
         {"scoring.TransE.batch_mscores_per_s": "SKIP",
          "scoring.DistMult.batch_mscores_per_s": "SKIP",
          "scoring.ComplEx.batch_mscores_per_s": "SKIP",
          "storage.float_mscores_per_s": "SKIP",
          "storage.int8_mscores_per_s": "SKIP",
          "adaptive.facts_per_hour": "SKIP"}),
        ("a missing storage key fails with its name",
         {"storage.cold_start_speedup": gone},
         {"storage.cold_start_speedup": "FAIL"}),
        ("ADAPTIVE below 0.9x the best fixed strategy fails",
         {"adaptive.vs_best_fixed": 0.8},
         {"adaptive.vs_best_fixed": "FAIL"}),
        ("a sketch above 10% of its run fails",
         {"adaptive.sketch_fraction": 0.25},
         {"adaptive.sketch_fraction": "FAIL"}),
        ("a value exactly on a floor or a ceiling passes",
         {"adaptive.vs_best_fixed": 0.9, "adaptive.sketch_fraction": 0.1},
         {}),
        ("a string where a number belongs fails",
         {"adaptive.vs_best_fixed": "0.95"},
         {"adaptive.vs_best_fixed": "FAIL"}),
        ("a 30% adaptive facts/hour drop fails",
         {"adaptive.facts_per_hour": scaled("adaptive.facts_per_hour", 0.7)},
         {"adaptive.facts_per_hour": "FAIL"}),
        ("...unless the kernel backend differs",
         {"adaptive.facts_per_hour": scaled("adaptive.facts_per_hour", 0.7),
          "kernel_backend": "portable"},
         {"scoring.TransE.batch_mscores_per_s": "SKIP",
          "scoring.DistMult.batch_mscores_per_s": "SKIP",
          "scoring.ComplEx.batch_mscores_per_s": "SKIP",
          "storage.float_mscores_per_s": "SKIP",
          "storage.int8_mscores_per_s": "SKIP",
          "adaptive.facts_per_hour": "SKIP"}),
        ("a missing adaptive key fails with its name",
         {"adaptive.vs_best_fixed": gone},
         {"adaptive.vs_best_fixed": "FAIL"}),
        ("the 1-core ranking baseline is enforced on a 1-core 1-thread run",
         {"hardware_concurrency": 1, "threads": 1,
          "ranking.candidates_per_s":
          scaled("ranking.candidates_per_s", 0.7)},
         {"ranking.candidates_per_s": "FAIL"}),
    ]
    for name, edits, changed in cases:
        record = dict(base)
        for key, value in edits.items():
            if value is gone:
                del record[key]
            else:
                record[key] = value
        gate = Gate(rows, record)
        verdicts = {r[0]: r[4] for r in gate.rows}
        want = dict(expected_base, **changed)
        assert verdicts == want, (name, verdicts)
        assert len(gate.failures) == list(want.values()).count("FAIL"), name
        for check, verdict in changed.items():
            if verdict == "FAIL" and check in edits and edits[check] is gone:
                assert any(check in f and "missing" in f
                           for f in gate.failures), (name, gate.failures)

    # A row with no bound, two bounds, or a baseline without a tolerance
    # fails rather than skipping.
    for bad in ({"check": "x"}, {"check": "x", "floor": 1, "ceiling": 2},
                {"check": "x", "baseline": 1.0}):
        gate = Gate([bad], {"x": 1.0})
        assert [r[4] for r in gate.rows] == ["FAIL"], (bad, gate.rows)

    # load() refuses empty and malformed files with a clean exit message.
    import tempfile
    for content in ("", "{not json", "[]", "{}"):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            f.write(content)
            path = f.name
        try:
            load(path)
            raise AssertionError(f"load() accepted {content!r}")
        except SystemExit as e:
            assert "perf gate:" in str(e.code), e.code
        finally:
            os.unlink(path)

    # The markdown summary renders every row and the verdict.
    md = Gate(rows, base).summary_markdown()
    assert all(f"| {row['check']} |" in md for row in rows), md
    assert "**PASS**" in md and "ranking.candidates_per_s" in md

    print(f"perf_gate self-test: {len(cases) + 3} cases behave as specified "
          f"over {len(rows)} committed rows")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("record", nargs="?",
                        help="the BENCH_gate.json that bench_gate wrote")
    parser.add_argument("--summary", help="write a markdown trend summary")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.record:
        parser.error("nothing to gate: pass the bench_gate record")
    gate = Gate(load(TABLE)["checks"], load(args.record))
    if args.summary:
        with open(args.summary, "w") as f:
            f.write(gate.summary_markdown())
    return gate.report()


if __name__ == "__main__":
    sys.exit(main())
