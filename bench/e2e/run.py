#!/usr/bin/env python3
"""Builds bench_e2e from source and runs the repository's benchmark.

One workload, as declared in BENCHMARK.json (the last line of stdout is a
JSON object with correct / attempted / failed / metrics):

  python3 bench/e2e/run.py --workload paper_ef500 --seed 1 --seconds 10 \\
      --trace 0

Every workload, each in its own process, for one or more seeds; prints every
metric as `workload metric value unit n=samples` and a summary, and can save
the results for compare.py:

  python3 bench/e2e/run.py [--trace 0|1] [--seed 1] [--runs 10] [--out A.json]

Smoke test at toy sizes (asserts that every metric declared in
BENCHMARK.json is printed for every workload and that nothing failed):

  python3 bench/e2e/run.py --quick

The build is a build of the repository root in .bench_build, with bench/e2e
added to it by add_to_top_level.cmake; only the bench_e2e and kgfd_server
targets are built. Runs keep their scratch files in .bench_build/e2e, and
--trace 1 writes span files to its traces/ directory.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected_digests.json"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds bench_e2e and kgfd_server."""
    if not (ROOT / "CMakeLists.txt").is_file():
        raise SystemExit(f"run.py: no kgfd sources under {ROOT}")
    build_dir.mkdir(parents=True, exist_ok=True)
    # One build at a time per build directory.
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(ROOT), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release",
                   "-DCMAKE_PROJECT_kgfd_INCLUDE="
                   f"{HERE / 'add_to_top_level.cmake'}"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(build_dir), "-j",
                        str(os.cpu_count() or 1), "--target", "bench_e2e",
                        "kgfd_server"], check=True, stdout=sys.stderr)


def run_workload(args, workload, seed, trace):
    """Runs one workload in its own process; returns its parsed output."""
    work_dir = Path(args.bench).parent / "e2e"
    cmd = [args.bench, "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--server", args.server, "--tmp_dir", str(work_dir / "tmp")]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    if args.quick:
        cmd.append("--quick")
    if trace:
        traces = work_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(traces / f"{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run.py: {workload} took over {RUN_TIMEOUT_S}s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        raise SystemExit(f"run.py: bench_e2e {workload} exited with "
                         f"{proc.returncode}")
    result = {"metrics": {}, "digests": {}, "attempted": 0, "failed": 0,
              "seed": seed, "complete": False}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) < 3 or parts[0] != workload or parts[1] == "info":
            continue
        if parts[1] == "digest":
            result["digests"][parts[2]] = f"{parts[3]} {parts[4]}"
        elif parts[1] == "result":
            fields = dict(p.split("=") for p in parts[2:])
            result["attempted"] = int(fields["attempted"])
            result["failed"] = int(fields["failed"])
            result["complete"] = True
        else:
            result["metrics"][parts[1]] = {
                "value": float(parts[2]), "unit": parts[3],
                "n": int(parts[4].split("=")[1])}
    if not result["complete"]:
        raise SystemExit(f"run.py: bench_e2e {workload} printed no result")
    check_digests(args, workload, seed, result)
    return result


def check_digests(args, workload, seed, result):
    """At the default seed, every facts digest must match the committed one;
    each mismatch is one failed operation."""
    expected = json.loads(EXPECTED.read_text())
    if args.quick or seed != expected["seed"]:
        return
    for key, digest in result["digests"].items():
        want = expected["digests"].get(key)
        if want != digest:
            log(f"{workload}: digest of {key} is {digest}, expected {want}")
            result["failed"] += 1


def declared(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def contract_json(spec, result, trace):
    """The result line: exactly the metrics BENCHMARK.json declares for the
    mode."""
    metrics = {}
    for m in declared(spec, trace):
        got = result["metrics"].get(m["name"])
        if got is None:
            raise SystemExit(f"run.py: metric {m['name']} was not printed")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def summarize(spec, results, trace):
    """Median and quartiles of each declared metric over the runs."""
    print("\nworkload metric median [q1 q3] unit runs")
    for workload, runs in results.items():
        for m in declared(spec, trace):
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
            print(f"{workload} {m['name']} {q[1]:.6g} [{q[0]:.6g} "
                  f"{q[2]:.6g}] {m['unit']} {len(values)}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload} failed_ops {failed} of {attempted}")


def main():
    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds seed, seed+1, ... (all-workload mode)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="library pool size (default min(4, nproc))")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", help="write every run's metrics as JSON")
    parser.add_argument("--build-dir", default=str(ROOT / ".bench_build"))
    parser.add_argument("--no-build", action="store_true")
    parser.add_argument("--bench", help="bench_e2e binary (default: the "
                        "build dir's)")
    parser.add_argument("--server", help="kgfd_server binary (default: the "
                        "build dir's)")
    args = parser.parse_args()
    build_dir = Path(args.build_dir)
    args.bench = args.bench or str(build_dir / "bench_e2e")
    args.server = args.server or str(build_dir / "tools" / "kgfd_server")

    if not args.no_build:
        try:
            build(build_dir)
        except subprocess.CalledProcessError as e:
            raise SystemExit(f"run.py: build failed: {e}")

    if args.workload:
        result = run_workload(args, args.workload, args.seed, args.trace)
        print(json.dumps(contract_json(spec, result, args.trace)))
        return 0

    if args.quick:
        problems = []
        for trace in (0, 1):
            for workload in names:
                result = run_workload(args, workload, args.seed, trace)
                missing = [m["name"] for m in declared(spec, trace)
                           if m["name"] not in result["metrics"]]
                if missing:
                    problems.append(f"{workload} trace={trace} missing "
                                    f"{', '.join(missing)}")
                if result["failed"]:
                    problems.append(f"{workload} trace={trace} failed "
                                    f"{result['failed']} operations")
        for p in problems:
            log(p)
        print("bench_e2e smoke: " + ("FAIL" if problems else "OK"))
        return 1 if problems else 0

    results = {w: [] for w in names}
    for k in range(args.runs):
        for workload in names:
            results[workload].append(
                run_workload(args, workload, args.seed + k, args.trace))
    summarize(spec, results, args.trace)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"trace": args.trace, "results": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
