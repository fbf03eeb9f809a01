"""Run the benchmark over several seeds and workloads and summarise it.

Each run is a fresh ``run.py`` process (peak memory is per process) of
``BENCHMARK.json``'s ``run_seconds``; run ``k`` of every workload uses
``--seed k``, from 0.  For
every workload the table gives each metric's unit, sample count (runs),
median, quartiles and spread (quartile distance over median).  The exit
code is non-zero if any run failed: a History digest mismatch, a moved spec
hash or an exception.

Usage, from the repository root::

    python3 e2ebench/suite.py --runs 10                  # untraced
    python3 e2ebench/suite.py --runs 3 --trace 1         # per-layer
    python3 e2ebench/suite.py --runs 10 --record         # write baseline

``--record`` stores the summary under ``baseline`` (``--trace 0``) or
``baseline_per_layer`` (``--trace 1``) in ``ledger.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from run import summary
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
LEDGER = BENCH_DIR / "ledger.json"
RUN_SECONDS = json.loads(
    (BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]


def summarise(values: list[float]) -> dict:
    median, q1, q3 = summary(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_once(workload: str, seed: int, trace: int,
             scratch: Path) -> tuple[dict | None, dict]:
    """One ``run.py`` process; (its samples, its result line)."""
    report = scratch / f"report-{workload}-{seed}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS),
         "--trace", str(trace), "--report", str(report)],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        result["correct"] = False
    samples = json.loads(report.read_text()) if report.exists() else None
    return samples, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the summary in ledger.json")
    args = parser.parse_args(argv)

    ok = True
    results: dict[str, dict] = {}
    Path(".e2ebench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".e2ebench") as scratch:
        for workload in WORKLOADS:
            runs = []
            attempted = failed = 0
            for seed in range(args.runs):
                start = time.perf_counter()
                samples, result = run_once(workload, seed, args.trace,
                                           Path(scratch))
                ok &= bool(result["correct"])
                attempted += result["attempted"]
                failed += result["failed"]
                values = " ".join(
                    f"{name}={entry['value']:.4g}"
                    for name, entry in result.get("metrics", {}).items())
                print(f"# {workload} seed {seed}: correct="
                      f"{result['correct']} cells={result['attempted']} "
                      f"({time.perf_counter() - start:.1f} s) {values}",
                      file=sys.stderr)
                if samples is not None:
                    runs.append(samples)
            rows = {}
            for name, entry in (runs[0].items() if runs else ()):
                # One value per run: the run's median (its JSON value).
                values = [summary(run[name]["values"])[0] for run in runs]
                rows[name] = {"unit": entry["unit"], **summarise(values)}
            if "ops_failed_frac" in rows:
                rows["ops_failed_frac"] = {
                    "unit": "fraction", "n": attempted,
                    "median": failed / max(attempted, 1)}
            results[workload] = rows
            print(f"\n{workload}: {len(runs)} runs x {RUN_SECONDS} s, "
                  f"trace={args.trace}")
            print(f"{'metric':42s} {'unit':>8s} {'n':>5s} {'median':>11s} "
                  f"{'q1':>11s} {'q3':>11s} {'spread':>7s}")
            for name, row in rows.items():
                print(f"{name:42s} {row['unit']:>8s} {row['n']:5d} "
                      f"{row['median']:11.5g} {row.get('q1', row['median']):11.5g} "
                      f"{row.get('q3', row['median']):11.5g} "
                      f"{row.get('spread', 0.0):7.3f}")
    if args.record:
        ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
        ledger["baseline" if args.trace == 0 else "baseline_per_layer"] = {
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "runs": args.runs,
            "seconds": RUN_SECONDS, "workloads": results}
        LEDGER.write_text(json.dumps(ledger, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
