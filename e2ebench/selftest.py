"""Self-test of the benchmark on small cells (about a minute).

Checks three things:

1. every end-to-end and per-layer metric named in ``BENCHMARK.json`` is
   emitted with its unit, on every workload;
2. a corrupted pinned digest fails the run (non-zero exit, ``correct``
   false), and a moved spec hash is refused before any timing;
3. a traced cell's ``trace.cell_s`` matches the cell's own wall time,
   timed around ``execute_spec`` without the tracer, and its self-times
   plus ``trace.unattributed_s`` sum to that time; on the inline workloads
   ``fl.simulation.coordinator_self_s`` plus ``trace.unattributed_s`` is at
   most 5% of ``trace.cell_s``.

Usage, from the repository root::

    python3 e2ebench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pin
import run
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
#: on inline workloads, ``fl.simulation.coordinator_self_s`` plus
#: ``trace.unattributed_s`` may be at most this share of ``trace.cell_s``.
COORDINATOR_SHARE = 0.05


def check(condition: bool, detail) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {detail}")


def invoke(workload: str, pins: Path, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--size", "small", "--pins", str(pins)],
        capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(pins: Path) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        for workload in WORKLOADS:
            code, stdout = invoke(workload, pins, trace)
            check(code == 0, f"{workload} trace={trace} exited {code}")
            result = result_line(stdout)
            check(result["correct"] and result["failed"] == 0, result)
            got = {name: entry["unit"]
                   for name, entry in result["metrics"].items()}
            check(got == expected, (workload, trace, got, expected))
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def check_corrupted_pins(pins: Path, scratch: Path) -> None:
    workload = "fig4_resnet_width"
    good = json.loads(pins.read_text())
    entry = good["small"][workload]["0"]

    bad = json.loads(json.dumps(good))
    bad["small"][workload]["0"]["history_sha256"] = "0" * 64
    bad_path = scratch / "bad-digest.json"
    bad_path.write_text(json.dumps(bad))
    code, stdout = invoke(workload, bad_path, 0)
    result = result_line(stdout)
    check(code != 0 and not result["correct"] and result["failed"] >= 1,
          (code, result))
    print(f"ok  corrupted digest: exit {code}, failed={result['failed']}")

    bad["small"][workload]["0"] = {**entry, "spec_hash": "0" * 24}
    bad_path.write_text(json.dumps(bad))
    code, stdout = invoke(workload, bad_path, 0)
    check(code != 0 and '"correct"' not in stdout, (code, stdout))
    print(f"ok  moved spec hash: refused with exit {code}")


def check_self_times(pins: Path, scratch: Path) -> None:
    run.load_repro()
    pinned = json.loads(pins.read_text())["small"]
    for name, workload in WORKLOADS.items():
        spec = workload.spec(0, "small")
        bench = run.Bench([(spec, pinned[name]["0"]["history_sha256"])],
                          scratch)
        try:
            cell = bench.cell(0, traced=True)
        finally:
            bench.timing.remove()
        check(cell is not None, f"{name}: traced cell failed")
        layers = cell["layers"]
        # The root span covers the cell as timed independently around
        # execute_spec, and the named self-times add up to that time.
        cell_s = cell["cell_s"]
        total = sum(layers[metric] for metric in run.SELF_TIMES)
        for traced_s in (layers["trace.cell_s"], total):
            check(abs(traced_s - cell_s) <= 0.002 + 0.01 * cell_s,
                  (name, traced_s, cell_s))
        # Inline cells: everything but the loop itself is attributed.
        rest = (layers["fl.simulation.coordinator_self_s"]
                + layers["trace.unattributed_s"])
        if workload.executor == "inline":
            check(rest <= COORDINATOR_SHARE * layers["trace.cell_s"],
                  (name, rest, layers["trace.cell_s"]))
        print(f"ok  {name}: self-times sum to trace.cell_s {total:.4f} s, "
              f"cell_s {cell_s:.4f} s, coordinator + unattributed "
              f"{rest / total:.2%}")


def main() -> int:
    run.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
        scratch = Path(tmp)
        pins = scratch / "pins.json"
        pin.main(["--size", "small", "--out", str(pins)])
        check_metrics(pins)
        check_corrupted_pins(pins, scratch)
        check_self_times(pins, scratch)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
