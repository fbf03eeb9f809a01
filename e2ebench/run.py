"""End-to-end cell benchmark.

Runs one workload (a pinned RunSpec, see ``workloads.py``) through the
public runner, ``repro.experiments.execute_spec``, against a fresh, empty
``RunCache`` per cell, as a first CLI run does.  After one small warm-up
cell, cells run back to back in this one process until ``--seconds`` have
passed, taking the workload's cell seeds in turn from ``--seed``; every
cell's ``History.to_json()`` sha256 is checked against the digest in
``pins.json``.

``--trace 0`` reports the end-to-end metrics of untraced cells.
``--trace 1`` runs each cell untraced, then traced, and reports per-layer
self-times from the traced ones (``tracer.py`` wraps ``repro`` functions
from outside) plus the tracing overhead.

Usage, from the repository root::

    python3 e2ebench/run.py --workload fig4_resnet_width --seed 0 \\
        --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a table (median and quartiles per metric).  The exit code is 0 only if
every cell matched its pinned digest; a spec whose content hash no longer
matches its pin is refused before any timing (exit 3).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import TIMING_TARGETS, Tracer
from workloads import CELL_SEEDS, SIZES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS = BENCH_DIR / "pins.json"
#: scratch space (run caches, span dumps), relative to the working directory.
SCRATCH = Path(".e2ebench")

#: (name, unit) of the end-to-end metrics, reported with ``--trace 0``.
END_TO_END = (("cell_s", "s"), ("setup_s", "s"),
              ("client_updates_per_s", "1/s"), ("peak_rss_mb", "MB"))
#: printed in the table but not in the result line: the final accuracy is
#: fixed per cell seed by the pinned digest, and failures are the line's
#: ``failed`` count.
CHECKS = (("final_acc", "fraction"), ("ops_failed_frac", "fraction"))

#: per-layer metric -> span name, for self-times read off the spans (a
#: leaf span's self time is its duration).  With the root's self time,
#: ``trace.unattributed_s``, they sum to the traced ``trace.cell_s``.
SELF_TIMES = {
    "data.load_dataset_s": "data.load_dataset",
    "experiments.build_base_model_s": "experiments.build_base_model",
    "constraints.build_scenario_s": "constraints.build_scenario",
    "experiments.prepare_scenario_self_s": "experiments.prepare_scenario",
    "algorithms.build_client_model_s": "algorithms.build_client_model",
    "algorithms.run_client_self_s": "algorithms.run_client",
    "fl.client.train_local_self_s": "fl.client.train_local",
    "autograd.backward_s": "autograd.backward",
    "nn.optim_step_s": "nn.optim_step",
    "algorithms.ingest_self_s": "algorithms.ingest",
    "models.slicing.scatter_accumulate_s":
        "models.slicing.scatter_accumulate",
    "fl.evaluate.accuracy_s": "fl.evaluate.accuracy",
    "algorithms.evaluate_global_self_s": "algorithms.evaluate_global",
    "algorithms.per_device_accuracies_self_s":
        "algorithms.per_device_accuracies",
    "algorithms.pack_round_broadcast_s": "algorithms.pack_round_broadcast",
    "fl.simulation.coordinator_self_s": "fl.simulation.run_simulation",
    "experiments.cache.get_s": "experiments.cache.get",
    "experiments.cache.put_s": "experiments.cache.put",
    "trace.unattributed_s": "experiments.execute_spec",
}
#: per-layer call counts read off the spans.
CALLS = {
    "algorithms.build_client_model_calls": "algorithms.build_client_model",
    "fl.client.steps": "nn.optim_step",
    "models.slicing.scatter_accumulate_calls":
        "models.slicing.scatter_accumulate",
    "fl.evaluate.accuracy_calls": "fl.evaluate.accuracy",
    "algorithms.pack_round_broadcast_calls":
        "algorithms.pack_round_broadcast",
}
#: per-layer metrics from the ``ClientResult.timing`` values in the History.
EXECUTOR = {"fl.executor.items": "count", "fl.executor.execute_s": "s",
            "fl.executor.wait_s": "s", "fl.executor.wait_share": "fraction",
            "fl.executor.retries": "count"}
PER_LAYER = {**{name: "s" for name in SELF_TIMES},
             **{name: "count" for name in CALLS}, **EXECUTOR,
             "fl.evaluate.final_acc": "fraction", "trace.cell_s": "s",
             "trace.overhead_frac": "fraction"}

WORKER_NOTE = ("note: layer times inside process workers come only from "
               "ClientResult.timing (fl.executor.*) until the program "
               "records worker telemetry itself")


def load_repro() -> None:
    """Make the checkout's ``src/`` importable and import the runner."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro.experiments  # noqa: F401


def history_digest(history) -> str:
    return hashlib.sha256(history.to_json().encode()).hexdigest()


def client_timings(history) -> list[dict]:
    """Every received update's wall-clock record, in round order."""
    return [timing for record in history.records
            for timing in (record.extras.get("client_timings") or {}).values()]


def run_cell(spec, scratch: Path):
    """One ``execute_spec`` call on a fresh, empty run cache."""
    from repro.experiments import cache as cache_mod
    from repro.experiments import runner

    directory = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
    try:
        start = time.perf_counter()
        result = runner.execute_spec(spec, cache=cache_mod.RunCache(directory))
        return result, time.perf_counter() - start
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def layer_metrics(spans, history) -> dict[str, float]:
    """Per-layer metrics of one traced cell."""
    layers = Tracer.layer_times(spans)

    def field(span: str, key: str):
        return layers.get(span, {}).get(key, 0)

    metrics = {name: field(span, "self_s") for name, span in SELF_TIMES.items()}
    metrics.update({name: field(span, "calls") for name, span in CALLS.items()})
    timings = client_timings(history)
    execute = sum(t.get("execute_s", 0.0) for t in timings)
    wait = sum(t.get("wait_s", 0.0) for t in timings)
    metrics.update({
        "fl.executor.items": len(timings),
        "fl.executor.execute_s": execute,
        "fl.executor.wait_s": wait,
        "fl.executor.wait_share": wait / (execute + wait) if timings else 0.0,
        "fl.executor.retries": sum(int(t.get("retries", 0)) for t in timings),
        "fl.evaluate.final_acc": history.final_accuracy,
        "trace.cell_s": field("experiments.execute_spec", "total_s"),
    })
    return metrics


class Bench:
    """Runs cells of a workload's specs in turn and checks each against its
    pinned digest."""

    def __init__(self, cells: list[tuple], scratch: Path):
        self.cells, self.scratch = cells, scratch   # [(spec, digest)]
        self.attempted = self.failed = 0
        self.timing = Tracer(TIMING_TARGETS)

    def cell(self, index: int, traced: bool = False) -> dict | None:
        """Run cell ``index`` (modulo the number of specs); returns its
        measurements, ``None`` if it failed."""
        from repro.autograd.plan import clear_thread_plans

        spec, pinned = self.cells[index % len(self.cells)]
        self.attempted += 1
        # A first CLI run starts without cached step plans; drop the ones
        # the previous cell left on this thread.
        clear_thread_plans()
        tracer = Tracer() if traced else None
        try:
            result, cell_s = run_cell(spec, self.scratch)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            if tracer is not None:
                tracer.remove()
            spans = self.timing.take()
        digest = history_digest(result.history)
        if digest != pinned:
            print(f"digest mismatch: {spec.label} gave {digest}, "
                  f"pinned {pinned}", file=sys.stderr)
            self.failed += 1
            return None
        sim = Tracer.durations(spans, "fl.simulation.run_simulation")
        cell = {"cell_s": cell_s,
                "setup": Tracer.durations(spans,
                                          "experiments.prepare_scenario"),
                "client_updates_per_s": (len(client_timings(result.history))
                                         / sum(sim)),
                "final_acc": result.history.final_accuracy}
        if tracer is not None:
            cell["spans"] = tracer.spans
            cell["layers"] = layer_metrics(tracer.spans, result.history)
        return cell

    def setup(self, index: int) -> float:
        """Time one ``prepare_scenario`` call on cell ``index``'s spec."""
        from repro.experiments import runner
        runner.prepare_scenario(self.cells[index % len(self.cells)][0])
        return Tracer.durations(self.timing.take(),
                                "experiments.prepare_scenario")[0]


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def print_table(rows) -> None:
    print(f"{'metric':42s} {'unit':>8s} {'n':>4s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s}")
    for name, unit, values in rows:
        median, q1, q3 = summary(values)
        print(f"{name:42s} {unit:>8s} {len(values):4d} {median:12.6g} "
              f"{q1:12.6g} {q3:12.6g}")


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child
    (a pool worker), in MB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def write_report(path: Path | None, rows) -> None:
    """Dump every table row's samples, for ``suite.py``."""
    if path is not None:
        path.write_text(json.dumps(
            {name: {"unit": unit, "values": values}
             for name, unit, values in rows}))


def measure(bench: Bench, seconds: float, report: Path | None) -> dict:
    """Untraced cells until ``seconds`` pass; the end-to-end metrics.

    Before each cell, ``prepare_scenario`` also runs once on its own:
    ``setup_s`` is the median of those set-ups and the cells' own, so its
    samples are spread over the whole run, as the cells are, instead of
    catching the host in one state.
    """
    setups, cells = [], []
    start = time.perf_counter()
    while bench.attempted == 0 or time.perf_counter() - start < seconds:
        setups.append(bench.setup(bench.attempted))
        cell = bench.cell(bench.attempted)
        if cell is not None:
            cells.append(cell)
    if not cells:
        return {}
    setups += [s for cell in cells for s in cell["setup"]]
    values = {
        "cell_s": [c["cell_s"] for c in cells],
        "setup_s": setups,
        "client_updates_per_s": [c["client_updates_per_s"] for c in cells],
        "peak_rss_mb": [peak_rss_mb()],
        "final_acc": [c["final_acc"] for c in cells],
        "ops_failed_frac": [bench.failed / bench.attempted],
    }
    units = dict(END_TO_END + CHECKS)
    rows = [(name, units[name], values[name]) for name in units]
    print_table(rows)
    write_report(report, rows)
    return {name: {"value": summary(values[name])[0], "unit": unit}
            for name, unit in END_TO_END}


def measure_traced(bench: Bench, seconds: float, spans_out: Path,
                   report: Path | None) -> dict:
    """Alternate untraced and traced cells; the per-layer metrics."""
    plain, traced = [], []
    start = time.perf_counter()
    while (not (plain and traced)
           or time.perf_counter() - start < seconds) and not bench.failed:
        # Each spec runs untraced, then traced.
        cell = bench.cell(bench.attempted // 2,
                          traced=bench.attempted % 2 == 1)
        if cell is not None:
            (traced if "layers" in cell else plain).append(cell)
    if bench.failed:
        return {}
    values = {name: [c["layers"][name] for c in traced] for name in PER_LAYER
              if name != "trace.overhead_frac"}
    overhead = (summary([c["layers"]["trace.cell_s"] for c in traced])[0]
                / summary([c["cell_s"] for c in plain])[0]) - 1.0
    values["trace.overhead_frac"] = [overhead]
    print(WORKER_NOTE)
    rows = [(name, PER_LAYER[name], values[name]) for name in PER_LAYER]
    print_table(rows)
    write_report(report, rows)
    Tracer.write(spans_out, [c["spans"] for c in traced])
    print(f"spans: {spans_out}")
    return {name: {"value": summary(values[name])[0], "unit": unit}
            for name, unit in PER_LAYER.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'small' shrinks the cells (self-test only)")
    parser.add_argument("--pins", type=Path, default=PINS,
                        help="pinned spec hashes and History digests")
    parser.add_argument("--report", type=Path, default=None,
                        help="also write every metric's samples as JSON")
    return parser.parse_args(argv)


def lookup_digests(pins_path: Path, size: str, workload: str,
                   specs) -> list[str]:
    """The pinned History digest of each spec; raises ``LookupError`` if a
    pin is missing or a spec's content hash moved."""
    pins = json.loads(pins_path.read_text()).get(size, {}).get(workload, {})
    digests = []
    for spec in specs:
        pin = pins.get(str(spec.seed))
        if pin is None:
            raise LookupError(f"no pin for {workload} seed {spec.seed} "
                              f"({size}) in {pins_path}")
        if pin["spec_hash"] != spec.content_hash():
            raise LookupError(f"{workload} seed {spec.seed}: spec hash "
                              f"{spec.content_hash()} != pinned "
                              f"{pin['spec_hash']}; refusing to time it")
        digests.append(pin["history_sha256"])
    return digests


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_repro()
    except ImportError as error:
        print(f"cannot import repro from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    specs = [workload.spec(args.seed + i, args.size)
             for i in range(len(CELL_SEEDS))]
    try:
        digests = lookup_digests(args.pins, args.size, args.workload, specs)
    except (OSError, ValueError, LookupError) as error:
        print(error, file=sys.stderr)
        return 3
    SCRATCH.mkdir(exist_ok=True)
    # Warm-up: one small cell absorbs first-call costs (lazy imports, numpy
    # and allocator warm-up) so every timed cell runs in the same state.
    run_cell(workload.spec(args.seed, "small"), SCRATCH)
    bench = Bench(list(zip(specs, digests)), SCRATCH)
    print(f"# {args.workload}: {specs[0].label}, cell seeds "
          f"{[spec.seed for spec in specs]}, trace={args.trace}")
    if args.trace:
        spans_out = SCRATCH / f"spans-{args.workload}.json"
        metrics = measure_traced(bench, args.seconds, spans_out, args.report)
    else:
        metrics = measure(bench, args.seconds, args.report)
    bench.timing.remove()
    correct = bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
