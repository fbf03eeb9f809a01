"""Pin the workloads: record each cell's spec hash and History digest.

For every workload and cell seed, runs the cell once on a cold cache and
writes ``{"spec_hash", "history_sha256"}`` into the pins file.  A workload
that runs on a process pool is also run on the inline executor, and the two
Histories must be byte-identical before its digest is pinned.

Usage, from the repository root::

    python3 e2ebench/pin.py                       # every workload, full size
    python3 e2ebench/pin.py --size small --out /some/dir/pins.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
from workloads import CELL_SEEDS, SIZES, WORKLOADS


def pin_workload(name: str, size: str, scratch: Path) -> dict:
    workload = WORKLOADS[name]
    pins = {}
    for seed in CELL_SEEDS:
        spec = workload.spec(seed, size)
        result, cell_s = run.run_cell(spec, scratch)
        digest = run.history_digest(result.history)
        if workload.executor != "inline":
            inline = spec.replace(executor="inline", workers=1)
            reference = run.history_digest(
                run.run_cell(inline, scratch)[0].history)
            if reference != digest:
                raise SystemExit(f"{name} seed {seed}: {workload.executor} "
                                 f"History {digest} != inline {reference}")
        pins[str(spec.seed)] = {"spec_hash": spec.content_hash(),
                                "history_sha256": digest}
        print(f"{name} seed {spec.seed}: {digest[:12]} ({cell_s:.2f} s)",
              file=sys.stderr)
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--out", type=Path, default=run.PINS)
    args = parser.parse_args(argv)
    run.load_repro()
    run.SCRATCH.mkdir(exist_ok=True)
    pins = json.loads(args.out.read_text()) if args.out.exists() else {}
    for name in sorted(WORKLOADS):
        pins.setdefault(args.size, {})[name] = pin_workload(
            name, args.size, run.SCRATCH)
    args.out.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
