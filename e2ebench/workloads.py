"""The benchmark's workloads: three fully pinned cells.

Each workload is one :class:`~repro.experiments.RunSpec`.  Every
``ExperimentScale`` field is given as an explicit scale override, so a
later resize of the ``demo`` preset cannot silently change what a workload
runs; the spec's content hash is pinned in ``pins.json`` next to the
History digest, and the benchmark refuses to time a workload whose hash
moved.

A run with ``--seed n`` runs the cells of :data:`CELL_SEEDS` in turn,
starting at ``n % len(CELL_SEEDS)``: the same benchmark seed always gives
the same cells, every cell seed has a pinned digest, and a run's median
mixes cells of every seed instead of following one seed's cost.  ``size="small"`` runs the
same cells at the ``smoke`` preset, in seconds, for the benchmark's
self-test and warm-up; small cells have no stored pins.
"""

from __future__ import annotations

from dataclasses import dataclass

#: cell seeds with pinned spec hashes and History digests.
CELL_SEEDS = (0, 1, 2, 3, 4)

#: the ``demo`` preset's values on this commit, restricted to each
#: workload's dataset, plus the per-dataset entries below.
_DEMO = {
    "num_rounds": 40, "sample_ratio": 0.2, "eval_every": 5,
    "batch_size": 8, "local_epochs": 1, "max_batches": 4,
    "eval_max_samples": 300,
}
_DEMO_DATA = {
    "cifar100": (20, {"train_per_class": 12, "test_per_class": 3}),
    "agnews": (16, {"train_size": 1200, "test_size": 300}),
    "harbox": (30, {"num_users": 30, "samples_per_user": 15,
                    "test_size": 300}),
}

SIZES = ("full", "small")


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    dataset: str
    constraint: str
    #: ``None`` runs the synchronous round loop; otherwise the keyword
    #: arguments of an :class:`~repro.fl.aggregation.ExecutionConfig`.
    execution: dict | None
    executor: str
    workers: int

    def scale_overrides(self) -> dict:
        clients, data_kwargs = _DEMO_DATA[self.dataset]
        return {**_DEMO,
                "num_clients": {self.dataset: clients},
                "dataset_kwargs": {self.dataset: dict(data_kwargs)}}

    def spec(self, seed: int, size: str = "full"):
        """The RunSpec this workload times for benchmark seed ``seed``."""
        from repro.constraints import ConstraintSpec
        from repro.experiments import RunSpec
        from repro.fl.aggregation import ExecutionConfig

        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}; known: {SIZES}")
        full = size == "full"
        execution = (None if self.execution is None
                     else ExecutionConfig(**self.execution))
        return RunSpec(
            algorithm=self.algorithm, dataset=self.dataset,
            constraints=ConstraintSpec(constraints=(self.constraint,)),
            scale="demo" if full else "smoke",
            scale_overrides=self.scale_overrides() if full else {},
            execution=execution, seed=cell_seed(seed),
            workers=self.workers, executor=self.executor)


def cell_seed(seed: int) -> int:
    return CELL_SEEDS[seed % len(CELL_SEEDS)]


WORKLOADS = {w.name: w for w in (
    Workload("fig4_resnet_width", "sheterofl", "cifar100", "computation",
             execution=None, executor="inline", workers=1),
    Workload("nlp_fedproto_memory", "fedproto", "agnews", "memory",
             execution=None, executor="inline", workers=1),
    Workload("har_buffered_pool", "fedrolex", "harbox", "communication",
             execution={"policy": "buffered", "availability": "markov"},
             executor="process", workers=2),
)}
