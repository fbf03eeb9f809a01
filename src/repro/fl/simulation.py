"""The federated round loop with a simulated wall clock.

Two execution paths share one algorithm interface
(:meth:`~repro.algorithms.base.MHFLAlgorithm.run_client` /
:meth:`~repro.algorithms.base.MHFLAlgorithm.ingest`):

* the **legacy synchronous loop** (``execution=None``): every sampled
  client is always online and always finishes; the round waits for the
  straggler.  Kept verbatim as the reference semantics;
* the **event-driven runtime** (``execution=ExecutionConfig(...)``):
  a discrete-event scheduler (:mod:`repro.fl.events`) plays client
  download/train/upload events against an availability model
  (:mod:`repro.fl.availability`) under a pluggable aggregation policy
  (:mod:`repro.fl.aggregation`) — synchronous-with-deadline or
  FedBuff-style buffered semi-async.

With ``ExecutionConfig()`` defaults (always-on fleet, sync policy, no
deadline) the event path reproduces the legacy History's sampled clients,
round/sim times, losses, accuracies and per-device accuracies bit-for-bit
(it additionally records dispatch/receive extras and per-event timelines
the legacy loop has no notion of); the equivalence is pinned by
``tests/test_async_runtime.py``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..telemetry import runtime as telemetry
from .aggregation import ExecutionConfig, make_policy, sample_count
from .checkpoint import CheckpointConfig, make_checkpointer
from .executor import Executor, make_executor, make_work_item
from .history import History, RoundRecord
from .sanitizers import frozen_arrays, resolve_strict, rng_tripwire

__all__ = ["SimulationConfig", "run_simulation", "run_event_simulation",
           "sample_clients"]


@dataclass(frozen=True)
class SimulationConfig:
    """Round-loop parameters (paper defaults: 1000 rounds, 10% sampling)."""

    num_rounds: int = 50
    sample_ratio: float = 0.1
    eval_every: int = 5
    #: server-side work per round (aggregation, bookkeeping), seconds.
    server_overhead_s: float = 2.0
    seed: int = 0
    #: stop early once this global accuracy is reached (None = never).
    stop_at_accuracy: float | None = None
    #: how rounds execute: None = the legacy synchronous loop; an
    #: :class:`~repro.fl.aggregation.ExecutionConfig` selects the
    #: event-driven runtime (availability model + aggregation policy).
    execution: ExecutionConfig | None = None
    #: client-work parallelism.  Results are identical for any worker
    #: count/executor (see :mod:`repro.fl.executor`); only wall-clock and
    #: memory profiles change, so neither field participates in RunSpec
    #: hashing.
    workers: int = 1
    executor: str = "auto"    # "auto" | "inline" | "thread" | "process"
    #: crash-safety: periodic atomic snapshots + resume
    #: (:mod:`repro.fl.checkpoint`).  Purely mechanical — checkpointing is
    #: invisible in the History, so it never participates in hashing.
    checkpoint: CheckpointConfig | None = None
    #: strict-mode runtime sanitizers (:mod:`repro.fl.sanitizers`):
    #: broadcast arrays are frozen during dispatch and the legacy global
    #: RNGs are tripwired.  Observation-only — results are byte-identical
    #: either way.  ``None`` inherits the process default
    #: (:func:`repro.fl.sanitizers.set_strict_mode`); an
    #: ``ExecutionConfig.strict`` setting wins over this one.
    strict: bool | None = None


def sample_clients(num_clients: int, sample_ratio: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Sample the round's participants without replacement."""
    count = sample_count(num_clients, sample_ratio)
    return rng.choice(num_clients, size=count, replace=False)


#: Simulations started in this process.  The run cache's "a cache hit does
#: zero training" guarantee is pinned by asserting this does not move.
RUN_COUNT = 0


def _simulation_executor(algorithm, config: SimulationConfig,
                         execution: ExecutionConfig | None) -> Executor:
    """Build the executor a simulation should use.

    An explicit setting on the ``ExecutionConfig`` (its fields default to
    ``None`` = inherit) wins over the ``SimulationConfig``, so one sim
    config can be reused across differently-parallelised execution blocks
    — and ``ExecutionConfig(workers=1)`` genuinely forces a serial run.
    """
    workers = config.workers
    kind = config.executor
    if execution is not None:
        if execution.workers is not None:
            workers = execution.workers
        if execution.executor is not None:
            kind = execution.executor
    timeout_s = execution.item_timeout_s if execution is not None else None
    retries = execution.item_retries if execution is not None else None
    return make_executor(algorithm, workers=workers, kind=kind,
                         timeout_s=timeout_s, retries=retries)


def run_simulation(algorithm, config: SimulationConfig,
                   executor: Executor | None = None) -> History:
    """Drive ``algorithm`` for ``config.num_rounds`` rounds.

    Routes to the event-driven runtime when ``config.execution`` is set;
    otherwise runs the synchronous round loop below.  All client training
    flows through an :class:`~repro.fl.executor.Executor` (built from
    ``config.workers``/``config.executor`` unless one is passed in);
    ingestion stays on the coordinator in dispatch order, so the History
    is byte-identical for any worker count.
    """
    global RUN_COUNT
    RUN_COUNT += 1
    if config.execution is not None:
        return run_event_simulation(algorithm, config, executor=executor)

    strict = resolve_strict(config.strict)
    owns_executor = executor is None
    if executor is None:
        executor = _simulation_executor(algorithm, config, None)
    try:
        with rng_tripwire("run_simulation") if strict else nullcontext():
            return _run_sync_loop(algorithm, config, executor,
                                  strict=strict)
    finally:
        if owns_executor:
            executor.close()


def _run_sync_loop(algorithm, config: SimulationConfig,
                   executor: Executor, strict: bool = False) -> History:
    """The synchronous reference loop: every sampled client is always
    online and always finishes; the round waits for the straggler."""
    wall_start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    history = History(algorithm=algorithm.name, dataset=algorithm.dataset_name)
    sim_time = 0.0

    start_round = 0
    checkpointer = make_checkpointer(config.checkpoint)
    if checkpointer is not None:
        restored = checkpointer.maybe_resume(algorithm, rng)
        if restored is not None:
            history, start_round, sim_time, _ = restored

    for round_index in range(start_round, config.num_rounds):
        sampled = sample_clients(algorithm.num_clients, config.sample_ratio, rng)
        shared = (algorithm.pack_round_broadcast(round_index)
                  if executor.needs_broadcast else None)
        items = (make_work_item(algorithm, cid, round_index, config.seed,
                                executor.needs_broadcast,
                                shared_broadcast=shared)
                 for cid in sampled)

        wall_timings: dict[int, dict] = {}

        def updates():
            # Stream results in dispatch order; with the inline executor
            # only one client's update is alive at a time (the legacy
            # memory profile), while pools drain as work completes.
            # Strict mode freezes the broadcast snapshot and the live
            # global state for the duration of the stream: client work
            # may only *read* them, so any mutation race raises at its
            # own line.  The guard exits when the stream is exhausted —
            # before ``ingest`` finalises, which legitimately writes the
            # new global state.
            guard = (frozen_arrays(shared,
                                   getattr(algorithm, "global_state", None))
                     if strict else nullcontext())
            with guard:
                for result in executor.stream(items):
                    if result.timing is not None:
                        wall_timings[result.client_id] = result.timing
                    algorithm.apply_client_state(result.client_id,
                                                 result.client_state)
                    yield result.update

        # ``ingest`` drains the executor stream, so this span covers the
        # round's client work plus aggregation (the legacy loop has no
        # separate dispatch phase to trace).
        with telemetry.span("round", round=round_index):
            outcome = algorithm.ingest(updates(), round_index, rng)
        round_time = outcome.slowest_client_s + config.server_overhead_s
        sim_time += round_time

        is_eval_round = (round_index % config.eval_every == 0
                         or round_index == config.num_rounds - 1)
        if is_eval_round:
            with telemetry.span("evaluate", round=round_index):
                acc = algorithm.evaluate_global()
        else:
            acc = None
        extras = dict(outcome.extras)
        if wall_timings:
            extras["client_timings"] = wall_timings
        record = RoundRecord(
            round_index=round_index, sim_time_s=sim_time,
            round_time_s=round_time, train_loss=outcome.mean_train_loss,
            global_accuracy=acc, extras=extras)
        history.append(record)
        telemetry.record_round(record)
        telemetry.inc("aggregation.rounds", policy="legacy")
        if checkpointer is not None and checkpointer.due(round_index):
            checkpointer.save(algorithm, rng, history,
                              next_round=round_index + 1,
                              sim_time_s=sim_time)
        if (config.stop_at_accuracy is not None and acc is not None
                and acc >= config.stop_at_accuracy):
            break

    with telemetry.span("per_device_accuracies"):
        history.final_device_accuracies = \
            algorithm.per_device_accuracies()
    if checkpointer is not None:
        checkpointer.clear()
    if telemetry.enabled() and history.records:
        wall_s = time.perf_counter() - wall_start
        sim_s = history.records[-1].sim_time_s
        telemetry.set_gauge("simulation.wall_s", wall_s, policy="legacy")
        telemetry.set_gauge("simulation.sim_s", sim_s, policy="legacy")
        if wall_s > 0:
            telemetry.set_gauge("simulation.sim_speedup", sim_s / wall_s,
                                policy="legacy")
    return history


def run_event_simulation(algorithm, config: SimulationConfig,
                         execution: ExecutionConfig | None = None,
                         executor: Executor | None = None) -> History:
    """Drive ``algorithm`` through the discrete-event runtime.

    ``execution`` overrides ``config.execution`` (so callers can reuse one
    :class:`SimulationConfig` across policies); defaults apply if neither
    is set.
    """
    execution = execution or config.execution or ExecutionConfig()
    availability = execution.build_availability(algorithm.num_clients,
                                                sim_seed=config.seed)
    strict = resolve_strict(execution.strict,
                            getattr(config, "strict", None))
    owns_executor = executor is None
    if executor is None:
        executor = _simulation_executor(algorithm, config, execution)
    try:
        # Policy construction happens inside the guard: if it raises, the
        # just-created thread/process pool must still be shut down rather
        # than leak workers.
        policy = make_policy(config, execution, availability,
                             executor=executor)
        with rng_tripwire("run_event_simulation") if strict \
                else nullcontext():
            return policy.run(algorithm)
    finally:
        if owns_executor:
            executor.close()
