"""The federated round loop with a simulated wall clock.

Every run goes through one discrete-event runtime: a scheduler
(:mod:`repro.fl.events`) plays client download/train/upload events against
an availability model (:mod:`repro.fl.availability`) under an aggregation
policy (:mod:`repro.fl.aggregation`) — synchronous-with-deadline or
FedBuff-style buffered semi-async — composed from the algorithm's
per-client primitives
(:meth:`~repro.algorithms.base.MHFLAlgorithm.run_client` /
:meth:`~repro.algorithms.base.MHFLAlgorithm.ingest`).

``execution=None`` is the idealized setting as a special case of that
runtime: an always-on fleet under the synchronous policy with no deadline,
so every sampled client finishes and the round waits for the straggler.
Such a *bare* run records no per-event timelines and no ``dispatched``/
``received`` counters, and does not validate updates: none of that is part
of its History, whose bytes the cached results and pinned digests fix.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from .aggregation import ExecutionConfig, make_policy
from .checkpoint import CheckpointConfig
from .executor import Executor, make_executor
from .history import History
from .sanitizers import resolve_strict, rng_tripwire

__all__ = ["SimulationConfig", "run_simulation"]


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
    #: how rounds execute: an
    #: :class:`~repro.fl.aggregation.ExecutionConfig` (availability model +
    #: aggregation policy).  ``None`` is the always-on synchronous fleet
    #: without timelines, dispatch counters or update validation.
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


#: the execution block of an ``execution=None`` run: always-on sync fleet,
#: no event timelines, no update validation.
_BARE_EXECUTION = ExecutionConfig(record_events=False, validate=False)

#: Simulations started in this process.  The run cache's "a cache hit does
#: zero training" guarantee is pinned by asserting this does not move.
RUN_COUNT = 0


def _simulation_executor(algorithm, config: SimulationConfig,
                         execution: ExecutionConfig) -> Executor:
    """Build the executor a simulation should use.

    An explicit setting on the ``ExecutionConfig`` (its fields default to
    ``None`` = inherit) wins over the ``SimulationConfig``, so one sim
    config can be reused across differently-parallelised execution blocks
    — and ``ExecutionConfig(workers=1)`` genuinely forces a serial run.
    """
    workers = (execution.workers if execution.workers is not None
               else config.workers)
    kind = (execution.executor if execution.executor is not None
            else config.executor)
    return make_executor(algorithm, workers=workers, kind=kind,
                         timeout_s=execution.item_timeout_s,
                         retries=execution.item_retries)


def run_simulation(algorithm, config: SimulationConfig,
                   executor: Executor | None = None) -> History:
    """Drive ``algorithm`` for ``config.num_rounds`` rounds.

    All client training flows through an
    :class:`~repro.fl.executor.Executor` (built from ``config.workers``/
    ``config.executor`` unless one is passed in); ingestion stays on the
    coordinator in dispatch order, so the History is byte-identical for
    any worker count.
    """
    global RUN_COUNT
    RUN_COUNT += 1
    execution = (_BARE_EXECUTION if config.execution is None
                 else config.execution)
    availability = execution.build_availability(algorithm.num_clients,
                                                sim_seed=config.seed)
    strict = resolve_strict(execution.strict, config.strict)
    owns_executor = executor is None
    if executor is None:
        executor = _simulation_executor(algorithm, config, execution)
    try:
        # Policy construction happens inside the guard: if it raises, the
        # just-created thread/process pool must still be shut down rather
        # than leak workers.
        policy = make_policy(config, execution, availability,
                             executor=executor)
        with rng_tripwire("run_simulation") if strict else nullcontext():
            return policy.run(algorithm)
    finally:
        if owns_executor:
            executor.close()
