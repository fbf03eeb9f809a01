"""Deterministic per-client seeding for parallel execution.

A client's local round must be a pure function of ``(run_seed, round,
client_id)`` — not of *when* it executes relative to its peers — or results
change with the worker count.  Drawing every client's batch order, Fjord
width sample and public-set picks from one shared ``np.random.Generator``
would make round results depend on dispatch order, so every client draw
comes from derived streams instead:

* :func:`client_rng` seeds a fresh generator from the
  ``(run_seed, round, client_id)`` triple (via ``numpy``'s
  :class:`~numpy.random.SeedSequence`, so nearby triples still give
  statistically independent streams);
* :func:`reseed_dropout` re-derives every dropout layer's mask stream from
  the same triple at the start of each local round, so dropout masks are
  identical whether the model was freshly built in a process-pool worker or
  has lived on the coordinator for fifty rounds.

The coordinator-side RNG (client sampling, buffered dispatch choice, Fed-ET
server distillation) keeps its own single stream seeded by the run seed —
it never runs inside a worker, so it stays deterministic for any worker
count.
"""

from __future__ import annotations

import numpy as np

from .. import nn

__all__ = ["client_seed_key", "client_rng", "fault_rng", "reseed_dropout"]

#: Salt appended to the seed tuple for fault-injection draws, so a fault
#: schedule never consumes from — or collides with — the client's training
#: stream for the same ``(run_seed, round, client_id)`` cell.
FAULT_STREAM_SALT = 0x5FA17


def client_seed_key(run_seed: int, version: int, client_id: int,
                    dispatch: int = 0) -> tuple[int, ...]:
    """The canonical entropy key for one client's local round.

    ``dispatch`` counts repeat dispatches of the *same client at the same
    server version* (only the buffered policy produces them, when a fast
    client uploads and is re-dispatched before the version advances);
    folding it in keeps the repeat training a fresh draw instead of a
    bit-identical replay of the first.  The first dispatch keeps the plain
    ``(run_seed, round, client_id)`` triple, so synchronous rounds — which
    never re-dispatch within a round — are unaffected.
    """
    if dispatch:
        return (int(run_seed), int(version), int(client_id), int(dispatch))
    return (int(run_seed), int(version), int(client_id))


def client_rng(run_seed: int, version: int, client_id: int,
               dispatch: int = 0) -> np.random.Generator:
    """A generator owned by one ``(run_seed, round, client_id)`` cell.

    Every random choice of the client's local round — minibatch order,
    Fjord's ordered-dropout width draw, Fed-ET's public-set picks and (via
    :func:`reseed_dropout`) dropout masks — comes from this stream, which
    is what makes a :class:`~repro.fl.executor.ClientWorkItem` pure.
    """
    return np.random.default_rng(
        client_seed_key(run_seed, version, client_id, dispatch))


def fault_rng(run_seed: int, version: int, client_id: int,
              dispatch: int = 0) -> np.random.Generator:
    """The fault-injection stream for one dispatch of one client.

    Keyed on the same ``(run_seed, round, client_id[, dispatch])`` cell as
    :func:`client_rng` but salted (:data:`FAULT_STREAM_SALT`), so whether a
    fault model is consulted never perturbs training randomness — the
    zero-fault run stays bit-identical — and the fault schedule itself is a
    pure function of the cell, independent of executors and worker counts.
    """
    return np.random.default_rng(
        (*client_seed_key(run_seed, version, client_id, dispatch),
         FAULT_STREAM_SALT))


def reseed_dropout(model: nn.Module, rng: np.random.Generator) -> None:
    """Re-derive every dropout layer's mask stream from ``rng``.

    Draws one seed per :class:`~repro.nn.Dropout` layer in deterministic
    module-tree order.  Called at the start of every local round so dropout
    state never leaks across rounds, clients or processes; models without
    dropout layers consume nothing from ``rng`` (the draw happens per
    layer), keeping their streams unchanged.
    """
    for _, module in model.named_modules():
        if isinstance(module, nn.Dropout):
            module.reseed(int(rng.integers(0, 2 ** 31 - 1)))
