"""Shared test helpers."""

import pytest

from repro.fl.seeding import client_rng


def sync_round(algorithm, round_index, sampled_ids, rng, run_seed=0):
    """One synchronous round by hand: train ``sampled_ids`` in dispatch
    order with their derived ``(run_seed, round, client)`` streams, absorb
    each client's persistent state the way the executors hand it back,
    then aggregate with the coordinator ``rng``."""
    updates = []
    for client_id in sampled_ids:
        updates.append(algorithm.run_client(
            client_id, round_index,
            client_rng(run_seed, round_index, client_id)))
        algorithm.apply_client_state(client_id,
                                     algorithm.pack_client_state(client_id))
    return algorithm.ingest(updates, round_index, rng)


@pytest.fixture(name="sync_round")
def sync_round_fixture():
    return sync_round
