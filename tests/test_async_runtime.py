"""Tests for the event-driven FL runtime behind every ``run_simulation``.

Covers the equivalence contract (``ExecutionConfig()`` — always-on fleet,
sync policy, no deadline — reproduces an ``execution=None`` run's records
bit-for-bit, adding only timelines and dispatch counters), buffered
staleness accounting, deadline/dropout/churn handling, the availability
models, and the async_compare experiment end-to-end.
"""

import math

import numpy as np
import pytest

from repro.constraints import ConstraintSpec, build_scenario
from repro.data import load_dataset
from repro.fl import (BufferedPolicy, Event, EventQueue, ExecutionConfig,
                      LocalTrainConfig, SimulationConfig, SynchronousPolicy,
                      make_availability, run_simulation)
from repro.fl.events import (CLIENT_DROPPED, DOWNLOAD_START, SERVER_AGGREGATE,
                             UPLOAD_COMPLETE)
from repro.models import build_model


def tiny_scenario(algorithm="sheterofl", seed=0, num_clients=10):
    ds = load_dataset("harbox", seed=0, num_users=10, samples_per_user=10,
                      test_size=60)
    model = build_model("har_cnn", num_classes=ds.num_classes, seed=0)
    spec = ConstraintSpec(constraints=("computation",))
    config = LocalTrainConfig(batch_size=8, local_epochs=1, max_batches=1)
    return build_scenario(algorithm, model, ds, num_clients, spec,
                          train_config=config, seed=seed,
                          eval_max_samples=60)


SIM = dict(num_rounds=4, sample_ratio=0.3, eval_every=2, seed=3)


class TestEventQueue:
    def test_orders_by_time_then_insertion(self):
        q = EventQueue()
        q.push(Event(2.0, UPLOAD_COMPLETE, 1))
        q.push(Event(1.0, DOWNLOAD_START, 2))
        q.push(Event(1.0, CLIENT_DROPPED, 3))
        assert q.peek_time() == 1.0
        popped = [q.pop() for _ in range(3)]
        assert [e.client_id for e in popped] == [2, 3, 1]
        assert not q
        with pytest.raises(IndexError):
            q.pop()

    def test_rejects_unknown_event_type(self):
        with pytest.raises(ValueError):
            Event(0.0, "teleport", 1)

    def test_timeline_entry_drops_payloads(self):
        event = Event(1.5, UPLOAD_COMPLETE, 4,
                      info={"staleness": 2, "update": object()})
        entry = event.timeline_entry()
        assert entry == {"t": 1.5, "type": UPLOAD_COMPLETE, "client": 4,
                         "staleness": 2}


class TestLegacyEquivalence:
    """ExecutionConfig() defaults must reproduce an ``execution=None`` run
    exactly."""

    @pytest.mark.parametrize("algorithm",
                             ["sheterofl", "fedrolex", "fedproto", "fedet"])
    def test_history_matches_legacy(self, algorithm):
        legacy = run_simulation(tiny_scenario(algorithm).algorithm,
                                SimulationConfig(**SIM))
        event = run_simulation(
            tiny_scenario(algorithm).algorithm,
            SimulationConfig(**SIM, execution=ExecutionConfig()))

        assert len(legacy.records) == len(event.records)
        for a, b in zip(legacy.records, event.records):
            assert a.round_index == b.round_index
            assert a.sim_time_s == b.sim_time_s
            assert a.round_time_s == b.round_time_s
            assert a.train_loss == b.train_loss
            assert a.global_accuracy == b.global_accuracy
        assert legacy.final_device_accuracies == event.final_device_accuracies

    def test_bare_run_records_no_counters_or_timelines(self):
        history = run_simulation(tiny_scenario().algorithm,
                                 SimulationConfig(**SIM))
        for record in history.records:
            assert record.events == []
            assert not {"dispatched", "received"} & set(record.extras)
        assert history.dropped_counts() == {}

    def test_event_run_records_timeline(self):
        history = run_simulation(
            tiny_scenario().algorithm,
            SimulationConfig(**SIM, execution=ExecutionConfig()))
        record = history.records[0]
        types = [e["type"] for e in record.events]
        assert types.count(DOWNLOAD_START) == record.extras["dispatched"]
        assert types.count(UPLOAD_COMPLETE) == record.extras["received"]
        assert SERVER_AGGREGATE in types
        # Events are clock-ordered up to the closing server-side entries.
        upload_times = [e["t"] for e in record.events
                        if e["type"] == UPLOAD_COMPLETE]
        assert upload_times == sorted(upload_times)

    def test_record_events_off(self):
        history = run_simulation(
            tiny_scenario().algorithm,
            SimulationConfig(**SIM,
                             execution=ExecutionConfig(record_events=False)))
        assert all(r.events == [] for r in history.records)


class TestSynchronousDeadline:
    def test_deadline_drops_stragglers_and_caps_round_time(self):
        scenario = tiny_scenario()
        algo = scenario.algorithm
        deadline = algo.fleet_round_time_quantile(0.5)  # slower half drops
        config = SimulationConfig(
            num_rounds=4, sample_ratio=0.5, eval_every=2, seed=3,
            execution=ExecutionConfig(deadline_s=deadline))
        history = run_simulation(algo, config)
        dropped = history.dropped_counts()
        assert dropped.get("deadline", 0) > 0
        for record in history.records:
            assert record.round_time_s <= deadline \
                + config.server_overhead_s + 1e-9
            late = record.extras.get("dropped_deadline", 0)
            assert record.extras["received"] + late \
                == record.extras["dispatched"]

    def test_over_selection_dispatches_extra_clients(self):
        config = SimulationConfig(
            num_rounds=2, sample_ratio=0.3, eval_every=2, seed=3,
            execution=ExecutionConfig(over_select=0.5))
        history = run_simulation(tiny_scenario().algorithm, config)
        # target 3 clients + ceil(3 * 0.5) = 5 dispatched per round.
        assert all(r.extras["dispatched"] == 5 for r in history.records)

    def test_dropout_availability_loses_updates(self):
        config = SimulationConfig(
            num_rounds=3, sample_ratio=0.5, eval_every=2, seed=3,
            execution=ExecutionConfig(availability="dropout",
                                      availability_kwargs={"prob": 0.5}))
        history = run_simulation(tiny_scenario().algorithm, config)
        assert history.dropped_counts().get("dropout", 0) > 0
        for record in history.records:
            assert record.extras["received"] \
                + record.extras.get("dropped_dropout", 0) \
                == record.extras["dispatched"]


class TestBufferedAggregation:
    def test_staleness_accounting(self):
        config = SimulationConfig(
            num_rounds=5, sample_ratio=0.3, eval_every=2, seed=3,
            execution=ExecutionConfig(policy="buffered", buffer_size=1,
                                      max_concurrency=3,
                                      staleness_exponent=0.5))
        history = run_simulation(tiny_scenario().algorithm, config)
        assert len(history.records) == 5
        assert sum(r.extras["received"] for r in history.records) == 5
        # With three clients in flight and aggregation on every arrival,
        # updates dispatched before the first aggregation arrive stale.
        assert history.stale_update_count() > 0
        for record in history.records:
            # buffer_size=1: the round's mean staleness/discount are the
            # single update's, so the FedBuff discount law is checkable.
            expected = (1.0 + record.extras["mean_staleness"]) ** -0.5
            assert abs(record.extras["mean_discount"] - expected) < 1e-12
            uploads = [e for e in record.events
                       if e["type"] == UPLOAD_COMPLETE]
            for upload in uploads:
                assert upload["discount"] == pytest.approx(
                    (1.0 + upload["staleness"]) ** -0.5)

    def test_versions_and_clock_advance(self):
        config = SimulationConfig(
            num_rounds=4, sample_ratio=0.3, eval_every=2, seed=3,
            execution=ExecutionConfig(policy="buffered", buffer_size=2))
        history = run_simulation(tiny_scenario().algorithm, config)
        assert [r.round_index for r in history.records] == [0, 1, 2, 3]
        times = [r.sim_time_s for r in history.records]
        assert all(b >= a for a, b in zip(times, times[1:]))
        assert history.records[-1].global_accuracy is not None

    def test_buffered_stops_at_accuracy(self):
        config = SimulationConfig(
            num_rounds=6, sample_ratio=0.3, eval_every=1, seed=3,
            stop_at_accuracy=0.0,
            execution=ExecutionConfig(policy="buffered", buffer_size=2))
        history = run_simulation(tiny_scenario().algorithm, config)
        assert len(history.records) == 1

    def test_dropout_fleet_still_progresses(self):
        config = SimulationConfig(
            num_rounds=3, sample_ratio=0.3, eval_every=1, seed=3,
            execution=ExecutionConfig(policy="buffered", buffer_size=2,
                                      availability="dropout",
                                      availability_kwargs={"prob": 0.6}))
        history = run_simulation(tiny_scenario().algorithm, config)
        assert len(history.records) == 3
        assert history.dropped_counts().get("dropout", 0) > 0


class TestAvailabilityModels:
    def test_always_on(self):
        model = make_availability("always_on", 4)
        assert model.is_online(0, 1e9)
        assert model.online_until(0, 0.0) == math.inf
        assert not model.drops_round(0, 0)

    def test_diurnal_intervals_consistent(self):
        model = make_availability("diurnal", 8, seed=1, period_s=1000.0,
                                  duty=0.4)
        for cid in range(8):
            start = model.next_online(cid, 0.0)
            assert model.is_online(cid, start)
            end = model.online_until(cid, start)
            assert end > start
            assert not model.is_online(cid, end + 1e-6)
            # Periodicity: one full period later the client is online again
            # (probe mid-window to stay clear of boundary rounding).
            assert model.is_online(cid, (start + end) / 2.0 + 1000.0)

    def test_diurnal_full_duty_always_online(self):
        model = make_availability("diurnal", 2, seed=0, period_s=100.0,
                                  duty=1.0, duty_jitter=0.0)
        for t in (0.0, 37.0, 99.9):
            assert model.is_online(0, t)
        assert model.online_until(0, 0.0) == math.inf

    def test_markov_alternates_and_is_deterministic(self):
        a = make_availability("markov", 4, seed=2, mean_on_s=50.0,
                              mean_off_s=25.0)
        b = make_availability("markov", 4, seed=2, mean_on_s=50.0,
                              mean_off_s=25.0)
        probe_times = np.linspace(0.0, 2000.0, 64)
        for cid in range(4):
            states_a = [a.is_online(cid, t) for t in probe_times]
            # Query b in reverse order: traces must not depend on order.
            states_b = [b.is_online(cid, t) for t in reversed(probe_times)]
            assert states_a == list(reversed(states_b))
            assert any(states_a) and not all(states_a)
            if a.is_online(cid, 0.0):
                end = a.online_until(cid, 0.0)
                assert not a.is_online(cid, end + 1e-9)
            else:
                back = a.next_online(cid, 0.0)
                assert a.is_online(cid, back + 1e-9)

    def test_dropout_deterministic_per_dispatch(self):
        model = make_availability("dropout", 16, seed=5, prob=0.5)
        draws = [model.drops_round(cid, k) for cid in range(16)
                 for k in range(8)]
        again = [model.drops_round(cid, k) for cid in range(16)
                 for k in range(8)]
        assert draws == again
        assert any(draws) and not all(draws)
        assert model.is_online(3, 123.0)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            make_availability("quantum", 4)


class TestExecutionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionConfig(policy="psychic")
        with pytest.raises(ValueError):
            ExecutionConfig(buffer_size=0)
        with pytest.raises(ValueError):
            ExecutionConfig(over_select=-0.1)

    def test_spec_execution_config_carries_availability(self):
        spec = ConstraintSpec(availability="dropout",
                              availability_kwargs={"prob": 0.2})
        execution = spec.execution_config(policy="buffered", buffer_size=3)
        assert execution.policy == "buffered"
        assert execution.availability == "dropout"
        assert execution.availability_kwargs == {"prob": 0.2}
        assert execution.buffer_size == 3
        assert "dropout" in spec.label

    def test_spec_rejects_unknown_availability(self):
        with pytest.raises(ValueError):
            ConstraintSpec(availability="sometimes")

    def test_execution_block_selects_policy(self):
        history = run_simulation(
            tiny_scenario().algorithm,
            SimulationConfig(**SIM, execution=ExecutionConfig(
                policy="buffered", buffer_size=2)))
        assert len(history.records) == SIM["num_rounds"]
        assert all("stale_updates" in r.extras for r in history.records)

    def test_policy_classes_registered(self):
        assert ExecutionConfig(policy="sync")
        assert SynchronousPolicy.name == "sync"
        assert BufferedPolicy.name == "buffered"


class TestAsyncCompareExperiment:
    def test_runs_end_to_end(self):
        from repro.experiments import async_compare
        rows = async_compare.run(scale="smoke", algorithms=["sheterofl"],
                                 cases=[("computation",)])
        assert len(rows) == len(async_compare.MODES)
        assert {r["mode"] for r in rows} == set(async_compare.MODES)
        for row in rows:
            assert row["constraints"] == "comp/dropout"
            assert 0.0 <= row["final_acc"] <= 1.0
            assert row["total_s"] > 0
        by_mode = {r["mode"]: r for r in rows}
        assert by_mode["buffered"]["stale"] >= 0
