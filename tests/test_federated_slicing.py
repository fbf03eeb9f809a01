"""Deeper aggregation-semantics tests at the federated level.

These pin the invariants the figures rely on: rolling windows eventually
cover every coordinate, BN running statistics travel with their slices,
weighted coordinate means behave like means, and partially-frozen uploads
never dilute other clients' updates.  Reused client-model skeletons and the
slice-view index path are pinned against fresh models and ``np.ix_``.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import load_dataset, partition_dataset
from repro.fl import (LocalTrainConfig, SimulationConfig, history_from_dict,
                      history_to_dict, run_simulation)
from repro.fl.seeding import client_rng
from repro.fl.serialization import decode_payload, encode_payload
from repro.fl.history import History, RoundRecord
from repro.hw import sample_fleet
from repro.models import (build_model, extract_substate, finalize_mean,
                          scatter_accumulate, width_index_maps,
                          zeros_like_state)
from repro.models.slicing import _as_ix
from repro.algorithms import ALGORITHMS, assign_levels_uniformly


@pytest.fixture(scope="module")
def task():
    ds = load_dataset("harbox", seed=0, num_users=12, samples_per_user=10,
                      test_size=60)
    fleet = sample_fleet(12, seed=1)
    shards = partition_dataset(ds, 12, seed=2)
    return ds, fleet, shards


def _algo(name, task, **kwargs):
    ds, fleet, shards = task
    cls = ALGORITHMS[name]
    base = build_model("har_cnn", num_classes=ds.num_classes, seed=0,
                       **cls.base_model_overrides)
    pool = cls.build_pool(base)
    clients = assign_levels_uniformly(pool, fleet, ds, shards)
    config = LocalTrainConfig(batch_size=8, max_batches=2)
    return cls(base, ds, clients, train_config=config, pool=pool, **kwargs)


class TestRollingCoverage:
    def test_fedrolex_touches_tail_coordinates(self, task, sync_round):
        """Coordinates beyond every prefix still get trained over rounds."""
        algo = _algo("fedrolex", task)
        rng = np.random.default_rng(0)
        name = "stages.3.0.conv.weight"
        before_tail = algo.global_state[name][-1].copy()
        # The x0.25 client's window must eventually reach the last channel.
        small_id = next(cid for cid, ctx in algo.clients.items()
                        if ctx.entry.overrides.get("width_mult") == 0.25)
        dim = algo.global_state[name].shape[0]
        for round_index in range(dim):
            sync_round(algo, round_index, [small_id], rng)
        assert not np.array_equal(algo.global_state[name][-1], before_tail)

    def test_sheterofl_never_touches_tail(self, task, sync_round):
        algo = _algo("sheterofl", task)
        rng = np.random.default_rng(0)
        name = "stages.3.0.conv.weight"
        before_tail = algo.global_state[name][-1].copy()
        small_id = next(cid for cid, ctx in algo.clients.items()
                        if ctx.entry.overrides.get("width_mult") == 0.25)
        for round_index in range(8):
            sync_round(algo, round_index, [small_id], rng)
        np.testing.assert_array_equal(algo.global_state[name][-1],
                                      before_tail)


class TestBatchNormBuffers:
    def test_running_stats_aggregate(self, task, sync_round):
        """BN running means travel with client slices into the global state."""
        algo = _algo("sheterofl", task)
        rng = np.random.default_rng(0)
        name = "stages.0.0.bn.running_mean"
        before = algo.global_state[name].copy()
        sync_round(algo, 0, list(algo.clients)[:4], rng)
        assert not np.array_equal(algo.global_state[name], before)


class TestWeightedMeanProperties:
    @given(weights=st.lists(st.floats(0.5, 20.0), min_size=2, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_weighted_mean_within_bounds(self, weights):
        """finalize_mean is a convex combination of the contributions."""
        shape = (4, 3)
        rng = np.random.default_rng(0)
        contributions = [rng.standard_normal(shape) for _ in weights]
        fallback = {"w": np.zeros(shape, np.float32)}
        sums = zeros_like_state(fallback)
        counts = zeros_like_state(fallback)
        maps = {"w": (None, None)}
        for weight, value in zip(weights, contributions):
            scatter_accumulate(sums, counts, {"w": value}, maps, weight)
        merged = finalize_mean(sums, counts, fallback)["w"]
        stacked = np.stack(contributions)
        assert np.all(merged >= stacked.min(axis=0) - 1e-5)
        assert np.all(merged <= stacked.max(axis=0) + 1e-5)

    def test_equal_weights_is_plain_mean(self):
        shape = (3,)
        values = [np.ones(shape) * i for i in range(1, 4)]
        fallback = {"w": np.zeros(shape, np.float32)}
        sums = zeros_like_state(fallback)
        counts = zeros_like_state(fallback)
        for value in values:
            scatter_accumulate(sums, counts, {"w": value}, {"w": (None,)}, 1.0)
        merged = finalize_mean(sums, counts, fallback)["w"]
        np.testing.assert_allclose(merged, 2.0)


class TestFeDepthIsolation:
    def test_frozen_stage_upload_does_not_dilute(self, task):
        """A FeDepth client's frozen stages never reach the accumulator."""
        algo = _algo("fedepth", task)
        rng = np.random.default_rng(0)
        ctx = next(ctx for ctx in algo.clients.values()
                   if ctx.entry.key == "seg1")
        model, maps = algo.build_client_model(ctx, round_index=0, rng=rng)
        keep = algo.upload_filter(model, ctx)
        frozen_params = {n for n, p in model.named_parameters()
                         if not p.requires_grad}
        assert not (keep & frozen_params)


class TestClientModelSkeletons:
    def test_frozen_client_does_not_leak_into_next(self, task):
        """After a FeDepth client trains a frozen segment, the next client
        of the same variant gets a fully trainable model, no stale grads,
        and the same upload a fresh algorithm would produce."""
        algo = _algo("fedepth", task)
        total = algo.base_model.total_stages
        frozen = next(cid for cid, ctx in algo.clients.items()
                      if ctx.entry.key == "seg1")
        full = next(cid for cid, ctx in algo.clients.items()
                    if ctx.entry.key == f"seg{total}")
        algo.run_client(frozen, 0, client_rng(0, 0, frozen))
        first, _ = algo.build_client_model(algo.clients[frozen], 0,
                                           np.random.default_rng(0))
        assert any(not p.requires_grad for p in first.parameters())
        for param in first.parameters():
            if param.requires_grad:
                param.grad = np.ones_like(param.data)
        first.eval()
        model, _ = algo.build_client_model(algo.clients[full], 0,
                                           np.random.default_rng(0))
        assert model is first
        assert model.training
        assert all(p.requires_grad and p.grad is None
                   for p in model.parameters())

        reused = algo.run_client(full, 0, client_rng(0, 0, full))
        fresh = _algo("fedepth", task).run_client(full, 0,
                                                  client_rng(0, 0, full))
        assert reused.train_loss == fresh.train_loss
        assert set(reused.payload[0]) == set(fresh.payload[0])
        for name, value in fresh.payload[0].items():
            assert reused.payload[0][name].tobytes() == value.tobytes()

    def test_threads_never_share_a_skeleton(self, task):
        """More threads than cores, switching often: each thread keeps
        getting its own skeleton, loaded with exactly its client's slice."""
        algo = _algo("sheterofl", task)
        ctx = next(iter(algo.clients.values()))
        expected, _ = algo.build_client_model(ctx, 0,
                                              np.random.default_rng(0))
        expected = expected.state_dict()
        workers = 4
        barrier = threading.Barrier(workers)

        def build(_):
            barrier.wait(timeout=30)
            first = None
            for _ in range(5):
                model, _ = algo.build_client_model(ctx, 0,
                                                   np.random.default_rng(0))
                if first is None:
                    first = model
                assert model is first
                state = model.state_dict()
                assert all(np.array_equal(state[k], v)
                           for k, v in expected.items())
                for param in model.parameters():
                    param.data += 1.0    # a shared skeleton would leak this
            return first

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(build, i) for i in range(workers)]
                models = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len({id(model) for model in models}) == workers

    def test_thread_executor_workers_own_their_skeletons(self, task):
        algo = _algo("sheterofl", task)
        owners: dict[int, set[int]] = {}
        real_skeleton = algo._skeleton

        def spy(overrides):
            entry = real_skeleton(overrides)
            owners.setdefault(id(entry[0]), set()).add(threading.get_ident())
            return entry

        algo._skeleton = spy
        config = dict(num_rounds=2, sample_ratio=0.5, eval_every=1, seed=3)
        threaded = run_simulation(algo, SimulationConfig(
            workers=2, executor="thread", **config))
        inline = run_simulation(_algo("sheterofl", task),
                                SimulationConfig(**config))
        assert owners
        assert all(len(threads) == 1 for threads in owners.values())
        assert threaded.to_json() == inline.to_json()


def _ix_extract(state, maps):
    """``extract_substate`` through an open mesh on every mapped axis."""
    return {name: state[name][np.ix_(*[
        np.arange(dim) if idx is None else idx
        for idx, dim in zip(per_axis, state[name].shape)])].copy()
        for name, per_axis in maps.items()}


def _ix_scatter(sums, counts, sub, maps, weight):
    """``scatter_accumulate`` through an open mesh on every mapped axis."""
    for name, per_axis in maps.items():
        ix = np.ix_(*[np.arange(dim) if idx is None else idx
                      for idx, dim in zip(per_axis, sums[name].shape)])
        sums[name][ix] += weight * sub[name]
        counts[name][ix] += weight


def _map_kind(kind, global_model, sub_model):
    mode, shift = {"prefix": ("prefix", 0), "rolling": ("rolling", 1),
                   "rolling_wrap": ("rolling", 7),
                   "codec": ("rolling", 1)}[kind]
    maps = width_index_maps(global_model.state_shapes(),
                            sub_model.state_shapes(),
                            global_model.state_scale_axes(),
                            mode=mode, shift=shift)
    if kind == "codec":
        maps = decode_payload(encode_payload(maps))
    return maps


class TestSliceViewIndexing:
    @pytest.mark.parametrize("kind",
                             ["prefix", "rolling", "rolling_wrap", "codec"])
    def test_matches_open_mesh(self, kind):
        global_model = build_model("har_cnn", num_classes=6, seed=0)
        sub_model = global_model.variant(width_mult=0.5)
        maps = _map_kind(kind, global_model, sub_model)
        state = global_model.state_dict()
        uses_slices = [all(isinstance(ix, slice) for ix in
                           _as_ix(per_axis, state[name].shape))
                       for name, per_axis in maps.items()
                       if any(idx is not None for idx in per_axis)]
        assert uses_slices
        assert all(uses_slices) == (kind != "rolling_wrap")

        got = extract_substate(state, maps)
        want = _ix_extract(state, maps)
        assert set(got) == set(want)
        for name, value in want.items():
            assert got[name].dtype == value.dtype
            assert got[name].tobytes() == value.tobytes()

        rng = np.random.default_rng(5)
        sums = {k: rng.standard_normal(v.shape) for k, v in state.items()}
        counts = {k: rng.uniform(0, 3, v.shape) for k, v in state.items()}
        ref_sums = {k: v.copy() for k, v in sums.items()}
        ref_counts = {k: v.copy() for k, v in counts.items()}
        sub = {k: rng.standard_normal(v.shape).astype(np.float32)
               for k, v in want.items()}
        for weight in (1.0, 0.37):
            scatter_accumulate(sums, counts, sub, maps, weight=weight)
            _ix_scatter(ref_sums, ref_counts, sub, maps, weight)
        for name in state:
            assert sums[name].tobytes() == ref_sums[name].tobytes()
            assert counts[name].tobytes() == ref_counts[name].tobytes()


class TestDeterminism:
    def test_same_seed_same_run(self, task):
        from repro.fl import SimulationConfig, run_simulation
        results = []
        for _ in range(2):
            algo = _algo("sheterofl", task)
            sim = SimulationConfig(num_rounds=3, sample_ratio=0.3,
                                   eval_every=1, seed=11)
            history = run_simulation(algo, sim)
            results.append([r.global_accuracy for r in history.evaluated])
        assert results[0] == results[1]


class TestHistorySerialization:
    def test_roundtrip(self):
        h = History(algorithm="a", dataset="d")
        h.append(RoundRecord(0, 1.5, 1.5, 0.9, global_accuracy=0.4,
                             extras={"note": 1}))
        h.append(RoundRecord(1, 3.0, 1.5, 0.7, global_accuracy=None))
        h.final_device_accuracies = [0.3, 0.5]
        clone = history_from_dict(history_to_dict(h))
        assert clone.algorithm == "a"
        assert clone.final_accuracy == 0.4
        assert clone.records[1].global_accuracy is None
        assert clone.final_device_accuracies == [0.3, 0.5]
        assert clone.records[0].extras == {"note": 1}

    def test_save_load(self, tmp_path):
        from repro.fl import load_history, save_history
        h = History(algorithm="x", dataset="y")
        h.append(RoundRecord(0, 1.0, 1.0, 0.5, global_accuracy=0.2))
        path = tmp_path / "run.json"
        save_history(h, path)
        assert load_history(path).final_accuracy == 0.2
