"""The one round loop: byte-level goldens and invariants over its configs.

Every ``run_simulation`` call goes through an aggregation policy, and both
policies decide each dispatched client's fate through one helper
(:meth:`repro.fl.aggregation.AggregationPolicy.client_fate`).  The goldens
pin ``History.to_json()`` byte for byte for every algorithm, bare and
faulted; the property test sweeps execution configs and checks the
accounting every round must satisfy.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import ALGORITHMS
from repro.constraints import ConstraintSpec, build_scenario
from repro.data import load_dataset
from repro.experiments import RunSpec, execute_spec
from repro.fl import (ExecutionConfig, LocalTrainConfig, SimulationConfig,
                      run_simulation)
from repro.models import build_model

SMOKE = ConstraintSpec(constraints=("computation",))

#: a synchronous round under stress: a deadline between the fleet's
#: straggler-free round times (~5.00-5.04 s) and its slowed stragglers,
#: over-selection, a quorum that is met in some rounds and skips others,
#: and every fault kind.
FAULTED_SYNC = ExecutionConfig(
    deadline_s=5.02, over_select=0.5, quorum=0.6,
    faults={"crash_prob": 0.15, "straggler_prob": 0.3, "corrupt_prob": 0.15})

#: sha256 of ``History.to_json()`` for harbox smoke, computation case,
#: seed 0.  These move only if the training math, the seeding scheme or
#: the round semantics change.
GOLDEN_SHA256 = {
    ("depthfl", "bare"):
        "f1e1b4f03596564596a551f1052eb43f3e1d005209a6f0a501f96a54b62eac39",
    ("depthfl", "faulted"):
        "bee2d1dc1b46d2758fa7a9bfa1b97c6cef04836453fbbe03a2ade04d0bbf474a",
    ("fedavg_smallest", "bare"):
        "616710a3c5ae19aae22f29285e5de3599fbe95865cf11c55cdfe4ca35ae360b1",
    ("fedavg_smallest", "faulted"):
        "77337d6d785149e360f84d2ac566ec1c044b7918b0a6ffb63deb30b8d711c5f8",
    ("fedepth", "bare"):
        "dfaa2949a2878ac23b91a66983c23992d33474a9c4a3d45da1d8dccc440d5d99",
    ("fedepth", "faulted"):
        "d4342ee831e31a4168dedcb7140f6e12c5df8a4d180970a8ddc4ddd62659d7ff",
    ("fedet", "bare"):
        "b0b85fa45a648d0eb028e3d12903a46d11906194250ac82e32c10b2517430487",
    ("fedet", "faulted"):
        "9ac1dd1b6a92fa0832d9848da4643f0aca932d3011f7b7b5d77fb61d3e0c54c7",
    ("fedproto", "bare"):
        "7400e5df650c9beecaffdc8d1df2c490583fa01a3ba6f5f8133458d5da7a8208",
    ("fedproto", "faulted"):
        "58b7f2786c125f333aa4ccf49dbc86c1e9808fd00a46b02cd6e03b5bad670e45",
    ("fedrolex", "bare"):
        "04c33912f1aa3dfdf74f8398f28e69630a20f2c1243161515f109bab67e08e18",
    ("fedrolex", "faulted"):
        "8659b1579cc40c5a02b3572ed5ef3de35965f295b21ecc781b17baa2267661a7",
    ("fjord", "bare"):
        "dfcdb0a42de349a8acfcbc4e412a5bb34bd9ec8e893cca977da7fd0446134954",
    ("fjord", "faulted"):
        "297894dd2832824dd8cc2ec332a70c9a51281df7b35e69742cedff4c12120268",
    ("inclusivefl", "bare"):
        "dfa81279b677d0cd856bde95d1e0988e61a4d291041908a9461a07b96978b222",
    ("inclusivefl", "faulted"):
        "2eebe3e11771e8db816591777b95e352c415f770d8cf72c91858a29cf55e0039",
    ("sheterofl", "bare"):
        "1568d70a2493012795a7e8b229385db79bfea1afa043fba8cf260a0b57c68fff",
    ("sheterofl", "faulted"):
        "e9e99080737029ba410ed15567dfc480006e489e45ee4294b962fef5a4a17a36",
}


def history_sha256(algorithm: str, execution) -> str:
    spec = RunSpec(algorithm=algorithm, dataset="harbox", constraints=SMOKE,
                   scale="smoke", execution=execution)
    history = execute_spec(spec, cache=None).history
    return hashlib.sha256(history.to_json().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("mode", ["bare", "faulted"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_history_bytes_match_golden(algorithm, mode):
    execution = None if mode == "bare" else FAULTED_SYNC
    assert history_sha256(algorithm, execution) \
        == GOLDEN_SHA256[(algorithm, mode)]


def tiny_algorithm(name: str):
    ds = load_dataset("harbox", seed=0, num_users=10, samples_per_user=10,
                      test_size=60)
    model = build_model("har_cnn", num_classes=ds.num_classes, seed=0,
                        **ALGORITHMS[name].base_model_overrides)
    config = LocalTrainConfig(batch_size=8, local_epochs=1, max_batches=1)
    return build_scenario(name, model, ds, 10, SMOKE, train_config=config,
                          seed=0, eval_max_samples=60).algorithm


AVAILABILITY = st.sampled_from([
    ("always_on", {}),
    ("dropout", {"prob": 0.3}),
    ("markov", {"mean_on_s": 30.0, "mean_off_s": 10.0}),
    ("diurnal", {"period_s": 60.0, "duty": 0.6}),
])

FAULTS = st.one_of(st.none(), st.fixed_dictionaries({
    "crash_prob": st.sampled_from([0.0, 0.2]),
    "straggler_prob": st.sampled_from([0.0, 0.4]),
    "corrupt_prob": st.sampled_from([0.0, 0.2]),
}))


@st.composite
def scenarios(draw):
    """(algorithm name, ExecutionConfig kwargs, deadline fleet quantile)."""
    algorithm = draw(st.sampled_from(["sheterofl", "fedrolex", "fedproto"]))
    availability, availability_kwargs = draw(AVAILABILITY)
    kwargs = {"availability": availability,
              "availability_kwargs": availability_kwargs,
              "faults": draw(FAULTS)}
    quantile = None
    if draw(st.sampled_from(["sync", "buffered"])) == "buffered":
        kwargs.update(policy="buffered",
                      buffer_size=draw(st.integers(1, 3)))
    else:
        quantile = draw(st.one_of(st.none(), st.sampled_from([0.3, 0.7])))
        kwargs.update(over_select=draw(st.sampled_from([0.0, 0.5])),
                      quorum=draw(st.sampled_from([None, 0.5, 1.0])))
    return algorithm, kwargs, quantile


@given(scenario=scenarios())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_every_dispatch_is_accounted_for(scenario):
    name, kwargs, quantile = scenario
    kwargs = dict(kwargs)
    algorithm = tiny_algorithm(name)
    if quantile is not None:
        kwargs["deadline_s"] = algorithm.fleet_round_time_quantile(quantile)
    execution = ExecutionConfig(**kwargs)
    history = run_simulation(algorithm, SimulationConfig(
        num_rounds=3, sample_ratio=0.3, eval_every=2, seed=3,
        execution=execution))

    times = [record.sim_time_s for record in history.records]
    assert all(math.isfinite(t) for t in times)
    assert all(b >= a for a, b in zip(times, times[1:]))
    if execution.policy != "sync":
        return
    for record in history.records:
        extras = record.extras
        dropped = sum(value for key, value in extras.items()
                      if key.startswith("dropped_"))
        # A skipped round (quorum unmet after the extension) discards the
        # updates that did arrive without a drop reason.
        if extras.get("quorum_met") is False:
            assert extras["received"] == 0
            continue
        assert extras["dispatched"] == extras["received"] + dropped
