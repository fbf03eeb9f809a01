"""Client availability models for the event-driven FL runtime.

Edge devices are not always reachable: phones charge at night, leave Wi-Fi,
or kill background training mid-round.  Each model here answers, from a
seeded per-client trace, the three questions the scheduler asks:

* is client ``c`` online at simulated time ``t``?
* if online, until when (so a dispatch can be pre-empted by churn)?
* if offline, when does it come back?

plus an orthogonal *mid-round dropout* hook (``drops_round``) for devices
that accept a dispatch and then silently die before uploading.

All traces are deterministic functions of ``(seed, client_id)`` — never of
query order — so the same fleet behaves identically under any aggregation
policy, which keeps sync-vs-async comparisons apples-to-apples.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

__all__ = ["AvailabilityModel", "AlwaysOn", "DiurnalSine", "MarkovChurn",
           "RandomDropout", "AVAILABILITY_MODELS", "make_availability"]


class AvailabilityModel:
    """Interface the event scheduler consults. Default: always online."""

    name = "base"

    def __init__(self, num_clients: int, seed: int = 0):
        self.num_clients = int(num_clients)
        self.seed = int(seed)

    # -- online intervals ----------------------------------------------
    def is_online(self, client_id: int, t: float) -> bool:
        return True

    def online_until(self, client_id: int, t: float) -> float:
        """End of the online interval containing ``t`` (``inf`` when the
        client never goes offline; ``t`` itself when offline at ``t``)."""
        return math.inf

    def next_online(self, client_id: int, t: float) -> float:
        """Earliest time >= ``t`` at which the client is online."""
        return t

    # -- mid-round dropout ---------------------------------------------
    def drops_round(self, client_id: int, dispatch_index: int) -> bool:
        """Whether this dispatch dies before uploading (device killed the
        training job).  ``dispatch_index`` is the client's *own* k-th
        accepted dispatch, so the decision is deterministic in
        (seed, client, k) regardless of the aggregation policy."""
        return False


class AlwaysOn(AvailabilityModel):
    """The idealized fleet: every client is always online and always
    finishes (the fleet of every ``execution=None`` run)."""

    name = "always_on"


class DiurnalSine(AvailabilityModel):
    """Diurnal availability: each client follows a sine-thresholded
    day/night cycle with a seeded phase (time zone / habit offset) and a
    seeded duty cycle (fraction of the day it is reachable)."""

    name = "diurnal"

    def __init__(self, num_clients: int, seed: int = 0,
                 period_s: float = 86400.0, duty: float = 0.6,
                 duty_jitter: float = 0.2):
        super().__init__(num_clients, seed)
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        rng = np.random.default_rng(seed)
        self.period_s = float(period_s)
        self.phase = rng.uniform(0.0, 1.0, num_clients)
        self.duty = np.clip(
            duty + rng.uniform(-duty_jitter, duty_jitter, num_clients),
            0.05, 1.0)

    def _offset(self, client_id: int, t: float) -> float:
        """Phase distance into the client's online window, in [0, 1).

        The client is online while ``sin(2*pi*(t/period + phase))`` exceeds
        the threshold that makes the above-threshold fraction equal its duty
        cycle — i.e. during a window of width ``duty`` centred on the sine
        peak (phase 0.25).  Values below ``duty`` mean "inside the window".
        """
        duty = float(self.duty[client_id])
        u = (t / self.period_s + float(self.phase[client_id])) % 1.0
        window_start = 0.25 - duty / 2.0
        return (u - window_start) % 1.0

    def is_online(self, client_id: int, t: float) -> bool:
        return self._offset(client_id, t) < float(self.duty[client_id])

    def online_until(self, client_id: int, t: float) -> float:
        duty = float(self.duty[client_id])
        offset = self._offset(client_id, t)
        if offset >= duty:
            return t
        if duty >= 1.0:
            return math.inf
        return t + (duty - offset) * self.period_s

    def next_online(self, client_id: int, t: float) -> float:
        offset = self._offset(client_id, t)
        if offset < float(self.duty[client_id]):
            return t
        comeback = t + (1.0 - offset) * self.period_s
        # The float mod in _offset can land the wrap at 0.999... instead of
        # 0, leaving ``comeback`` an ulp short of the window; nudge inside
        # (the window is >= 0.05 periods wide, so the bump stays well in).
        while not self.is_online(client_id, comeback):
            comeback += 1e-9 * self.period_s
        return comeback


class MarkovChurn(AvailabilityModel):
    """Two-state Markov on/off churn: alternating exponentially-distributed
    online and offline sojourns, drawn lazily per client from a seeded
    stream and cached, so queries at any time are O(log n) bisects."""

    name = "markov"

    def __init__(self, num_clients: int, seed: int = 0,
                 mean_on_s: float = 1800.0, mean_off_s: float = 600.0):
        super().__init__(num_clients, seed)
        if mean_on_s <= 0 or mean_off_s <= 0:
            raise ValueError("mean sojourn times must be positive")
        self.mean_on_s = float(mean_on_s)
        self.mean_off_s = float(mean_off_s)
        self._rngs: dict[int, np.random.Generator] = {}
        #: per client: (starts_online, switch timestamps ascending from 0).
        self._traces: dict[int, tuple[bool, list[float]]] = {}

    def _trace(self, client_id: int, until: float
               ) -> tuple[bool, list[float]]:
        rng = self._rngs.get(client_id)
        if rng is None:
            rng = np.random.default_rng((self.seed, int(client_id)))
            self._rngs[client_id] = rng
            # Start in steady state: online with probability on/(on+off).
            p_on = self.mean_on_s / (self.mean_on_s + self.mean_off_s)
            self._traces[client_id] = (bool(rng.random() < p_on), [0.0])
        starts_online, switches = self._traces[client_id]
        while switches[-1] <= until:
            online_now = starts_online == (len(switches) % 2 == 1)
            mean = self.mean_on_s if online_now else self.mean_off_s
            switches.append(switches[-1] + float(rng.exponential(mean)))
        return starts_online, switches

    def _segment(self, client_id: int, t: float) -> tuple[bool, int]:
        """(online?, index of the switch ending the segment holding t)."""
        starts_online, switches = self._trace(client_id, t)
        # switches[i] <= t < switches[i+1] after extension above.
        i = bisect.bisect_right(switches, t) - 1
        online = starts_online == (i % 2 == 0)
        return online, i + 1

    def is_online(self, client_id: int, t: float) -> bool:
        return self._segment(client_id, t)[0]

    def online_until(self, client_id: int, t: float) -> float:
        online, end_idx = self._segment(client_id, t)
        if not online:
            return t
        return self._trace(client_id, t)[1][end_idx]

    def next_online(self, client_id: int, t: float) -> float:
        online, end_idx = self._segment(client_id, t)
        if online:
            return t
        return self._trace(client_id, t)[1][end_idx]


class RandomDropout(AvailabilityModel):
    """Always reachable, but each accepted dispatch independently dies
    before uploading with probability ``prob`` (seeded, replayable)."""

    name = "dropout"

    def __init__(self, num_clients: int, seed: int = 0, prob: float = 0.1):
        super().__init__(num_clients, seed)
        if not 0.0 <= prob <= 1.0:
            raise ValueError("prob must be in [0, 1]")
        self.prob = float(prob)

    def drops_round(self, client_id: int, dispatch_index: int) -> bool:
        if self.prob <= 0.0:
            return False
        draw = np.random.default_rng(
            (self.seed, int(client_id), int(dispatch_index))).random()
        return bool(draw < self.prob)


AVAILABILITY_MODELS: dict[str, type[AvailabilityModel]] = {
    AlwaysOn.name: AlwaysOn,
    DiurnalSine.name: DiurnalSine,
    MarkovChurn.name: MarkovChurn,
    RandomDropout.name: RandomDropout,
}


def make_availability(name: str, num_clients: int, seed: int = 0,
                      **kwargs) -> AvailabilityModel:
    """Instantiate a registered availability model by name."""
    try:
        cls = AVAILABILITY_MODELS[name]
    except KeyError:
        raise ValueError(f"unknown availability model {name!r}; "
                         f"known: {sorted(AVAILABILITY_MODELS)}") from None
    return cls(num_clients, seed=seed, **kwargs)
