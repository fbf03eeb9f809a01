"""Cached step plans: reuse per-step graph work across training steps.

Federated simulation has a structure classic autograd engines ignore: every
client trains the *same graph shapes* every round (same model variant, same
batch size), so per-step derived state — the seq-sorted topological order of
the backward tape and the scratch buffers behind im2col / col2im — is
recomputed and reallocated thousands of times for identical graphs.  A
:class:`StepPlan` captures that state once and replays it:

* **Topo-order schedules.**  While a plan step is active, every tape node is
  recorded in creation order.  The first ``backward()`` computes the normal
  topological order and stores it *structurally* — tape nodes by their
  creation index, grad leaves as ``(child index, parent slot)`` references —
  so the next step's isomorphic graph resolves the same order with a single
  list comprehension instead of a full traversal + sort.  A schedule is only
  replayed when the step's node count matches the recording exactly;
  any structural drift falls back to a fresh traversal (which re-records).

* **Workspace arenas.**  :func:`workspace` hands out shape-keyed scratch
  buffers that ops fully overwrite (the im2col gather target, the col2im
  accumulation buffer).  Buffers are recycled at ``begin()`` of the next
  step, never mid-step, so closures created during forward can keep using
  them through backward.  Because every buffer is fully written before it is
  read, reuse is *value-invisible*: planned and plan-free steps produce
  byte-identical results (pinned by ``tests/test_plan_cache.py``).

Plans live in a **per-thread** registry keyed by ``(model signature, batch
shape)``: the thread executor's workers and every process-pool worker each
own their plans, so no scratch state is ever shared across concurrently
training clients.  Plan caching is a pure wall-clock/allocation knob —
results, histories and spec content hashes are identical with it on or off
(``REPRO_PLAN_CACHE=0`` or :func:`set_plan_caching` disables it).
"""

from __future__ import annotations

import contextlib
import os
from collections import OrderedDict

import numpy as np

from .tensor import _PLAN_STATE

__all__ = ["StepPlan", "step", "workspace", "current_step", "model_plan_key",
           "set_plan_caching", "plan_caching_enabled", "clear_thread_plans",
           "thread_plans"]

#: soft cap on cached plans per thread (a sweep cycling over many model
#: variants keeps only the most recently used plans; each plan holds a few
#: conv-sized scratch buffers, so the cap bounds worker memory).
MAX_PLANS_PER_THREAD = 16

_ENABLED = os.environ.get("REPRO_PLAN_CACHE", "1") != "0"


def set_plan_caching(enabled: bool) -> None:
    """Globally enable/disable plan caching (hash-invisible, results
    byte-identical either way — this is a wall-clock/allocation knob)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def plan_caching_enabled() -> bool:
    return _ENABLED


class StepPlan:
    """Reusable per-step state for one ``(model slice, batch shape)`` cell."""

    __slots__ = ("key", "nodes", "steps", "schedule_hits",
                 "_token", "_schedules", "_arenas", "_cursors")

    def __init__(self, key):
        self.key = key
        #: tape nodes created during the active step, in creation order.
        self.nodes: list = []
        self.steps = 0
        self.schedule_hits = 0
        self._token: object | None = None
        #: root index -> (node_count_at_backward, structural order entries).
        self._schedules: dict[int, tuple[int, tuple]] = {}
        #: (shape, dtype str) -> recycled scratch buffers.
        self._arenas: dict[tuple, list[np.ndarray]] = {}
        self._cursors: dict[tuple, int] = {}

    # -- step lifecycle -------------------------------------------------
    def begin(self) -> None:
        self._token = object()
        self.nodes.clear()
        for key in self._cursors:
            self._cursors[key] = 0
        self.steps += 1

    def end(self) -> None:
        # Drop node references so finished graphs free immediately; stale
        # ``_plan_tag`` tokens on dead tensors can never match a new step.
        self._token = None
        self.nodes.clear()

    # -- tape recording (called from Tensor._make) ----------------------
    def record(self, node) -> None:
        node._plan_tag = (self._token, len(self.nodes))
        self.nodes.append(node)

    # -- topo-order schedules (called from Tensor._topo_order) ----------
    def cached_order(self, root) -> list | None:
        """Replay the stored schedule for ``root``'s structural position,
        or ``None`` when there is no trustworthy recording."""
        tag = root._plan_tag
        if tag is None or tag[0] is not self._token:
            return None
        sched = self._schedules.get(tag[1])
        if sched is None or sched[0] != len(self.nodes):
            return None
        nodes = self.nodes
        order = []
        try:
            for entry in sched[1]:
                if type(entry) is int:
                    tensor = nodes[entry]
                else:
                    tensor = nodes[entry[0]]._parents[entry[1]]
                    # A resolved reference must still be backward-relevant:
                    # a frozen leaf here means the recording came from a
                    # graph with a different trainable mask — replaying it
                    # would silently drop gradient contributions.
                    if tensor._backward is None and not tensor.requires_grad:
                        return None
                order.append(tensor)
        except IndexError:  # structural drift: recompute and re-record
            return None
        self.schedule_hits += 1
        return order

    def store_order(self, root, order) -> None:
        """Encode ``order`` structurally so the next isomorphic graph can
        resolve it without traversal.  Bails (caches nothing) if any node
        is neither step-recorded nor reachable as a recorded node's parent
        — e.g. a tensor shared from outside the step."""
        tag = root._plan_tag
        if tag is None or tag[0] is not self._token:
            return
        token = self._token
        parent_ref: dict[int, tuple[int, int]] = {}
        for tensor in order:
            ttag = tensor._plan_tag
            if ttag is not None and ttag[0] is token:
                for slot, parent in enumerate(tensor._parents):
                    parent_ref.setdefault(id(parent), (ttag[1], slot))
        entries = []
        for tensor in order:
            ttag = tensor._plan_tag
            if ttag is not None and ttag[0] is token:
                entries.append(ttag[1])
            else:
                ref = parent_ref.get(id(tensor))
                if ref is None:
                    return
                entries.append(ref)
        self._schedules[tag[1]] = (len(self.nodes), tuple(entries))

    # -- workspace arenas ------------------------------------------------
    def workspace(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A scratch buffer of ``shape``/``dtype``, recycled across steps.

        The caller must fully overwrite it before reading; buffers stay
        valid from acquisition until the *next* ``begin()``, so backward
        closures may hold them across the forward/backward boundary.
        """
        key = (shape, np.dtype(dtype).str)
        bufs = self._arenas.get(key)
        if bufs is None:
            bufs = self._arenas[key] = []
            self._cursors[key] = 0
        cursor = self._cursors[key]
        self._cursors[key] = cursor + 1
        if cursor < len(bufs):
            return bufs[cursor]
        buf = np.empty(shape, dtype=dtype)
        bufs.append(buf)
        return buf


# ----------------------------------------------------------------------
# Per-thread registry + module-level API
# ----------------------------------------------------------------------

def current_step() -> StepPlan | None:
    """The plan step active on this thread, if any."""
    return getattr(_PLAN_STATE, "step", None)


def thread_plans() -> "OrderedDict":
    """This thread's plan registry (visible for tests / introspection)."""
    plans = getattr(_PLAN_STATE, "plans", None)
    if plans is None:
        plans = OrderedDict()
        _PLAN_STATE.plans = plans
    return plans


def clear_thread_plans() -> None:
    """Drop every cached plan owned by the calling thread (releases the
    scratch arenas; the next planned step rebuilds from scratch)."""
    _PLAN_STATE.plans = OrderedDict()


def _plan_for(full_key) -> StepPlan:
    plans = thread_plans()
    plan = plans.get(full_key)
    if plan is None:
        while len(plans) >= MAX_PLANS_PER_THREAD:
            plans.popitem(last=False)
        plan = plans[full_key] = StepPlan(full_key)
    else:
        plans.move_to_end(full_key)
    return plan


def model_plan_key(model) -> tuple:
    """Structural identity of a model slice: class, every state-dict entry's
    name and shape, plus the trainable mask.  Two clients holding the same
    variant at the same width/depth with the same frozen layers produce
    equal keys and therefore share a plan.

    The trainable mask is part of the key because it is part of the *graph
    structure*: freezing a layer removes its parameters (and any frozen
    prefix) from the backward order, so e.g. FeDepth's sliding trainable
    segment yields a different tape per segment position even though the
    state dict never changes shape.  Keying on the mask keeps every
    schedule isomorphic to the graphs it replays on."""
    return (type(model).__qualname__,
            tuple(model.state_shapes().items()),
            tuple(name for name, p in model.named_parameters()
                  if p.requires_grad))


@contextlib.contextmanager
def step(key, batch_shape):
    """Run one training step under the plan for ``(key, batch_shape)``.

    No-op (plain execution) when plan caching is disabled or when a plan
    step is already active on this thread — nested graphs (distillation
    losses built inside a step) are recorded into the *outer* step, which
    is exactly where their backward runs.
    """
    if not _ENABLED or getattr(_PLAN_STATE, "step", None) is not None:
        yield None
        return
    plan = _plan_for((key, tuple(batch_shape)))
    plan.begin()
    _PLAN_STATE.step = plan
    try:
        yield plan
    finally:
        _PLAN_STATE.step = None
        plan.end()


def workspace(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A scratch buffer from the active plan, or a fresh allocation when no
    plan step is active.  Callers must fully overwrite it; both paths hand
    back writable memory of identical shape/dtype, so results are
    bit-identical with plans on or off."""
    plan = getattr(_PLAN_STATE, "step", None)
    if plan is None:
        return np.empty(shape, dtype=dtype)
    return plan.workspace(shape, dtype)
