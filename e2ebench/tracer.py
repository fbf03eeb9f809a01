"""Span tracing of ``repro`` from outside the program.

:class:`Tracer` wraps public functions and methods of ``repro`` modules in
place and records one span (name, start, end, parent) per call on the
thread that installed it.  Spans stay in memory; :meth:`Tracer.write`
dumps them once at the end.  :meth:`Tracer.remove` restores every patched
attribute.

Calls made in other threads or in forked pool workers (which inherit the
patched functions) pass straight through: layer times inside process
workers are visible only through the ``ClientResult.timing`` values that
reach the History.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

#: (span name, module, attribute path) of every function or method the
#: traced run wraps.  Methods are wrapped on the class and on each
#: subclass that overrides them.
TARGETS = (
    ("experiments.execute_spec", "repro.experiments.runner", "execute_spec"),
    ("experiments.prepare_scenario", "repro.experiments.runner",
     "prepare_scenario"),
    ("data.load_dataset", "repro.data.registry", "load_dataset"),
    ("experiments.build_base_model", "repro.experiments.mapping",
     "build_base_model"),
    ("constraints.build_scenario", "repro.constraints.scenario",
     "build_scenario"),
    ("fl.simulation.run_simulation", "repro.fl.simulation", "run_simulation"),
    ("algorithms.pack_round_broadcast", "repro.algorithms.base",
     "MHFLAlgorithm.pack_round_broadcast"),
    ("algorithms.run_client", "repro.algorithms.base",
     "MHFLAlgorithm.run_client"),
    ("algorithms.build_client_model", "repro.algorithms.base",
     "MHFLAlgorithm.build_client_model"),
    ("fl.client.train_local", "repro.fl.client", "train_local"),
    ("autograd.backward", "repro.autograd.tensor", "Tensor.backward"),
    ("nn.optim_step", "repro.nn.optim", "Optimizer.step"),
    ("algorithms.ingest", "repro.algorithms.base", "MHFLAlgorithm.ingest"),
    ("models.slicing.scatter_accumulate", "repro.models.slicing",
     "scatter_accumulate"),
    ("algorithms.evaluate_global", "repro.algorithms.base",
     "MHFLAlgorithm.evaluate_global"),
    ("algorithms.per_device_accuracies", "repro.algorithms.base",
     "MHFLAlgorithm.per_device_accuracies"),
    ("fl.evaluate.accuracy", "repro.fl.evaluate", "accuracy"),
    ("experiments.cache.get", "repro.experiments.cache", "RunCache.get"),
    ("experiments.cache.put", "repro.experiments.cache", "RunCache.put"),
)

#: the spans an untraced run keeps: enough for ``setup_s`` and
#: ``client_updates_per_s``, two spans per cell.
TIMING_TARGETS = ("experiments.prepare_scenario",
                  "fl.simulation.run_simulation")


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Tracer:
    """Wraps ``repro`` callables in place and records their spans."""

    def __init__(self, names=None):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._stack: list[int] = []
        self._owner = (os.getpid(), threading.get_ident())
        self._patches: list[tuple[object, str, object]] = []
        importlib.import_module("repro.algorithms")   # load every subclass
        for name, module, path in TARGETS:
            if names is None or name in names:
                self._install(name, importlib.import_module(module), path)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if (os.getpid(), threading.get_ident()) != self._owner:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self, name: str, module, path: str) -> None:
        if "." in path:
            class_name, method = path.split(".")
            for cls in _subclasses(getattr(module, class_name)):
                if method in cls.__dict__:
                    self._patch(cls, method,
                                self._wrap(name, cls.__dict__[method]))
            return
        original = getattr(module, path)
        wrapped = self._wrap(name, original)
        # Rebind every ``from module import fn`` copy as well.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def remove(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._owner = None

    def take(self) -> list[list]:
        """The spans recorded since the last call, then forget them."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    @staticmethod
    def durations(spans, name: str) -> list[float]:
        return [end - start for n, start, end, _ in spans if n == name]

    @staticmethod
    def layer_times(spans) -> dict[str, dict]:
        """Per span name: summed ``self_s`` (duration minus the direct
        children's durations), summed ``total_s`` and ``calls``."""
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        layers: dict[str, dict] = {}
        for (name, start, end, _), inner in zip(spans, children):
            entry = layers.setdefault(
                name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            entry["self_s"] += (end - start) - inner
            entry["total_s"] += end - start
            entry["calls"] += 1
        return layers

    @staticmethod
    def write(path, cells: list[list[list]]) -> None:
        """Write every traced cell's spans as one JSON document."""
        payload = {"schema": "e2ebench.spans/v1",
                   "fields": ["name", "start_s", "end_s", "parent"],
                   "cells": cells}
        with open(path, "w") as handle:
            json.dump(payload, handle)
