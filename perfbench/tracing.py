"""Span tracing for the traced benchmark run, recorded from outside the program.

The traced run wraps the public entry point of each layer of ``repro``
(see :data:`LAYERS`) with a recorder that opens a span on entry and closes
it on exit.  A span carries a name, start and end times, the index of the
enclosing span and a run id (one per workload step executed, shared by
every span that step caused).  Spans are kept in memory in flat typed arrays and written out once,
when the benchmark ends.

A layer's *self time* is its span's duration minus the time its direct
child spans cover; since the program is single-threaded, children nest
strictly inside their parent, so summing self times over a layer never
counts the same instant twice.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = ["LAYERS", "Layer", "SpanRecorder", "Tracing"]


@dataclass(frozen=True)
class Layer:
    """One patched entry point: where it lives and what its spans count.

    ``owner`` is a dotted module path and ``attr`` a function name or
    ``"Class.method"``.  ``work`` maps the call's result to a unit count
    (chain blocks, solved points), recorded on the outermost span of the
    layer only, so a layer calling itself is not counted twice.
    """

    span: str
    owner: str
    attr: str
    work: Callable[[object], int] | None = None


def _chain_blocks(chain) -> int:
    return int(chain.size)


def _one_point(value) -> int:
    return 1


#: Every layer boundary the traced run records.  A function imported by
#: name into other modules is replaced everywhere it is bound.
LAYERS: tuple[Layer, ...] = (
    Layer("markov.build", "repro.markov.builder", "derive_lumped_chain", _chain_blocks),
    Layer("markov.build", "repro.markov.builder", "derive_chain", _chain_blocks),
    Layer("markov.build", "repro.markov.chains", "chain_for", _chain_blocks),
    Layer("markov.solve", "repro.markov.ctmc", "ChainSpec.availability_grid", len),
    Layer("markov.solve", "repro.markov.ctmc", "ChainSpec.availability", _one_point),
    Layer("ratfunc.exact", "repro.markov.ctmc", "ChainSpec.availability_exact"),
    Layer("ratfunc.symbolic", "repro.markov.ctmc", "ChainSpec.availability_symbolic"),
    Layer("ratfunc.roots", "repro.ratfunc.roots", "count_positive_roots"),
    Layer("ratfunc.roots", "repro.ratfunc.roots", "isolate_positive_roots"),
    Layer("ratfunc.roots", "repro.ratfunc.roots", "bisect_root"),
    Layer("analysis.crossover", "repro.analysis.crossover", "certified_crossover"),
    Layer("core.attempt_update", "repro.core.base", "ReplicaControlProtocol.attempt_update"),
    Layer("sim.montecarlo", "repro.sim.montecarlo", "estimate_availability"),
    Layer("sim.vectorized", "repro.sim.vectorized", "simulate_batch"),
    Layer("sim.scalar", "repro.sim.model", "StochasticReplicaSystem.run"),
    Layer("sim.scalar", "repro.sim.model", "AvailabilityAccumulator.run"),
    Layer("sim.topology.partitions", "repro.sim.topology", "Topology.partitions"),
    Layer("netsim.deliver", "repro.netsim.network", "MessageNetwork.deliver_now"),
    Layer("check.explorer", "repro.check.explorer", "Explorer.run"),
    Layer("check.replay", "repro.check.harness", "CheckHarness.replay"),
    Layer("check.apply", "repro.check.harness", "CheckHarness.apply"),
    Layer("check.snapshot", "repro.check.harness", "CheckHarness.snapshot"),
    Layer("check.enabled", "repro.check.harness", "CheckHarness.enabled_actions"),
    Layer("check.oracles", "repro.check.oracles", "check_oracles"),
)

#: ``check.apply`` calls made while ``check.replay`` is the open span are
#: restore work, not new transitions: they get no span of their own (their
#: time stays in replay) and are counted here instead.
REAPPLIED = "check.replay.reapplied"


class SpanRecorder:
    """In-memory span store: parallel typed arrays, one entry per span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack: list[int] = []
        self.current_run = 0
        self.extra: dict[str, int] = {}

    def intern(self, name: str) -> int:
        """The integer id of a span name."""
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name_id: int) -> int:
        """Open a span under the innermost open span; returns its index."""
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run_id.append(self.current_run)
        self.work.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """Close the innermost span (which must be ``index``)."""
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def idle(self) -> bool:
        """No workload step is running (e.g. outputs are being checked)."""
        return not self._stack

    def outer_is(self, name_id: int) -> bool:
        """Whether the innermost open span has this name."""
        return bool(self._stack) and self.name_id[self._stack[-1]] == name_id

    @contextmanager
    def span(self, name: str):
        """A root span for one workload step; it and its spans get a new run id."""
        self.current_run += 1
        index = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(index)

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns (for analysis and export)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run_id": np.frombuffer(self.run_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, work units.

        ``calls`` and ``inclusive_s`` count only spans not nested in a span
        of the same name, so recursion inside a layer is not double
        counted; ``self_s`` sums every span's own time.
        """
        cols = self.arrays()
        duration = cols["end"] - cols["start"]
        parent = cols["parent"]
        names = cols["name_id"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        own = duration - child_time
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)
        outermost = parent_name != names
        out: dict[str, dict[str, float]] = {}
        for name_id, name in enumerate(self.names):
            mine = names == name_id
            top = mine & outermost
            out[name] = {
                "calls": int(top.sum()),
                "inclusive_s": float(duration[top].sum()),
                "self_s": float(own[mine].sum()),
                "work": int(cols["work"][top].sum()),
            }
        return out

    def write(self, path: str, meta: dict) -> None:
        """Write every span (and ``meta``) to a compressed ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names), meta=np.array([json.dumps(meta)]), **self.arrays()
        )


def _resolve(owner: str, attr: str) -> tuple[object, str, Callable]:
    module = sys.modules[owner]
    holder: object = module
    if "." in attr:
        class_name, attr = attr.split(".")
        holder = getattr(module, class_name)
    return holder, attr, getattr(holder, attr)


class Tracing:
    """Patches :data:`LAYERS` into ``repro`` and restores them on exit."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: Layer, original: Callable) -> Callable:
        recorder = self.recorder
        name_id = recorder.intern(layer.span)
        work = layer.work
        if layer.span == "check.apply":
            replay_id = recorder.intern("check.replay")

            def traced_apply(*args, **kwargs):
                if recorder.idle():
                    return original(*args, **kwargs)
                if recorder.outer_is(replay_id):
                    recorder.extra[REAPPLIED] = recorder.extra.get(REAPPLIED, 0) + 1
                    return original(*args, **kwargs)
                index = recorder.open(name_id)
                try:
                    return original(*args, **kwargs)
                finally:
                    recorder.close(index)

            return traced_apply

        def traced(*args, **kwargs):
            if recorder.idle():
                return original(*args, **kwargs)
            nested = recorder.outer_is(name_id)
            index = recorder.open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
            if work is not None and not nested:
                recorder.work[index] = work(result)
            return result

        return traced

    def __enter__(self) -> "Tracing":
        replaced: dict[int, Callable] = {}
        for layer in LAYERS:
            holder, attr, original = _resolve(layer.owner, layer.attr)
            wrapper = self._wrap(layer, original)
            replaced[id(original)] = wrapper
            self._undo.append((holder, attr, original))
            setattr(holder, attr, wrapper)
        # Functions imported by name elsewhere (``from .x import f``) are
        # bound in the importing module too; patch every such binding.
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro.") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()
