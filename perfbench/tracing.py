"""In-memory spans around the public calls of each layer of ``repro``.

The traced run wraps, from outside the package, the functions through
which work enters each layer (see ``README.md`` for the list) and keeps
one span per call: name, start, end, parent span, operation id and pid.
Calls made once per packet or per block — device packet sources and the
policy hooks — are too frequent for one span each, so they are
aggregated per parent span into one record carrying the call count and
the summed busy time.

A span's *self time* is its duration minus the part of it covered by
its children (the union of child intervals, so concurrent worker spans
count once) minus the busy time of its aggregated hot calls.

Process pools fork: a worker inherits the wrappers and the open span
stack of the parent at fork time, records its own spans, and writes them
to ``<outdir>/worker-<pid>-<n>.json`` after every shard call; the parent
reads and deletes those files when the operation ends.  ``perf_counter``
is the system-wide monotonic clock on Linux, so worker and parent
timestamps share one time base.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

perf_counter = time.perf_counter

#: Span name -> per-layer metric its self time is reported under.
LAYER_OF_SPAN = {
    "traces.synth": "traces.synth_s",
    "scenarios.build_devices": "scenarios.build_s",
    "sim.run_shard": "sim.kernel_self_s",
    "core.policy": "core.policy_s",
    "basestation.merge": "basestation.merge_s",
    "metro.cell_shard": "metro.shard_s",
    "metro.merge": "metro.merge_s",
    "api.plan_build": "api.plan_build_s",
    "api.run": "api.runner_s",
    "api.execute": "api.runner_s",
    "api.cell_shard": "api.runner_s",
    "api.disk_store": "api.disk_store_s",
    "api.disk_load": "api.disk_load_s",
    "api.records": "api.records_s",
}

#: The runner's catch-all metric: work no layer span catches lands in its
#: self time, so :func:`coverage` counts it as unaccounted.
RUNNER_METRIC = "api.runner_s"

#: Hooks whose per-call time is ``core.policy_s``.
POLICY_HOOKS = ("observe_packet", "dormancy_wait", "activation_delay",
                "on_release")


class Tracer:
    """Span recorder shared by every wrapper of one traced run.

    Span names in ``skip`` are left unwrapped; the self-tests use this to
    show that :func:`coverage` notices a layer whose time nobody catches.
    """

    def __init__(self, outdir: Path, skip: tuple[str, ...] = ()) -> None:
        self.outdir = Path(outdir)
        self.skip = frozenset(skip)
        self.owner_pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[tuple[str, object]] = []  # (span id, op id)
        self._agg: dict[tuple[str, str], list] = {}
        self._hot_depth = 0
        self._ids = itertools.count()
        self._flushes = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording: spans are kept only while an operation is open ------------

    def _new_id(self) -> str:
        return f"{os.getpid()}.{next(self._ids)}"

    def begin(self, name: str, op: object = None, tag: str = "") -> dict:
        """Open a span; ``op`` starts a new operation (root span)."""
        parent, parent_op = self._stack[-1] if self._stack else (None, None)
        span = {
            "id": self._new_id(), "name": name, "parent": parent,
            "op": parent_op if op is None else op, "pid": os.getpid(),
            "tag": tag, "start": perf_counter(), "end": None,
        }
        self._stack.append((span["id"], span["op"]))
        self.spans.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()

    def hot(self, name: str, start: float, end: float, count: int) -> None:
        """Add one hot call (``count`` items) to the current span's aggregate."""
        key = (self._stack[-1][0], name)
        agg = self._agg.get(key)
        if agg is None:
            self._agg[key] = [start, end, 1, end - start, count]
        else:
            agg[1] = end
            agg[2] += 1
            agg[3] += end - start
            agg[4] += count

    def all_spans(self) -> list[dict]:
        """Recorded spans plus one record per hot-call aggregate."""
        ops = {span["id"]: span["op"] for span in self.spans}
        pids = {span["id"]: span["pid"] for span in self.spans}
        out = list(self.spans)
        for (parent, name), (start, end, calls, busy, count) in self._agg.items():
            out.append({
                "id": f"{parent}/{name}", "name": name, "parent": parent,
                "op": ops.get(parent), "pid": pids.get(parent), "tag": "",
                "start": start, "end": end, "calls": calls, "busy": busy,
                "count": count,
            })
        return out

    # -- worker processes ---------------------------------------------------------

    def flush_worker(self) -> None:
        """Write this worker's spans to ``outdir`` and drop them from memory."""
        pid = os.getpid()
        prefix = f"{pid}."
        mine = [s for s in self.spans if s["pid"] == pid]
        self.spans = [s for s in self.spans if s["pid"] != pid]
        agg = {k: v for k, v in self._agg.items() if k[0].startswith(prefix)}
        for key in agg:
            del self._agg[key]
        payload = {
            "spans": mine,
            "agg": [[parent, name, *values]
                    for (parent, name), values in agg.items()],
        }
        path = self.outdir / f"worker-{pid}-{next(self._flushes)}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)

    def collect_workers(self) -> None:
        """Fold every worker span file into this process's records."""
        for path in sorted(self.outdir.glob("worker-*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            self.spans.extend(payload["spans"])
            for parent, name, start, end, calls, busy, count in payload["agg"]:
                self._agg[(parent, name)] = [start, end, calls, busy, count]

    # -- wrappers -------------------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object,
             name: str) -> None:
        if name in self.skip:
            return
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_method(self, cls: type, attr: str, name: str) -> None:
        """Record a span around every call of ``cls.attr``."""
        self._set(cls, attr, self._spanning(getattr(cls, attr), name), name)

    def wrap_function(self, func, name: str, tag=None,
                      flush: bool = False) -> None:
        """Record a span around ``func`` in every loaded module binding it.

        The wrapper copies the function's name and module, and replaces the
        original in its own module too, so pickling it by reference (a
        process pool shipping it to a worker) resolves to the wrapper.
        """
        wrapper = self._spanning(func, name, tag, flush)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._set(module, attr, wrapper, name)

    def _spanning(self, func, name: str, tag=None, flush: bool = False):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return func(*args, **kwargs)
            span = tracer.begin(name, tag=tag(*args) if tag else "")
            try:
                return func(*args, **kwargs)
            finally:
                tracer.end(span)
                if flush and os.getpid() != tracer.owner_pid:
                    tracer.flush_worker()

        return wrapper

    def wrap_hook(self, cls: type, attr: str) -> None:
        """Aggregate ``cls.attr`` calls into ``core.policy`` busy time."""
        func = cls.__dict__[attr]
        tracer = self

        @functools.wraps(func)
        def hook(*args, **kwargs):
            if tracer._hot_depth or not tracer._stack:
                return func(*args, **kwargs)
            tracer._hot_depth = 1
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                tracer.hot("core.policy", start, perf_counter(), 1)
                tracer._hot_depth = 0

        self._set(cls, attr, hook, "core.policy")

    def wrap_run_shard(self, cls: type) -> None:
        """Span ``CellSimulator.run_shard`` and proxy each device's packet source."""
        func = cls.run_shard
        tracer = self
        from repro.traces.packet import PacketTrace

        @functools.wraps(func)
        def run_shard(simulator, devices):
            if not tracer._stack:
                return func(simulator, devices)
            proxied = [
                spec if isinstance(spec.trace, PacketTrace)
                else replace(spec, trace=source_proxy(spec.trace, tracer))
                for spec in devices
            ]
            span = tracer.begin("sim.run_shard")
            try:
                return func(simulator, proxied)
            finally:
                tracer.end(span)

        self._set(cls, "run_shard", run_shard, "sim.run_shard")

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def source_proxy(source, tracer: Tracer):
    """Time a device packet source, keeping the block protocol if it has one."""
    if getattr(source, "packet_blocks", None) is not None:
        return _BlockSourceProxy(source, tracer)
    return _IterSourceProxy(source, tracer)


class _IterSourceProxy:
    """Per-packet source: one timed ``next()`` per packet."""

    __slots__ = ("_it", "_tracer")

    def __init__(self, source, tracer: Tracer) -> None:
        self._it = iter(source)
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if tracer._hot_depth:
            return next(self._it)
        tracer._hot_depth = 1
        start = perf_counter()
        count = 1
        try:
            return next(self._it)
        except StopIteration:
            count = 0
            raise
        finally:
            tracer.hot("traces.synth", start, perf_counter(), count)
            tracer._hot_depth = 0


class _BlockSourceProxy(_IterSourceProxy):
    """Block-protocol source: one timed fetch per packet block."""

    __slots__ = ("_source",)

    def __init__(self, source, tracer: Tracer) -> None:
        super().__init__(source, tracer)
        self._source = source

    def packet_blocks(self):
        tracer = self._tracer
        blocks = self._source.packet_blocks()
        while True:
            nested = tracer._hot_depth
            if not nested:
                tracer._hot_depth = 1
            start = perf_counter()
            block = next(blocks, None)
            if not nested:
                tracer.hot("traces.synth", start, perf_counter(),
                           len(block) if block is not None else 0)
                tracer._hot_depth = 0
            if block is None:
                return
            yield block


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.learning  # noqa: F401  (register every policy class)
    from repro.api.cache import DiskCacheTier
    from repro.api.cells import CellSpec, execute_cell_shard
    from repro.api.metro import execute_metro_cell_shard, merge_metro_run
    from repro.api.plan import ExperimentPlan
    from repro.api.runner import ProcessPoolRunner, SerialRunner, execute_spec
    from repro.api.runset import RunSet
    from repro.basestation.cell import CellSimulator, merge_cell_shards
    from repro.core.policy import RadioPolicy

    tracer.wrap_method(ExperimentPlan, "build", "api.plan_build")
    tracer.wrap_method(SerialRunner, "run", "api.run")
    tracer.wrap_method(ProcessPoolRunner, "run", "api.run")
    tracer.wrap_function(execute_spec, "api.execute",
                         tag=lambda spec: spec.scheme)
    tracer.wrap_function(execute_cell_shard, "api.cell_shard", flush=True)
    tracer.wrap_method(DiskCacheTier, "store", "api.disk_store")
    tracer.wrap_method(DiskCacheTier, "load", "api.disk_load")
    tracer.wrap_method(RunSet, "to_records", "api.records")
    tracer.wrap_method(RunSet, "savings", "api.records")
    tracer.wrap_method(CellSpec, "build_devices", "scenarios.build_devices")
    tracer.wrap_run_shard(CellSimulator)
    tracer.wrap_function(merge_cell_shards, "basestation.merge")
    tracer.wrap_function(execute_metro_cell_shard, "metro.cell_shard",
                         flush=True)
    tracer.wrap_function(merge_metro_run, "metro.merge")
    # Only classes that override a hook get a wrapper: the kernels test
    # hooks against RadioPolicy's own functions to pick the vector path,
    # and those stay untouched.
    pending = [RadioPolicy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is RadioPolicy:
            continue
        for attr in POLICY_HOOKS:
            if attr in cls.__dict__:
                tracer.wrap_hook(cls, attr)


def coverage(spans: list[dict], own: dict[str, float]) -> float:
    """Share of the cold operations' self time held by a named layer.

    The harness's root span and the runner spans (:data:`RUNNER_METRIC`)
    are the catch-alls: time that no layer span catches lands in their
    self time, so it counts against coverage.
    """
    layered = total = 0.0
    for span in spans:
        if not (span["op"] or "").startswith("cold"):
            continue
        total += own[span["id"]]
        if LAYER_OF_SPAN.get(span["name"], RUNNER_METRIC) != RUNNER_METRIC:
            layered += own[span["id"]]
    return layered / total if total else 0.0


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of every span id: duration minus child coverage."""
    children: dict[str, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out: dict[str, float] = {}
    for span in spans:
        if "busy" in span:  # hot-call aggregate: a leaf
            out[span["id"]] = span["busy"]
            continue
        covered = 0.0
        busy = 0.0
        intervals = []
        for child in children.get(span["id"], ()):
            if "busy" in child:
                busy += child["busy"]
            else:
                intervals.append((child["start"], child["end"]))
        intervals.sort()
        cur_start = cur_end = None
        for start, end in intervals:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[span["id"]] = max(0.0, span["end"] - span["start"] - covered - busy)
    return out
