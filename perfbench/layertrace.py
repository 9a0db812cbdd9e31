"""Per-layer tracing from the benchmark's own code.

:func:`install` wraps public functions of each ``repro`` layer in spans
(name, start, end, parent).  Only public functions are wrapped and the
wrappers are installed on the class that *defines* each function, so
identity guards such as ``type(fs).read_pages is FileSystem.read_pages``
stay true and the kernel keeps its batched fault path.  No observer,
telemetry or tracer object of the program is attached.

Spans stay in memory in flat arrays and are written out at the end.
A layer's self time is the sum over its spans of duration minus the
durations of the span's direct children.  Checking work the benchmark
does inside a timed phase runs under a ``bench.check`` span, so it is
subtracted from whichever layer called into it.

Which end-to-end metric each layer should move, and where it should not:

=========  ==============================================  ===============
layer      moves (workloads)                               unchanged on
=========  ==============================================  ===============
kernel     host_faults_per_s, host_op_us_p50 (storm, scan)
fs         host_op_us_p50 (storm, scan)
cache      host_faults_per_s (storm); virt_makespan_s,
           sleds_gain via the hit ratio (scan)
devices    host_faults_per_s (storm)                       scan (scalar)
block      virt_op_ms_p99, tenant_jain, host_op_us_p50     storm, scan
           (tenants)
sim        host_op_us_p50, host_faults_per_s (tenants)     storm, scan
core       host_op_us_p50 (tenants); sleds_gain (scan)     storm
obs        host_faults_per_s, peak_mem_MB                  the other three
           (storm_observed)
apps       nothing: fixed application CPU in scan
=========  ==============================================  ===============
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

perf = time.perf_counter

LAYERS = ("apps", "kernel", "core", "cache", "fs", "block", "devices",
          "sim", "obs")


class Tracer:
    """In-memory span recorder with per-name call counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls = array("q")
        self.nid = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active = False
        #: result-dependent counts filled by the ``after`` hooks
        self.counts: dict[str, float] = {}
        #: span names of the telemetry hooks (callbacks per fault)
        self.telemetry_hooks: tuple[str, ...] = ()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def enter(self, name) -> None:
        nid = name if isinstance(name, int) else self.name_id(name)
        stack = self.stack
        self.calls[nid] += 1
        self.nid.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(len(self.start))
        self.start.append(perf())

    def exit(self) -> None:
        t = perf()
        self.end[self.stack.pop()] = t

    def parent_name(self) -> str | None:
        """Name of the innermost open span (the caller's span)."""
        return self.names[self.nid[self.stack[-1]]] if self.stack else None

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def ncalls(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    # -- folding ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nid = np.frombuffer(self.nid, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=n)
        own = dur - children
        per_name = np.bincount(nid, weights=own, minlength=len(self.names))
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def durations(self, name: str) -> float:
        """Total inclusive seconds of spans named ``name``."""
        nid = self._ids.get(name)
        if nid is None or not len(self.start):
            return 0.0
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        mask = np.frombuffer(self.nid, dtype=np.int32) == nid
        return float((end[mask] - start[mask]).sum())

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 nid=np.frombuffer(self.nid, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def _wrap(tracer: Tracer, name: str, fn, after=None):
    nid = tracer.name_id(name)
    enter, exit_ = tracer.enter, tracer.exit

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            # one span per resumption: the generator's work runs in
            # slices between the caller's yields
            gen = fn(*args, **kwargs)
            value, exc = None, None
            while True:
                active = tracer.active
                if active:
                    enter(nid)
                try:
                    if exc is None:
                        out = gen.send(value)
                    else:
                        out = gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    if active:
                        exit_()
                try:
                    value, exc = (yield out), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as error:  # delivered into the task
                    value, exc = None, error
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _patch(tracer, owner, attr: str, name: str, after=None) -> None:
    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, _wrap(tracer, name, fn, after))


def _patch_class(tracer, cls, layer: str, names, after=None) -> None:
    """Wrap each public function of ``names`` that ``cls`` itself
    defines (inherited ones are wrapped on their defining class)."""
    after = after or {}
    for attr in names:
        if attr in cls.__dict__ and inspect.isfunction(cls.__dict__[attr]):
            _patch(tracer, cls, attr, f"{layer}.{cls.__name__}.{attr}",
                   after.get(attr))


def install() -> Tracer:
    """Wrap every layer's entry points; returns the (inactive) tracer."""
    import importlib
    import repro.block.scheduler as block_sched
    import repro.core.builder as core_builder
    import repro.core.pick as core_pick
    import repro.core.records as core_records
    import repro.kernel.kernel as kernel_mod
    import repro.obs.lifecycle as obs_lifecycle
    from repro.block.merge import PlugQueue
    from repro.cache.page_cache import PageCache
    from repro.devices.base import Device
    from repro.fs import content
    from repro.fs.filesystem import Ext2Like, FileSystem, Iso9660Like
    from repro.fs.nfs import NfsLike
    from repro.kernel.ioctl import FSLEDS_GET
    from repro.obs.forensics import BlameEngine, ExemplarReservoir, LatencyForensics
    from repro.obs.slo import SloTracker
    from repro.obs.telemetry import Telemetry, TelemetryBatch
    from repro.obs.timeseries import TimeSeriesRecorder
    from repro.sim.engine import IoEngine
    from repro.sim.events import EventLoop, IoFuture
    from repro.sim.tasks import EventScheduler, Task

    tracer = Tracer()
    count = tracer.count

    # apps: the application's own CPU (regex scan, record handling)
    _patch(tracer, importlib.import_module("repro.apps.grep"), "grep",
           "apps.grep")

    # kernel: the syscall surface
    def after_ioctl(args, result):
        if args[2] == FSLEDS_GET:
            count("core.get_sleds_calls")
            count("core.vector_sleds", len(result))

    _patch_class(tracer, kernel_mod.Kernel, "kernel", (
        "open", "close", "read", "pread", "write", "pwrite", "lseek",
        "fsync", "sync", "ioctl", "get_sleds", "stat", "listdir", "mmap",
        "sleds_stamp", "read_async", "pread_async", "fsync_async"),
        after={"ioctl": after_ioctl})

    # core: SLED builder and pick library (patched where it is looked up)
    builder = _wrap(tracer, "core.build_sled_vector",
                    core_builder.build_sled_vector)
    core_builder.build_sled_vector = builder
    kernel_mod.build_sled_vector = builder
    for attr in ("sleds_pick_init", "sleds_pick_next_read",
                 "sleds_pick_finish"):
        _patch(tracer, core_pick, attr, f"core.{attr}")
    records = _wrap(tracer, "core.adjust_to_records",
                    core_records.adjust_to_records)
    core_records.adjust_to_records = records
    core_pick.adjust_to_records = records

    # cache: page cache, residency and shards
    def after_insert(args, result):
        count("cache.inserted_pages", 1)

    def after_insert_run(args, result):
        count("cache.inserted_pages", args[3])

    _patch_class(tracer, PageCache, "cache", (
        "access", "insert", "insert_run", "peek", "resident_runs",
        "resident_set", "resident_pages", "invalidate", "invalidate_inode",
        "pin", "unpin", "clear"),
        after={"insert": after_insert, "insert_run": after_insert_run})

    # fs: extent maps, read paths, estimates, payload synthesis
    for cls in (FileSystem, Ext2Like, Iso9660Like, NfsLike):
        _patch_class(tracer, cls, "fs", (
            "read_pages", "read_pages_merged", "write_pages",
            "span_estimates", "page_estimate", "grow_file"))

    def after_content(args, result):
        # CowContent reads through its base: count outermost bytes only
        parent = tracer.parent_name()
        if parent is None or not parent.startswith("fs.content."):
            count("fs.content_bytes", len(result))

    for cls in (content.SyntheticText, content.CowContent,
                content.ByteStoreContent, content.ZeroContent):
        _patch(tracer, cls, "read", f"fs.content.{cls.__name__}.read",
               after_content)

    # block: plug/merge and elevators
    def after_queue_submit(args, result):
        parent = tracer.parent_name()
        if parent is None or not parent.startswith("block.PlugQueue."):
            count("block.runs_in")

    def after_plug_submit(args, result):
        count("block.runs_in")

    def after_submit_batch(args, result):
        count("block.runs_in", len(args[1]))
        count("block.batch_requests", len(args[1]))

    queue_api = ("submit", "flush", "cancel", "estimated_delay")
    _patch_class(tracer, PlugQueue, "block", queue_api,
                 after={"submit": after_plug_submit})
    _patch_class(tracer, block_sched.DeviceQueue, "block", queue_api,
                 after={"submit": after_queue_submit})
    for cls in (block_sched.FairScheduler, block_sched.ClookScheduler,
                block_sched.FcfsScheduler, block_sched.SstfScheduler):
        _patch_class(tracer, cls, "block", ("take_next",))
    _patch(tracer, block_sched, "submit_batch", "block.submit_batch",
           after_submit_batch)

    # devices: scalar and read_run batch math
    def after_read_run(args, result):
        if result is None:
            count("devices.declined_runs")
        else:
            count("devices.batched_runs")
            count("devices.batched_pages", args[2])

    _patch_class(tracer, Device, "devices", (
        "submit", "submit_spans", "read_spans", "read", "read_run",
        "write"), after={"read_run": after_read_run})

    # sim: event loop, tasks and engine
    _patch_class(tracer, EventScheduler, "sim", ("run",))
    _patch_class(tracer, Task, "sim", ("resume",))
    _patch_class(tracer, EventLoop, "sim",
                 ("at", "after", "cancel", "step", "run_until_idle"))
    _patch_class(tracer, IoFuture, "sim", ("resolve", "fail"))
    _patch_class(tracer, IoEngine, "sim", (
        "submit", "submit_cluster", "queue_for", "plug_for",
        "queue_delays", "congestion_stamp", "cancel_request"))

    # obs: telemetry, time series, SLO and forensics
    hooks = tuple(attr for attr, fn in Telemetry.__dict__.items()
                  if inspect.isfunction(fn) and (
                      attr.startswith("on_")
                      or attr in ("syscall_begin", "syscall_end",
                                  "snapshot")))
    _patch_class(tracer, Telemetry, "obs", hooks)
    _patch_class(tracer, TelemetryBatch, "obs", ("add", "flush"))
    _patch_class(tracer, TimeSeriesRecorder, "obs", ("tick", "sample"))
    _patch_class(tracer, obs_lifecycle.LifecycleTracker, "obs",
                 ("record", "stash", "pop_stash"))
    for attr in ("snapshot_components", "component_delta"):
        _patch(tracer, obs_lifecycle, attr, f"obs.lifecycle.{attr}")
    _patch_class(tracer, SloTracker, "obs", ("observe",))
    _patch_class(tracer, ExemplarReservoir, "obs", ("observe", "pin"))
    _patch_class(tracer, BlameEngine, "obs", ("blame",))
    _patch_class(tracer, LatencyForensics, "obs", ("analyze",))
    tracer.telemetry_hooks = tuple(f"obs.Telemetry.{h}" for h in hooks)
    return tracer


def count_batched_runs() -> dict:
    """Count ``Device.read_run`` outcomes without spans: the untraced
    reference for the traced run's ``devices.batched_runs``."""
    from repro.devices.base import Device

    counts = {"batched": 0, "declined": 0}
    read_run = Device.__dict__["read_run"]

    @functools.wraps(read_run)
    def counting(self, addr, npages, page_bytes):
        result = read_run(self, addr, npages, page_bytes)
        counts["declined" if result is None else "batched"] += 1
        return result

    Device.read_run = counting
    return counts


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, state: dict) -> dict[str, float]:
    """Every per-layer metric from the tracer and the program's own
    counters.  ``state`` holds deltas of program state over the timed
    phase (see ``rep.program_state``)."""
    selfs = tracer.self_times()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in selfs.items():
        layer = layer_of(name)
        if layer in layer_self:
            layer_self[layer] += seconds
    c = tracer.counts
    k = state["kernel"]
    m: dict[str, float] = {}

    def ratio(a, b):
        return a / b if b else 0.0

    m["kernel.syscalls"] = k["syscalls"]
    m["kernel.hard_faults"] = k["hard_faults"]
    m["kernel.pages_read"] = k["pages_read"]
    m["kernel.readahead_pages"] = k["readahead_pages"]
    m["kernel.self_s"] = layer_self["kernel"]

    m["fs.read_pages_calls"] = tracer.ncalls("fs.FileSystem.read_pages")
    m["fs.span_estimates_calls"] = sum(
        tracer.ncalls(n) for n in tracer.names
        if n.startswith("fs.") and n.endswith(".span_estimates"))
    m["fs.content_bytes"] = c.get("fs.content_bytes", 0)
    m["fs.content_self_s"] = sum(s for n, s in selfs.items()
                                 if n.startswith("fs.content."))
    m["fs.self_s"] = layer_self["fs"]

    hits, misses = k["cache_hits"], k["cache_misses"]
    inserts = (tracer.ncalls("cache.PageCache.insert")
               + tracer.ncalls("cache.PageCache.insert_run"))
    m["cache.hits"] = hits
    m["cache.misses"] = misses
    m["cache.hit_ratio"] = ratio(hits, hits + misses)
    m["cache.evictions"] = k["evictions"]
    m["cache.insert_calls"] = inserts
    m["cache.pages_per_insert"] = ratio(c.get("cache.inserted_pages", 0),
                                        inserts)
    m["cache.self_s"] = layer_self["cache"]

    d = state["devices"]
    batched = c.get("devices.batched_runs", 0)
    m["devices.requests"] = d["requests"]
    m["devices.batched_runs"] = batched
    m["devices.declined_runs"] = c.get("devices.declined_runs", 0)
    m["devices.pages_per_run"] = ratio(c.get("devices.batched_pages", 0),
                                       batched)
    m["devices.seeks"] = d["seeks"]
    m["devices.errors"] = d["errors"]
    m["devices.busy_virt_s"] = d["busy_s"]
    m["devices.self_s"] = layer_self["devices"]

    b = state["block"]
    runs_in = c.get("block.runs_in", 0)
    out = b["dispatched"] + c.get("block.batch_requests", 0)
    m["block.runs_in"] = runs_in
    m["block.requests_out"] = out
    m["block.merge_ratio"] = ratio(runs_in, out)
    m["block.plug_flushes"] = b["plug_flushes"]
    m["block.plug_hold_virt_s"] = b["plug_hold_s"]
    m["block.queue_wait_virt_s"] = b["queue_wait_s"]
    m["block.depth_max"] = b["depth_max"]
    m["block.self_s"] = layer_self["block"]

    s = state["sim"]
    m["sim.events_fired"] = s["events_fired"]
    m["sim.task_resumes"] = tracer.ncalls("sim.Task.resume")
    m["sim.us_per_event"] = ratio(layer_self["sim"] * 1e6, s["events_fired"])
    m["sim.self_s"] = layer_self["sim"]

    gets = c.get("core.get_sleds_calls", 0)
    m["core.get_sleds_calls"] = gets
    m["core.sled_builds"] = k["sleds_builds"]
    m["core.sled_cache_hit_ratio"] = ratio(k["sleds_cache_hits"], gets)
    m["core.runs_per_vector"] = ratio(c.get("core.vector_sleds", 0), gets)
    m["core.pick_calls"] = tracer.ncalls("core.sleds_pick_next_read")
    m["core.self_s"] = layer_self["core"]

    callbacks = sum(tracer.ncalls(n) for n in tracer.telemetry_hooks)
    m["obs.fault_callbacks"] = tracer.ncalls("obs.Telemetry.on_fault")
    m["obs.callbacks_per_fault"] = ratio(callbacks, k["hard_faults"])
    m["obs.lifecycle_records"] = tracer.ncalls("obs.LifecycleTracker.record")
    m["obs.timeseries_samples"] = tracer.ncalls("obs.TimeSeriesRecorder.sample")
    m["obs.analyze_s"] = tracer.durations("obs.LatencyForensics.analyze")
    m["obs.self_s"] = layer_self["obs"]

    m["apps.self_s"] = layer_self["apps"]
    return m
