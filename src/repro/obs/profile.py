"""Wall-clock profiling of the simulator's hot paths, from outside.

The ROADMAP's "hardware-fast core" item budgets ≥ 1M faults per *wall*
second; to spend that budget well we need to know where host CPU time
goes.  This module times the functions that dominate a run and reports
per-site call counts, cumulative wall seconds, and
wall-per-virtual-second ratios.

The simulator carries no hook for it.  Entering a
:class:`HotPathProfiler` replaces each function named in :data:`HOOKS`
with a timing wrapper on the class (or module) that defines it; leaving
puts the exact original object back, also when the block raises.  The
wrappers read wall time only and pass arguments and results through, so
virtual-time results are bit-identical with the profiler installed or
not (property-tested in ``tests/test_obs_zero_cost.py``).

Typical use::

    with HotPathProfiler() as prof:
        ...  # run a workload
    print(prof.render(virtual_seconds=machine.clock.now))

or via the CLI: ``sleds-run profile``.
"""

from __future__ import annotations

import functools
from time import perf_counter

import repro.kernel.kernel as kernel_module
from repro.block.merge import PlugQueue
from repro.cache.page_cache import PageCache
from repro.devices.base import Device
from repro.obs.telemetry import TelemetryBatch
from repro.sim.events import EventLoop

__all__ = ["HOOKS", "HotPathProfiler", "SITES"]

#: the profiled hot-path sites (site name -> what is timed)
SITES = {
    "event_loop.dispatch": "EventLoop.step: pop + fire one event",
    "kernel.sled_build": "Kernel ioctl FSLEDS_GET: build_sled_vector",
    "cache.residency": "PageCache.insert/insert_run: residency update + eviction",
    "cache.resident_runs": "PageCache.resident_runs: interval-run query",
    "block.merge_flush": "PlugQueue._coalesce: group a flushed batch",
    "kernel.fault_batch": "Kernel._fault_in_batch: run-batched fault executor",
    "device.batch_math": "Device.read_run: whole-run latency kernels",
    "obs.telemetry_flush": "TelemetryBatch.flush: deferred on_fault fan-in",
}

#: ``(site, owner, attribute, keep)``: ``owner`` defines ``attribute``;
#: ``keep(result)`` (None = always) says whether the call did site work
HOOKS = (
    ("event_loop.dispatch", EventLoop, "step", bool),
    ("kernel.sled_build", kernel_module, "build_sled_vector", None),
    ("cache.residency", PageCache, "insert", None),
    ("cache.residency", PageCache, "insert_run", lambda r: r is not None),
    ("cache.resident_runs", PageCache, "resident_runs", None),
    ("block.merge_flush", PlugQueue, "_coalesce", None),
    ("kernel.fault_batch", kernel_module.Kernel, "_fault_in_batch", None),
    ("device.batch_math", Device, "read_run", None),
    ("obs.telemetry_flush", TelemetryBatch, "flush", None),
)


class _Site:
    """Accumulated wall time at one profiled site."""

    __slots__ = ("calls", "seconds", "max_seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.max_seconds = 0.0

    def add(self, seconds: float) -> None:
        self.calls += 1
        self.seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds


class HotPathProfiler:
    """Wall-clock timers wrapped around the simulator's hot functions.

    A context manager: the :data:`HOOKS` are installed on entry and
    removed on exit.  The same profiler may be entered again later; its
    measurements accumulate until :meth:`clear`.  A call is counted when
    it returns normally and its site's ``keep`` accepts the result.
    """

    def __init__(self) -> None:
        self._sites: dict[str, _Site] = {}
        #: wall seconds of counted calls not nested in another site call
        self._outermost = 0.0
        self._depth = 0
        self._installed: list[tuple] = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "HotPathProfiler":
        if self._installed:
            raise RuntimeError("HotPathProfiler is already installed")
        for site, owner, attribute, keep in HOOKS:
            original = vars(owner)[attribute]
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self._timed(site, original, keep))
        return self

    def __exit__(self, *exc) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def _timed(self, site: str, fn, keep):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            elapsed = perf_counter() - t0
            if keep is None or keep(result):
                slot = self._sites.get(site)
                if slot is None:
                    slot = self._sites[site] = _Site()
                slot.add(elapsed)
                if self._depth == 0:
                    self._outermost += elapsed
            return result

        return timed

    # -- reporting --------------------------------------------------------

    def rows(self, virtual_seconds: float | None = None) -> list[dict]:
        """Per-site stats, largest cumulative wall time first."""
        out = []
        for site, slot in sorted(self._sites.items(),
                                 key=lambda kv: (-kv[1].seconds, kv[0])):
            row = {
                "site": site,
                "where": SITES.get(site, ""),
                "calls": slot.calls,
                "wall_seconds": slot.seconds,
                "wall_mean_us": (slot.seconds / slot.calls * 1e6
                                 if slot.calls else 0.0),
                "wall_max_us": slot.max_seconds * 1e6,
            }
            if virtual_seconds is not None and virtual_seconds > 0.0:
                row["wall_per_virtual_second"] = (
                    slot.seconds / virtual_seconds)
            out.append(row)
        return out

    @property
    def total_wall_seconds(self) -> float:
        """Wall seconds spent inside any site, each instant counted once:
        a site call nested in another (a cache insert inside a fault
        batch) is already part of the outer call's time."""
        return self._outermost

    def calls(self, site: str) -> int:
        slot = self._sites.get(site)
        return slot.calls if slot is not None else 0

    def render(self, virtual_seconds: float | None = None) -> str:
        rows = self.rows(virtual_seconds)
        lines = ["hot-path profile (wall clock):"]
        if not rows:
            lines.append("  (no instrumented site was hit)")
            return "\n".join(lines)
        for row in rows:
            extra = ""
            if "wall_per_virtual_second" in row:
                extra = (f"  wall/vsec={row['wall_per_virtual_second']:.3e}")
            lines.append(
                f"  {row['site']:<22} calls={row['calls']:<8d} "
                f"wall={row['wall_seconds']:.6f}s "
                f"mean={row['wall_mean_us']:8.2f}us "
                f"max={row['wall_max_us']:8.2f}us{extra}")
        if virtual_seconds is not None and virtual_seconds > 0.0:
            lines.append(
                f"  total instrumented wall "
                f"{self.total_wall_seconds:.6f}s over "
                f"{virtual_seconds:.6f} virtual seconds")
        return "\n".join(lines)

    def to_dict(self, virtual_seconds: float | None = None) -> dict:
        return {
            "sites": self.rows(virtual_seconds),
            "total_wall_seconds": self.total_wall_seconds,
            "virtual_seconds": virtual_seconds,
        }

    def clear(self) -> None:
        self._sites.clear()
        self._outermost = 0.0
