"""Per-request I/O lifecycle tracing and latency attribution.

The simulation *computes* every component of a request's latency — queue
wait in the :class:`~repro.block.scheduler.DeviceQueue`, positioning and
transfer inside each device model, robot time in the autochanger, staging
writes in the HSM path — and then throws the breakdown away, reporting
only the total.  This module keeps it:

* every :class:`~repro.devices.base.Device` accumulates monotonic
  per-component virtual seconds in ``component_totals``; diffing two
  snapshots of a filesystem's devices attributes exactly one service
  call (:func:`snapshot_components` / :func:`component_delta`);
* the kernel turns each fault/writeback into a :class:`LifecycleRecord`
  carrying causal context (task, filesystem, inode, page run) plus the
  closed component breakdown — closed meaning ``queue wait + components``
  sums *exactly* (``math.fsum``-exactly) to the measured latency, with
  any daylight (the kernel noise multiplier, float rounding) named
  ``"noise"``;
* :func:`critical_path` reconstructs the blocking chain that determined
  the makespan of an :class:`~repro.sim.tasks.EventScheduler` run and
  prices out "what-if" deltas per component.

Everything here is strictly observational: records are built from values
the timing model already produced, no clock advances, no RNG draws — runs
are bit-identical with tracing attached or not (property-tested).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.obs.metrics import MetricsRegistry
from repro.sim.units import human_time

__all__ = [
    "ChainLink",
    "CriticalPathReport",
    "LifecycleRecord",
    "LifecycleTracker",
    "closing_residual",
    "component_delta",
    "critical_path",
    "snapshot_components",
]


# ---------------------------------------------------------------------------
# component capture: snapshot/diff of device component_totals
# ---------------------------------------------------------------------------

def _sources_of(fs) -> list:
    """Everything that accrues component time for requests on ``fs``:
    its observable devices plus (for HSM) the autochanger's robot."""
    sources = list(fs.observable_devices())
    changer = getattr(fs, "autochanger", None)
    if changer is not None:
        sources.append(changer)
    return sources


def snapshot_components(fs) -> list[tuple[object, dict[str, float]]]:
    """Snapshot the component totals of every device behind ``fs``."""
    return [(src, dict(src.component_totals)) for src in _sources_of(fs)]


def component_delta(
        before: list[tuple[object, dict[str, float]]]) -> dict[str, float]:
    """Seconds accrued per component since ``before`` was snapshotted.

    Components with the same name on different devices (disk transfer +
    tape transfer in one HSM read) merge, which is the right granularity
    for a per-request breakdown.
    """
    delta: dict[str, float] = {}
    for src, old in before:
        for key, value in src.component_totals.items():
            moved = value - old.get(key, 0.0)
            if moved != 0.0:
                delta[key] = delta.get(key, 0.0) + moved
    return delta


def _normalize(delta: dict[str, float], kind: str) -> dict[str, float]:
    """Fold raw component keys into request-level component names.

    Device writes observed during a *read* request (demand fault or
    prefetch) are HSM stage-in traffic → ``"stage"``; for a writeback
    request the ``write_`` prefix is redundant and is stripped.
    """
    out: dict[str, float] = {}
    for key, seconds in delta.items():
        if key.startswith("write_"):
            name = key[len("write_"):] if kind == "writeback" else "stage"
        else:
            name = key
        out[name] = out.get(name, 0.0) + seconds
    return out


def closing_residual(values: list[float], latency: float) -> float:
    """The residual ``r`` for which ``math.fsum([*values, r]) == latency``
    holds exactly (``fsum`` is correctly rounded, so order is irrelevant).

    ``r += err`` converges in a step or two, but oscillates when the
    exact sum sits halfway between two doubles (round-half-even flips
    the side each pass); after four such steps, one-ulp nudges of the
    tiny residual break the tie without visibly moving the breakdown.
    """
    residual = latency - math.fsum(values)
    for step in range(12):
        err = latency - math.fsum([*values, residual])
        if err == 0.0:
            break
        residual = (residual + err if step < 4 else
                    math.nextafter(residual, math.copysign(math.inf, err)))
    return residual


def _close(parts: dict[str, float], queue_wait: float,
           latency: float) -> tuple[tuple[str, float], ...]:
    """Close the breakdown so ``fsum([queue_wait, *components])`` equals
    ``latency`` exactly; the correction lands in a ``"noise"`` component
    (kernel noise multiplier + any float daylight)."""
    parts = {name: seconds for name, seconds in parts.items()
             if seconds != 0.0}
    residual = closing_residual([queue_wait, *parts.values()], latency)
    if residual != 0.0:
        parts["noise"] = residual
    return tuple(sorted(parts.items()))


# ---------------------------------------------------------------------------
# the record
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class LifecycleRecord:
    """One traced I/O request, from submission to completion.

    ``components`` is the closed service-time breakdown (sorted name →
    seconds pairs); by construction
    ``math.fsum([queue_wait, *dict(components).values()]) == latency``
    holds *exactly*.  ``page`` is the faulting file page (``-1`` for
    writebacks, which are addressed by device block, not file page).
    ``predicted_latency``/``predicted_queue`` are the SLED promise in
    force when the request was issued (None when no FSLEDS_GET preceded
    it).  For a block-layer-coalesced request, the record covers the
    *union* page run and ``merged_from`` lists the ``(inode, page,
    cluster)`` of every member request that was folded into it.

    Slotted, and slab-reused by :class:`LifecycleTracker` once its
    bounded deque starts evicting: a record that ages out of the window
    is renewed in place for the incoming request instead of allocating a
    fresh 16-field object per fault.  **Aliasing contract**: a reference
    held past the tracker's capacity window is therefore not stable — it
    will silently start describing a different request the moment the
    deque evicts it.  Any consumer that pins records beyond the current
    observer callback (exemplar reservoirs, SLO violation captures) must
    pin :meth:`snapshot`, never the live record.
    """

    id: int
    kind: str  # "fault" | "writeback" | "prefetch"
    task: str | None
    fs: str
    device_class: str
    inode: int
    page: int
    cluster: int
    nbytes: int
    submit_time: float
    start_time: float
    finish_time: float
    components: tuple[tuple[str, float], ...]
    predicted_latency: float | None = None
    predicted_queue: float | None = None
    merged_from: tuple[tuple[int, int, int], ...] = ()
    #: owning tenant of the task that issued the request (None when the
    #: issuing task carries no tenant — the single-tenant default)
    tenant: str | None = None

    @property
    def queue_wait(self) -> float:
        """Seconds spent waiting behind earlier requests."""
        return self.start_time - self.submit_time

    @property
    def service_time(self) -> float:
        """Seconds of actual device service."""
        return self.finish_time - self.start_time

    @property
    def latency(self) -> float:
        """End-to-end seconds: queue wait + service."""
        return self.finish_time - self.submit_time

    def snapshot(self) -> "LifecycleRecord":
        """A detached copy that outlives the tracker's slab window.

        The tracker renews evicted records in place (see the class
        docstring), so a held reference mutates under the holder once
        the bounded deque wraps.  The snapshot is a fresh record the
        tracker has never seen — it can never be renewed.  All fields
        are immutable scalars or tuples, so a shallow field copy is a
        deep copy.
        """
        return LifecycleRecord(
            id=self.id, kind=self.kind, task=self.task, fs=self.fs,
            device_class=self.device_class, inode=self.inode,
            page=self.page, cluster=self.cluster, nbytes=self.nbytes,
            submit_time=self.submit_time, start_time=self.start_time,
            finish_time=self.finish_time, components=self.components,
            predicted_latency=self.predicted_latency,
            predicted_queue=self.predicted_queue,
            merged_from=self.merged_from, tenant=self.tenant)

    def attribution(self) -> dict[str, float]:
        """The full accounting, queue wait included; its ``fsum`` equals
        :attr:`latency` exactly."""
        out = dict(self.components)
        if self.queue_wait != 0.0:
            out["queue"] = self.queue_wait
        return out

    def to_dict(self) -> dict:
        return {
            "id": self.id, "kind": self.kind, "task": self.task,
            "tenant": self.tenant,
            "fs": self.fs, "device_class": self.device_class,
            "inode": self.inode, "page": self.page,
            "cluster": self.cluster, "nbytes": self.nbytes,
            "submit_time": self.submit_time,
            "start_time": self.start_time,
            "finish_time": self.finish_time,
            "queue_wait": self.queue_wait,
            "latency": self.latency,
            "components": dict(self.components),
            "predicted_latency": self.predicted_latency,
            "predicted_queue": self.predicted_queue,
            "merged_from": [list(member) for member in self.merged_from],
        }


# ---------------------------------------------------------------------------
# the tracker
# ---------------------------------------------------------------------------

class LifecycleTracker:
    """Bounded store of lifecycle records plus breakdown histograms.

    Owned by :class:`~repro.obs.telemetry.Telemetry`; the kernel feeds
    it through ``on_fault``/``on_writeback``.  The stash carries
    component deltas captured inside event-engine service thunks (at
    dispatch time) over to the completion-side record builder — keyed by
    request identity, valid because inode ids are globally unique and a
    device queue dispatches serially.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.records: deque[LifecycleRecord] = deque(maxlen=capacity)
        self.dropped = 0
        #: callables invoked with each record as it closes (SLO trackers
        #: subscribe here); observers read the record and must not touch
        #: the clock or RNG — attachment keeps runs bit-identical
        self.observers: list = []
        self._next_id = 0
        self._stash: dict[tuple, dict[str, float]] = {}
        self._records_total = None
        if registry is not None:
            self._records_total = registry.counter(
                "lifecycle_records_total", "Traced I/O requests",
                labels=("cls", "kind"))
            self._request_seconds = registry.histogram(
                "lifecycle_request_seconds",
                "End-to-end virtual latency (queue wait + service) per "
                "traced request", labels=("cls",))
            self._component_seconds = registry.histogram(
                "lifecycle_component_seconds",
                "Virtual seconds attributed to one latency component of "
                "a traced request", labels=("cls", "component"))

    # -- dispatch-side capture handoff -----------------------------------

    def stash(self, key: tuple, components: dict[str, float]) -> None:
        self._stash[key] = components

    def pop_stash(self, key: tuple) -> dict[str, float] | None:
        return self._stash.pop(key, None)

    # -- recording --------------------------------------------------------

    def record(self, *, kind: str, task: str | None, fs: str,
               device_class: str, inode: int, page: int, cluster: int,
               nbytes: int, submit_time: float, start_time: float,
               finish_time: float, components: dict[str, float],
               predicted_latency: float | None = None,
               predicted_queue: float | None = None,
               merged_from: tuple = (),
               tenant: str | None = None) -> LifecycleRecord:
        queue_wait = start_time - submit_time
        latency = finish_time - submit_time
        closed = _close(_normalize(components, kind), queue_wait, latency)
        rec = None
        if len(self.records) == self.records.maxlen:
            self.dropped += 1
            # slab reuse: the evicted record leaves the contract window,
            # so renew its shell in place for the incoming request
            rec = self.records.popleft()
            renew = object.__setattr__
            renew(rec, "id", self._next_id)
            renew(rec, "kind", kind)
            renew(rec, "task", task)
            renew(rec, "fs", fs)
            renew(rec, "device_class", device_class)
            renew(rec, "inode", inode)
            renew(rec, "page", page)
            renew(rec, "cluster", cluster)
            renew(rec, "nbytes", nbytes)
            renew(rec, "submit_time", submit_time)
            renew(rec, "start_time", start_time)
            renew(rec, "finish_time", finish_time)
            renew(rec, "components", closed)
            renew(rec, "predicted_latency", predicted_latency)
            renew(rec, "predicted_queue", predicted_queue)
            renew(rec, "merged_from", merged_from)
            renew(rec, "tenant", tenant)
        else:
            rec = LifecycleRecord(
                id=self._next_id, kind=kind, task=task, fs=fs,
                device_class=device_class, inode=inode, page=page,
                cluster=cluster, nbytes=nbytes, submit_time=submit_time,
                start_time=start_time, finish_time=finish_time,
                components=closed, predicted_latency=predicted_latency,
                predicted_queue=predicted_queue, merged_from=merged_from,
                tenant=tenant)
        self._next_id += 1
        self.records.append(rec)
        if self._records_total is not None:
            cls = device_class
            self._records_total.labels(cls=cls, kind=kind).inc()
            self._request_seconds.labels(cls=cls).observe(latency)
            if queue_wait != 0.0:
                self._component_seconds.labels(
                    cls=cls, component="queue").observe(queue_wait)
            for name, seconds in closed:
                self._component_seconds.labels(
                    cls=cls, component=name).observe(seconds)
        for observer in self.observers:
            observer(rec)
        return rec

    # -- aggregation ------------------------------------------------------

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Per device class: total seconds per component, queue included."""
        out: dict[str, dict[str, float]] = {}
        for rec in self.records:
            per_cls = out.setdefault(rec.device_class, {})
            for name, seconds in rec.attribution().items():
                per_cls[name] = per_cls.get(name, 0.0) + seconds
        return out

    def render_breakdown(self) -> str:
        lines = ["I/O latency attribution (per device class):"]
        table = self.breakdown()
        if not table:
            lines.append("  (no requests were traced)")
        for cls in sorted(table):
            parts = table[cls]
            total = math.fsum(parts.values())
            detail = ", ".join(
                f"{name} {human_time(seconds)}"
                for name, seconds in sorted(
                    parts.items(), key=lambda kv: -kv[1]))
            lines.append(f"  {cls:>8}: total {human_time(total):>10}  "
                         f"[{detail}]")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "recorded": len(self.records),
            "dropped": self.dropped,
            "breakdown": {cls: dict(sorted(parts.items()))
                          for cls, parts in
                          sorted(self.breakdown().items())},
            "records": [rec.to_dict() for rec in self.records],
        }

    def clear(self) -> None:
        self.records.clear()
        self._stash.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.records)


# ---------------------------------------------------------------------------
# critical-path analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainLink:
    """One request on the critical path.

    ``gap_after`` is the virtual time between this request's completion
    and the next chain event (CPU, cache hits, scheduler think time) —
    time no traced I/O was the reason the run hadn't finished.
    """

    record: LifecycleRecord
    gap_after: float


@dataclass
class CriticalPathReport:
    """The blocking chain determining a run's makespan.

    Built by a greedy backward walk from the end of the run: the latest
    finishing request not after the cursor joins the chain, the cursor
    jumps to its submit time, repeat.  ``cpu_head`` is whatever remains
    before the first chain request was submitted.  When every record
    lies inside ``[start, end]`` the telescoping identity

        makespan == cpu_head + Σ (link latency + link gap_after)

    holds by construction.
    """

    start: float
    end: float
    cpu_head: float
    links: list[ChainLink]

    @property
    def makespan(self) -> float:
        return self.end - self.start

    @property
    def io_time(self) -> float:
        return math.fsum(link.record.latency for link in self.links)

    @property
    def gap_time(self) -> float:
        return math.fsum(link.gap_after for link in self.links)

    def component_totals(self) -> dict[str, dict[str, float]]:
        """Chain seconds per (device class, component), queue included."""
        out: dict[str, dict[str, float]] = {}
        for link in self.links:
            per_cls = out.setdefault(link.record.device_class, {})
            for name, seconds in link.record.attribution().items():
                per_cls[name] = per_cls.get(name, 0.0) + seconds
        return out

    def what_if(self) -> list[tuple[str, str, float, float]]:
        """(class, component, chain seconds, fraction of makespan),
        largest first — an *upper bound* on the makespan saved were that
        component free, since removing time can re-route the chain."""
        rows = [(cls, name, seconds,
                 seconds / self.makespan if self.makespan > 0.0 else 0.0)
                for cls, parts in self.component_totals().items()
                for name, seconds in parts.items()]
        rows.sort(key=lambda row: (-row[2], row[0], row[1]))
        return rows

    def render(self, top: int = 8) -> str:
        lines = [
            f"critical path: {len(self.links)} request(s) over "
            f"{human_time(self.makespan)} makespan "
            f"(I/O {human_time(self.io_time)}, gaps/CPU "
            f"{human_time(self.gap_time)}, head "
            f"{human_time(self.cpu_head)})",
        ]
        for link in self.links:
            rec = link.record
            who = rec.task or "-"
            lines.append(
                f"  t={rec.submit_time:>12.6f}  {rec.kind:<9} "
                f"{rec.device_class:<6} {rec.fs}:{rec.inode}"
                f"{'' if rec.page < 0 else f':{rec.page}+{rec.cluster}'}"
                f"  task={who:<10} wait={human_time(rec.queue_wait):>9} "
                f"svc={human_time(rec.service_time):>9} "
                f"gap={human_time(link.gap_after):>9}")
        rows = self.what_if()
        if rows:
            lines.append("what-if (upper-bound makespan savings):")
            for cls, name, seconds, frac in rows[:top]:
                lines.append(f"  {cls:>8}/{name:<12} "
                             f"{human_time(seconds):>10}  ({frac:6.1%})")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "start": self.start, "end": self.end,
            "makespan": self.makespan, "cpu_head": self.cpu_head,
            "io_time": self.io_time, "gap_time": self.gap_time,
            "links": [{"record": link.record.to_dict(),
                       "gap_after": link.gap_after}
                      for link in self.links],
            "what_if": [{"class": cls, "component": name,
                         "seconds": seconds, "fraction": frac}
                        for cls, name, seconds, frac in self.what_if()],
        }


def critical_path(records: Iterable[LifecycleRecord], start: float,
                  end: float) -> CriticalPathReport:
    """Reconstruct the blocking chain of a run over ``[start, end]``.

    Greedy backward walk: from the cursor (initially ``end``), the
    traced request with the latest completion not after the cursor is
    the one the run was last waiting on; it joins the chain and the
    cursor jumps to its submit time (everything between submit and the
    previous cursor is accounted by that request plus the gap after it).
    Deterministic: ties break on latency, then record id.
    """
    if end < start:
        raise ValueError(f"need start <= end: {start}, {end}")
    pool = [rec for rec in records
            if rec.finish_time <= end and rec.finish_time > start]
    cursor = end
    chain: list[ChainLink] = []
    while True:
        best = None
        for rec in pool:
            if rec.finish_time > cursor:
                continue
            if best is None or (
                    (rec.finish_time, rec.latency, rec.id)
                    > (best.finish_time, best.latency, best.id)):
                best = rec
        if best is None:
            break
        chain.append(ChainLink(record=best, gap_after=cursor - best.finish_time))
        pool.remove(best)
        cursor = best.submit_time
        if cursor <= start:
            break
    chain.reverse()
    return CriticalPathReport(start=start, end=end,
                              cpu_head=max(0.0, cursor - start),
                              links=chain)
