"""Latency forensics: exemplars, blame attribution, interference.

The lifecycle layer (:mod:`repro.obs.lifecycle`) answers *what* a
request's latency was made of — queue wait plus a closed component
breakdown.  This module answers *who caused it*:

* an :class:`ExemplarReservoir` pins full
  :class:`~repro.obs.lifecycle.LifecycleRecord` snapshots — the worst
  request per (class, tenant), the freshest request per latency-histogram
  bucket (OpenMetrics exemplar annotations read from here), the worst
  violator per SLO target, and the top-K slowest overall.  Snapshots,
  never live records: the tracker slab-recycles evicted records in
  place, so a pinned live reference would silently mutate
  (:meth:`~repro.obs.lifecycle.LifecycleRecord.snapshot`);
* a :class:`BlameEngine` decomposes each request's queue wait into an
  exactly-closed **blame vector** — ``math.fsum(blame.values())`` equals
  the record's latency bit-for-bit — by replaying the device's dispatch
  history over the request's wait window: plug/merge hold first, then
  who occupied the device while the request sat in the elevator
  (another tenant, the victim's own earlier requests, speculative
  prefetch, untenanted traffic), with any uncovered remainder named
  ``queue:untracked`` (device idle gaps, history-ring eviction);
* an :class:`InterferenceMatrix` folds blame vectors into per-device
  "tenant A imposed N seconds of queue delay on tenant B" cells whose
  per-victim row totals reconcile with the SLO tracker's per-tenant
  queue-wait pools;
* :func:`folded_blame` / :func:`folded_critical_path` export the same
  data as folded stacks (``frame;frame;frame <nanoseconds>``) for
  flamegraph tooling.

Everything here is observational.  Attached, it subscribes to streams
the timing model already feeds and reads provenance rings
(:meth:`~repro.block.scheduler.DeviceQueue.recent_dispatches`,
:meth:`~repro.block.merge.PlugQueue.recent_dispatched_holds`) that are
recorded whether or not anyone reads them — no clock advances, no RNG
draws, runs are bit-identical with forensics attached or detached
(property-tested).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.obs.lifecycle import (LifecycleRecord, closing_residual,
                                 critical_path)
from repro.obs.metrics import LATENCY_BUCKETS
from repro.sim.units import human_time

__all__ = [
    "BlameEngine",
    "ExemplarReservoir",
    "ForensicsReport",
    "InterferenceMatrix",
    "LatencyForensics",
    "folded_blame",
    "folded_critical_path",
]

#: blame keys that partition the queue-wait window (everything else in a
#: blame vector is an own-service component carried over from the record)
_PLUG = "plug_hold"
_UNTRACKED = "queue:untracked"


def _aggressor_of(key: str) -> str | None:
    """Interference-matrix column for one blame key (None: own service)."""
    if key.startswith("queue:tenant:"):
        return key[len("queue:tenant:"):]
    if key == "queue:self":
        return "self"
    if key == "queue:prefetch":
        return "prefetch"
    if key == "queue:other":
        return "other"
    if key == _UNTRACKED:
        return "untracked"
    if key == _PLUG:
        return "plug"
    return None


# ---------------------------------------------------------------------------
# exemplar capture
# ---------------------------------------------------------------------------

class ExemplarReservoir:
    """Bounded store of lifecycle snapshots worth keeping whole.

    Aggregates tell you the p99 moved; an exemplar is the actual request
    behind it, with enough causal context (task, tenant, inode, page
    run, closed breakdown) to run blame attribution after the fact.
    Three keyed families plus a top-K:

    * ``(device class, tenant)`` → the worst-latency request seen;
    * ``(device class, histogram bucket le)`` → the *freshest* request
      that landed in that latency bucket (OpenMetrics exemplars favour
      recency); buckets follow the registry's latency histogram bounds;
    * SLO target name → the worst request that violated it (fed by
      :attr:`~repro.obs.slo.SloTracker.on_violation`);
    * the ``top_k`` slowest requests overall.

    Every entry is a :meth:`~LifecycleRecord.snapshot`, never the live
    record — see the slab-aliasing contract on the record class.
    """

    def __init__(self, buckets=LATENCY_BUCKETS, top_k: int = 32) -> None:
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1: {top_k}")
        self.buckets = tuple(buckets)
        self.top_k = top_k
        #: (cls, tenant) -> worst-latency snapshot
        self.by_key: dict[tuple[str, str | None], LifecycleRecord] = {}
        #: (cls, bucket upper bound) -> freshest snapshot in that bucket
        self.by_bucket: dict[tuple[str, float], LifecycleRecord] = {}
        #: SLO target name -> worst violating snapshot
        self.pinned: dict[str, LifecycleRecord] = {}
        self.seen = 0
        self.violations = 0
        #: min-heap of (latency, id, snapshot) holding the top_k slowest
        self._top: list[tuple[float, int, LifecycleRecord]] = []

    def bucket_of(self, latency: float) -> float:
        """Histogram bucket upper bound ``latency`` falls in (+inf top)."""
        idx = bisect_left(self.buckets, latency)
        return self.buckets[idx] if idx < len(self.buckets) else math.inf

    # -- capture ----------------------------------------------------------

    def observe(self, record: LifecycleRecord) -> None:
        """Lifecycle-stream observer: keep what is worth keeping."""
        self.seen += 1
        snap = None
        key = (record.device_class, record.tenant)
        worst = self.by_key.get(key)
        if worst is None or record.latency > worst.latency:
            snap = record.snapshot()
            self.by_key[key] = snap
        bucket = (record.device_class, self.bucket_of(record.latency))
        snap = snap if snap is not None else record.snapshot()
        self.by_bucket[bucket] = snap
        entry = (record.latency, record.id, snap)
        if len(self._top) < self.top_k:
            heapq.heappush(self._top, entry)
        elif entry > self._top[0]:
            heapq.heapreplace(self._top, entry)

    def pin(self, record: LifecycleRecord,
            violated: list[str]) -> None:
        """SLO violation hook: pin the worst exemplar per target."""
        self.violations += 1
        snap = None
        for name in violated:
            cur = self.pinned.get(name)
            if cur is None or record.latency > cur.latency:
                snap = snap if snap is not None else record.snapshot()
                self.pinned[name] = snap

    # -- retrieval --------------------------------------------------------

    def top(self, k: int | None = None) -> list[LifecycleRecord]:
        """The slowest requests captured, worst first."""
        ordered = sorted(self._top, key=lambda e: (-e[0], e[1]))
        if k is not None:
            ordered = ordered[:k]
        return [snap for _, _, snap in ordered]

    def bucket_exemplar(self, cls: str,
                        le: float) -> LifecycleRecord | None:
        """Freshest exemplar for one histogram bucket of one class
        (what the OpenMetrics exporter annotates bucket samples with)."""
        return self.by_bucket.get((cls, le))

    def __len__(self) -> int:
        return len(self._top)

    def to_dict(self) -> dict:
        return {
            "seen": self.seen,
            "violations": self.violations,
            "kept": len(self._top),
            "by_class_tenant": {
                f"{cls}/{tenant if tenant is not None else '-'}":
                    rec.to_dict()
                for (cls, tenant), rec in sorted(
                    self.by_key.items(),
                    key=lambda kv: (kv[0][0], kv[0][1] or ""))},
            "violation_exemplars": {
                name: rec.to_dict()
                for name, rec in sorted(self.pinned.items())},
            "top": [rec.to_dict() for rec in self.top()],
        }


# ---------------------------------------------------------------------------
# blame attribution
# ---------------------------------------------------------------------------

class BlameEngine:
    """Decomposes queue wait into who-held-the-device blame.

    Construction snapshots the engine's forensic provenance — every
    device queue's dispatch-history ring and every plug's hold ring —
    so blame stays stable while reports iterate.  A record's wait
    window ``[submit_time, start_time)`` is partitioned:

    1. the plug/merge hold ``[submit_time, unplug_time)``, looked up by
       the record's identity key (for a coalesced union the hold record
       carries the union run under the primary's arrival, which is
       exactly the lifecycle record's identity) → ``plug_hold``;
    2. dispatch-history service intervals overlapping the elevator
       window ``[unplug_time, start_time)`` — a device queue dispatches
       serially, so intervals never overlap and the record's own
       dispatch (starting exactly at ``start_time``) is excluded by
       construction → ``queue:tenant:<name>`` / ``queue:self`` /
       ``queue:prefetch`` / ``queue:other``;
    3. whatever remains (device idle while the elevator chose someone
       else's direction, or history-ring eviction) → ``queue:untracked``.

    Own-service components carry over from the record's closed
    breakdown, and the whole vector is re-closed the same way the
    lifecycle layer closes records: ``math.fsum(blame.values())``
    equals ``record.latency`` **exactly** (property-tested).
    """

    def __init__(self, kernel, engine=None) -> None:
        if engine is None:
            engine = kernel.engine
        self.kernel = kernel
        self.engine = engine
        self._fs_device: dict[str, str] = {}
        self._histories: dict[str, tuple] = {}
        self._holds: dict[tuple, object] = {}
        self.refresh()

    def refresh(self) -> "BlameEngine":
        """Re-snapshot provenance rings and the mount table."""
        self._fs_device = {fs.name: fs.device.name
                           for _, fs in self.kernel.mounts()}
        if self.engine is not None:
            self._histories = self.engine.dispatch_histories()
            self._holds = self.engine.hold_histories()
        return self

    def device_of(self, fs_name: str) -> str | None:
        """Queue device name behind mount ``fs_name`` (None: unmounted)."""
        return self._fs_device.get(fs_name)

    # -- the decomposition -------------------------------------------------

    def blame(self, record: LifecycleRecord) -> dict[str, float]:
        """The exactly-closed blame vector for one record."""
        parts: dict[str, float] = {}
        for name, seconds in record.components:
            parts[name] = parts.get(name, 0.0) + seconds
        submit, start = record.submit_time, record.start_time
        window = submit
        hold = self._holds.get((record.fs, record.inode, record.page,
                                record.cluster, record.submit_time))
        if hold is not None:
            held = max(0.0, min(hold.unplug_time, start) - submit)
            if held > 0.0:
                parts[_PLUG] = held
            window = min(max(submit, hold.unplug_time), start)
        if start > window:
            device = self._fs_device.get(record.fs)
            for disp in self._histories.get(device, ()):
                lo = max(disp.start, window)
                hi = min(disp.finish, start)
                if hi <= lo:
                    continue
                key = self._queue_key(disp, record)
                parts[key] = parts.get(key, 0.0) + (hi - lo)
        return self._close(parts, record.latency)

    @staticmethod
    def _queue_key(disp, record: LifecycleRecord) -> str:
        if disp.kind == "prefetch":
            return "queue:prefetch"
        if disp.tenant is None:
            return "queue:other"
        if disp.tenant == record.tenant:
            return "queue:self"
        return f"queue:tenant:{disp.tenant}"

    @staticmethod
    def _close(parts: dict[str, float],
               latency: float) -> dict[str, float]:
        """Close the vector so its ``fsum`` equals ``latency`` exactly;
        the correction lands in ``queue:untracked``."""
        parts = {name: seconds for name, seconds in parts.items()
                 if seconds != 0.0}
        residual = closing_residual(list(parts.values()), latency)
        if residual != 0.0:
            parts[_UNTRACKED] = residual
        return parts

    # -- the waterfall -----------------------------------------------------

    def waterfall(self, record: LifecycleRecord) -> dict:
        """One request's timeline, blame attached: ordered spans from
        submission to completion — plug hold, each occupancy interval
        (who held the device, under which label), then service."""
        spans: list[dict] = []
        submit, start = record.submit_time, record.start_time
        window = submit
        hold = self._holds.get((record.fs, record.inode, record.page,
                                record.cluster, record.submit_time))
        if hold is not None:
            end = min(max(submit, hold.unplug_time), start)
            if end > submit:
                spans.append({"phase": "plug", "who": _PLUG,
                              "t0": submit, "t1": end,
                              "detail": f"coalesced x{hold.members}"})
            window = end
        if start > window:
            device = self._fs_device.get(record.fs)
            for disp in self._histories.get(device, ()):
                lo = max(disp.start, window)
                hi = min(disp.finish, start)
                if hi <= lo:
                    continue
                spans.append({"phase": "queue",
                              "who": self._queue_key(disp, record),
                              "t0": lo, "t1": hi,
                              "detail": disp.label})
        spans.sort(key=lambda s: (s["t0"], s["t1"]))
        spans.append({"phase": "service", "who": "service",
                      "t0": start, "t1": record.finish_time,
                      "detail": ", ".join(
                          f"{name} {human_time(seconds)}"
                          for name, seconds in record.components)})
        return {"record": record.to_dict(),
                "blame": self.blame(record),
                "spans": spans}


# ---------------------------------------------------------------------------
# the interference matrix
# ---------------------------------------------------------------------------

class InterferenceMatrix:
    """Per-device queue-delay imposition: aggressor → victim seconds.

    Cell ``(device, victim, aggressor)`` accumulates the queue-wait
    seconds requests of ``victim`` spent behind ``aggressor`` on
    ``device``.  Aggressor columns are tenant names plus the pseudo
    columns ``self`` (the victim's own earlier requests), ``prefetch``
    (speculation), ``other`` (untenanted traffic: writebacks, plain
    tasks), ``plug`` (merge/plug hold) and ``untracked`` (idle gaps /
    evicted history).  Keeping the pseudo columns makes the row
    identity hold: a victim's row total across devices is exactly the
    ``fsum`` of its records' queue waits, which reconciles with the SLO
    tracker's per-tenant queue-wait pools.

    Cells store the raw addends and ``fsum`` on read, so totals close
    as tightly as the blame vectors they came from.
    """

    def __init__(self) -> None:
        self._cells: dict[tuple[str, str, str], list[float]] = {}
        self.records = 0

    def add(self, record: LifecycleRecord, blame: dict[str, float],
            device: str | None) -> None:
        """Fold one blame vector in (service components are skipped)."""
        self.records += 1
        victim = record.tenant if record.tenant is not None else "-"
        dev = device if device is not None else record.device_class
        for key, seconds in blame.items():
            aggressor = _aggressor_of(key)
            if aggressor is None:
                continue
            self._cells.setdefault((dev, victim, aggressor),
                                   []).append(seconds)

    # -- reads ------------------------------------------------------------

    def devices(self) -> list[str]:
        return sorted({dev for dev, _, _ in self._cells})

    def cell(self, device: str, victim: str, aggressor: str) -> float:
        return math.fsum(self._cells.get((device, victim, aggressor), ()))

    def matrix(self, device: str) -> dict[str, dict[str, float]]:
        """``{victim: {aggressor: seconds}}`` for one device."""
        out: dict[str, dict[str, float]] = {}
        for (dev, victim, aggressor), addends in self._cells.items():
            if dev != device:
                continue
            out.setdefault(victim, {})[aggressor] = math.fsum(addends)
        return {victim: dict(sorted(cols.items()))
                for victim, cols in sorted(out.items())}

    def row_totals(self) -> dict[str, float]:
        """Per-victim queue-delay seconds across devices and aggressors
        — the number to reconcile against the SLO tracker's
        :meth:`~repro.obs.slo.SloTracker.tenant_queue_waits`."""
        rows: dict[str, list[float]] = {}
        for (_, victim, _), addends in self._cells.items():
            rows.setdefault(victim, []).extend(addends)
        return {victim: math.fsum(addends)
                for victim, addends in sorted(rows.items())}

    def imposed_totals(self) -> dict[str, float]:
        """Per-aggressor seconds imposed on others (``self`` excluded)."""
        cols: dict[str, list[float]] = {}
        for (_, victim, aggressor), addends in self._cells.items():
            if aggressor in (victim, "self"):
                continue
            cols.setdefault(aggressor, []).extend(addends)
        return {aggressor: math.fsum(addends)
                for aggressor, addends in sorted(cols.items())}

    def render(self) -> str:
        lines = ["Cross-tenant interference (queue delay imposed, "
                 "victim row x aggressor column):"]
        if not self._cells:
            lines.append("  (no queue delay was attributed)")
        for device in self.devices():
            table = self.matrix(device)
            aggressors = sorted({a for cols in table.values()
                                 for a in cols})
            header = "  ".join(f"{a:>12}" for a in aggressors)
            lines.append(f"  [{device}]")
            lines.append(f"    {'victim':>12}  {header}  {'total':>12}")
            for victim, cols in table.items():
                cells = "  ".join(
                    f"{human_time(cols.get(a, 0.0)):>12}"
                    for a in aggressors)
                total = math.fsum(cols.values())
                lines.append(f"    {victim:>12}  {cells}  "
                             f"{human_time(total):>12}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "records": self.records,
            "devices": {device: self.matrix(device)
                        for device in self.devices()},
            "row_totals": self.row_totals(),
            "imposed_totals": self.imposed_totals(),
        }


# ---------------------------------------------------------------------------
# folded-stack export
# ---------------------------------------------------------------------------

def _fold_lines(weights: dict[str, float]) -> list[str]:
    """``frame;frame value`` lines, nanosecond-weighted, zeros dropped."""
    out = []
    for stack in sorted(weights):
        nanos = int(round(weights[stack] * 1e9))
        if nanos > 0:
            out.append(f"{stack} {nanos}")
    return out


def folded_blame(entries) -> list[str]:
    """Blame vectors as folded stacks for flamegraph tooling.

    ``entries`` iterates ``(record, blame, device)`` triples; each
    blame key becomes a leaf frame under
    ``tenant;device;kind``.  Values are integer nanoseconds (the folded
    format wants integers; virtual-nanosecond resolution keeps sub-ms
    components visible).
    """
    weights: dict[str, float] = {}
    for record, blame, device in entries:
        victim = record.tenant if record.tenant is not None else "-"
        dev = device if device is not None else record.device_class
        base = f"{victim};{dev};{record.kind}"
        for key, seconds in blame.items():
            stack = f"{base};{key}"
            weights[stack] = weights.get(stack, 0.0) + seconds
    return _fold_lines(weights)


def folded_critical_path(report) -> list[str]:
    """A :class:`~repro.obs.lifecycle.CriticalPathReport` as folded
    stacks: each chain link's closed attribution under
    ``critical;task;class``, plus the head/gap frames, so the flame
    width is the makespan."""
    weights: dict[str, float] = {}
    if report.cpu_head > 0.0:
        weights["critical;cpu;head"] = report.cpu_head
    for link in report.links:
        rec = link.record
        base = f"critical;{rec.task or '-'};{rec.device_class}"
        for name, seconds in rec.attribution().items():
            stack = f"{base};{name}"
            weights[stack] = weights.get(stack, 0.0) + seconds
        if link.gap_after > 0.0:
            stack = f"critical;{rec.task or '-'};gap"
            weights[stack] = weights.get(stack, 0.0) + link.gap_after
    return _fold_lines(weights)


# ---------------------------------------------------------------------------
# the facade
# ---------------------------------------------------------------------------

@dataclass
class ForensicsReport:
    """One full forensic analysis over a set of records."""

    analyzed: int
    waterfalls: list[dict]
    matrix: InterferenceMatrix
    folded: list[str] = field(default_factory=list)
    exemplars: ExemplarReservoir | None = None

    def render(self, width: int = 64) -> str:
        lines = [f"latency forensics over {self.analyzed} request(s):"]
        for wf in self.waterfalls:
            rec = wf["record"]
            where = f"{rec['fs']}:{rec['inode']}"
            if rec["page"] >= 0:
                where += f":{rec['page']}+{rec['cluster']}"
            lines.append(
                f"  #{rec['id']} {rec['kind']} {where}"
                f" tenant={rec['tenant'] or '-'}"
                f" latency={human_time(rec['latency'])}"
                f" (wait {human_time(rec['queue_wait'])})")
            t0 = rec["submit_time"]
            span_total = max(rec["latency"], 1e-12)
            for span in wf["spans"]:
                frac0 = (span["t0"] - t0) / span_total
                frac1 = (span["t1"] - t0) / span_total
                lo = int(frac0 * width)
                hi = max(lo + 1, int(frac1 * width))
                bar = " " * lo + "█" * (hi - lo)
                lines.append(
                    f"    |{bar:<{width}}| {span['who']:<20} "
                    f"{human_time(span['t1'] - span['t0']):>9}  "
                    f"{span['detail']}")
            top = sorted(wf["blame"].items(), key=lambda kv: -kv[1])[:6]
            detail = ", ".join(f"{k} {human_time(v)}" for k, v in top)
            lines.append(f"    blame: {detail}")
        lines.append(self.matrix.render())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        out = {
            "analyzed": self.analyzed,
            "waterfalls": self.waterfalls,
            "interference": self.matrix.to_dict(),
            "folded": list(self.folded),
        }
        if self.exemplars is not None:
            out["exemplars"] = self.exemplars.to_dict()
        return out


class LatencyForensics:
    """The attachable forensic layer over one kernel + engine.

    Attach to a :class:`~repro.obs.telemetry.Telemetry` (subscribes the
    exemplar reservoir to the lifecycle record stream) and optionally an
    :class:`~repro.obs.slo.SloTracker` (subscribes violation pinning);
    after — or during — a run, :meth:`analyze` snapshots the engine's
    provenance rings and produces blame vectors, waterfalls, the
    interference matrix and folded stacks.  Attachment changes no
    virtual time: runs are bit-identical with or without it.
    """

    def __init__(self, kernel, engine=None, top_k: int = 32,
                 buckets=LATENCY_BUCKETS) -> None:
        if engine is None:
            engine = kernel.engine
        self.kernel = kernel
        self.engine = engine
        self.reservoir = ExemplarReservoir(buckets=buckets, top_k=top_k)
        self._telemetry = None
        self._slo = None

    # -- lifecycle ---------------------------------------------------------

    def attach(self, telemetry, slo=None) -> "LatencyForensics":
        if self._telemetry is not None:
            raise ValueError("forensics layer is already attached")
        telemetry.lifecycle.observers.append(self.reservoir.observe)
        self._telemetry = telemetry
        if slo is not None:
            slo.on_violation.append(self.reservoir.pin)
            self._slo = slo
        return self

    def detach(self) -> None:
        if self._telemetry is not None:
            try:
                self._telemetry.lifecycle.observers.remove(
                    self.reservoir.observe)
            except ValueError:
                pass
            self._telemetry = None
        if self._slo is not None:
            try:
                self._slo.on_violation.remove(self.reservoir.pin)
            except ValueError:
                pass
            self._slo = None

    # -- analysis ----------------------------------------------------------

    def blame_engine(self) -> BlameEngine:
        """A fresh :class:`BlameEngine` over current provenance."""
        return BlameEngine(self.kernel, self.engine)

    def analyze(self, records=None, top: int = 10) -> ForensicsReport:
        """Blame every record, fold the matrix, waterfall the top-K.

        ``records`` defaults to the attached telemetry's full lifecycle
        window.  The matrix covers *every* analyzed record (that is
        what makes its row totals reconcile with the SLO queue-wait
        pools); waterfalls cover the ``top`` slowest.
        """
        if records is None:
            if self._telemetry is None:
                raise ValueError(
                    "no records given and no telemetry attached")
            records = list(self._telemetry.lifecycle.records)
        else:
            records = list(records)
        engine = self.blame_engine()
        matrix = InterferenceMatrix()
        entries = []
        for rec in records:
            blame = engine.blame(rec)
            device = engine.device_of(rec.fs)
            matrix.add(rec, blame, device)
            entries.append((rec, blame, device))
        slowest = sorted(records,
                         key=lambda r: (-r.latency, r.id))[:top]
        waterfalls = [engine.waterfall(rec) for rec in slowest]
        return ForensicsReport(
            analyzed=len(records), waterfalls=waterfalls, matrix=matrix,
            folded=folded_blame(entries), exemplars=self.reservoir)

    def critical_path_folded(self, start: float,
                             end: float) -> list[str]:
        """Folded stacks of the run's critical path over ``[start, end]``
        (records from the attached telemetry)."""
        if self._telemetry is None:
            raise ValueError("no telemetry attached")
        report = critical_path(self._telemetry.lifecycle.records,
                               start, end)
        return folded_critical_path(report)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "attached" if self._telemetry is not None else "detached"
        return (f"<LatencyForensics {state} seen={self.reservoir.seen} "
                f"pinned={len(self.reservoir.pinned)}>")
