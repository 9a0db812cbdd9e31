"""Observability for the simulated storage stack (see docs/observability.md).

Three pillars, one facade:

* :mod:`repro.obs.metrics` — a deterministic metrics registry (counters,
  gauges, log-bucket histograms) with Prometheus text and JSON export;
* :mod:`repro.obs.accuracy` — SLED prediction-accuracy tracking: predicted
  vs. actual delivery time per device class;
* :mod:`repro.obs.spans` — span-based tracing (syscall → fault → device)
  with Chrome trace-event JSON export;
* :mod:`repro.obs.lifecycle` — per-request lifecycle records with an
  exact latency-component breakdown, plus the critical-path analyzer
  for event-scheduler runs;
* :mod:`repro.obs.timeseries` — windowed sampling of the registry on a
  virtual-time cadence, with OpenMetrics/JSON export;
* :mod:`repro.obs.slo` — per-request-class (and per-tenant) latency
  objectives: rolling p50/p99, compliance, error-budget burn rate;
* :mod:`repro.obs.forensics` — latency forensics: exemplar capture,
  exactly-closed blame attribution over the block layer's dispatch
  provenance, the cross-tenant interference matrix, folded-stack export;
* :mod:`repro.obs.profile` — wall-clock profiling of the simulator's hot
  paths (event dispatch, SLED builds, cache residency, block merge, the
  batched fault path) by wrapping them from outside inside a ``with``
  block;
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade that attaches
  all of them to a kernel.

Telemetry is strictly observational: it never advances the virtual clock
and never draws randomness, so simulated timings are bit-identical whether
it is attached or not.
"""

from repro.obs.accuracy import AccuracyReport, ClassAccuracy, SledAccuracyTracker
from repro.obs.forensics import (
    BlameEngine,
    ExemplarReservoir,
    ForensicsReport,
    InterferenceMatrix,
    LatencyForensics,
    folded_blame,
    folded_critical_path,
)
from repro.obs.lifecycle import (
    CriticalPathReport,
    LifecycleRecord,
    LifecycleTracker,
    critical_path,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from repro.obs.profile import HotPathProfiler
from repro.obs.slo import SloTarget, SloTracker
from repro.obs.spans import Span, SpanRecorder, chrome_trace
from repro.obs.telemetry import Telemetry
from repro.obs.timeseries import TimeSeriesRecorder

__all__ = [
    "AccuracyReport",
    "BlameEngine",
    "ClassAccuracy",
    "Counter",
    "CriticalPathReport",
    "ExemplarReservoir",
    "ForensicsReport",
    "Gauge",
    "Histogram",
    "HotPathProfiler",
    "InterferenceMatrix",
    "LatencyForensics",
    "LifecycleRecord",
    "LifecycleTracker",
    "MetricsRegistry",
    "SledAccuracyTracker",
    "SloTarget",
    "SloTracker",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "TimeSeriesRecorder",
    "chrome_trace",
    "critical_path",
    "folded_blame",
    "folded_critical_path",
    "log_buckets",
]
