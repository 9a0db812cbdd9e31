"""One repetition of one workload, in a fresh interpreter.

Usage (``run.py`` does this; ``src`` must be on ``PYTHONPATH``)::

    python3 perfbench/rep.py '{"workload": "storm", "seed": 1, "trace": 0}'

Optional keys: ``cpu`` (run pinned to this CPU), ``observed`` (false
runs ``storm_observed``'s pattern bare), ``count_batches`` (count
``Device.read_run`` outcomes), ``spans`` (path to write traced spans).
Prints one JSON object on the last line of standard output.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
import zlib

import layertrace
from workloads import WORKLOADS, Meter, quantile, warm_corpus

perf = time.perf_counter


def program_state(kernel, engine) -> dict:
    """Cumulative program counters, subtracted across the timed phase."""
    devices, seen = [], set()
    for device in [kernel.memory] + [d for _, fs in kernel.mounts()
                                     for d in fs.observable_devices()]:
        if id(device) not in seen:
            seen.add(id(device))
            devices.append(device)
    counters = kernel.counters
    state = {
        "kernel": {name: getattr(counters, name) for name in (
            "syscalls", "hard_faults", "pages_read", "readahead_pages",
            "cache_hits", "cache_misses", "evictions", "sleds_builds",
            "sleds_cache_hits", "bytes_read", "bytes_written",
            "pages_written")},
        "devices": {
            "requests": sum(d.stats.reads + d.stats.writes for d in devices),
            "seeks": sum(d.stats.seeks for d in devices),
            "errors": sum(d.stats.errors for d in devices),
            "busy_s": sum(d.stats.busy_time for d in devices),
        },
        "block": {"dispatched": 0, "queue_wait_s": 0.0, "depth_max": 0,
                  "plug_flushes": 0, "plug_hold_s": 0.0},
        "sim": {"events_fired": 0},
    }
    if engine is not None:
        queues, plugs = engine.queues(), engine.plugs()
        state["block"] = {
            "dispatched": sum(q.dispatched for q in queues),
            "queue_wait_s": sum(q.total_queue_wait for q in queues),
            "depth_max": max((q.depth_high_water for q in queues), default=0),
            "plug_flushes": sum(p.flushes for p in plugs),
            "plug_hold_s": sum(p.plug_wait_total for p in plugs),
        }
        state["sim"] = {"events_fired": engine.loop.fired}
    return state


def delta(after: dict, before: dict) -> dict:
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = delta(value, before[key])
        elif key == "depth_max":
            out[key] = value    # a high-water mark, not a sum
        else:
            out[key] = value - before[key]
    return out


def run(cfg: dict) -> dict:
    if "cpu" in cfg:
        os.sched_setaffinity(0, {cfg["cpu"]})
    tracer = layertrace.install() if cfg.get("trace") else None
    batches = (layertrace.count_batched_runs()
               if cfg.get("count_batches") else None)

    kwargs = {"observed": cfg["observed"]} if "observed" in cfg else {}
    workload = WORKLOADS[cfg["workload"]](cfg["seed"], **kwargs)

    t0 = perf()
    warm_corpus()
    workload.setup()
    setup_s = perf() - t0

    kernel = workload.kernel
    meter = workload.meter = Meter(kernel, workload.truth)
    meter.tracer = tracer
    before = program_state(kernel, kernel.engine)
    clock0 = kernel.clock.now
    if tracer is not None:
        tracer.active = True
    t0 = perf()
    workload.run()
    wall = perf() - t0
    if tracer is not None:
        tracer.active = False
    state = delta(program_state(kernel, kernel.engine), before)
    makespan = kernel.clock.now - clock0
    workload.post_checks()

    host_ops = workload.ops_host()
    rates, op_us = workload.windows()
    virt = meter.virt
    faults = state["kernel"]["hard_faults"]
    host_s = wall - meter.check_s - workload.extra.get("analyze_s", 0.0)
    virtual = {
        "virt_makespan_s": makespan,
        "virt_op_ms_p50": quantile(virt, 0.50) * 1e3,
        "virt_op_ms_p99": quantile(virt, 0.99) * 1e3,
        "virt_samples": len(virt),
        "virt_crc": zlib.crc32(virt.tobytes()),
        "clock": kernel.clock.now,
        **workload.metrics(),
        **{f"k.{k}": v for k, v in state["kernel"].items()},
    }
    out = {
        "setup_s": setup_s,
        "wall_s": wall,
        "check_s": meter.check_s,
        "phase_faults_per_s": faults / host_s,
        "op_us_p50": quantile(host_ops, 0.5) * 1e6,
        "op_us_p99": quantile(host_ops, 0.99) * 1e6,
        "window_faults_per_s": rates,
        "window_op_us_p50": op_us,
        "peak_mem_MB": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "virtual": virtual,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "failures": meter.failures,
        "extra": workload.extra,
    }
    meter.uninstall()
    if batches is not None:
        out["batched_runs"] = batches["batched"]
    if tracer is not None:
        out["layers"] = layertrace.layer_metrics(tracer, state)
        out["spans"] = len(tracer.start)
        if cfg.get("spans"):
            tracer.save(cfg["spans"])
    return out


def main() -> int:
    cfg = json.loads(sys.argv[1])
    try:
        out = run(cfg)
    except Exception:
        out = {"error": traceback.format_exc()}
    print(json.dumps(out))
    return 0 if "error" not in out else 1


if __name__ == "__main__":
    sys.exit(main())
