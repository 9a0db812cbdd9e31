#!/usr/bin/env python3
"""The SLED simulator's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload storm --seed 1 --seconds 25 --trace 0

Run from the repository root.  Workloads (see ``workloads.py``):
``storm``, ``scan``, ``tenants``, ``storm_observed``.

Each repetition runs in a fresh interpreter (``rep.py``), one after
another, as many as fit in ``--seconds`` (at least three).  Each one
builds its machine, boots, creates its files and builds the text
corpus (``setup_s``), then runs a fixed amount of simulated work.
Virtual results must be identical across repetitions at one seed; the
benchmark fails its correctness check otherwise.

``--trace 0`` prints the end-to-end metrics.  The timed phase is cut
into windows of milliseconds to a few hundred: a quarter pass of
``storm``, one ``pread`` of ``storm_observed``, a pass of ``scan``, a
round of ``tenants``.  Interference from other work on a shared host
only ever slows a window down, and on a small shared box it comes in
slow spells of seconds to minutes that can cover whole repetitions, so
medians of host time move by up to 40% between identical runs.  Host
speed is therefore read from the best window of the run, pooled over
all repetitions: ``host_faults_per_s`` is the highest per-window
throughput and ``host_op_us_p50`` the lowest per-window median
operation time.  The median window is recorded beside them.
``setup_s`` and ``peak_mem_MB`` are medians over repetitions.  One more
repetition runs on a held-out seed and is recorded beside the main
one, never folded into the metrics.  Successive repetitions run pinned
to successive CPUs of the allowed set (see ``repeat``).

``--trace 1`` alternates an untraced and a traced repetition and prints
the per-layer metrics (``layertrace.py``), plus ``trace_overhead``:
traced / untraced wall time of the timed phase.  The traced run must
reproduce the untraced run's virtual fingerprint and its count of
batched device runs.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Provenance and per-repetition details go to the line before it and to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("storm", "scan", "tenants", "storm_observed")
MIN_REPS = 3
#: no repetition starts after this many seconds (runs end within 180 s)
LAST_START_S = 110.0
REP_TIMEOUT_S = 120.0

END_TO_END = {
    "host_faults_per_s": "faults/s",
    "host_op_us_p50": "us",
    "setup_s": "s",
    "peak_mem_MB": "MB",
    "virt_makespan_s": "virt_s",
    "virt_op_ms_p50": "virt_ms",
    "virt_op_ms_p99": "virt_ms",
    "sleds_gain": "ratio",
    "tenant_jain": "index",
}
VIRTUAL = ("virt_makespan_s", "virt_op_ms_p50", "virt_op_ms_p99",
           "sleds_gain", "tenant_jain")

#: per-layer metric -> unit; ``*_s`` and ``us_per_event`` are host
#: timings (median over traced repetitions), the rest repeat exactly
PER_LAYER = {
    "kernel.syscalls": "count", "kernel.hard_faults": "count",
    "kernel.pages_read": "count", "kernel.readahead_pages": "count",
    "kernel.self_s": "s",
    "fs.read_pages_calls": "count", "fs.span_estimates_calls": "count",
    "fs.content_bytes": "bytes", "fs.content_self_s": "s", "fs.self_s": "s",
    "cache.hits": "count", "cache.misses": "count",
    "cache.hit_ratio": "ratio", "cache.evictions": "count",
    "cache.insert_calls": "count", "cache.pages_per_insert": "pages",
    "cache.self_s": "s",
    "devices.requests": "count", "devices.batched_runs": "count",
    "devices.declined_runs": "count", "devices.pages_per_run": "pages",
    "devices.seeks": "count", "devices.errors": "count",
    "devices.busy_virt_s": "virt_s", "devices.self_s": "s",
    "block.runs_in": "count", "block.requests_out": "count",
    "block.merge_ratio": "ratio", "block.plug_flushes": "count",
    "block.plug_hold_virt_s": "virt_s", "block.queue_wait_virt_s": "virt_s",
    "block.depth_max": "count", "block.self_s": "s",
    "sim.events_fired": "count", "sim.task_resumes": "count",
    "sim.us_per_event": "us", "sim.self_s": "s",
    "core.get_sleds_calls": "count", "core.sled_builds": "count",
    "core.sled_cache_hit_ratio": "ratio", "core.runs_per_vector": "count",
    "core.pick_calls": "count", "core.self_s": "s",
    "obs.fault_callbacks": "count", "obs.callbacks_per_fault": "ratio",
    "obs.lifecycle_records": "count", "obs.timeseries_samples": "count",
    "obs.analyze_s": "s", "obs.self_s": "s",
    "apps.self_s": "s",
    "trace_overhead": "ratio",
}
HOST_LAYER = tuple(name for name, unit in PER_LAYER.items()
                   if unit in ("s", "us") or name == "trace_overhead")


def heldout_seed(seed: int) -> int:
    """A second seed no tuning run uses, derived from the main one."""
    return (seed * 1_000_003 + 424_242) % (2 ** 31 - 1)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def calibration_s() -> list[float]:
    """A fixed pure-Python loop, timed three times.  Recorded so a
    different box can be told apart from a regression; never used to
    scale a metric."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return times


def provenance(workload: str, seed: int) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    calib = calibration_s()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "heldout_seed": heldout_seed(seed),
        "SLEDS_NO_VECTOR": os.environ.get("SLEDS_NO_VECTOR"),
        "calibration_s": calib,
        "calibration_median_s": statistics.median(calib),
    }


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

def rep(cfg: dict) -> dict:
    """One repetition in a fresh interpreter; waits for it to end."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), json.dumps(cfg)],
            capture_output=True, text=True, timeout=REP_TIMEOUT_S, env=env,
            cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out: {cfg}"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {proc.returncode}: {proc.stderr[-4000:]}"}


def repeat(make_cfgs, seconds: float, started: float) -> list:
    """Run batches of repetitions until ``seconds`` have passed.

    Successive batches run pinned to successive CPUs: interference on a
    shared host slows one CPU at a time (slowdowns of two CPUs correlate
    weakly), so a slow spell on one CPU does not cover a whole run."""
    cpus = sorted(os.sched_getaffinity(0))
    batches = []
    first = time.monotonic()
    while True:
        now = time.monotonic()
        if batches:
            # stop when the next batch would end past ``seconds``
            per_batch = (now - first) / len(batches)
            if now - started > LAST_START_S or (
                    len(batches) >= MIN_REPS
                    and now + per_batch - started > seconds):
                break
        cpu = cpus[len(batches) % len(cpus)]
        batch = [rep(dict(cfg, cpu=cpu)) for cfg in make_cfgs()]
        batches.append(batch)
        if any("error" in r for r in batch):
            break
    return batches


def median(values) -> float:
    return float(statistics.median(values))


def summary(r: dict) -> dict:
    """The small part of a repetition worth keeping in the record."""
    if "error" in r:
        return r
    return {key: r[key] for key in (
        "setup_s", "wall_s", "check_s", "phase_faults_per_s", "peak_mem_MB",
        "attempted", "failed", "failures", "virtual", "extra") if key in r}


def end_to_end(args, started: float) -> tuple[dict, dict]:
    base = {"workload": args.workload, "seed": args.seed, "trace": 0}
    reps = [b[0] for b in repeat(lambda: [base], args.seconds, started)]
    held = rep(dict(base, seed=heldout_seed(args.seed)))
    record: dict = {"reps": [summary(r) for r in reps],
                    "heldout": summary(held)}
    errors = [r["error"] for r in reps if "error" in r]
    good = [r for r in reps if "error" not in r]
    checks = {"no_errors": not errors}
    if good:
        first = good[0]["virtual"]
        checks["deterministic"] = all(r["virtual"] == first for r in good)
        if args.workload == "storm_observed":
            bare = rep(dict(base, observed=False))
            record["bare"] = summary(bare)
            checks["observed_equals_bare"] = (
                "error" not in bare and bare["virtual"] == first)
    checks["heldout_ok"] = "error" not in held and held["failed"] == 0
    attempted = sum(r.get("attempted", 0) for r in good) or 1
    failed = sum(r.get("failed", 0) for r in good) + len(errors)
    record["checks"] = checks
    record["failures"] = errors + [f for r in good for f in r["failures"]]
    result = {"correct": all(checks.values()) and failed == 0,
              "attempted": attempted, "failed": failed}
    if not good:
        return result, record
    rates = [w for r in good for w in r["window_faults_per_s"]]
    op_us = [w for r in good for w in r["window_op_us_p50"]]
    values = {
        "host_faults_per_s": max(rates),
        "host_op_us_p50": min(op_us),
        "setup_s": median(r["setup_s"] for r in good),
        "peak_mem_MB": median(r["peak_mem_MB"] for r in good),
        **{name: first[name] for name in VIRTUAL},
    }
    record["info"] = {
        "repetitions": len(good),
        "windows": len(rates),
        "median_window_faults_per_s": median(rates),
        "median_window_op_us_p50": median(op_us),
        "median_rep_op_us_p50": median(r["op_us_p50"] for r in good),
        "median_rep_op_us_p99": median(r["op_us_p99"] for r in good),
        "virt_op_samples": first["virt_samples"],
        "failed_op_ratio": failed / attempted,
    }
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in END_TO_END.items()}
    return result, record


def per_layer(args, started: float) -> tuple[dict, dict]:
    base = {"workload": args.workload, "seed": args.seed}
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"

    def pair():
        return [dict(base, trace=0, count_batches=True),
                dict(base, trace=1, spans=str(spans))]

    pairs = repeat(pair, args.seconds, started)
    record: dict = {"pairs": [[summary(r) for r in p] for p in pairs]}
    errors = [r["error"] for p in pairs for r in p if "error" in r]
    good = [p for p in pairs if not any("error" in r for r in p)]
    checks = {"no_errors": not errors}
    if good:
        untraced, traced = good[0]
        checks["deterministic"] = all(
            r["virtual"] == untraced["virtual"] for p in good for r in p)
        checks["same_batched_runs"] = all(
            t["layers"]["devices.batched_runs"] == u["batched_runs"]
            for u, t in good)
    attempted = sum(r.get("attempted", 0) for p in good for r in p) or 1
    failed = (sum(r.get("failed", 0) for p in good for r in p)
              + len(errors))
    record["checks"] = checks
    record["failures"] = errors + [f for p in good for r in p
                                   for f in r["failures"]]
    result = {"correct": all(checks.values()) and failed == 0,
              "attempted": attempted, "failed": failed}
    if not good:
        return result, record
    layers = dict(good[0][1]["layers"])
    for name in HOST_LAYER:
        if name != "trace_overhead":
            layers[name] = median(t["layers"][name] for _, t in good)
    layers["trace_overhead"] = median(t["wall_s"] / u["wall_s"]
                                      for u, t in good)
    record["info"] = {"pairs": len(good), "spans": good[0][1]["spans"],
                      "spans_file": str(spans.relative_to(ROOT))}
    result["metrics"] = {name: {"value": layers[name], "unit": unit}
                         for name, unit in PER_LAYER.items()}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    prov = provenance(args.workload, args.seed)
    if args.trace:
        result, record = per_layer(args, started)
    else:
        result, record = end_to_end(args, started)
    record = {"provenance": prov, **record,
              "elapsed_s": time.monotonic() - started}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"result": result, **record}, indent=1))
    print(json.dumps(record))
    if "metrics" not in result:
        print(json.dumps(result), file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
