"""Golden exports of a small observed fault storm.

A 256-page ext2 file is read twice with 16-page ``pread`` chunks in one
seeded order: once blocking, once by two tenant tasks under the event
engine with block-layer merge and plug.  Telemetry, a bucket-sampled
time series with exemplars, a tenant-tracking SLO tracker and latency
forensics are attached.  Each export must equal its committed golden
file byte for byte (goldens are stored gzipped; the comparison is on
the decompressed text):

* the time series' OpenMetrics text (``timeseries.om``);
* the time series' ``to_dict()`` as JSON (``timeseries.json``);
* the registry's Prometheus text (``metrics.prom``);
* the Chrome trace-event JSON of every span (``trace.json``).

The exports carry virtual times, so they also depend on the seeded
numpy device streams.  Regenerate (only when an export is meant to
change) with::

    PYTHONPATH=src python tests/test_obs_golden.py
"""

from __future__ import annotations

import gzip
import itertools
import json
from itertools import zip_longest
from pathlib import Path
from random import Random

import pytest

import repro.fs.inode as inode_mod
from repro.block.merge import BlockConfig
from repro.machine import Machine
from repro.obs import LatencyForensics, SloTracker, Telemetry
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import PAGE_SIZE

GOLDEN = Path(__file__).parent / "golden"

FILE_PAGES = 256
CHUNK_PAGES = 16
SLO_OBJECTIVES = {"memory": 0.001, "disk": 0.02, "nfs": 0.06,
                  "cdrom": 1.0, "tape": 300.0}


def observed_storm() -> dict[str, str]:
    """Run the scenario and return ``{golden file name: export text}``."""
    # inode ids come from a process-global counter and reach the trace
    # args; restart it so the export does not depend on test order
    saved = inode_mod._inode_ids
    inode_mod._inode_ids = itertools.count(1)
    try:
        machine = Machine.unix_utilities(cache_pages=64, seed=2024)
        machine.boot()
        machine.ext2.create_text_file("storm.dat", FILE_PAGES * PAGE_SIZE,
                                      seed=11)
    finally:
        inode_mod._inode_ids = saved
    kernel = machine.kernel
    path = "/mnt/ext2/storm.dat"

    telemetry = Telemetry()
    telemetry.attach(kernel)
    forensics = LatencyForensics(kernel, top_k=16)
    timeseries = telemetry.enable_timeseries(
        interval=0.02, sample_buckets=True, exemplars=forensics.reservoir)
    slo = SloTracker.for_classes(SLO_OBJECTIVES, registry=telemetry.registry,
                                 track_tenants=True).attach(telemetry)
    forensics.attach(telemetry, slo=slo)

    chunk = CHUNK_PAGES * PAGE_SIZE
    offsets = list(range(0, FILE_PAGES * PAGE_SIZE, chunk))
    Random(5).shuffle(offsets)

    # pass 1: blocking preads
    fd = kernel.open(path)
    kernel.get_sleds(fd)
    for offset in offsets:
        kernel.pread(fd, offset, chunk)
    kernel.close(fd)

    # pass 2: two tenants under the event engine, merge + plug on
    engine = kernel.attach_engine(block=BlockConfig(merge=True, plug=True))

    def reader(start):
        rfd = kernel.open(path)
        kernel.get_sleds(rfd)
        for offset in offsets[start::2]:
            yield from kernel.pread_async(rfd, offset, chunk)
        kernel.close(rfd)

    tasks = [Task(f"r{i}", reader(i), tenant=f"t{i}") for i in range(2)]
    EventScheduler(kernel, tasks, engine=engine).run()
    timeseries.sample(kernel.clock.now)
    forensics.analyze(top=4)

    return {
        "timeseries.om": timeseries.render_openmetrics(),
        "timeseries.json": json.dumps(timeseries.to_dict(), indent=1) + "\n",
        "metrics.prom": telemetry.render_prometheus(),
        "trace.json": json.dumps(telemetry.chrome_trace(), indent=1) + "\n",
    }


@pytest.fixture(scope="module")
def exports():
    return observed_storm()


@pytest.mark.parametrize("name", ["timeseries.om", "timeseries.json",
                                  "metrics.prom", "trace.json"])
def test_export_matches_golden(exports, name):
    golden = gzip.decompress((GOLDEN / f"{name}.gz").read_bytes()).decode()
    if exports[name] != golden:
        # name the first differing line; a full diff of megabytes of
        # text would take pytest minutes to render
        pairs = zip_longest(exports[name].splitlines(),
                            golden.splitlines())
        line, (got, want) = next((i, pair) for i, pair in
                                 enumerate(pairs, 1) if pair[0] != pair[1])
        pytest.fail(f"{name} differs from its golden at line {line}:\n"
                    f"  got:    {got!r}\n  golden: {want!r}")


def test_scenario_is_not_trivial(exports):
    """The goldens cover what the sampler caches: many rows, histogram
    bucket lines with exemplars, and series created after sampling
    started (the second pass's tenant and queue series)."""
    rows = json.loads(exports["timeseries.json"])["rows"]
    assert len(rows) >= 20
    assert "# {trace_id=" in exports["timeseries.om"]
    first, last = set(rows[0]["values"]), set(rows[-1]["values"])
    assert first < last


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in observed_storm().items():
        target = GOLDEN / f"{name}.gz"
        target.write_bytes(gzip.compress(text.encode(), mtime=0))
        print(f"wrote {target} ({len(text)} bytes uncompressed)")
