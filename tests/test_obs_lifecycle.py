"""Lifecycle tracing: exact component closure, critical path, zero cost.

The tentpole invariants:

* every traced request's breakdown *closes*: ``fsum([queue_wait,
  *components]) == latency`` exactly (``math.fsum`` is exact, so this is
  an equality, not an approx);
* the critical-path walk satisfies the telescoping identity
  ``makespan == cpu_head + Σ(latency + gap_after)``;
* tracing is zero-cost when attached: virtual times, fault counts and
  per-task stats are bit-identical with and without telemetry
  (property-tested over seeds).
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machine import Machine
from repro.obs import Telemetry, critical_path
from repro.obs.lifecycle import LifecycleRecord, _close
from repro.sim.tasks import EventScheduler, Task, reader_task_async
from repro.sim.units import PAGE_SIZE

FILE_PAGES = 64
PATHS = ["/mnt/ext2/a.dat", "/mnt/cdrom/b.dat", "/mnt/nfs/c.dat"]


def _three_reader_world(seed: int = 4242) -> Machine:
    machine = Machine.unix_utilities(cache_pages=4096, seed=seed)
    machine.boot()
    size = FILE_PAGES * PAGE_SIZE
    machine.ext2.create_text_file("a.dat", size, seed=1)
    machine.cdrom.create_file("b.dat", size)
    machine.nfs.create_text_file("c.dat", size, seed=3)
    return machine


def _run_traced(machine: Machine):
    kernel = machine.kernel
    telemetry = Telemetry()
    kernel.attach_telemetry(telemetry)
    kernel.attach_engine()
    start = kernel.clock.now
    tasks = [Task(f"r{i}", reader_task_async(kernel, path))
             for i, path in enumerate(PATHS)]
    stats = EventScheduler(kernel, tasks).run()
    end = kernel.clock.now
    kernel.detach_engine()
    kernel.detach_telemetry()
    return telemetry, start, end, stats


@st.composite
def _breakdowns(draw):
    """(components, queue_wait, latency) with the latency a measured
    total would have: the parts' sum, scaled by a small noise factor
    and moved a few ulps by float daylight."""
    seconds = st.floats(1e-9, 1e-2)
    components = {f"c{i}": value for i, value in enumerate(
        draw(st.lists(seconds, min_size=1, max_size=6)))}
    queue_wait = draw(st.sampled_from([0.0]) | seconds)
    latency = math.fsum([queue_wait, *components.values()])
    latency *= draw(st.sampled_from([1.0]) | st.floats(1.0, 1.05))
    ulps = draw(st.integers(-3, 3))
    for _ in range(abs(ulps)):
        latency = math.nextafter(latency, math.copysign(math.inf, ulps))
    return components, queue_wait, latency


class TestExactClosure:

    @settings(max_examples=300, deadline=None)
    @given(_breakdowns())
    @example(({"c0": 1.5990187087857067e-06, "c1": 9.566394159445417e-07,
               "c2": 0.00011251772086312719},
              0.0, 0.00011507337898785756))
    def test_close_is_exact_for_any_breakdown(self, breakdown):
        """The closed breakdown sums to the latency exactly, also when
        the exact sum sits halfway between two doubles (the pinned
        example, where the plain ``residual += err`` iteration
        oscillates)."""
        components, queue_wait, latency = breakdown
        closed = _close(components, queue_wait, latency)
        assert math.fsum([queue_wait, *dict(closed).values()]) == latency

    def test_every_record_closes_exactly(self):
        telemetry, _, _, _ = _run_traced(_three_reader_world())
        records = list(telemetry.lifecycle.records)
        assert len(records) > 10
        for rec in records:
            total = math.fsum(
                [rec.queue_wait] + [s for _, s in rec.components])
            assert total == rec.latency  # exact, not approx
            assert math.fsum(rec.attribution().values()) == rec.latency

    def test_records_carry_causal_context(self):
        telemetry, _, _, _ = _run_traced(_three_reader_world())
        records = list(telemetry.lifecycle.records)
        classes = {rec.device_class for rec in records}
        assert {"disk", "cdrom", "nfs"} <= classes
        assert {rec.task for rec in records} <= {"r0", "r1", "r2"}
        for rec in records:
            assert rec.kind == "fault"
            assert rec.cluster >= 1
            assert rec.nbytes == rec.cluster * PAGE_SIZE
            assert rec.submit_time <= rec.start_time <= rec.finish_time
        names = {name for rec in records for name, _ in rec.components}
        assert "transfer" in names

    def test_breakdown_histograms_registered(self):
        telemetry, _, _, _ = _run_traced(_three_reader_world())
        body = telemetry.render_prometheus()
        assert "lifecycle_request_seconds" in body
        assert "lifecycle_component_seconds" in body
        table = telemetry.lifecycle.breakdown()
        # per-class component totals equal the per-class latency totals
        for cls, parts in table.items():
            latencies = math.fsum(
                rec.latency for rec in telemetry.lifecycle.records
                if rec.device_class == cls)
            assert math.fsum(parts.values()) == pytest.approx(
                latencies, rel=1e-12, abs=1e-15)


class TestCriticalPath:

    def test_telescoping_identity_on_real_run(self):
        telemetry, start, end, _ = _run_traced(_three_reader_world())
        report = critical_path(telemetry.lifecycle.records, start, end)
        assert report.links
        accounted = report.cpu_head + report.io_time + report.gap_time
        assert accounted == pytest.approx(report.makespan, rel=1e-9)
        # chain requests are ordered and non-overlapping
        for earlier, later in zip(report.links, report.links[1:]):
            assert (earlier.record.finish_time
                    <= later.record.submit_time + 1e-12)
            assert later.gap_after >= 0.0
        # the slowest device dominates the what-if table
        rows = report.what_if()
        assert rows and rows[0][2] > 0.0

    @staticmethod
    def _rec(rec_id: int, submit: float, start: float,
             finish: float) -> LifecycleRecord:
        return LifecycleRecord(
            id=rec_id, kind="fault", task=None, fs="fs",
            device_class="disk", inode=1, page=0, cluster=1,
            nbytes=PAGE_SIZE, submit_time=submit, start_time=start,
            finish_time=finish,
            components=(("transfer", finish - start),))

    def test_greedy_walk_synthetic(self):
        a = self._rec(0, 0.0, 0.0, 4.0)
        b = self._rec(1, 4.0, 4.5, 6.0)   # 0.5s queued behind a
        c = self._rec(2, 6.5, 6.5, 10.0)
        off = self._rec(3, 0.0, 0.0, 2.0)  # finishes early, not on path
        report = critical_path([off, c, a, b], start=0.0, end=10.0)
        assert [link.record.id for link in report.links] == [0, 1, 2]
        assert [link.gap_after for link in report.links] == [0.0, 0.5, 0.0]
        assert report.cpu_head == 0.0
        assert (report.cpu_head + report.io_time + report.gap_time
                == pytest.approx(report.makespan))

    def test_tie_breaks_prefer_longer_then_newer(self):
        short = self._rec(5, 3.0, 3.0, 4.0)
        long_ = self._rec(4, 1.0, 1.0, 4.0)  # same finish, longer latency
        report = critical_path([short, long_], start=0.0, end=4.0)
        assert report.links[-1].record.id == 4

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            critical_path([], start=2.0, end=1.0)


class TestHsmAndWriteback:

    def test_hsm_stage_in_is_attributed(self):
        machine = Machine.hsm(cache_pages=2048, seed=7)
        machine.boot()
        kernel = machine.kernel
        fs = machine.hsmfs
        inode = fs.create_tape_file("t.dat", 32 * PAGE_SIZE, "VOL000")
        fs.migrate_to_tape(inode)  # authoritative copy on tape only
        telemetry = Telemetry()
        kernel.attach_telemetry(telemetry)
        fd = kernel.open("/mnt/hsm/t.dat")
        kernel.read(fd, 8 * PAGE_SIZE)
        kernel.detach_telemetry()
        kernel.close(fd)
        records = list(telemetry.lifecycle.records)
        assert records
        names = {name for rec in records for name, _ in rec.components}
        # tape→stage-disk writes fold into "stage"; never a raw write_*
        assert "stage" in names
        assert not any(name.startswith("write_") for name in names)
        for rec in records:
            total = math.fsum(
                [rec.queue_wait] + [s for _, s in rec.components])
            assert total == rec.latency

    def test_autochanger_mount_time_accrues(self):
        machine = Machine.hsm(cache_pages=2048, seed=9)
        machine.boot()
        changer = machine.hsmfs.autochanger
        _, duration = changer.mount("VOL001")
        assert duration > 0.0
        assert changer.component_totals["mount"] == pytest.approx(duration)

    def test_writeback_records_under_engine(self):
        machine = Machine.unix_utilities(cache_pages=4096, seed=11)
        machine.boot()
        kernel = machine.kernel
        machine.ext2.create_file("w.dat", 32 * PAGE_SIZE)
        telemetry = Telemetry()
        kernel.attach_telemetry(telemetry)
        kernel.attach_engine()

        def writer():
            fd = kernel.open("/mnt/ext2/w.dat", "r+")
            kernel.write(fd, b"x" * (8 * PAGE_SIZE))
            yield from kernel.fsync_async(fd)
            kernel.close(fd)

        EventScheduler(kernel, [Task("w", writer())]).run()
        kernel.detach_engine()
        kernel.detach_telemetry()
        writebacks = [rec for rec in telemetry.lifecycle.records
                      if rec.kind == "writeback"]
        assert writebacks
        for rec in writebacks:
            assert rec.page == -1
            assert rec.task == "w"
            total = math.fsum(
                [rec.queue_wait] + [s for _, s in rec.components])
            assert total == rec.latency
            assert not any(name.startswith("write_")
                           for name, _ in rec.components)


class TestPredictionJoin:

    def test_records_join_sled_predictions(self):
        machine = _three_reader_world(seed=5)
        kernel = machine.kernel
        telemetry = Telemetry()
        kernel.attach_telemetry(telemetry)
        kernel.attach_engine()
        for path in PATHS:
            fd = kernel.open(path)
            kernel.get_sleds(fd)
            kernel.close(fd)
        tasks = [Task(f"r{i}", reader_task_async(kernel, path))
                 for i, path in enumerate(PATHS)]
        EventScheduler(kernel, tasks).run()
        kernel.detach_engine()
        kernel.detach_telemetry()
        predicted = [rec for rec in telemetry.lifecycle.records
                     if rec.predicted_latency is not None]
        assert predicted
        report = telemetry.accuracy.report()
        assert report.by_component
        assert any(component == "service"
                   for _, component in report.by_component)
        assert any(component == "queue"
                   for _, component in report.by_component)


class TestZeroCostDetached:

    @staticmethod
    def _run(seed: int, npages: int, with_telemetry: bool):
        machine = Machine.unix_utilities(cache_pages=2048, seed=seed)
        machine.boot()
        size = npages * PAGE_SIZE
        machine.ext2.create_text_file("a.dat", size, seed=1)
        machine.nfs.create_text_file("b.dat", size, seed=2)
        kernel = machine.kernel
        telemetry = Telemetry() if with_telemetry else None
        if telemetry is not None:
            kernel.attach_telemetry(telemetry)
        kernel.attach_engine()
        tasks = [
            Task("a", reader_task_async(kernel, "/mnt/ext2/a.dat")),
            Task("b", reader_task_async(kernel, "/mnt/nfs/b.dat")),
        ]
        stats = EventScheduler(kernel, tasks).run()
        kernel.detach_engine()
        if telemetry is not None:
            kernel.detach_telemetry()
            assert len(telemetry.lifecycle) > 0
        return (kernel.clock.now, kernel.counters.hard_faults,
                {name: (s.virtual_time, s.wait_time, s.hard_faults,
                        s.io_waits)
                 for name, s in stats.items()})

    @pytest.mark.parametrize("seed", [1, 17, 923, 31337])
    def test_bit_identical_with_and_without_tracing(self, seed):
        npages = random.Random(seed).randrange(16, 96)
        baseline = self._run(seed, npages, with_telemetry=False)
        traced = self._run(seed, npages, with_telemetry=True)
        assert baseline == traced  # ==, not approx: bit-identical
