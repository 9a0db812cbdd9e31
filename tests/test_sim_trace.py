"""Tests for the event tracer and its kernel integration."""

import pytest

from repro.block.merge import BlockConfig
from repro.machine import Machine
from repro.sim.tasks import EventScheduler, Task
from repro.sim.trace import TraceEvent, Tracer, render_timeline
from repro.sim.units import PAGE_SIZE


class TestTracer:
    def test_emit_and_filter(self):
        tracer = Tracer()
        tracer.emit(1.0, "syscall", "read", 0.001)
        tracer.emit(2.0, "fault", "disk", 0.02, page=3)
        assert len(tracer) == 2
        assert len(tracer.events(kind="fault")) == 1
        assert tracer.events(kind="syscall", detail="read")[0].time == 1.0
        assert tracer.events(since=1.5)[0].kind == "fault"

    def test_attrs(self):
        event = TraceEvent(1.0, "fault", "disk", 0.02,
                           attrs=(("cluster", 4), ("page", 3)))
        assert event.attr("page") == 3
        assert event.attr("nope", "dflt") == "dflt"

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.emit(float(i), "syscall", f"s{i}")
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert tracer.events()[0].detail == "s2"

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_time_by(self):
        tracer = Tracer()
        tracer.emit(0.0, "fault", "disk", 0.5)
        tracer.emit(1.0, "fault", "disk", 0.25)
        tracer.emit(2.0, "fault", "nfs", 1.0)
        totals = tracer.time_by(lambda e: e.detail, kind="fault")
        assert totals == {"disk": 0.75, "nfs": 1.0}

    def test_first(self):
        tracer = Tracer()
        tracer.emit(0.0, "syscall", "open")
        tracer.emit(1.0, "syscall", "read")
        assert tracer.first("syscall").detail == "open"
        assert tracer.first("syscall", "read").time == 1.0
        assert tracer.first("fault") is None

    def test_clear(self):
        tracer = Tracer()
        tracer.emit(0.0, "syscall", "open")
        tracer.clear()
        assert len(tracer) == 0

    def test_filters_compose(self):
        tracer = Tracer()
        tracer.emit(0.0, "syscall", "read")
        tracer.emit(1.0, "syscall", "read")
        tracer.emit(2.0, "syscall", "write")
        tracer.emit(3.0, "fault", "read")  # detail collides across kinds
        events = tracer.events(kind="syscall", detail="read", since=0.5)
        assert len(events) == 1
        assert events[0].time == 1.0


class TestKernelIntegration:
    def _traced_machine(self):
        machine = Machine.unix_utilities(cache_pages=64, seed=501)
        machine.boot()
        tracer = Tracer()
        machine.kernel.attach_tracer(tracer)
        return machine, tracer

    def test_syscalls_traced_by_name(self):
        machine, tracer = self._traced_machine()
        machine.ext2.create_text_file("f", 4 * PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        k.read(fd, 100)
        k.lseek(fd, 0)
        k.close(fd)
        names = [e.detail for e in tracer.events(kind="syscall")]
        assert names == ["open", "read", "lseek", "close"]

    def _solo_fault_trace(self, block):
        """A solo task's fault events reading a 48-page file in 16-page
        chunks: blocking (``block == "blocking"``) or under an engine
        with ``block`` as its block-layer config."""
        machine, tracer = self._traced_machine()
        machine.ext2.create_text_file("f", 48 * PAGE_SIZE, seed=1)
        kernel = machine.kernel
        path = "/mnt/ext2/f"
        if block == "blocking":
            kernel.warm_file(path, chunk=16 * PAGE_SIZE)
        else:
            engine = kernel.attach_engine(block=block)

            def reader():
                fd = kernel.open(path)
                while (yield from kernel.read_async(fd, 16 * PAGE_SIZE)):
                    pass
                kernel.close(fd)

            EventScheduler(kernel, [Task("solo", reader())],
                           engine=engine).run()
        inode = kernel.stat(path).inode_id
        return [(e.attr("page"), e.attr("cluster"), e.attr("inode") == inode,
                 e.detail, e.duration)
                for e in tracer.events(kind="fault")]

    @pytest.mark.parametrize("block", [
        "blocking",
        None,  # serial engine executor
        BlockConfig(),  # all off: still the serial executor
        # block-front executor with no class allowed to merge
        BlockConfig(merge=True, merge_policies={}),
    ], ids=["blocking", "engine", "engine-block-off", "engine-block-front"])
    def test_faults_traced_with_cluster_info(self, block):
        faults = self._solo_fault_trace(block)
        assert faults
        assert sum(cluster for _, cluster, *_ in faults) == 48
        assert all(own and detail == "disk" and duration > 0
                   for _, _, own, detail, duration in faults)
        # every executor commits the same clusters with the same durations
        assert faults == self._solo_fault_trace("blocking")

    def test_ioctls_traced_by_command_name(self):
        machine, tracer = self._traced_machine()
        machine.ext2.create_text_file("f", PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        k.get_sleds(fd)
        k.close(fd)
        assert tracer.first("syscall", "FSLEDS_GET") is not None

    def test_detach_stops_recording(self):
        machine, tracer = self._traced_machine()
        machine.kernel.detach_tracer()
        machine.ext2.create_text_file("f", PAGE_SIZE, seed=1)
        machine.kernel.warm_file("/mnt/ext2/f")
        assert len(tracer.events(kind="fault")) == 0

    def test_warm_run_emits_no_faults(self):
        machine, tracer = self._traced_machine()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)
        machine.kernel.warm_file("/mnt/ext2/f")
        tracer.clear()
        machine.kernel.warm_file("/mnt/ext2/f")
        assert tracer.events(kind="fault") == []

    def test_disabled_tracer_costs_nothing(self):
        """Tracing must not perturb virtual time: with the tracer detached
        the run is bit-identical to one on a machine that never traced."""
        plain = Machine.unix_utilities(cache_pages=64, seed=501)
        plain.boot()
        plain.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)

        machine, tracer = self._traced_machine()
        machine.kernel.detach_tracer()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)

        with plain.kernel.process() as want:
            plain.kernel.warm_file("/mnt/ext2/f")
        with machine.kernel.process() as got:
            machine.kernel.warm_file("/mnt/ext2/f")
        assert len(tracer) == 0
        assert got.elapsed == want.elapsed
        assert got.by_category == want.by_category


class TestTimeline:
    def test_render_empty(self):
        assert render_timeline([]) == "(no events)"

    def test_render_contains_lanes(self):
        events = [
            TraceEvent(0.0, "syscall", "read", 0.0),
            TraceEvent(0.5, "fault", "disk", 0.2),
        ]
        text = render_timeline(events, width=40)
        assert "syscall" in text
        assert "fault" in text
        assert "|" in text or "#" in text

    def test_render_single_event(self):
        # one event: the time span is degenerate but must still render
        text = render_timeline([TraceEvent(1.0, "fault", "disk", 0.0)],
                               width=40)
        assert "fault" in text
        assert "|" in text

    def test_render_zero_duration_uses_tick_glyph(self):
        events = [
            TraceEvent(0.0, "syscall", "open", 0.0),
            TraceEvent(1.0, "fault", "disk", 0.5),
        ]
        text = render_timeline(events, width=40)
        syscall_row = next(l for l in text.splitlines() if "syscall" in l)
        fault_row = next(l for l in text.splitlines() if "fault" in l)
        assert "|" in syscall_row and "#" not in syscall_row
        assert "#" in fault_row
