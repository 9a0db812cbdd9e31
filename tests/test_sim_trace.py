"""Kernel tracing through telemetry spans, and the timeline renderer."""

import pytest

from repro.block.merge import BlockConfig
from repro.machine import Machine
from repro.obs import Telemetry
from repro.obs.spans import Span, render_timeline
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import PAGE_SIZE


def _span(start, kind, duration):
    return Span(id=0, parent_id=None, kind=kind, name=kind, start=start,
                end=start + duration)


class TestKernelIntegration:
    def _traced_machine(self):
        machine = Machine.unix_utilities(cache_pages=64, seed=501)
        machine.boot()
        telemetry = Telemetry()
        machine.kernel.attach_telemetry(telemetry)
        return machine, telemetry.spans

    def test_syscalls_traced_by_name(self):
        machine, spans = self._traced_machine()
        machine.ext2.create_text_file("f", 4 * PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        k.read(fd, 100)
        k.lseek(fd, 0)
        k.close(fd)
        names = [s.name for s in spans.spans(kind="syscall")]
        assert names == ["open", "read", "lseek", "close"]

    def _solo_fault_trace(self, block):
        """A solo task's fault spans reading a 48-page file in 16-page
        chunks: blocking (``block == "blocking"``) or under an engine
        with ``block`` as its block-layer config.

        Durations are the seconds each fault was committed with, taken
        from a spy on ``Kernel._commit``: a span's ``end - start`` is a
        float difference and need not reproduce them exactly."""
        machine, spans = self._traced_machine()
        machine.ext2.create_text_file("f", 48 * PAGE_SIZE, seed=1)
        kernel = machine.kernel
        path = "/mnt/ext2/f"
        commits = []
        commit = kernel._commit

        def spy(of, page, cluster, window, seconds, *args, **kwargs):
            commits.append((page, cluster, seconds))
            return commit(of, page, cluster, window, seconds,
                          *args, **kwargs)

        kernel._commit = spy
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
        faults = spans.spans(kind="fault")
        assert ([(s.attr("page"), s.attr("cluster")) for s in faults]
                == [(page, cluster) for page, cluster, _ in commits])
        return [(s.attr("page"), s.attr("cluster"), s.attr("inode") == inode,
                 s.name, seconds)
                for s, (_, _, seconds) in zip(faults, commits)]

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
        machine, spans = self._traced_machine()
        machine.ext2.create_text_file("f", PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        k.get_sleds(fd)
        k.close(fd)
        assert spans.spans(kind="syscall", name="FSLEDS_GET")

    def test_detach_stops_recording(self):
        machine, spans = self._traced_machine()
        machine.kernel.detach_telemetry()
        machine.ext2.create_text_file("f", PAGE_SIZE, seed=1)
        machine.kernel.warm_file("/mnt/ext2/f")
        assert len(spans.spans(kind="fault")) == 0

    def test_warm_run_emits_no_faults(self):
        machine, spans = self._traced_machine()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)
        machine.kernel.warm_file("/mnt/ext2/f")
        spans.clear()
        machine.kernel.warm_file("/mnt/ext2/f")
        assert spans.spans(kind="fault") == []

    def test_disabled_tracer_costs_nothing(self):
        """Tracing must not perturb virtual time: with telemetry detached
        the run is bit-identical to one on a machine that never traced."""
        plain = Machine.unix_utilities(cache_pages=64, seed=501)
        plain.boot()
        plain.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)

        machine, spans = self._traced_machine()
        machine.kernel.detach_telemetry()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)

        with plain.kernel.process() as want:
            plain.kernel.warm_file("/mnt/ext2/f")
        with machine.kernel.process() as got:
            machine.kernel.warm_file("/mnt/ext2/f")
        assert len(spans) == 0
        assert got.elapsed == want.elapsed
        assert got.by_category == want.by_category


class TestTimeline:
    def test_render_empty(self):
        assert render_timeline([]) == "(no events)"

    def test_render_contains_lanes(self):
        spans = [_span(0.0, "syscall", 0.0), _span(0.5, "fault", 0.2)]
        text = render_timeline(spans, width=40)
        assert "syscall" in text
        assert "fault" in text
        assert "|" in text or "#" in text

    def test_render_single_event(self):
        # one span: the time extent is degenerate but must still render
        text = render_timeline([_span(1.0, "fault", 0.0)], width=40)
        assert "fault" in text
        assert "|" in text

    def test_render_zero_duration_uses_tick_glyph(self):
        spans = [_span(0.0, "syscall", 0.0), _span(1.0, "fault", 0.5)]
        text = render_timeline(spans, width=40)
        syscall_row = next(l for l in text.splitlines() if "syscall" in l)
        fault_row = next(l for l in text.splitlines() if "fault" in l)
        assert "|" in syscall_row and "#" not in syscall_row
        assert "#" in fault_row
