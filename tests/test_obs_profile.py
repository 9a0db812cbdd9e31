"""Tests for the hot-path wall-clock profiler (repro.obs.profile)."""

import inspect
import time

import pytest

import repro.kernel.kernel as kernel_module
from repro.block import BlockConfig
from repro.cache.page_cache import PageCache
from repro.devices.base import Device
from repro.kernel.kernel import Kernel
from repro.machine import Machine
from repro.obs import HotPathProfiler
from repro.obs.profile import HOOKS, SITES
from repro.sim.events import EventLoop
from repro.sim.tasks import EventScheduler, Task, reader_task_async
from repro.sim.units import MB, PAGE_SIZE


def _sleeper(seconds, result=None):
    def fake(*args, **kwargs):
        time.sleep(seconds)
        return result
    return fake


def _originals():
    return {(owner, attribute): vars(owner)[attribute]
            for _, owner, attribute, _ in HOOKS}


class TestAccounting:
    """Sites timed around stand-in functions put in the hooked slots."""

    def test_calls_accumulate(self, monkeypatch):
        monkeypatch.setattr(EventLoop, "step", lambda self: True)
        with HotPathProfiler() as prof:
            EventLoop.step(None)
            EventLoop.step(None)
        site = prof.rows()[0]
        assert site["site"] == "event_loop.dispatch"
        assert site["calls"] == 2
        assert site["wall_seconds"] >= 0.0
        assert prof.calls("event_loop.dispatch") == 2
        assert prof.calls("never.hit") == 0

    def test_keep_filters_on_the_result(self, monkeypatch):
        monkeypatch.setattr(EventLoop, "step", lambda self: False)
        monkeypatch.setattr(PageCache, "insert_run",
                            lambda self, *args: None)
        with HotPathProfiler() as prof:
            assert EventLoop.step(None) is False
            assert PageCache.insert_run(None, 1, 0, 4) is None
        assert prof.rows() == [] and prof.total_wall_seconds == 0.0

    def test_raising_call_is_not_counted(self, monkeypatch):
        def boom(self):
            raise ValueError("boom")
        monkeypatch.setattr(Kernel, "_fault_in_batch", boom)
        monkeypatch.setattr(Device, "read_run", _sleeper(0.001))
        with HotPathProfiler() as prof:
            with pytest.raises(ValueError):
                Kernel._fault_in_batch(None)
            Device.read_run(None)
        assert prof.calls("kernel.fault_batch") == 0
        # the failed call left no depth behind: the next call is outermost
        assert prof.total_wall_seconds == pytest.approx(
            prof.rows()[0]["wall_seconds"])

    def test_wall_time_and_max(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "build_sled_vector",
                            _sleeper(0.001))
        with HotPathProfiler() as prof:
            kernel_module.build_sled_vector()
        row = prof.rows()[0]
        assert row["site"] == "kernel.sled_build"
        assert row["calls"] == 1
        assert row["wall_seconds"] >= 0.001
        assert row["wall_max_us"] >= 1000.0

    def test_rows_sorted_by_wall_time(self, monkeypatch):
        monkeypatch.setattr(PageCache, "insert", _sleeper(0.002))
        monkeypatch.setattr(PageCache, "resident_runs", _sleeper(0.0))
        with HotPathProfiler() as prof:
            PageCache.resident_runs(None)
            PageCache.insert(None)
        assert [r["site"] for r in prof.rows()] == [
            "cache.residency", "cache.resident_runs"]

    def test_wall_per_virtual_second(self, monkeypatch):
        monkeypatch.setattr(PageCache, "insert", _sleeper(0.001))
        with HotPathProfiler() as prof:
            PageCache.insert(None)
        row = prof.rows(virtual_seconds=2.0)[0]
        assert row["wall_per_virtual_second"] == (
            row["wall_seconds"] / 2.0)
        # no ratio without a virtual duration
        assert "wall_per_virtual_second" not in prof.rows()[0]

    def test_render_and_to_dict(self, monkeypatch):
        prof = HotPathProfiler()
        assert "no instrumented site was hit" in prof.render()
        monkeypatch.setattr(EventLoop, "step", lambda self: True)
        with prof:
            EventLoop.step(None)
        text = prof.render(virtual_seconds=1.0)
        assert "event_loop.dispatch" in text and "wall/vsec" in text
        dump = prof.to_dict(virtual_seconds=1.0)
        assert dump["virtual_seconds"] == 1.0
        assert dump["total_wall_seconds"] == prof.total_wall_seconds

    def test_clear(self, monkeypatch):
        monkeypatch.setattr(PageCache, "insert", _sleeper(0.0))
        with HotPathProfiler() as prof:
            PageCache.insert(None)
        prof.clear()
        assert prof.rows() == [] and prof.total_wall_seconds == 0.0

    def test_reentry_accumulates(self, monkeypatch):
        monkeypatch.setattr(EventLoop, "step", lambda self: True)
        prof = HotPathProfiler()
        for _ in range(2):
            with prof:
                EventLoop.step(None)
        assert prof.calls("event_loop.dispatch") == 2

    def test_nested_sites_count_once_in_the_total(self, monkeypatch):
        def outer(self):
            time.sleep(0.002)
            Device.read_run(None)
            Device.read_run(None)
        monkeypatch.setattr(Kernel, "_fault_in_batch", outer)
        monkeypatch.setattr(Device, "read_run", _sleeper(0.002))
        with HotPathProfiler() as prof:
            t0 = time.perf_counter()
            Kernel._fault_in_batch(None)
            elapsed = time.perf_counter() - t0
        inclusive = {r["site"]: r["wall_seconds"] for r in prof.rows()}
        assert prof.calls("device.batch_math") == 2
        # summing inclusive site times overstates the elapsed wall time
        assert sum(inclusive.values()) > elapsed
        assert prof.total_wall_seconds == inclusive["kernel.fault_batch"]
        assert prof.total_wall_seconds <= elapsed


class TestInstall:
    def test_every_site_resolves_to_a_function(self):
        assert {site for site, *_ in HOOKS} == set(SITES)
        for site, owner, attribute, keep in HOOKS:
            target = vars(owner)[attribute]
            assert inspect.isfunction(target), (site, attribute)
            assert not inspect.isgeneratorfunction(target), site
            assert keep is None or callable(keep)

    def test_originals_restored_on_exit(self):
        before = _originals()
        insert = PageCache.__dict__["insert"]
        build = kernel_module.build_sled_vector
        with HotPathProfiler():
            for (owner, attribute), original in before.items():
                assert vars(owner)[attribute] is not original
                assert vars(owner)[attribute].__wrapped__ is original
        for (owner, attribute), original in before.items():
            assert vars(owner)[attribute] is original
        assert PageCache.__dict__["insert"] is insert
        assert kernel_module.build_sled_vector is build

    def test_originals_restored_after_an_exception(self):
        before = _originals()
        with pytest.raises(RuntimeError, match="inside"):
            with HotPathProfiler():
                raise RuntimeError("inside")
        for (owner, attribute), original in before.items():
            assert vars(owner)[attribute] is original

    def test_nested_entry_is_refused(self):
        before = _originals()
        prof = HotPathProfiler()
        with prof:
            with pytest.raises(RuntimeError, match="already installed"):
                prof.__enter__()
        for (owner, attribute), original in before.items():
            assert vars(owner)[attribute] is original


class TestWiring:
    def _machine(self):
        machine = Machine.unix_utilities(cache_pages=256, seed=123)
        machine.boot()
        machine.ext2.create_text_file("data/f.txt", MB // 2, seed=7)
        return machine

    def test_blocking_pread_takes_the_batched_fault_path(self):
        machine = self._machine()
        kernel = machine.kernel
        with HotPathProfiler() as prof:
            fd = kernel.open("/mnt/ext2/data/f.txt")
            kernel.pread(fd, 0, 64 * PAGE_SIZE)
            kernel.close(fd)
        assert prof.calls("kernel.fault_batch") > 0
        assert prof.calls("device.batch_math") > 0
        assert prof.calls("cache.residency") > 0

    def _run_reader(self, machine):
        EventScheduler(machine.kernel,
                       [Task("reader",
                             reader_task_async(machine.kernel,
                                               "/mnt/ext2/data/f.txt"))]).run()

    def test_attach_before_engine(self):
        machine = self._machine()
        with HotPathProfiler() as prof:
            # an engine arriving later runs the profiled loop too
            machine.kernel.attach_engine()
            self._run_reader(machine)
        assert prof.calls("event_loop.dispatch") > 0

    def test_attach_after_engine(self):
        machine = self._machine()
        machine.kernel.attach_engine()
        with HotPathProfiler() as prof:
            self._run_reader(machine)
        assert prof.calls("event_loop.dispatch") > 0

    def test_real_run_covers_core_sites(self):
        machine = self._machine()
        path = "/mnt/ext2/data/f.txt"
        with HotPathProfiler() as prof:
            machine.kernel.attach_engine(
                block=BlockConfig(merge=True, plug=True))
            fd = machine.kernel.open(path)
            machine.kernel.get_sleds(fd)  # exercise the SLED-build site
            machine.kernel.close(fd)
            tasks = [Task("reader",
                          reader_task_async(machine.kernel, path))]
            EventScheduler(machine.kernel, tasks).run()
        hit = {row["site"] for row in prof.rows()}
        # the acceptance bar: at least dispatch + SLED builds, and every
        # site name reported is a declared one
        assert "event_loop.dispatch" in hit
        assert "kernel.sled_build" in hit
        assert "cache.residency" in hit
        assert "block.merge_flush" in hit
        assert hit <= set(SITES)
        assert prof.calls("event_loop.dispatch") > 0
