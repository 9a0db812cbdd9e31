"""Failure-injection tests: EIO propagation through the whole stack."""

import numpy as np
import pytest

from repro.apps.wc import wc
from repro.devices.disk import DiskDevice
from repro.machine import Machine
from repro.sim.errors import IoSimError
from repro.sim.units import PAGE_SIZE


def _machine():
    machine = Machine.unix_utilities(cache_pages=64, seed=801)
    machine.boot()
    return machine


class TestDeviceLevel:
    def test_injected_failure_raises_once(self):
        disk = DiskDevice(rng=np.random.default_rng(1))
        disk.inject_failures(1)
        with pytest.raises(IoSimError) as excinfo:
            disk.read(0, PAGE_SIZE)
        assert excinfo.value.errno_name == "EIO"
        assert excinfo.value.device == "disk"
        # subsequent access succeeds
        assert disk.read(0, PAGE_SIZE) > 0
        assert disk.stats.errors == 1

    def test_injected_failure_counts(self):
        disk = DiskDevice(rng=np.random.default_rng(1))
        disk.inject_failures(3)
        for _ in range(3):
            with pytest.raises(IoSimError):
                disk.read(0, PAGE_SIZE)
        disk.read(0, PAGE_SIZE)
        assert disk.stats.errors == 3

    def test_bad_range_is_persistent(self):
        disk = DiskDevice(rng=np.random.default_rng(1))
        disk.mark_bad_range(10 * PAGE_SIZE, PAGE_SIZE)
        for _ in range(2):
            with pytest.raises(IoSimError):
                disk.read(10 * PAGE_SIZE, PAGE_SIZE)
        # non-overlapping access is fine
        disk.read(0, PAGE_SIZE)

    def test_overlap_detection(self):
        disk = DiskDevice(rng=np.random.default_rng(1))
        disk.mark_bad_range(10 * PAGE_SIZE, PAGE_SIZE)
        with pytest.raises(IoSimError):
            disk.read(9 * PAGE_SIZE, 2 * PAGE_SIZE)  # straddles the defect

    def test_clear_failures(self):
        disk = DiskDevice(rng=np.random.default_rng(1))
        disk.inject_failures(5)
        disk.mark_bad_range(0, PAGE_SIZE)
        disk.clear_failures()
        disk.read(0, PAGE_SIZE)

    def test_writes_fail_too(self):
        disk = DiskDevice(rng=np.random.default_rng(1))
        disk.inject_failures(1)
        with pytest.raises(IoSimError) as excinfo:
            disk.write(0, PAGE_SIZE)
        assert excinfo.value.is_write

    def test_invalid_injection(self):
        disk = DiskDevice(rng=np.random.default_rng(1))
        with pytest.raises(ValueError):
            disk.inject_failures(-1)
        with pytest.raises(ValueError):
            disk.mark_bad_range(0, 0)


class TestKernelPropagation:
    def test_read_surfaces_eio(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)
        machine.ext2.device.inject_failures(1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        with pytest.raises(IoSimError):
            k.read(fd, PAGE_SIZE)
        k.close(fd)

    def test_failed_cluster_not_cached(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)
        machine.ext2.device.inject_failures(1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        with pytest.raises(IoSimError):
            k.read(fd, PAGE_SIZE)
        inode = k.resolve("/mnt/ext2/f")[1]
        assert k.page_cache.resident_count(inode.id, 8) == 0
        # retry after the transient error succeeds and caches
        k.lseek(fd, 0)
        assert len(k.read(fd, PAGE_SIZE)) == PAGE_SIZE
        assert k.page_cache.resident_count(inode.id, 8) > 0
        k.close(fd)

    def test_application_surfaces_eio(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)
        machine.ext2.device.inject_failures(1)
        with pytest.raises(IoSimError):
            wc(machine.kernel, "/mnt/ext2/f")

    def test_cached_reads_unaffected_by_device_failure(self):
        """The SLEDs story even applies to errors: cached data stays
        readable while the device is failing."""
        machine = _machine()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)
        k = machine.kernel
        k.warm_file("/mnt/ext2/f")
        machine.ext2.device.inject_failures(100)
        result = wc(k, "/mnt/ext2/f", use_sleds=True)
        assert result.chars == 8 * PAGE_SIZE
        machine.ext2.device.clear_failures()

    def test_writeback_surfaces_eio(self):
        machine = _machine()
        k = machine.kernel
        fd = k.open("/mnt/ext2/out.dat", "w")
        k.write(fd, b"x" * PAGE_SIZE)
        machine.ext2.device.inject_failures(1)
        with pytest.raises(IoSimError):
            k.fsync(fd)
        machine.ext2.device.clear_failures()
        k.close(fd)

    def test_dirty_state_survives_failed_flush(self):
        """A failed writeback keeps the pages dirty; a retry succeeds."""
        machine = _machine()
        k = machine.kernel
        fd = k.open("/mnt/ext2/retry.dat", "w")
        k.write(fd, b"y" * (2 * PAGE_SIZE))
        machine.ext2.device.inject_failures(1)
        with pytest.raises(IoSimError):
            k.fsync(fd)
        machine.ext2.device.clear_failures()
        before = k.counters.pages_written
        k.fsync(fd)  # the retry must actually write the data
        assert k.counters.pages_written == before + 2
        k.close(fd)

    def test_failed_sync_keeps_unwritten_filesystems_dirty(self):
        """sync() flushes one filesystem at a time; when the first one's
        writeback fails, the second one's pages must stay dirty too."""
        machine = _machine()
        k = machine.kernel
        fds = []
        for path, pages in (("/mnt/ext2/a.dat", 2), ("/mnt/nfs/b.dat", 3)):
            fd = k.open(path, "w")
            k.write(fd, b"z" * (pages * PAGE_SIZE))
            fds.append(fd)
        machine.ext2.device.inject_failures(1)
        with pytest.raises(IoSimError):
            k.sync()
        machine.ext2.device.clear_failures()
        before = k.counters.pages_written
        k.sync()  # the retry writes both filesystems' pages
        assert k.counters.pages_written == before + 5
        for fd in fds:
            k.close(fd)
