"""The four benchmark workloads, each as set-up plus a fixed timed phase.

Every workload is closed loop: each simulated caller waits for its reply
before it issues the next request, and the workloads never run side by
side.  The amount of simulated work in a timed phase is fixed by the
workload, not by the host clock, so every virtual-time result repeats
bit for bit at one seed.  The seed only picks inputs: machine RNG
streams, file text, needle offsets, chunk offsets and written bytes.

* ``storm`` -- blocking ``pread`` of 64-page chunks, in one seeded order
  per pass, over an ext2 file 4x the page cache with nothing attached:
  every page misses on every pass.
* ``scan`` -- plain ``grep`` then ``grep --sleds`` for a planted needle
  over ext2, CD-ROM and NFS files ~1.3x the cache plus one small file,
  with the paper experiments' background-activity noise.
* ``tenants`` -- rounds of ~160 engine tasks: four disk tenants and one
  NFS tenant under the fair elevator, 4 cache shards, merge and plug on;
  readers call ``get_sleds`` before each 4-page ``pread_async``, about
  one task in 30 writes with ``pwrite`` + ``fsync_async``.
* ``storm_observed`` -- ``storm``'s machine and access pattern with the
  observability stack attached, ending with ``analyze()``.

Checks are made against ground truth the benchmark builds itself, never
against what the kernel reports about itself.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
import zlib
from array import array
from random import Random

from repro.bench.workloads import DEFAULT_NOISE
from repro.block.merge import BlockConfig
from repro.fs.content import SyntheticText
from repro.kernel.kernel import SEEK_SET
from repro.machine import Machine, MachineConfig
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import PAGE_SIZE

perf = time.perf_counter

#: planted search string: upper case, so the lower-case corpus never
#: contains it by chance and every match is a plant
NEEDLE = b"QZXSLEDNEEDLEQZX"

STORM = {"cache_pages": 2048, "file_pages": 8192, "chunk_pages": 64,
         "passes": 30}
#: the observed storm runs the same machine and pattern, fewer passes
STORM_OBSERVED_PASSES = 1

SCAN = {
    "cache_pages": 2048,
    # (mount, name, pages): the three big files sum to ~1.3x the cache
    "files": (("/mnt/ext2", "big.txt", 1300),
              ("/mnt/cdrom", "disc.txt", 800),
              ("/mnt/nfs", "remote.txt", 560),
              ("/mnt/ext2", "small.txt", 48)),
    "needles_per_file": 3,
    "passes": 12,
}

#: the page cache holds a tenth of the combined working set
TENANTS = {
    "shards": 4,
    # (tenant, mount, reader tasks per round)
    "tenants": (("disk0", "/mnt/ext2", 60), ("disk1", "/mnt/ext2", 44),
                ("disk2", "/mnt/ext2", 30), ("disk3", "/mnt/ext2", 20),
                ("nfs0", "/mnt/nfs", 6)),
    "disk_file_pages": 512,
    "nfs_file_pages": 256,
    "chunks_per_task": 2,
    "chunk_pages": 4,
    "writer_every": 30,     # task index i with i % 30 == 29 writes
    "writer_file_pages": 64,
    "rounds": 12,
    "window_tasks": 20,
}

SLO_OBJECTIVES = {"memory": 0.001, "disk": 0.02, "nfs": 0.06,
                  "cdrom": 1.0, "tape": 300.0}


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (deterministic for virtual times)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def jain(shares: list[float]) -> float:
    total = sum(shares)
    return total * total / (len(shares) * sum(s * s for s in shares))


class Meter:
    """Times each data syscall of one kernel and checks what it returns.

    The wrappers sit on the kernel *instance*, so the program's classes
    are untouched.  Host time per operation excludes the check; the time
    spent checking is summed in ``check_s`` and subtracted from the
    phase's wall time.  ``attempted`` counts every checked unit (each
    data syscall, SLED vector, application result, task and blame
    vector); ``failed`` the ones that raised or did not match.
    """

    def __init__(self, kernel, truth: dict[str, SyntheticText]) -> None:
        self.kernel = kernel
        self.truth = truth
        self.host = array("d")
        self.virt = array("d")
        self.check_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None
        self._paths: dict[int, str] = {}
        self._pos: dict[int, int] = {}
        self._crc: dict[tuple, int] = {}
        # the unwrapped reader: a traced run must not count the check's
        # own payload synthesis as the program's
        self._truth_read = inspect.unwrap(SyntheticText.read)
        self._orig = {name: getattr(kernel, name)
                      for name in ("open", "close", "lseek", "read",
                                   "pread", "get_sleds")}
        for name in self._orig:
            setattr(kernel, name, getattr(self, "_" + name))

    def uninstall(self) -> None:
        for name in self._orig:
            delattr(self.kernel, name)

    # -- verdicts ---------------------------------------------------------

    def verdict(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 8:
                self.failures.append(what() if callable(what) else str(what))

    def begin_check(self) -> float:
        if self.tracer is not None:
            self.tracer.enter("bench.check")
        return perf()

    def end_check(self, t0: float) -> None:
        if self.tracer is not None:
            self.tracer.exit()
        self.check_s += perf() - t0

    def check_bytes(self, path: str, offset: int, data: bytes) -> None:
        """``data`` must equal the benchmark's own SyntheticText slice."""
        key = (path, offset, len(data))
        crc = self._crc.get(key)
        if crc is None:
            expected = self._truth_read(self.truth[path], offset, len(data))
            ok = data == expected
            if ok:
                self._crc[key] = zlib.crc32(expected)
        else:
            ok = zlib.crc32(data) == crc
        self.verdict(ok, lambda: f"bytes differ: {path} @{offset}+{len(data)}")

    def check_vector(self, path: str, vector) -> None:
        """A SLED vector covers ``[0, size)`` with no gap or overlap."""
        end = 0
        for sled in vector:
            if sled.offset != end:
                break
            end = sled.end
        else:
            size = self.truth[path].size
            self.verdict(end == size,
                         lambda: f"sleds cover [0,{end}) of {size}: {path}")
            return
        self.verdict(False, lambda: f"sleds gap/overlap at {end}: {path}")

    # -- instance wrappers ----------------------------------------------

    def _open(self, path: str, mode: str = "r") -> int:
        fd = self._orig["open"](path, mode)
        self._paths[fd] = path
        self._pos[fd] = 0
        return fd

    def _close(self, fd: int) -> None:
        self._orig["close"](fd)
        del self._paths[fd], self._pos[fd]

    def _lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> int:
        pos = self._orig["lseek"](fd, offset, whence)
        self._pos[fd] = pos
        return pos

    def _timed(self, name: str, fd: int, offset: int, *args) -> bytes:
        """One data syscall: time it, then check its bytes."""
        clock = self.kernel.clock
        v0 = clock.now
        t0 = perf()
        try:
            data = self._orig[name](fd, *args)
        except Exception as exc:
            self.verdict(False, f"{name} raised {exc!r}")
            raise
        self.host.append(perf() - t0)
        self.virt.append(clock.now - v0)
        t0 = self.begin_check()
        self.check_bytes(self._paths[fd], offset, data)
        self.end_check(t0)
        return data

    def _read(self, fd: int, nbytes: int) -> bytes:
        pos = self._pos[fd]
        data = self._timed("read", fd, pos, nbytes)
        self._pos[fd] = pos + len(data)
        return data

    def _pread(self, fd: int, offset: int, nbytes: int) -> bytes:
        return self._timed("pread", fd, offset, offset, nbytes)

    def _get_sleds(self, fd: int):
        vector = self._orig["get_sleds"](fd)
        t0 = self.begin_check()
        self.check_vector(self._paths[fd], vector)
        self.end_check(t0)
        return vector


# ---------------------------------------------------------------------------
# set-up helpers
# ---------------------------------------------------------------------------

def warm_corpus() -> None:
    """Build the shared text corpus now, so its one-time cost lands in
    set-up and not in the first timed read."""
    SyntheticText(seed=0, size=PAGE_SIZE).read(0, 1)


def _machine(rng: Random, cache_pages: int,
             config: MachineConfig | None = None,
             noise: float = 0.0) -> Machine:
    machine = Machine.unix_utilities(cache_pages=cache_pages,
                                     seed=rng.getrandbits(31), noise=noise,
                                     config=config)
    machine.boot()
    return machine


def _plants(rng: Random, size: int, count: int) -> dict[int, bytes]:
    """``count`` needle offsets spread over the file, at least 256 bytes
    apart so no two share a line."""
    slot = size // count
    return {i * slot + rng.randrange(0, slot - len(NEEDLE) - 256): NEEDLE
            for i in range(count)}


def _text_file(machine: Machine, truth: dict, mount: str, name: str,
               pages: int, rng: Random,
               plants: dict[int, bytes] | None = None) -> str:
    seed = rng.getrandbits(31)
    size = pages * PAGE_SIZE
    machine.fs(mount).create_text_file(name, size, seed=seed, plants=plants)
    path = f"{mount}/{name}"
    # ground truth: an independent content object from the same inputs
    truth[path] = SyntheticText(seed=seed, size=size, plants=plants)
    return path


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Base: ``setup`` builds the machine and files, ``run`` is the timed
    phase, ``post_checks`` checks what only exists after it."""

    name = ""
    #: namespace of the seeded input stream (workloads sharing it get
    #: identical inputs at one seed)
    inputs = ""

    def __init__(self, seed: int) -> None:
        self.rng = Random(f"{self.inputs or self.name}:{seed}")
        self.truth: dict[str, SyntheticText] = {}
        self.machine: Machine | None = None
        self.meter: Meter | None = None
        self.extra: dict = {}
        #: closed windows: (host seconds, hard faults, first op, end op)
        self.closed: list[tuple[float, int, int, int]] = []
        self._open: tuple[float, float, int, int] | None = None

    @property
    def kernel(self):
        return self.machine.kernel

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def post_checks(self) -> None:
        pass

    def _state(self) -> tuple[float, float, int, int]:
        return (perf(), self.meter.check_s, self.kernel.counters.hard_faults,
                len(self.ops_host()))

    def restart(self) -> None:
        """Open a host measurement window, dropping any open one."""
        self._open = self._state()

    def mark(self) -> None:
        """Close the open window (check time excluded) and open the next."""
        now = self._state()
        if self._open is not None:
            t0, c0, f0, n0 = self._open
            t1, c1, f1, n1 = now
            self.closed.append(((t1 - t0) - (c1 - c0), f1 - f0, n0, n1))
        self._open = now

    def windows(self) -> tuple[list[float], list[float]]:
        """Hard faults per host second of each window, and the median
        host time per operation, in microseconds, of each window that
        holds operations."""
        ops = self.ops_host()
        rates = [faults / seconds for seconds, faults, _, _ in self.closed]
        op_us = [quantile(ops[n0:n1], 0.5) * 1e6
                 for _, _, n0, n1 in self.closed if n1 > n0]
        return rates, op_us

    def ops_host(self):
        """Host seconds per operation."""
        return self.meter.host

    def metrics(self) -> dict:
        """``sleds_gain`` and ``tenant_jain``.  A workload without a SLEDs
        pass has gain 1 (one order only); Jain's index over a single
        tenant is 1 by definition."""
        return {"sleds_gain": 1.0, "tenant_jain": 1.0}


class Storm(Workload):
    name = "storm"
    windows_per_pass = 4

    def __init__(self, seed: int, passes: int = STORM["passes"]) -> None:
        super().__init__(seed)
        self.passes = passes

    def setup(self) -> None:
        self.machine = _machine(self.rng, STORM["cache_pages"])
        self.path = _text_file(self.machine, self.truth, "/mnt/ext2",
                               "storm.dat", STORM["file_pages"], self.rng)
        # every pass visits the chunks in one seeded order: with the same
        # order each pass, a chunk was last read a whole file (4x the
        # cache) ago, so every page misses on every pass
        chunk = STORM["chunk_pages"] * PAGE_SIZE
        self.offsets = list(range(0, STORM["file_pages"] * PAGE_SIZE, chunk))
        self.rng.shuffle(self.offsets)

    def run(self) -> None:
        pread = self.kernel.pread
        fd = self.kernel.open(self.path)
        chunk = STORM["chunk_pages"] * PAGE_SIZE
        window = len(self.offsets) // self.windows_per_pass
        self.mark()
        for _ in range(self.passes):
            for i, offset in enumerate(self.offsets, 1):
                pread(fd, offset, chunk)
                if i % window == 0:
                    self.mark()


class StormObserved(Storm):
    """``storm`` with telemetry, bucket-sampled time series, a
    tenant-tracking SLO tracker and latency forensics attached."""

    name = "storm_observed"
    inputs = "storm"
    windows_per_pass = 128

    def __init__(self, seed: int, observed: bool = True) -> None:
        super().__init__(seed, STORM_OBSERVED_PASSES)
        self.observed = observed

    def setup(self) -> None:
        super().setup()
        if not self.observed:
            return
        from repro.obs import LatencyForensics, SloTracker, Telemetry
        telemetry = Telemetry()
        telemetry.attach(self.kernel)
        forensics = LatencyForensics(self.kernel, top_k=64)
        telemetry.enable_timeseries(interval=0.002, sample_buckets=True,
                                    exemplars=forensics.reservoir)
        slo = SloTracker.for_classes(SLO_OBJECTIVES,
                                     registry=telemetry.registry,
                                     track_tenants=True).attach(telemetry)
        forensics.attach(telemetry, slo=slo)
        self.telemetry, self.forensics = telemetry, forensics

    def run(self) -> None:
        super().run()
        if self.observed:
            t0 = perf()
            self.report = self.forensics.analyze(top=10)
            self.extra["analyze_s"] = perf() - t0

    def post_checks(self) -> None:
        """Every record ``analyze()`` blamed has a blame vector whose
        ``fsum`` equals its latency exactly."""
        if not self.observed:
            return
        meter = self.meter
        records = list(self.telemetry.lifecycle.records)
        meter.verdict(self.report.analyzed == len(records),
                      "analyze() skipped records")
        engine = self.forensics.blame_engine()
        for rec in records:
            blame = engine.blame(rec)
            meter.verdict(math.fsum(blame.values()) == rec.latency,
                          lambda rec=rec: f"blame of record {rec.id} "
                                          f"does not sum to its latency")
        self.extra["lifecycle_records"] = len(records)
        self.extra["timeseries_samples"] = len(self.telemetry.timeseries)


class Scan(Workload):
    name = "scan"

    def setup(self) -> None:
        # the paper's measured experiments run with background-activity
        # noise; readahead read() never takes the batched path noise
        # would otherwise turn off
        self.machine = _machine(self.rng, SCAN["cache_pages"],
                                noise=DEFAULT_NOISE)
        self.plants: dict[str, list[int]] = {}
        for mount, name, pages in SCAN["files"]:
            plants = _plants(self.rng, pages * PAGE_SIZE,
                             SCAN["needles_per_file"])
            path = _text_file(self.machine, self.truth, mount, name, pages,
                              self.rng, plants)
            self.plants[path] = sorted(plants)
        self.virt_plain = 0.0
        self.virt_sleds = 0.0

    def run(self) -> None:
        grep_mod = importlib.import_module("repro.apps.grep")
        clock = self.kernel.clock
        meter = self.meter
        self.mark()
        for _ in range(SCAN["passes"]):
            for use_sleds in (False, True):
                for path, expected in self.plants.items():
                    v0 = clock.now
                    result = grep_mod.grep(self.kernel, path, NEEDLE,
                                           use_sleds=use_sleds)
                    elapsed = clock.now - v0
                    if use_sleds:
                        self.virt_sleds += elapsed
                    else:
                        self.virt_plain += elapsed
                    t0 = meter.begin_check()
                    found = [m.offset + m.line.find(NEEDLE)
                             for m in result.matches]
                    meter.verdict(
                        found == expected,
                        lambda p=path, f=found: f"grep {p}: {f}")
                    meter.end_check(t0)
            self.mark()

    def metrics(self) -> dict:
        return {"sleds_gain": self.virt_plain / self.virt_sleds,
                "tenant_jain": 1.0}


class Tenants(Workload):
    name = "tenants"

    def setup(self) -> None:
        cfg = TENANTS
        pages = {tenant: cfg["nfs_file_pages"] if mount == "/mnt/nfs"
                 else cfg["disk_file_pages"]
                 for tenant, mount, _ in cfg["tenants"]}
        writers = (sum(n for _, _, n in cfg["tenants"])
                   // cfg["writer_every"])
        working_set = (sum(pages.values())
                       + writers * cfg["writer_file_pages"])
        self.machine = _machine(
            self.rng, working_set // 10,
            MachineConfig(shards=cfg["shards"], fair_elevator=True))
        self.files: dict[str, str] = {}
        for tenant, mount, _ in cfg["tenants"]:
            self.files[tenant] = _text_file(self.machine, self.truth, mount,
                                            f"{tenant}.dat", pages[tenant],
                                            self.rng)
        self.writer_paths = [
            _text_file(self.machine, self.truth, "/mnt/ext2", f"w{w}.dat",
                       cfg["writer_file_pages"], self.rng)
            for w in range(writers)]
        self.engine = self.kernel.attach_engine(
            block=BlockConfig(merge=True, plug=True))
        self.round_host = array("d")
        self.disk_tenants = [t for t, m, _ in cfg["tenants"]
                             if m == "/mnt/ext2"]
        self.served = dict.fromkeys(self.disk_tenants, 0)
        self.finished = 0

    # task bodies -------------------------------------------------------

    def _reader(self, path: str, offsets: list[int], log: list):
        kernel, meter = self.kernel, self.meter
        nbytes = TENANTS["chunk_pages"] * PAGE_SIZE
        fd = kernel.open(path)
        for offset in offsets:
            kernel.get_sleds(fd)
            v0 = kernel.clock.now
            data = yield from kernel.pread_async(fd, offset, nbytes)
            now = kernel.clock.now
            meter.virt.append(now - v0)
            t0 = meter.begin_check()
            meter.check_bytes(path, offset, data)
            log.append((now, len(data)))
            meter.end_check(t0)
        kernel.close(fd)
        self._task_done()
        return "ok"

    def _writer(self, path: str, offset: int, payload: bytes):
        kernel, meter = self.kernel, self.meter
        fd = kernel.open(path, "r+")
        kernel.pwrite(fd, offset, payload)
        v0 = kernel.clock.now
        yield from kernel.fsync_async(fd)
        meter.virt.append(kernel.clock.now - v0)
        v0 = kernel.clock.now
        data = yield from kernel.pread_async(fd, offset, len(payload))
        meter.virt.append(kernel.clock.now - v0)
        t0 = meter.begin_check()
        meter.verdict(data == payload, f"write to {path} @{offset} lost")
        meter.end_check(t0)
        kernel.close(fd)
        self._task_done()
        return "ok"

    def _task_done(self) -> None:
        # throughput windows inside a round: one per ``window_tasks``
        # finished tasks, so a window spans tens of milliseconds
        self.finished += 1
        if self.finished % TENANTS["window_tasks"] == 0:
            self.mark()

    def _round(self, index: int) -> tuple[list[Task], dict]:
        cfg = TENANTS
        rng = self.rng
        chunk = cfg["chunk_pages"]
        slots = cfg["writer_file_pages"] // chunk
        order = []
        for i in range(max(n for _, _, n in cfg["tenants"])):
            for tenant, mount, n in cfg["tenants"]:
                if i < n:
                    order.append(tenant)
        tasks, logs = [], {}
        writer = 0
        for i, tenant in enumerate(order):
            name = f"r{index}.{i}.{tenant}"
            if i % cfg["writer_every"] == cfg["writer_every"] - 1:
                path = self.writer_paths[writer]
                offset = ((index + writer) % slots) * chunk * PAGE_SIZE
                payload = rng.randbytes(chunk * PAGE_SIZE)
                writer += 1
                body = self._writer(path, offset, payload)
            else:
                path = self.files[tenant]
                span = self.truth[path].size // PAGE_SIZE - chunk
                offsets = [rng.randrange(0, span) * PAGE_SIZE
                           for _ in range(cfg["chunks_per_task"])]
                log = logs.setdefault(tenant, [])
                body = self._reader(path, offsets, log)
            tasks.append(Task(name, body, tenant=tenant))
        return tasks, logs

    def run(self) -> None:
        meter = self.meter
        for index in range(TENANTS["rounds"]):
            tasks, logs = self._round(index)
            check_before = meter.check_s
            self.restart()
            t0 = perf()
            stats = EventScheduler(self.kernel, tasks,
                                   engine=self.engine).run()
            wall = perf() - t0
            self.round_host.append(wall - (meter.check_s - check_before))
            self.mark()
            t0 = meter.begin_check()
            for task in tasks:
                s = stats[task.name]
                meter.verdict(s.finished_at is not None and s.result == "ok",
                              f"task {task.name} did not finish")
            # contention window: until the first disk tenant's last read
            # completes, so every disk tenant is backlogged throughout
            window_end = min(logs[t][-1][0] if logs.get(t) else 0.0
                             for t in self.disk_tenants)
            for tenant in self.disk_tenants:
                self.served[tenant] += sum(
                    n for t, n in logs.get(tenant, ()) if t <= window_end)
            meter.end_check(t0)

    def ops_host(self):
        return self.round_host

    def metrics(self) -> dict:
        shares = [self.served[t] for t in self.disk_tenants]
        return {"sleds_gain": 1.0, "tenant_jain": jain(shares)}


WORKLOADS = {"storm": Storm, "scan": Scan, "tenants": Tenants,
             "storm_observed": StormObserved}
