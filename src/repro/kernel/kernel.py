"""The simulated kernel: VFS, syscalls, page cache, fault accounting.

This module stands in for the paper's modified Linux 2.2 kernel.  It owns

* a mount table (``/`` plus any number of ext2/ISO9660/NFS/HSM mounts);
* the global page cache and per-open-file readahead state;
* the syscall surface the applications use: ``open``, ``read``, ``write``,
  ``lseek``, ``close``, ``stat``, ``listdir``, ``unlink``, ``fsync``,
  ``ioctl``;
* the two SLEDs ioctls (``FSLEDS_FILL``, ``FSLEDS_GET``);
* accounting: hard page faults, per-category virtual time, and the
  :meth:`process` measurement window used by every experiment.

Timing model
------------
* A page-cache **hit** costs memory copy time (the paper's Table 2 memory
  row: lmbench latency + bcopy bandwidth).
* A **miss** is a hard fault: the kernel reads a readahead *cluster* of
  device-contiguous pages in one device access, so linear scans stream at
  device bandwidth while random access pays per-access latency.
* Syscalls cost a fixed CPU overhead; applications charge their own
  processing CPU through :meth:`charge_cpu`.
* An optional multiplicative noise model (seeded, deterministic) perturbs
  device times to emulate "the somewhat random nature of page replacement
  algorithms and background system activity" the paper averages over.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from typing import Iterator

from repro.cache.page_cache import PageCache
from repro.cache.readahead import ReadaheadWindow
from repro.core.builder import build_sled_vector
from repro.core.sled import SledVector
from repro.core.sled_table import SledTable
from repro.devices import batch as device_batch
from repro.devices.memory import MemoryDevice
from repro.fs.content import ByteStoreContent
from repro.fs.filesystem import FileSystem, split_path
from repro.fs.inode import Inode
from repro.kernel.ioctl import FSLEDS_FILL, FSLEDS_GET, UnknownIoctlError
from repro.kernel.stats import KernelCounters, ProcessRun
from repro.sim.clock import VirtualClock
from repro.sim.errors import (
    BadFileDescriptorError,
    FileNotFoundSimError,
    InvalidArgumentError,
    IsADirectorySimError,
    ReadOnlyFilesystemError,
)
from repro.sim.rng import RngStreams
from repro.sim.units import PAGE_SIZE, USEC, page_span

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


def _syscall_span(name: str):
    """Wrap a syscall method in a telemetry span covering its full
    virtual duration (a no-op when no telemetry is attached)."""
    def deco(fn):
        @wraps(fn)
        def wrapper(self, *args, **kwargs):
            tele = self.telemetry
            if tele is None:
                return fn(self, *args, **kwargs)
            span = tele.syscall_begin(name, self.clock.now)
            try:
                return fn(self, *args, **kwargs)
            finally:
                tele.syscall_end(span, self.clock.now)
        return wrapper
    return deco


@dataclass
class OpenFile:
    """Kernel state for one open descriptor."""

    fd: int
    path: str
    fs: FileSystem
    inode: Inode
    pos: int = 0
    writable: bool = False
    append: bool = False
    readahead: ReadaheadWindow = field(default_factory=ReadaheadWindow)


@dataclass(frozen=True)
class StatResult:
    """What ``stat`` returns."""

    path: str
    size: int
    is_dir: bool
    inode_id: int


class Kernel:
    """A single simulated machine: devices + cache + namespace + clock."""

    def __init__(self, cache_pages: int = 16 * 1024,
                 policy: str = "lru",
                 memory: MemoryDevice | None = None,
                 rng: RngStreams | None = None,
                 noise: float = 0.0,
                 syscall_overhead: float = 2.0 * USEC,
                 readahead_min_pages: int = 4,
                 readahead_max_pages: int = 16,
                 writeback_threshold_pages: int = 256,
                 io_scheduler="clook",
                 cache_shards: int = 1,
                 tenant_limits=None) -> None:
        if noise < 0:
            raise InvalidArgumentError(f"noise must be >= 0: {noise}")
        if readahead_min_pages < 1:
            raise InvalidArgumentError(
                f"readahead_min_pages must be >= 1: {readahead_min_pages}")
        self.clock = VirtualClock()
        self.memory = memory or MemoryDevice()
        self.page_cache = PageCache(cache_pages, policy,
                                    shards=cache_shards,
                                    tenant_limits=tenant_limits)
        self.sleds_table = SledTable()
        self.counters = KernelCounters()
        self.rng = rng or RngStreams()
        self.noise = noise
        self.syscall_overhead = syscall_overhead
        self.readahead_min_pages = readahead_min_pages
        self.readahead_max_pages = readahead_max_pages
        self.writeback_threshold_pages = writeback_threshold_pages
        from repro.block.scheduler import IoScheduler, make_scheduler
        self.io_scheduler = (io_scheduler
                             if isinstance(io_scheduler, IoScheduler)
                             else make_scheduler(io_scheduler))
        self._mounts: list[tuple[tuple[str, ...], FileSystem]] = []
        self._fds: dict[int, OpenFile] = {}
        self._next_fd = 3
        #: inode.id -> (fs, inode, set of dirty page indices)
        self._dirty: dict[int, tuple[FileSystem, Inode, set[int]]] = {}
        #: inode.id -> (stamp, vector): FSLEDS_GET results cached until the
        #: stamp — (cache generation, fs state epoch, sleds-table version,
        #: and, with an engine attached, the per-device congestion epochs)
        #: — moves, making refetch O(changed-state) instead of O(file-pages)
        self._sled_cache: dict[int, tuple[tuple, SledVector]] = {}
        #: optional telemetry facade (see repro.obs.telemetry); None = off.
        #: Every telemetry hook below is purely observational: attached or
        #: not, virtual timings are bit-identical.
        self.telemetry = None
        #: optional discrete-event I/O engine (see repro.sim.engine);
        #: None = the synchronous time model, bit-identical to the
        #: pre-engine substrate.  Set via attach_engine()/IoEngine.attach().
        self.engine = None
        #: name of the task currently executing under a scheduler
        #: (repro.sim.tasks sets it around each slice).  Observability
        #: attribution only; never consulted by the timing model.
        self.current_task = None
        #: tenant of the task currently executing (set alongside
        #: current_task).  Drives per-tenant accounting, cache ownership,
        #: and QoS classes; None (untenanted) leaves every tenant path
        #: dormant and the timing model only sees it through explicitly
        #: tenant-aware schedulers.
        self.current_tenant = None
        #: optional SLED-driven prefetcher (see repro.sim.prefetch);
        #: None = off.  When set, cache hits notify it so it can count
        #: speculative fetches that actually got used.
        self.prefetcher = None
        #: optional wall-clock hot-path profiler (repro.obs.profile);
        #: None = off.  Measures host CPU time only — virtual timings
        #: are bit-identical with a profiler attached or not.
        self.profiler = None

    # ------------------------------------------------------------------
    # mounts and path resolution
    # ------------------------------------------------------------------

    def mount(self, path: str, fs: FileSystem) -> None:
        """Attach ``fs`` at ``path`` (longest-prefix match wins).

        The mount-point directory is created in the covering filesystem,
        as ``mkdir /mnt/ext2`` would precede ``mount`` on a real system.
        """
        prefix = tuple(split_path(path))
        if any(p == prefix for p, _ in self._mounts):
            raise InvalidArgumentError(f"mount point {path!r} already in use")
        covering = None
        for existing_prefix, existing_fs in self._mounts:
            if (len(existing_prefix) < len(prefix)
                    and prefix[: len(existing_prefix)] == existing_prefix
                    and (covering is None
                         or len(existing_prefix) > len(covering[0]))):
                covering = (existing_prefix, existing_fs)
        if covering is not None:
            rel = list(prefix[len(covering[0]):])
            covering[1].mkdir(rel)
        self._mounts.append((prefix, fs))
        self._mounts.sort(key=lambda entry: len(entry[0]), reverse=True)
        # (re)mounting changes what paths resolve to; stale vectors built
        # against a previous attachment of this fs must not survive
        fs.bump_epoch()

    def mounts(self) -> list[tuple[str, FileSystem]]:
        """(mount path, fs) pairs, most specific first."""
        return [("/" + "/".join(prefix), fs) for prefix, fs in self._mounts]

    def resolve(self, path: str) -> tuple[FileSystem, Inode, list[str]]:
        """(fs, inode, fs-relative parts) for an absolute path."""
        fs, rel = self._mount_of(path)
        return fs, fs.resolve(rel), rel

    def fs_of(self, path: str) -> FileSystem:
        """The filesystem an absolute path lives on."""
        return self._mount_of(path)[0]

    def _mount_of(self, path: str) -> tuple[FileSystem, list[str]]:
        """(fs, fs-relative parts) of the most specific covering mount."""
        parts = split_path(path)
        for prefix, fs in self._mounts:
            if tuple(parts[: len(prefix)]) == prefix:
                return fs, parts[len(prefix):]
        raise FileNotFoundSimError(f"{path!r}: no filesystem mounted")

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------

    def attach_telemetry(self, telemetry) -> None:
        """Attach a :class:`repro.obs.telemetry.Telemetry` (after mounting,
        so it can observe every filesystem's devices)."""
        telemetry.attach(self)

    def detach_telemetry(self) -> None:
        if self.telemetry is not None:
            self.telemetry.detach()

    def attach_engine(self, engine=None, block=None):
        """Attach (and return) a discrete-event I/O engine.

        With an engine attached, the ``*_async`` syscalls queue requests on
        per-device elevators and block on completions, and ``FSLEDS_GET``
        folds live queue state into its latency estimates.  The plain
        blocking syscalls keep working either way.  ``block`` (a
        :class:`~repro.block.merge.BlockConfig`) enables the merge/plug
        front-end; only consulted when ``engine`` is None.
        """
        from repro.sim.engine import IoEngine
        if engine is None:
            engine = IoEngine(self, block=block)
        engine.attach()
        if self.profiler is not None:
            engine.loop.profiler = self.profiler
        return engine

    def detach_engine(self) -> None:
        if self.engine is not None:
            self.engine.detach()

    def charge_cpu(self, seconds: float) -> None:
        """Applications charge their processing time here."""
        self.clock.advance(seconds, "cpu")

    def _syscall(self) -> None:
        self.counters.syscalls += 1
        self.clock.advance(self.syscall_overhead, "cpu")

    def _charge_memory(self, nbytes: int) -> None:
        self.clock.advance(self.memory.read(0, nbytes), "memory")

    def _noisy(self, seconds: float) -> float:
        if self.noise <= 0.0 or seconds <= 0.0:
            return seconds
        factor = 1.0 + self.noise * float(
            self.rng.stream("kernel-noise").exponential(1.0))
        return seconds * factor

    def _traced_service(self, fs, key: tuple, raw_thunk):
        """Wrap a device-service thunk for the event engine so that,
        with telemetry attached at dispatch time, the per-component
        seconds the devices charge are stashed for the lifecycle record
        under ``key``.  With telemetry detached the wrapper adds nothing
        but an attribute read — timings are bit-identical either way.
        """
        from repro.obs.lifecycle import component_delta, snapshot_components

        def service() -> float:
            telemetry = self.telemetry
            if telemetry is None:
                return self._noisy(raw_thunk())
            before = snapshot_components(fs)
            seconds = self._noisy(raw_thunk())
            telemetry.lifecycle.stash(key, component_delta(before))
            return seconds

        return service

    def _fd(self, fd: int) -> OpenFile:
        try:
            return self._fds[fd]
        except KeyError:
            raise BadFileDescriptorError(f"fd {fd} is not open") from None

    def _charge_metadata(self, fs: FileSystem) -> None:
        """Charge one metadata operation (stat/lookup) on ``fs``."""
        cost = fs.stat_cost()
        self.clock.advance(cost, fs.device.time_category)
        if self.telemetry is not None:
            self.telemetry.on_metadata(fs.name, cost)

    # ------------------------------------------------------------------
    # namespace syscalls
    # ------------------------------------------------------------------

    @_syscall_span("open")
    def open(self, path: str, mode: str = "r") -> int:
        """Open ``path``; modes ``r``, ``r+``, ``w``, ``a``."""
        self._syscall()
        if mode not in ("r", "r+", "w", "a"):
            raise InvalidArgumentError(f"unsupported open mode {mode!r}")
        writable = mode != "r"
        fs, rel = self._mount_of(path)
        if writable and fs.read_only:
            raise ReadOnlyFilesystemError(
                f"{path!r}: filesystem {fs.name!r} is read-only")
        self._charge_metadata(fs)
        try:
            inode = fs.resolve(rel)
        except FileNotFoundSimError:
            if mode not in ("w", "a"):
                raise
            inode = fs.create_file(rel, size=0, content=ByteStoreContent())
        if inode.is_dir:
            raise IsADirectorySimError(path)
        if mode == "w" and inode.size > 0:
            self._truncate(fs, inode)
        window = ReadaheadWindow(
            min_pages=min(self.readahead_min_pages,
                          self.readahead_max_pages),
            max_pages=self.readahead_max_pages)
        of = OpenFile(
            fd=self._next_fd, path=path, fs=fs, inode=inode,
            writable=writable, append=(mode == "a"), readahead=window)
        if mode == "a":
            of.pos = inode.size
        self._fds[of.fd] = of
        self._next_fd += 1
        inode.atime = self.clock.now
        return of.fd

    def _truncate(self, fs: FileSystem, inode: Inode) -> None:
        self.page_cache.invalidate_inode(inode.id)
        self._dirty.pop(inode.id, None)
        self._sled_cache.pop(inode.id, None)
        inode.size = 0
        fs.bump_epoch()  # the file's extent coverage changed
        if not isinstance(inode.content, ByteStoreContent):
            inode.content = ByteStoreContent()

    @_syscall_span("close")
    def close(self, fd: int) -> None:
        self._syscall()
        of = self._fd(fd)
        self._flush_inode(of.inode.id)
        del self._fds[fd]

    @_syscall_span("unlink")
    def unlink(self, path: str) -> None:
        """Remove a file, its cached pages, and pending dirty state."""
        self._syscall()
        fs, inode, rel = self.resolve(path)
        if inode.is_dir:
            raise IsADirectorySimError(path)
        parent = fs.resolve(rel[:-1])
        del parent.entries[rel[-1]]
        self.page_cache.invalidate_inode(inode.id)
        self._dirty.pop(inode.id, None)
        self._sled_cache.pop(inode.id, None)

    @_syscall_span("stat")
    def stat(self, path: str) -> StatResult:
        self._syscall()
        fs, inode, _ = self.resolve(path)
        self._charge_metadata(fs)
        return StatResult(path=path, size=inode.size,
                          is_dir=inode.is_dir, inode_id=inode.id)

    @_syscall_span("listdir")
    def listdir(self, path: str) -> list[str]:
        """Names in a directory, including any mount points grafted there."""
        self._syscall()
        fs, inode, _ = self.resolve(path)
        self._charge_metadata(fs)
        if not inode.is_dir:
            raise InvalidArgumentError(f"{path!r} is not a directory")
        names = set(inode.entries)
        here = tuple(split_path(path))
        for prefix, _ in self._mounts:
            if len(prefix) == len(here) + 1 and prefix[: len(here)] == here:
                names.add(prefix[-1])
        return sorted(names)

    # ------------------------------------------------------------------
    # data syscalls
    # ------------------------------------------------------------------

    @_syscall_span("lseek")
    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> int:
        self._syscall()
        of = self._fd(fd)
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = of.pos + offset
        elif whence == SEEK_END:
            new = of.inode.size + offset
        else:
            raise InvalidArgumentError(f"bad whence: {whence}")
        if new < 0:
            raise InvalidArgumentError(f"seek to negative offset: {new}")
        if new != of.pos:
            of.readahead.reset()
        of.pos = new
        return new

    @_syscall_span("read")
    def read(self, fd: int, nbytes: int) -> bytes:
        """Read up to ``nbytes`` at the current position."""
        of, offset, nbytes = self._read_span(fd, None, nbytes)
        if nbytes:
            self._fault_in(of, offset, nbytes)
        return self._deliver(of, offset, nbytes)

    @_syscall_span("pread")
    def pread(self, fd: int, offset: int, nbytes: int) -> bytes:
        """Positional read; does not move the file offset or readahead."""
        of, offset, nbytes = self._read_span(fd, offset, nbytes)
        if nbytes:
            self._fault_in(of, offset, nbytes, use_readahead=False)
        return self._deliver(of, offset, nbytes, positional=True)

    def _read_span(self, fd: int, offset: int | None,
                   nbytes: int) -> tuple[OpenFile, int, int]:
        """Charge a read syscall and validate it: ``(open file, offset,
        length clamped to end of file)``; ``offset=None`` reads at the
        file position."""
        self._syscall()
        if nbytes < 0 or (offset is not None and offset < 0):
            raise InvalidArgumentError(
                f"negative read length: {nbytes}" if offset is None
                else f"negative offset/length: {offset}, {nbytes}")
        of = self._fd(fd)
        if offset is None:
            offset = of.pos
        return of, offset, min(nbytes, max(0, of.inode.size - offset))

    def _deliver(self, of: OpenFile, offset: int, nbytes: int,
                 positional: bool = False) -> bytes:
        """Copy faulted-in bytes out at memory cost; a non-positional
        read advances the file position."""
        if nbytes == 0:
            return b""
        data = of.inode.content.read(offset, nbytes)
        self._charge_memory(nbytes)
        if not positional:
            of.pos += nbytes
        self.counters.bytes_read += nbytes
        return data

    # -- the read-fault pipeline: plan -> execute -> commit -------------

    def _plan(self, of: OpenFile, offset: int, length: int,
              use_readahead: bool, deferred: bool = False):
        """Walk the span once per page, charging hits and misses, and
        yield ``(page, cluster, window)`` per miss for an executor to
        read and :meth:`_commit`.  Lazy, so a serial executor's inserts
        and evictions are seen by the next page; with ``deferred`` (for
        executors that commit after the whole walk) pages an earlier
        cluster of this span covers are hits without a cache access."""
        # hot loop: hoist every per-iteration attribute load — at millions
        # of faults per run these lookups dominate the instrumented profile
        inode = of.inode
        inode_id = inode.id
        cache = self.page_cache
        counters = self.counters
        telemetry = self.telemetry
        prefetcher = self.prefetcher
        tenant = self.current_tenant
        readahead = of.readahead
        npages = inode.npages
        covered_until = -1  # end of the last deferred cluster, exclusive
        for page in page_span(offset, length):
            window = readahead.advise(page) if use_readahead else 1
            key = (inode_id, page)
            covered = page < covered_until
            if covered or cache.access(key):
                counters.cache_hits += 1
                if tenant is not None:
                    counters.note_tenant_hit(tenant)
                if prefetcher is not None and not covered:
                    prefetcher.note_access(key)
                if telemetry is not None:
                    telemetry.on_hit(inode_id, page)
                continue
            counters.cache_misses += 1
            counters.hard_faults += 1
            if tenant is not None:
                counters.note_tenant_miss(tenant)
            cluster = 1
            limit = min(window, npages - page)
            while (cluster < limit
                   and not cache.peek((inode_id, page + cluster))):
                cluster += 1
            if deferred:
                covered_until = page + cluster
            yield page, cluster, window

    def _commit(self, of: OpenFile, page: int, cluster: int, window: int,
                seconds: float, completion=None, components=None,
                tele_batch=None) -> None:
        """Charge one cluster read in ``seconds``, report it to telemetry
        (or defer it into ``tele_batch``), insert it."""
        counters = self.counters
        counters.pages_read += cluster
        counters.readahead_pages += cluster - 1
        inode_id = of.inode.id
        fs = of.fs
        now = self.clock.now
        telemetry = self.telemetry
        if tele_batch is not None:
            tele_batch.add(fs.device, inode_id, page, cluster, seconds,
                           now, window, fs, completion)
        elif telemetry is not None:
            telemetry.on_fault(fs.device, inode_id, page, cluster, seconds,
                               now=now, window=window, fs=fs,
                               completion=completion, components=components)
        tenant = self.current_tenant
        for extra in range(page, page + cluster):
            self.insert_page((inode_id, extra), tenant)
            if telemetry is not None and extra != page:
                telemetry.on_readahead_insert((inode_id, extra))

    def insert_page(self, key: tuple[int, int],
                    tenant: str | None = None) -> None:
        """Make one page resident for ``tenant``, charging any eviction to
        the victim's owner: the one eviction-accounting step of fault
        commits, writes and prefetch completions."""
        cache = self.page_cache
        if cache.insert(key, tenant) is not None:
            self.counters.note_eviction(cache.last_evicted_owner)

    def _batchable(self, of: OpenFile, use_readahead: bool) -> bool:
        """Whether :meth:`_fault_in_batch` may take a span: it reproduces
        no readahead advice, observer, tenant or noise side effects, and
        reads only through the stock extent-run path."""
        return (not use_readahead and self.telemetry is None
                and self.prefetcher is None
                and self.current_tenant is None and self.noise <= 0.0
                and self.page_cache.observer is None
                and device_batch.enabled()
                and type(of.fs).read_pages is FileSystem.read_pages)

    def _fault_in(self, of: OpenFile, offset: int, length: int,
                  use_readahead: bool = True) -> None:
        """The blocking executor: read each planned cluster in place."""
        if self._batchable(of, use_readahead):
            self._fault_in_batch(of, offset, length)
            return
        from repro.obs.lifecycle import component_delta, snapshot_components

        fs = of.fs
        observed = self.telemetry is not None
        for page, cluster, window in self._plan(of, offset, length,
                                                use_readahead):
            before = snapshot_components(fs) if observed else None
            seconds = self._noisy(fs.read_pages(of.inode, page, cluster))
            self.clock.advance(seconds, fs.device.time_category)
            self._commit(of, page, cluster, window, seconds, components=(
                component_delta(before) if observed else None))

    def _fault_in_batch(self, of: OpenFile, offset: int, length: int) -> None:
        """The run-granular blocking executor for spans
        :meth:`_batchable` admits: the planner with ``window == 1``, in
        page order, but each maximal miss run is split into extent
        pieces charged with :meth:`Device.read_run`,
        :meth:`VirtualClock.advance_run` and :meth:`PageCache.insert_run`.
        Hits still go through :meth:`PageCache.access` one by one, so
        recency moves land in scalar order.  A piece whose batched step
        declines (device, policy, size) takes the scalar step instead.
        """
        inode = of.inode
        inode_id = inode.id
        fs = of.fs
        device = fs.device
        cache = self.page_cache
        counters = self.counters
        clock = self.clock
        category = device.time_category
        extent_map = inode.extent_map
        resident = cache._resident
        cache_stats = cache.stats
        profiler = self.profiler
        t_batch = profiler.begin() if profiler is not None else 0.0
        page = offset // PAGE_SIZE
        end_page = (offset + length - 1) // PAGE_SIZE + 1
        while page < end_page:
            if (inode_id, page) in resident:
                cache.access((inode_id, page))
                counters.cache_hits += 1
                page += 1
                continue
            run_start = page
            page += 1
            while page < end_page and (inode_id, page) not in resident:
                page += 1
            n = page - run_start
            counters.cache_misses += n
            counters.hard_faults += n
            counters.pages_read += n
            cache_stats.misses += n
            for file_page, piece_pages, piece_addr in extent_map.extents_in(
                    run_start, n):
                t_dev = profiler.begin() if profiler is not None else 0.0
                durations = device.read_run(
                    piece_addr, piece_pages, PAGE_SIZE)
                if durations is None:
                    for i in range(piece_pages):
                        clock.advance(
                            device.read(piece_addr + i * PAGE_SIZE,
                                        PAGE_SIZE),
                            category)
                else:
                    clock.advance_run(durations.tolist(), category)
                if profiler is not None:
                    profiler.add("device.batch_math", t_dev)
                evicted = cache.insert_run(inode_id, file_page, piece_pages)
                if evicted is None:
                    for extra in range(file_page, file_page + piece_pages):
                        self.insert_page((inode_id, extra))
                else:
                    counters.evictions += evicted
        if profiler is not None:
            profiler.add("kernel.fault_batch", t_batch)

    def read_async(self, fd: int, nbytes: int):
        """``read`` as a generator for a task under
        :class:`~repro.sim.tasks.EventScheduler`
        (``data = yield from kernel.read_async(...)``): faults wait on the
        attached engine's device queues while other tasks run.  The
        accounting is the blocking ``read``'s; only *who waits* differs.
        """
        of, offset, nbytes = self._read_span(fd, None, nbytes)
        if nbytes:
            yield from self._fault_in_async(of, offset, nbytes)
        return self._deliver(of, offset, nbytes)

    def pread_async(self, fd: int, offset: int, nbytes: int):
        """Positional ``read_async``; no offset motion, no readahead."""
        of, offset, nbytes = self._read_span(fd, offset, nbytes)
        if nbytes:
            yield from self._fault_in_async(of, offset, nbytes,
                                            use_readahead=False)
        return self._deliver(of, offset, nbytes, positional=True)

    def _fault_in_async(self, of: OpenFile, offset: int, length: int,
                        use_readahead: bool = True):
        """The engine executors.  Serial: submit each planned cluster,
        park on its future, commit (a page a concurrent task faulted
        meanwhile is read twice, as on real hardware).  Block front: plan
        the whole span deferred and submit every cluster up front, so
        adjacent ones coalesce in the device's plug; park once.
        """
        engine = self.engine
        if engine is None:
            raise InvalidArgumentError(
                "no I/O engine attached; use the blocking read path or "
                "kernel.attach_engine()")
        fs = of.fs
        inode = of.inode
        if not engine.block_active:
            for page, cluster, window in self._plan(of, offset, length,
                                                    use_readahead):
                completion = yield engine.submit_cluster(fs, inode, page,
                                                         cluster)
                self._commit(of, page, cluster, window, completion.duration,
                             completion=completion)
            return
        runs = list(self._plan(of, offset, length, use_readahead,
                               deferred=True))
        if not runs:
            return
        futures = [engine.submit_cluster(fs, inode, page, cluster)
                   for page, cluster, _ in runs]
        yield futures
        tele_batch = (self.telemetry.fault_batch()
                      if self.telemetry is not None
                      and device_batch.enabled() else None)
        for (page, cluster, window), future in zip(runs, futures):
            completion = future.value
            self._commit(of, page, cluster, window, completion.duration,
                         completion=completion, tele_batch=tele_batch)
        if tele_batch is not None:
            profiler = self.profiler
            t0 = profiler.begin() if profiler is not None else 0.0
            tele_batch.flush()
            if profiler is not None:
                profiler.add("obs.telemetry_flush", t0)

    def mmap(self, fd: int) -> "MappedRegion":
        """Map an open file; reads through the mapping skip the
        copy-to-user cost of ``read()``.

        The paper's §5.2 notes its grep/wc ports "used read(), rather
        than mmap(), which does not copy the data to meet application
        alignment criteria.  An mmap-friendly SLEDs library is feasible,
        which should reduce the CPU penalty."  This is that path: touched
        pages fault in exactly like ``read()`` (same clusters, same
        accounting), but delivering bytes costs only a per-page touch
        rather than a bcopy of every byte.
        """
        self._syscall()
        of = self._fd(fd)
        return MappedRegion(self, of)

    @_syscall_span("write")
    def write(self, fd: int, data: bytes) -> int:
        return self._write(fd, None, data)

    @_syscall_span("pwrite")
    def pwrite(self, fd: int, offset: int, data: bytes) -> int:
        """Positional write; does not move the file offset."""
        return self._write(fd, offset, data)

    def _write(self, fd: int, offset: int | None, data: bytes) -> int:
        """The body of ``write`` (``offset=None``: at the file position,
        which it then advances) and ``pwrite``."""
        self._syscall()
        of = self._fd(fd)
        if not of.writable:
            raise BadFileDescriptorError(f"fd {fd} not open for writing")
        if of.fs.read_only:
            raise ReadOnlyFilesystemError(
                f"filesystem {of.fs.name!r} is read-only")
        if offset is not None and offset < 0:
            raise InvalidArgumentError(f"negative offset: {offset}")
        if not data:
            return 0
        inode = of.inode
        positional = offset is not None
        if not positional:
            if of.append:
                of.pos = inode.size
            offset = of.pos
        end = offset + len(data)
        if end > inode.size:
            of.fs.grow_file(inode, end)
        try:
            inode.content.write(offset, data)
        except ReadOnlyFilesystemError:
            # immutable content store (synthetic text, zeros): upgrade to
            # a copy-on-write overlay the first time the file is written
            from repro.fs.content import CowContent
            inode.content = CowContent(inode.content)
            inode.content.write(offset, data)
        self._charge_memory(len(data))
        dirty = self._dirty_pages(of.fs, inode)
        tenant = self.current_tenant
        for page in page_span(offset, len(data)):
            self.insert_page((inode.id, page), tenant)
            dirty.add(page)
        self.counters.bytes_written += len(data)
        if not positional:
            of.pos = end
        inode.mtime = self.clock.now
        if len(dirty) >= self.writeback_threshold_pages:
            self._flush_inode(inode.id)
        return len(data)

    @_syscall_span("fsync")
    def fsync(self, fd: int) -> None:
        self._syscall()
        of = self._fd(fd)
        self._flush_inode(of.inode.id)

    def sync(self) -> None:
        """Flush every dirty page in the system.

        Dirty runs from *all* files on a filesystem flush as one batch
        through the I/O scheduler, so scattered cross-file writeback
        becomes an elevator sweep rather than FCFS seek chains.
        """
        self._flush(list(self._dirty))

    def _flush_inode(self, inode_id: int) -> None:
        if inode_id in self._dirty:
            self._flush([inode_id])

    def _flush(self, inode_ids: list[int]) -> None:
        """Write back these dirty inodes, one batch per filesystem."""
        by_fs: dict[int, tuple[FileSystem, list]] = {}
        for inode_id in inode_ids:
            fs, inode, pages = self._dirty.pop(inode_id)
            by_fs.setdefault(id(fs), (fs, []))[1].append((inode, pages))
        groups = list(by_fs.values())
        for i, (fs, dirty_files) in enumerate(groups):
            try:
                self._writeback(fs, dirty_files)
            except Exception:
                # a failed flush must not lose the dirty state: re-register
                # this group and every one not yet written, so a retry (or
                # the next sync) writes the data
                for unwritten_fs, unwritten in groups[i:]:
                    for inode, pages in unwritten:
                        self._dirty_pages(unwritten_fs, inode).update(pages)
                raise

    def _dirty_pages(self, fs: FileSystem, inode: Inode) -> set[int]:
        """The (registered) set of dirty page indices of ``inode``."""
        return self._dirty.setdefault(inode.id, (fs, inode, set()))[2]

    def _writeback(self, fs: FileSystem,
                   dirty_files: list[tuple[Inode, set[int]]]) -> None:
        """Flush dirty runs of one filesystem, batched via the scheduler
        when the filesystem has no special write path of its own."""
        from repro.block.scheduler import submit_batch

        plain_write_path = type(fs).write_pages is FileSystem.write_pages
        if not plain_write_path:
            # HSM-style filesystems track staging state in write_pages;
            # flush run by run through their own path.
            for inode, pages in dirty_files:
                for start, run in _contiguous_runs(sorted(pages)):
                    seconds = fs.write_pages(inode, start, run)
                    self.clock.advance(self._noisy(seconds),
                                       fs.device.time_category)
                    self.counters.pages_written += run
            return
        requests, total_pages = self._writeback_requests(dirty_files)
        if not requests:
            return
        if self.telemetry is not None:
            self.telemetry.on_queue_depth(fs.device, len(requests))
        seconds = submit_batch(fs.device, requests, self.io_scheduler)
        self.clock.advance(self._noisy(seconds), fs.device.time_category)
        self.counters.pages_written += total_pages

    @staticmethod
    def _writeback_requests(
            dirty_files: list[tuple[Inode, set[int]]]) -> tuple[list, int]:
        """The submit half of writeback: dirty page runs -> block-layer
        requests (split at extent boundaries).  Shared by the blocking
        batch path and the event-driven :meth:`fsync_async`."""
        from repro.block.scheduler import IoRequest

        requests = []
        total_pages = 0
        for inode, pages in dirty_files:
            for start, run in _contiguous_runs(sorted(pages)):
                page = start
                remaining = run
                while remaining > 0:
                    extent_run = inode.extent_map.contiguous_run(
                        page, remaining)
                    requests.append(IoRequest(
                        addr=inode.extent_map.addr_of(page),
                        nbytes=extent_run * PAGE_SIZE, is_write=True))
                    page += extent_run
                    remaining -= extent_run
                total_pages += run
        return requests, total_pages

    def fsync_async(self, fd: int):
        """``fsync`` as a generator: dirty runs are *submitted* to the
        engine's device queue (where they contend with other tasks' reads
        under the elevator) and the caller blocks on their completions.
        Drive with ``yield from kernel.fsync_async(fd)``.
        """
        self._syscall()
        of = self._fd(fd)
        yield from self._writeback_async(of.inode.id)

    def _writeback_async(self, inode_id: int):
        """The wait half of event-driven writeback for one inode."""
        engine = self.engine
        if engine is None:
            raise InvalidArgumentError(
                "no I/O engine attached; use the blocking fsync() or "
                "kernel.attach_engine()")
        entry = self._dirty.pop(inode_id, None)
        if entry is None:
            return
        fs, inode, pages = entry
        queue = engine.queue_for(fs.device)
        futures = []
        plain_write_path = type(fs).write_pages is FileSystem.write_pages
        if plain_write_path:
            requests, total_pages = self._writeback_requests(
                [(inode, pages)])
            if self.telemetry is not None:
                self.telemetry.on_queue_depth(fs.device, len(requests))
            for request in requests:
                futures.append(queue.submit(
                    request.addr, request.nbytes, is_write=True,
                    service=self._traced_service(
                        fs, ("writeback", inode.id, request.addr),
                        lambda r=request, device=fs.device:
                        device.write(r.addr, r.nbytes)),
                    label=f"writeback:{fs.name}:{inode.id}",
                    kind="writeback"))
        else:
            # HSM-style write paths mutate staging state: one atomic thunk
            # per dirty run through the filesystem's own write_pages.
            total_pages = 0
            for start, run in _contiguous_runs(sorted(pages)):
                addr = inode.extent_map.addr_of(start)
                futures.append(queue.submit(
                    addr, run * PAGE_SIZE, is_write=True,
                    service=self._traced_service(
                        fs, ("writeback", inode.id, addr),
                        lambda inode=inode, start=start, run=run:
                        fs.write_pages(inode, start, run)),
                    label=f"writeback:{fs.name}:{inode.id}:{start}+{run}",
                    kind="writeback"))
                total_pages += run
        if not futures:
            return
        try:
            yield futures
        except Exception:
            # a failed flush must not lose the dirty state (parity with
            # the blocking path): re-register so a retry writes the data
            self._dirty_pages(fs, inode).update(pages)
            raise
        self.counters.pages_written += total_pages
        if self.telemetry is not None:
            for future in futures:
                if future.value is not None:
                    self.telemetry.on_writeback(fs, inode, future.value)

    # ------------------------------------------------------------------
    # ioctl (the SLEDs kernel interface)
    # ------------------------------------------------------------------

    def ioctl(self, fd: int, cmd: int, arg=None):
        """Dispatch ``FSLEDS_FILL`` / ``FSLEDS_GET``.

        ``FSLEDS_FILL`` ignores ``fd`` (the boot script uses any handle);
        ``FSLEDS_GET`` returns a :class:`~repro.core.sled.SledVector` and
        charges the kernel page-walk CPU cost.
        """
        from repro.kernel.ioctl import COMMAND_NAMES
        name = COMMAND_NAMES.get(cmd, f"ioctl:0x{cmd:04x}")
        tele = self.telemetry
        span = (tele.syscall_begin(name, self.clock.now)
                if tele is not None else None)
        try:
            self._syscall()
            if cmd == FSLEDS_FILL:
                if not isinstance(arg, dict):
                    raise InvalidArgumentError(
                        "FSLEDS_FILL needs {device_key: (latency, bandwidth)}")
                self.sleds_table.fill(arg)
                return None
            if cmd == FSLEDS_GET:
                of = self._fd(fd)
                inode_id = of.inode.id
                stamp = self._sled_stamp(of)
                cached = self._sled_cache.get(inode_id)
                queue_delays = None
                if cached is not None and cached[0] == stamp:
                    self.counters.sleds_cache_hits += 1
                    # stamp comparison only: flat cost, no page walk
                    self.charge_cpu(0.2 * USEC)
                    vector = cached[1]
                else:
                    queue_delays = (
                        self.engine.queue_delays(of.fs, self.clock.now,
                                                 self.current_tenant)
                        if self.engine is not None else None)
                    profiler = self.profiler
                    if profiler is not None:
                        t0 = profiler.begin()
                    vector = build_sled_vector(
                        self.page_cache, of.fs, of.inode, self.sleds_table,
                        queue_delays=queue_delays)
                    if profiler is not None:
                        profiler.add("kernel.sled_build", t0)
                    # kernel walks the file's state: charge ~0.2 us per page
                    self.charge_cpu(of.inode.npages * 0.2 * USEC)
                    self.counters.sleds_builds += 1
                    self._sled_cache[inode_id] = (stamp, vector)
                if tele is not None:
                    if queue_delays is None and self.engine is not None:
                        # cache-hit path: same stamp ⇒ same congestion
                        # epochs; recompute the delays for attribution
                        # only (no clock, no RNG)
                        queue_delays = self.engine.queue_delays(
                            of.fs, self.clock.now, self.current_tenant)
                    tele.on_sleds(inode_id, vector, fs=of.fs,
                                  inode=of.inode, queue_delays=queue_delays)
                return vector
            raise UnknownIoctlError(cmd)
        finally:
            if span is not None:
                tele.syscall_end(span, self.clock.now)

    def _sled_stamp(self, of: OpenFile) -> tuple:
        """The validity stamp of a cached SLED vector: moves whenever any
        input of the builder can have changed for this inode.

        With an I/O engine attached the stamp also folds in each device
        queue's congestion epoch — queue churn changes the queue-delay
        term ``FSLEDS_GET`` adds to non-resident latencies, so cached
        vectors built under different congestion must not be reused.
        """
        base = (self.page_cache.generation(of.inode.id),
                of.fs.state_epoch,
                self.sleds_table.version)
        if self.engine is None:
            return base
        stamp = base + (self.engine.congestion_stamp(of.fs),)
        if self.engine.scheduler.tenant_aware:
            # tenant-aware elevators give different tenants different
            # queue-delay estimates for the same congestion state — a
            # cached vector is only valid for the tenant that built it
            stamp += (self.current_tenant,)
        return stamp

    def sleds_stamp(self, fd: int):
        """Current SLED-vector stamp for an open file — a vDSO-style read.

        Costs no virtual time and no syscall: it is a handful of counter
        loads (three, plus one congestion epoch per device when an engine
        is attached), the moral equivalent of reading a seqlock generation
        from a shared page.  The pick library and progress bars compare
        this against the stamp of their last fetch and skip the FSLEDS_GET
        entirely when unchanged.
        """
        return self._sled_stamp(self._fd(fd))

    def get_sleds(self, fd: int) -> SledVector:
        """Convenience wrapper over ``ioctl(fd, FSLEDS_GET)``."""
        return self.ioctl(fd, FSLEDS_GET)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    @contextmanager
    def process(self) -> Iterator[ProcessRun]:
        """Measure one application run (elapsed time, faults, categories)."""
        run = ProcessRun(
            _kernel=self,
            _start_counters=self.counters.copy(),
            _start_clock=self.clock.snapshot(),
        )
        try:
            yield run
        finally:
            run.finalize(self)

    # ------------------------------------------------------------------
    # world-building helpers (not syscalls)
    # ------------------------------------------------------------------

    def warm_file(self, path: str, chunk: int = 64 * PAGE_SIZE) -> None:
        """Read a file once linearly to warm the cache (setup helper)."""
        fd = self.open(path)
        while self.read(fd, chunk):
            pass
        self.close(fd)

    def drop_caches(self) -> None:
        """Cold-cache reset, like ``echo 3 > /proc/sys/vm/drop_caches``."""
        self.sync()
        self.page_cache.clear()


class MappedRegion:
    """A memory mapping of one open file (see :meth:`Kernel.mmap`).

    ``read(offset, nbytes)`` returns bytes like ``pread`` but charges only
    page-touch time (memory latency per newly touched page), not a full
    copy — the mmap path's whole point.  The region stays valid until the
    descriptor is closed; there is no separate ``munmap`` state to manage.
    """

    def __init__(self, kernel: Kernel, of: OpenFile) -> None:
        self._kernel = kernel
        self._of = of
        self._touched: set[int] = set()

    @property
    def size(self) -> int:
        return self._of.inode.size

    def read(self, offset: int, nbytes: int) -> bytes:
        """Access mapped bytes, faulting pages in as needed."""
        if offset < 0 or nbytes < 0:
            raise InvalidArgumentError(
                f"negative offset/length: {offset}, {nbytes}")
        kernel = self._kernel
        inode = self._of.inode
        nbytes = min(nbytes, max(0, inode.size - offset))
        if nbytes == 0:
            return b""
        kernel._fault_in(self._of, offset, nbytes)
        fresh = [p for p in page_span(offset, nbytes)
                 if p not in self._touched]
        if fresh:
            # first touch of a mapped page costs a TLB/minor-fault latency
            kernel.clock.advance(
                len(fresh) * kernel.memory.spec.latency * 10, "memory")
            self._touched.update(fresh)
        kernel.counters.bytes_read += nbytes
        return inode.content.read(offset, nbytes)


def _contiguous_runs(sorted_pages: list[int]) -> Iterator[tuple[int, int]]:
    """Group sorted page indices into (start, run_length) spans."""
    start = None
    prev = None
    for page in sorted_pages:
        if start is None:
            start = prev = page
            continue
        if page == prev + 1:
            prev = page
            continue
        yield start, prev - start + 1
        start = prev = page
    if start is not None:
        yield start, prev - start + 1
