"""Kernel-side SLED vector construction.

Implements the paper's §4.1 walk: "each virtual memory page of the data
file is checked.  After the kernel finds out where a page of the data file
resides, it assigns a latency and bandwidth from the sleds table to this
page.  If consecutive pages have the same latency and bandwidth, i.e. they
are in the same storage device, they are grouped into one SLED."

:func:`build_sled_vector` produces the same vector as that literal
O(npages) walk in O(resident + runs): resident pages come from the
cache's per-inode residency index as intervals; the gaps between them
are answered by the filesystem's batched
:meth:`~repro.fs.filesystem.FileSystem.span_estimates`, which reports
contiguous same-level runs straight from layout/HSM/NFS state.  The
literal walk lives on as a test oracle (``tests/oracles/builder.py``)
that the property tests compare against.

Residency checks use the cache's index, so asking for SLEDs does not
itself perturb the cache recency the SLEDs describe.
"""

from __future__ import annotations

from repro.cache.page_cache import PageCache
from repro.core.sled import Sled, SledVector
from repro.core.sled_table import SledTable
from repro.fs.filesystem import FileSystem
from repro.fs.inode import Inode
from repro.sim.units import PAGE_SIZE


def _emit(levels: list[tuple[int, tuple[float, float]]],
          size: int) -> SledVector:
    """Fold per-run levels (lengths in pages, in file order) into SLEDs,
    merging same-level neighbours; the last SLED is clamped to ``size``."""
    sleds: list[Sled] = []
    page_cursor = 0
    run_start = 0
    run_level: tuple[float, float] | None = None
    for run_pages, level in levels:
        if run_level is None:
            run_level = level
        elif level != run_level:
            offset = run_start * PAGE_SIZE
            end = page_cursor * PAGE_SIZE
            sleds.append(Sled(offset, end - offset, *run_level))
            run_start = page_cursor
            run_level = level
        page_cursor += run_pages
    assert run_level is not None
    offset = run_start * PAGE_SIZE
    sleds.append(Sled(offset, size - offset, *run_level))
    return SledVector(sleds, file_size=size)


def build_sled_vector(cache: PageCache, fs: FileSystem, inode: Inode,
                      table: SledTable,
                      queue_delays: dict[str, float] | None = None,
                      ) -> SledVector:
    """The FSLEDS_GET payload: a validated SLED vector for ``inode``.

    Cost is O(resident runs + estimate runs), not O(npages) and not even
    O(resident pages): resident *intervals* come straight from the
    cache's run-based per-inode index (:meth:`PageCache.resident_runs` —
    no sort, no per-page walk) and the non-resident gaps are filled by
    one ``span_estimates`` call each.

    ``queue_delays`` (device_key -> seconds, from
    :meth:`~repro.sim.engine.IoEngine.queue_delays`) inflates the latency
    of non-resident runs by the current wait behind each device's queue;
    resident (memory-level) runs are untouched — cached pages don't queue.

    The walk appends one ``(pages, (latency, bandwidth))`` level per
    run in file order and :func:`_emit` folds them into SLEDs.
    """
    size = inode.size
    if size == 0:
        return SledVector([], file_size=0)
    npages = inode.npages
    row = table.memory
    memory_level = (row.latency, row.bandwidth)
    levels: list[tuple[int, tuple[float, float]]] = []

    def gap(start: int, n: int) -> None:
        for run_pages, estimate in fs.span_estimates(inode, start, n):
            extra = estimate.queue_delay
            if queue_delays:
                extra += queue_delays.get(estimate.device_key, 0.0)
            latency = estimate.latency
            bandwidth = estimate.bandwidth
            if latency is None or bandwidth is None:
                fallback = table.lookup(estimate.device_key)
                if latency is None:
                    latency = fallback.latency
                if bandwidth is None:
                    bandwidth = fallback.bandwidth
            levels.append((run_pages, (latency + extra, bandwidth)))

    cursor = 0
    for start, end in cache.resident_runs(inode.id, npages):
        if start > cursor:
            gap(cursor, start - cursor)
        levels.append((end - start, memory_level))
        cursor = end
    if cursor < npages:
        gap(cursor, npages - cursor)
    return _emit(levels, size)
