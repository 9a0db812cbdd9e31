"""Reference SLED builder: the paper's literal per-page walk (§4.1).

One residency peek plus one ``page_estimate`` per page, O(npages).  The
production :func:`~repro.core.builder.build_sled_vector` must return the
same vector bit for bit; the property tests and the SLED-scaling
benchmark compare against this walk.
"""

from __future__ import annotations

from repro.cache.page_cache import PageCache
from repro.core.builder import _emit
from repro.core.sled import SledVector
from repro.core.sled_table import SledTable
from repro.fs.filesystem import FileSystem, PageEstimate
from repro.fs.inode import Inode


def page_level(cache: PageCache, fs: FileSystem, inode: Inode,
               page_index: int, table: SledTable) -> tuple[float, float]:
    """(latency, bandwidth) estimate for one page right now."""
    if cache.peek((inode.id, page_index)):
        row = table.memory
        return row.latency, row.bandwidth
    return resolve_estimate(table, fs.page_estimate(inode, page_index))


def resolve_estimate(table: SledTable, estimate: PageEstimate,
                     queue_delays: dict[str, float] | None = None,
                     ) -> tuple[float, float]:
    """Turn a filesystem estimate into concrete (latency, bandwidth),
    falling back to the boot-time sleds-table row where not overridden.

    ``queue_delays`` (device_key -> seconds) is the queue-aware term: with
    a live I/O engine, a request issued *now* waits behind whatever is
    already queued on the page's device, so that wait is part of the
    latency the SLED promises.  The estimate's own ``queue_delay`` (set by
    filesystems that model internal queueing) adds on top.
    """
    extra = estimate.queue_delay
    if queue_delays:
        extra += queue_delays.get(estimate.device_key, 0.0)
    if estimate.latency is not None and estimate.bandwidth is not None:
        return estimate.latency + extra, estimate.bandwidth
    row = table.lookup(estimate.device_key)
    latency = estimate.latency if estimate.latency is not None else row.latency
    bandwidth = (estimate.bandwidth if estimate.bandwidth is not None
                 else row.bandwidth)
    return latency + extra, bandwidth


def build_sled_vector_full_walk(cache: PageCache, fs: FileSystem,
                                inode: Inode, table: SledTable) -> SledVector:
    """Reference implementation: the paper's literal per-page walk."""
    size = inode.size
    if size == 0:
        return SledVector([], file_size=0)
    npages = inode.npages
    return _emit(
        [(1, page_level(cache, fs, inode, page, table))
         for page in range(npages)],
        size)
