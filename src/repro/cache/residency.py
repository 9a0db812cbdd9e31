"""Per-inode residency indexes: interval runs, bitmaps, and plain sets.

The page cache tracks which ``(inode, page)`` keys are resident in a flat
set (O(1) membership on the fault path), plus a *per-inode index* that
answers the SLED builder's questions: which pages of this inode are
resident, as a bitmap, as a count, or — the shape the interval-merge
builder actually wants — as sorted ``[start, end)`` runs.

This module makes that index pluggable:

* :class:`RunResidency` (default, kind ``"runs"``) stores each inode's
  resident pages as sorted interval runs in a flat boundary list
  ``[s0, e0, s1, e1, ...]``.  Point updates are a ``bisect`` plus an O(1)
  boundary tweak in the common sequential case; ``runs``/``count``/
  ``bitmap`` queries are O(runs), not O(pages) — a million-page resident
  file is *one* run.
* :class:`BitmapResidency` (kind ``"bitmap"``) keeps a numpy boolean
  array per inode and derives runs by vectorised edge detection; point
  updates are O(1) array stores.  Opt-in via
  :class:`~repro.machine.MachineConfig` — results are bit-identical, only
  the host arithmetic differs.
* :class:`SetResidency` (kind ``"sets"``) is the pre-calendar-queue
  reference — a ``set[int]`` per inode with sort-on-demand runs — kept
  for the old-vs-new property tests and benchmark baselines.

All three expose the same small surface and, by construction, identical
query results; ``tests/test_cache_residency.py`` property-tests that.
Iteration orders handed back to the cache (``pop_inode``) are ascending
for every backend so observer callbacks fire in a deterministic order.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator

import numpy as _np

_EMPTY_PAGES: frozenset[int] = frozenset()

RESIDENCY_KINDS = ("runs", "bitmap", "sets")


def make_residency(kind: str):
    """Build a residency index by kind: ``runs`` (default), ``bitmap``,
    or ``sets`` (the pre-PR reference)."""
    if kind == "runs":
        return RunResidency()
    if kind == "bitmap":
        return BitmapResidency()
    if kind == "sets":
        return SetResidency()
    raise ValueError(
        f"unknown residency kind {kind!r}; expected one of "
        f"{RESIDENCY_KINDS}")


class RunResidency:
    """Sorted interval runs per inode, as a flat boundary list.

    ``_bounds[inode]`` is ``[s0, e0, s1, e1, ...]`` with
    ``s0 < e0 < s1 < e1 < ...``; page ``p`` is resident iff
    ``bisect_right(bounds, p)`` is odd.  Adding or discarding a page
    touches at most two boundaries; appending to the trailing run (the
    sequential-read common case) is a single list-element bump.
    """

    kind = "runs"

    def __init__(self) -> None:
        self._bounds: dict[int, list[int]] = {}
        self._counts: dict[int, int] = {}

    def add(self, inode_id: int, page: int) -> None:
        """Mark ``page`` resident (caller guarantees it was not)."""
        bounds = self._bounds.get(inode_id)
        if bounds is None:
            self._bounds[inode_id] = [page, page + 1]
            self._counts[inode_id] = 1
            return
        self._counts[inode_id] += 1
        if bounds[-1] == page:  # extend the trailing run: sequential reads
            bounds[-1] = page + 1
            return
        i = bisect_right(bounds, page)
        joins_prev = i > 0 and bounds[i - 1] == page
        joins_next = i < len(bounds) and bounds[i] == page + 1
        if joins_prev and joins_next:
            del bounds[i - 1:i + 1]  # bridge the gap between two runs
        elif joins_prev:
            bounds[i - 1] = page + 1
        elif joins_next:
            bounds[i] = page
        else:
            bounds[i:i] = (page, page + 1)

    def add_run(self, inode_id: int, start: int, n: int) -> None:
        """Mark the contiguous run ``[start, start+n)`` resident (caller
        guarantees none of it was).

        Equivalent to ``n`` :meth:`add` calls but a single splice: with no
        resident page inside the range, the whole run lies in one gap of
        the boundary list.
        """
        end = start + n
        bounds = self._bounds.get(inode_id)
        if bounds is None:
            self._bounds[inode_id] = [start, end]
            self._counts[inode_id] = n
            return
        self._counts[inode_id] += n
        if bounds[-1] == start:  # extend the trailing run: sequential reads
            bounds[-1] = end
            return
        i = bisect_right(bounds, start)
        joins_prev = i > 0 and bounds[i - 1] == start
        joins_next = i < len(bounds) and bounds[i] == end
        if joins_prev and joins_next:
            del bounds[i - 1:i + 1]  # bridge the gap between two runs
        elif joins_prev:
            bounds[i - 1] = end
        elif joins_next:
            bounds[i] = start
        else:
            bounds[i:i] = (start, end)

    def discard_run(self, inode_id: int, start: int, n: int) -> None:
        """Mark the contiguous run ``[start, start+n)`` non-resident
        (caller guarantees all of it was).

        Equivalent to ``n`` :meth:`discard` calls but a single trim or
        split: a fully resident contiguous range lies inside one maximal
        run of the boundary list.
        """
        count = self._counts[inode_id] - n
        if count == 0:
            del self._bounds[inode_id]
            del self._counts[inode_id]
            return
        bounds = self._bounds[inode_id]
        self._counts[inode_id] = count
        end = start + n
        i = bisect_right(bounds, start)  # odd: start inside run [i-1, i)
        run_start, run_end = bounds[i - 1], bounds[i]
        if run_start == start and run_end == end:
            del bounds[i - 1:i + 1]
        elif run_start == start:
            bounds[i - 1] = end
        elif run_end == end:
            bounds[i] = start
        else:  # split the run around the hole
            bounds[i:i] = (start, end)

    def discard(self, inode_id: int, page: int) -> None:
        """Mark ``page`` non-resident (caller guarantees it was)."""
        bounds = self._bounds[inode_id]
        count = self._counts[inode_id] - 1
        if count == 0:
            del self._bounds[inode_id]
            del self._counts[inode_id]
            return
        self._counts[inode_id] = count
        i = bisect_right(bounds, page)  # odd: page inside run [i-1, i)
        start, end = bounds[i - 1], bounds[i]
        if start == page and end == page + 1:
            del bounds[i - 1:i + 1]
        elif start == page:
            bounds[i - 1] = page + 1
        elif end == page + 1:
            bounds[i] = page
        else:  # split the run around the hole
            bounds[i:i] = (page, page + 1)

    def pop_inode(self, inode_id: int) -> Iterator[int]:
        """Remove the inode's entry, yielding its pages in ascending order."""
        bounds = self._bounds.pop(inode_id, None)
        self._counts.pop(inode_id, None)
        if bounds is None:
            return iter(())
        return iter([p for i in range(0, len(bounds), 2)
                     for p in range(bounds[i], bounds[i + 1])])

    def pages(self, inode_id: int) -> frozenset[int]:
        bounds = self._bounds.get(inode_id)
        if bounds is None:
            return _EMPTY_PAGES
        return frozenset(p for i in range(0, len(bounds), 2)
                         for p in range(bounds[i], bounds[i + 1]))

    def runs(self, inode_id: int, npages: int) -> list[tuple[int, int]]:
        """Resident ``[start, end)`` runs clipped to ``[0, npages)``."""
        bounds = self._bounds.get(inode_id)
        if not bounds or npages <= 0 or bounds[0] >= npages:
            return []
        hi = bisect_right(bounds, npages - 1)
        out = [(bounds[i], bounds[i + 1])
               for i in range(0, hi - (hi & 1), 2)]
        if hi & 1:  # npages-1 lands inside run [hi-1, hi): clip it
            out.append((bounds[hi - 1], npages))
        return out

    def count(self, inode_id: int, npages: int) -> int:
        bounds = self._bounds.get(inode_id)
        if not bounds:
            return 0
        if bounds[-1] <= npages:  # whole index below the limit
            return self._counts[inode_id]
        return sum(end - start for start, end in self.runs(inode_id, npages))

    def bitmap(self, inode_id: int, npages: int) -> list[bool]:
        out = [False] * npages
        for start, end in self.runs(inode_id, npages):
            out[start:end] = [True] * (end - start)
        return out

    def inodes(self) -> Iterable[int]:
        return self._bounds.keys()

    def clear(self) -> None:
        self._bounds.clear()
        self._counts.clear()


class SetResidency:
    """The pre-interval-run reference: one ``set[int]`` per inode.

    Point updates are O(1), but every runs/count/bitmap query pays
    O(resident) (plus a sort for runs) — the cost profile the run and
    bitmap backends exist to remove.  Kept for property tests and as the
    benchmark baseline.
    """

    kind = "sets"

    def __init__(self) -> None:
        self._by_inode: dict[int, set[int]] = {}

    def add(self, inode_id: int, page: int) -> None:
        self._by_inode.setdefault(inode_id, set()).add(page)

    def add_run(self, inode_id: int, start: int, n: int) -> None:
        self._by_inode.setdefault(inode_id, set()).update(
            range(start, start + n))

    def discard_run(self, inode_id: int, start: int, n: int) -> None:
        pages = self._by_inode.get(inode_id)
        if pages is not None:
            pages.difference_update(range(start, start + n))
            if not pages:
                del self._by_inode[inode_id]

    def discard(self, inode_id: int, page: int) -> None:
        pages = self._by_inode.get(inode_id)
        if pages is not None:
            pages.discard(page)
            if not pages:
                del self._by_inode[inode_id]

    def pop_inode(self, inode_id: int) -> Iterator[int]:
        pages = self._by_inode.pop(inode_id, None)
        return iter(sorted(pages)) if pages else iter(())

    def pages(self, inode_id: int) -> frozenset[int]:
        pages = self._by_inode.get(inode_id)
        return frozenset(pages) if pages else _EMPTY_PAGES

    def runs(self, inode_id: int, npages: int) -> list[tuple[int, int]]:
        pages = self._by_inode.get(inode_id)
        if not pages:
            return []
        out: list[tuple[int, int]] = []
        start = prev = None
        for page in sorted(p for p in pages if 0 <= p < npages):
            if start is None:
                start = prev = page
            elif page == prev + 1:
                prev = page
            else:
                out.append((start, prev + 1))
                start = prev = page
        if start is not None:
            out.append((start, prev + 1))
        return out

    def count(self, inode_id: int, npages: int) -> int:
        pages = self._by_inode.get(inode_id)
        if not pages:
            return 0
        return sum(1 for page in pages if page < npages)

    def bitmap(self, inode_id: int, npages: int) -> list[bool]:
        pages = self._by_inode.get(inode_id, _EMPTY_PAGES)
        return [idx in pages for idx in range(npages)]

    def inodes(self) -> Iterable[int]:
        return self._by_inode.keys()

    def clear(self) -> None:
        self._by_inode.clear()


class BitmapResidency:
    """numpy boolean bitmap per inode; runs via vectorised edge detection.

    Arrays grow geometrically as higher page indices appear; ``count`` is
    tracked incrementally so it never rescans.  All query results are
    converted back to plain Python ints/bools, so downstream arithmetic is
    bit-identical to the pure-python backends.
    """

    kind = "bitmap"

    def __init__(self) -> None:
        self._maps: dict[int, "_np.ndarray"] = {}
        self._counts: dict[int, int] = {}

    def _grown(self, arr: "_np.ndarray", page: int) -> "_np.ndarray":
        size = max(64, int(arr.size * 2), page + 1)
        grown = _np.zeros(size, dtype=bool)
        grown[:arr.size] = arr
        return grown

    def add(self, inode_id: int, page: int) -> None:
        arr = self._maps.get(inode_id)
        if arr is None:
            arr = self._maps[inode_id] = _np.zeros(
                max(64, page + 1), dtype=bool)
            self._counts[inode_id] = 0
        elif page >= arr.size:
            arr = self._maps[inode_id] = self._grown(arr, page)
        arr[page] = True
        self._counts[inode_id] += 1

    def add_run(self, inode_id: int, start: int, n: int) -> None:
        end = start + n
        arr = self._maps.get(inode_id)
        if arr is None:
            arr = self._maps[inode_id] = _np.zeros(
                max(64, end), dtype=bool)
            self._counts[inode_id] = 0
        elif end > arr.size:
            arr = self._maps[inode_id] = self._grown(arr, end - 1)
        arr[start:end] = True
        self._counts[inode_id] += n

    def discard_run(self, inode_id: int, start: int, n: int) -> None:
        arr = self._maps.get(inode_id)
        if arr is None:
            return
        arr[start:start + n] = False
        count = self._counts[inode_id] - n
        if count == 0:
            del self._maps[inode_id]
            del self._counts[inode_id]
        else:
            self._counts[inode_id] = count

    def discard(self, inode_id: int, page: int) -> None:
        arr = self._maps.get(inode_id)
        if arr is None or page >= arr.size:
            return
        arr[page] = False
        count = self._counts[inode_id] - 1
        if count == 0:
            del self._maps[inode_id]
            del self._counts[inode_id]
        else:
            self._counts[inode_id] = count

    def pop_inode(self, inode_id: int) -> Iterator[int]:
        arr = self._maps.pop(inode_id, None)
        self._counts.pop(inode_id, None)
        if arr is None:
            return iter(())
        return iter([int(p) for p in _np.flatnonzero(arr)])

    def pages(self, inode_id: int) -> frozenset[int]:
        arr = self._maps.get(inode_id)
        if arr is None:
            return _EMPTY_PAGES
        return frozenset(int(p) for p in _np.flatnonzero(arr))

    def runs(self, inode_id: int, npages: int) -> list[tuple[int, int]]:
        arr = self._maps.get(inode_id)
        if arr is None or npages <= 0:
            return []
        view = arr[:npages]
        padded = _np.zeros(view.size + 2, dtype=bool)
        padded[1:-1] = view
        edges = _np.flatnonzero(padded[1:] != padded[:-1])
        return [(int(edges[i]), int(edges[i + 1]))
                for i in range(0, len(edges), 2)]

    def count(self, inode_id: int, npages: int) -> int:
        arr = self._maps.get(inode_id)
        if arr is None:
            return 0
        if arr.size <= npages:
            return self._counts[inode_id]
        return int(arr[:npages].sum())

    def bitmap(self, inode_id: int, npages: int) -> list[bool]:
        arr = self._maps.get(inode_id)
        if arr is None:
            return [False] * npages
        out = [False] * npages
        for page in _np.flatnonzero(arr[:npages]):
            out[page] = True
        return out

    def inodes(self) -> Iterable[int]:
        return self._maps.keys()

    def clear(self) -> None:
        self._maps.clear()
        self._counts.clear()
