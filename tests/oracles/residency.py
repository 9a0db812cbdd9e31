"""Reference residency index: one ``set[int]`` per inode.

The per-page-set index that :class:`~repro.cache.residency.RunResidency`
replaced, kept as the oracle the run index is property-tested against.
It implements the same surface as ``RunResidency``.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class SetResidency:
    """The pre-interval-run reference: one ``set[int]`` per inode.

    Point updates are O(1), but every runs/count query pays O(resident)
    (plus a sort for runs) — the cost profile the run index exists to
    remove.
    """

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

    def inodes(self) -> Iterable[int]:
        return self._by_inode.keys()

    def clear(self) -> None:
        self._by_inode.clear()
