"""Reference implementations kept as test oracles, never as runtime options.

Each production structure has exactly one implementation under ``src/``;
the implementation it replaced lives here so property tests and
benchmarks can keep comparing the two:

* :class:`~tests.oracles.residency.SetResidency` — per-page sets, the
  oracle for :class:`~repro.cache.residency.RunResidency`;
* :class:`~tests.oracles.events.HeapEventLoop` — one binary heap, the
  oracle for the calendar-queue :class:`~repro.sim.events.EventLoop`;
* :func:`~tests.oracles.builder.build_sled_vector_full_walk` — the
  paper's literal per-page walk, the oracle for
  :func:`~repro.core.builder.build_sled_vector`.

:func:`oracle_backends` builds whole machines on the first two.  Nothing
under ``src/`` may import from here (CI checks this).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

import repro.cache.page_cache as _page_cache
import repro.sim.engine as _engine
from tests.oracles.builder import build_sled_vector_full_walk, page_level
from tests.oracles.events import HeapEventLoop
from tests.oracles.residency import SetResidency

__all__ = [
    "SetResidency",
    "HeapEventLoop",
    "build_sled_vector_full_walk",
    "page_level",
    "oracle_backends",
]


@contextmanager
def oracle_backends() -> Iterator[None]:
    """Every :class:`PageCache` and :class:`IoEngine` built inside the
    block runs on :class:`SetResidency` and :class:`HeapEventLoop`.

    Patches the module-level names the two constructors instantiate, so
    kernels and machines pick the oracles up without any constructor
    parameter.  Callers should assert ``type(cache._index)`` and
    ``type(engine.loop)`` so a patch that misses cannot go unnoticed.
    """
    with mock.patch.object(_page_cache, "RunResidency", SetResidency), \
            mock.patch.object(_engine, "EventLoop", HeapEventLoop):
        yield
