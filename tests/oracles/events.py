"""Reference event loop: one binary heap of events.

The loop that the calendar-queue :class:`~repro.sim.events.EventLoop`
replaced, kept as the oracle the calendar queue is property-tested
against and as the reference side of the core-throughput benchmark.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.sim.clock import VirtualClock
from repro.sim.errors import InvalidArgumentError
from repro.sim.events import Event


class HeapEvent(Event):
    """An :class:`~repro.sim.events.Event` that orders by ``(time, seq)``,
    which is what the heap compares."""

    __slots__ = ()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class HeapEventLoop:
    """The pre-calendar-queue event loop: one binary heap of events.

    Cancellation is lazy (cancelled events rot in the heap until popped)
    and ``pending`` is an O(n) scan — exactly the costs the calendar
    queue removes.
    """

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self._heap: list[HeapEvent] = []
        self._seq = itertools.count()
        self._fired = 0

    def at(self, time: float, callback: Callable[[], None],
           category: str = "wait") -> HeapEvent:
        if time < self.clock.now:
            raise InvalidArgumentError(
                f"cannot schedule event in the past: {time} < "
                f"{self.clock.now}")
        event = HeapEvent(time, next(self._seq), callback, category)
        heapq.heappush(self._heap, event)
        return event

    def after(self, delay: float, callback: Callable[[], None],
              category: str = "wait") -> HeapEvent:
        if delay < 0:
            raise InvalidArgumentError(f"negative delay: {delay}")
        return self.at(self.clock.now + delay, callback, category)

    def cancel(self, event: Event) -> None:
        event.cancelled = True

    @property
    def pending(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)

    @property
    def fired(self) -> int:
        return self._fired

    def peek_time(self) -> float | None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def step(self) -> bool:
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if event.time > self.clock.now:
                self.clock.advance_to(event.time, event.category)
            self._fired += 1
            event.callback()
            return True
        return False

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        fired = 0
        while self.step():
            fired += 1
            if fired > max_events:
                raise RuntimeError(
                    f"event loop exceeded {max_events} events; "
                    f"likely a rescheduling cycle")
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"HeapEventLoop(now={self.clock.now:.6f}, "
                f"pending={self.pending})")
