"""Discrete-event core: a deterministic event loop over the virtual clock.

The synchronous substrate charges every device access to one global clock,
so no request ever queues and no task's CPU overlaps another task's I/O.
This module supplies the missing time model:

* :class:`EventLoop` — a calendar-queue scheduler of ``(time, seq)``-ordered
  events layered on :class:`~repro.sim.clock.VirtualClock`.  Popping an
  event whose timestamp lies in the future advances the clock to it (charged
  to the event's category); events at equal timestamps fire in FIFO
  submission order, which is what makes concurrent runs reproducible bit
  for bit.
* :class:`IoFuture` — the completion handle tasks block on.  A future is
  resolved (or failed) from inside an event callback; registered waiters
  are notified in registration order.

The calendar queue keeps one FIFO deque per distinct timestamp plus a
binary heap of the raw timestamps (floats compare at C speed; events
themselves are never compared), and a dedicated *now deque* for events
scheduled at the current clock reading — the ``at_now`` fast path that
plugged dispatch chains hit on every flush.  Ordering stays exactly
``(time, seq)``: within a deque, arrival order *is* seq order, and any
heap bucket at time ``T`` was populated while the clock was strictly
before ``T``, so its events always carry smaller seqs than now-deque
events at ``T`` and must drain first.

Cancellation is eager where O(1) (either end of a deque) and lazily
compacted otherwise, so cancelled events no longer rot in the queue, and
``pending`` is an exact live counter rather than an O(n) scan.

Nothing here reads wall-clock time or draws randomness: given the same
submission sequence, two runs replay the identical event order.

The single-binary-heap loop this one replaced lives on as a test oracle
(``tests/oracles/events.py``); ``tests/test_sim_events_property.py``
replays randomized schedules against both.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable

from repro.sim.clock import VirtualClock
from repro.sim.errors import InvalidArgumentError


class Event:
    """One scheduled callback, ordered by ``(time, seq)``."""

    __slots__ = ("time", "seq", "callback", "category", "cancelled", "_q")

    def __init__(self, time: float, seq: int, callback: Callable[[], None],
                 category: str) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.category = category
        self.cancelled = False
        #: the deque currently holding this event (None once popped);
        #: lets cancel() unlink eagerly when the event sits at either end
        self._q: deque[Event] | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


class EventLoop:
    """A deterministic calendar-queue event loop driving one virtual clock.

    Determinism rules (relied on by the concurrency tests):

    1. events fire in nondecreasing time order;
    2. events at the *same* time fire in submission (FIFO) order — the
       tie-break is a monotonically increasing sequence number, never
       object identity or hash order;
    3. the clock only moves forward, to the timestamp of the event being
       fired, charged to that event's category (device completions charge
       their device's category, so a solo run's per-category totals are
       identical to the synchronous path's).

    Structure: ``_buckets`` maps each distinct future timestamp to a FIFO
    deque; ``_times`` is a min-heap of those raw timestamps (a timestamp
    may appear more than once after its bucket empties and is re-created —
    stale entries are dropped on pop).  ``_now_q`` collects events
    scheduled at exactly ``clock.now`` so same-timestamp chains never touch
    the heap at all; if the clock moves on while such events are still
    queued (a task charging CPU between steps), they migrate to a regular
    bucket first.
    """

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        #: timestamp -> FIFO deque of events at that timestamp
        self._buckets: dict[float, deque[Event]] = {}
        #: min-heap of bucket timestamps (may hold stale duplicates)
        self._times: list[float] = []
        #: events scheduled at exactly ``_now_time`` (the at-now fast path)
        self._now_q: deque[Event] = deque()
        self._now_time = clock.now
        self._seq = 0
        self._fired = 0
        self._live = 0
        #: cancelled events still buried mid-deque (compacted when they
        #: outnumber live ones)
        self._stale = 0

    # -- scheduling ------------------------------------------------------

    def at(self, time: float, callback: Callable[[], None],
           category: str = "wait") -> Event:
        """Schedule ``callback`` to fire when virtual time reaches ``time``.

        ``time`` may equal the current time (fires on the next ``step``)
        but never lie in the past — the clock is monotonic.
        """
        now = self.clock.now
        if time < now:
            raise InvalidArgumentError(
                f"cannot schedule event in the past: {time} < {now}")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, category)
        self._live += 1
        if time == now:
            if self._now_q and self._now_time != now:
                self._flush_now()
            self._now_time = now
            self._now_q.append(event)
            event._q = self._now_q
        else:
            bucket = self._buckets.get(time)
            if bucket is None:
                bucket = self._buckets[time] = deque()
                heapq.heappush(self._times, time)
            bucket.append(event)
            event._q = bucket
        return event

    def after(self, delay: float, callback: Callable[[], None],
              category: str = "wait") -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise InvalidArgumentError(f"negative delay: {delay}")
        return self.at(self.clock.now + delay, callback, category)

    def cancel(self, event: Event) -> None:
        """Drop a scheduled event (safe if already fired or cancelled).

        The event is unlinked immediately when it sits at either end of
        its deque; otherwise it is marked and swept by the next pop to
        reach it, with a full compaction once cancelled events outnumber
        live ones.  Either way ``pending`` reflects the cancellation at
        once.
        """
        if event.cancelled:
            return
        event.cancelled = True
        q = event._q
        if q is None:
            return  # already fired (or already swept)
        self._live -= 1
        if q[0] is event:
            q.popleft()
            event._q = None
        elif q[-1] is event:
            q.pop()
            event._q = None
        else:
            self._stale += 1
            if self._stale > 64 and self._stale > self._live:
                self._compact()
            return
        if not q and q is not self._now_q:
            # empty bucket: drop the dict entry; its heap timestamp goes
            # stale and is skipped on the next pop that reaches it
            self._buckets.pop(event.time, None)

    def _flush_now(self) -> None:
        """Migrate a left-over now-deque into the bucket structure.

        Only needed when the clock advanced (a task charging CPU) while
        same-timestamp events were still queued; their timestamp is now in
        the past, which is legal — they simply fire without advancing the
        clock.  Bucket events at the same timestamp were scheduled strictly
        earlier (smaller seqs), so appending preserves FIFO order.
        """
        nq = self._now_q
        t = self._now_time
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = nq
            heapq.heappush(self._times, t)
            self._now_q = deque()
        else:
            bucket.extend(nq)
            for event in nq:
                event._q = bucket
            nq.clear()

    def _compact(self) -> None:
        """Rebuild every deque without its cancelled entries."""
        for time, bucket in list(self._buckets.items()):
            live = deque(e for e in bucket if not e.cancelled)
            for event in bucket:
                if event.cancelled:
                    event._q = None
            if live:
                self._buckets[time] = live
                for event in live:
                    event._q = live
            else:
                del self._buckets[time]
        nq = deque(e for e in self._now_q if not e.cancelled)
        for event in self._now_q:
            if event.cancelled:
                event._q = None
        self._now_q = nq
        for event in nq:
            event._q = nq
        self._stale = 0

    # -- execution -------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of events still scheduled (cancelled ones excluded).

        O(1): an exact counter maintained on schedule/cancel/fire.
        """
        return self._live

    @property
    def fired(self) -> int:
        """Total events fired so far (monitoring / tests)."""
        return self._fired

    def _pop_next(self) -> Event | None:
        """Remove and return the earliest live event, or None when idle."""
        nq = self._now_q
        if nq and self._now_time != self.clock.now:
            self._flush_now()
            nq = self._now_q
        buckets = self._buckets
        times = self._times
        while True:
            if times:
                t = times[0]
                bucket = buckets.get(t)
                if not bucket:
                    heapq.heappop(times)
                    if bucket is not None:
                        del buckets[t]
                    continue
                if nq and t > self._now_time:
                    event = nq.popleft()
                else:
                    # bucket events at t <= now were scheduled while the
                    # clock was strictly before t: smaller seqs, fire first
                    event = bucket.popleft()
                    if not bucket:
                        heapq.heappop(times)
                        del buckets[t]
            elif nq:
                event = nq.popleft()
            else:
                return None
            event._q = None
            if event.cancelled:
                # swept a lazily-cancelled entry (already uncounted)
                self._stale -= 1
                continue
            return event

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or None when idle."""
        nq = self._now_q
        if nq and self._now_time != self.clock.now:
            self._flush_now()
            nq = self._now_q
        while nq and nq[0].cancelled:
            nq.popleft()._q = None
            self._stale -= 1
        buckets = self._buckets
        times = self._times
        head: float | None = None
        while times:
            t = times[0]
            bucket = buckets.get(t)
            if not bucket:
                heapq.heappop(times)
                if bucket is not None:
                    del buckets[t]
                continue
            while bucket and bucket[0].cancelled:
                bucket.popleft()._q = None
                self._stale -= 1
            if not bucket:
                heapq.heappop(times)
                del buckets[t]
                continue
            head = t
            break
        if nq:
            return self._now_time if head is None or self._now_time <= head \
                else head
        return head

    def step(self) -> bool:
        """Fire the next event, advancing the clock to it.

        Returns False when no live events remain.
        """
        event = self._pop_next()
        if event is None:
            return False
        self._live -= 1
        if event.time > self.clock.now:
            # advance_to lands bit-exactly on the timestamp; a
            # subtract-then-add round trip can drift an ulp
            self.clock.advance_to(event.time, event.category)
        self._fired += 1
        event.callback()
        return True

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Fire events until the queue drains; returns the count fired."""
        fired = 0
        while self.step():
            fired += 1
            if fired > max_events:
                raise RuntimeError(
                    f"event loop exceeded {max_events} events; "
                    f"likely a rescheduling cycle")
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventLoop(now={self.clock.now:.6f}, pending={self.pending})"


class IoFuture:
    """Completion handle for one in-flight I/O request.

    Resolved exactly once, from inside an event callback.  Tasks yield the
    future to their scheduler, which parks them until resolution; waiters
    registered with :meth:`add_done_callback` run synchronously inside the
    resolving event, in registration order.
    """

    __slots__ = ("_done", "_value", "_exception", "_callbacks", "label")

    def __init__(self, label: str = "") -> None:
        self._done = False
        self._value = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["IoFuture"], None]] = []
        self.label = label

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self):
        """The completion payload; raises the stored exception if failed."""
        if not self._done:
            raise InvalidArgumentError(
                f"future {self.label!r} is not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        return self._exception if self._done else None

    def resolve(self, value=None) -> None:
        self._settle(value, None)

    def fail(self, exception: BaseException) -> None:
        self._settle(None, exception)

    def _settle(self, value, exception) -> None:
        if self._done:
            raise InvalidArgumentError(
                f"future {self.label!r} is already resolved")
        self._done = True
        self._value = value
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(self,
                          callback: Callable[["IoFuture"], None]) -> None:
        """Run ``callback(self)`` on resolution (immediately if done)."""
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self._done else "pending"
        return f"<IoFuture {self.label!r} {state}>"
