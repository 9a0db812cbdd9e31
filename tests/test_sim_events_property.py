"""Property test: the calendar-queue loop is bit-identical to the heap loop.

The :class:`~repro.sim.events.EventLoop` (calendar queue, eager
cancellation, ``at_now`` fast path) must preserve the exact virtual-time
semantics of the original binary-heap loop, kept as the
:class:`~tests.oracles.events.HeapEventLoop` oracle:
same fired sequence (tag, timestamp, clock reading), same per-category
clock charges, same ``pending`` and ``peek_time`` at every checkpoint —
under randomized schedules with heavy same-timestamp ties, cancellations
(including at either deque end and mid-deque), reschedule-from-callback
(the at-now path), and CPU charges between steps (which strand at-now
events in the past and force the now-queue migration).

The driver replays one seeded random program against each loop; any
behavioural divergence shows up as a trace mismatch.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.events import EventLoop
from tests.oracles import HeapEventLoop

SEEDS = range(10)
OPS_PER_SEED = 400

DELAYS = (0.0, 0.0, 0.001, 0.001, 0.001, 0.0025, 0.005)
CATEGORIES = ("disk", "cpu", "nfs-net", "wait")


def _drive(loop_cls, seed: int) -> tuple[list, dict, int]:
    """Run one seeded random schedule; return (trace, charges, fired)."""
    rng = random.Random(seed)
    clock = VirtualClock()
    loop = loop_cls(clock)
    trace: list = []
    tags: list = []          # tag -> Event handle, in creation order
    live_tags: list[int] = []  # tags believed schedulable/cancellable

    def schedule(time: float, category: str) -> None:
        tag = len(tags)

        def callback(tag=tag):
            trace.append(("fire", tag, clock.now))
            # nested behaviour drawn from the shared rng: identical
            # across loops as long as the fired sequence is identical
            # (a divergence fails the trace comparison either way)
            roll = rng.random()
            if roll < 0.25:
                # at-now fast path: same-timestamp chain from a callback
                schedule(clock.now, rng.choice(CATEGORIES))
            elif roll < 0.35:
                # charge CPU, then schedule at the *new* now — the
                # previous now-queue (if any) is stranded in the past
                clock.advance(0.0001, "cpu")
                schedule(clock.now, rng.choice(CATEGORIES))
            elif roll < 0.45:
                schedule(clock.now + rng.choice(DELAYS),
                         rng.choice(CATEGORIES))
            elif roll < 0.55 and live_tags:
                victim = rng.choice(live_tags)
                loop.cancel(tags[victim])

        event = loop.at(time, callback, category)
        tags.append(event)
        live_tags.append(tag)
        trace.append(("at", tag, time, category))

    for op in range(OPS_PER_SEED):
        roll = rng.random()
        if roll < 0.45:
            schedule(clock.now + rng.choice(DELAYS),
                     rng.choice(CATEGORIES))
        elif roll < 0.60 and live_tags:
            # cancel anywhere: front/back of a deque or buried mid-deque
            victim = live_tags.pop(rng.randrange(len(live_tags)))
            loop.cancel(tags[victim])
            trace.append(("cancel", victim))
        elif roll < 0.70:
            # a task charging CPU between steps
            clock.advance(rng.choice((0.00005, 0.0002)), "cpu")
        else:
            loop.step()
        if op % 10 == 0:
            trace.append(("chk", loop.pending, clock.now,
                          loop.peek_time(),
                          tuple(sorted(clock.categories().items()))))

    while loop.step():
        pass
    trace.append(("end", loop.pending, clock.now, loop.peek_time()))
    return trace, clock.categories(), loop.fired


@pytest.mark.parametrize("seed", SEEDS)
def test_bucket_loop_matches_heap_loop(seed):
    heap_trace, heap_charges, heap_fired = _drive(HeapEventLoop, seed)
    bucket_trace, bucket_charges, bucket_fired = _drive(EventLoop, seed)
    assert bucket_fired == heap_fired
    assert bucket_charges == heap_charges
    assert bucket_trace == heap_trace


def test_bucket_pending_is_exact_under_cancellation():
    """The O(1) live counter tracks schedule/cancel/fire exactly."""
    clock = VirtualClock()
    loop = EventLoop(clock)
    events = [loop.at(0.001 * (i % 5), lambda: None) for i in range(50)]
    assert loop.pending == 50
    for event in events[::3]:
        loop.cancel(event)
        loop.cancel(event)  # double-cancel must not double-count
    cancelled = len(events[::3])
    assert loop.pending == 50 - cancelled
    fired = loop.run_until_idle()
    assert fired == 50 - cancelled
    assert loop.pending == 0


def test_bucket_compaction_sweeps_mid_deque_cancels():
    """Mid-deque cancellations trigger compaction and stay exact."""
    clock = VirtualClock()
    loop = EventLoop(clock)
    fired_tags: list[int] = []
    events = [loop.at(0.5, (lambda i=i: fired_tags.append(i)))
              for i in range(300)]
    # cancel a mid-deque stripe (never the ends) to defeat eager unlink
    for i in range(1, 299, 2):
        loop.cancel(events[i])
    assert loop.pending == 300 - 149
    loop.run_until_idle()
    assert fired_tags == [i for i in range(300) if not (1 <= i <= 298
                                                        and i % 2 == 1)]
    assert loop.pending == 0
