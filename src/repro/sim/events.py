"""Timestamped event queue driving the simulation.

The Viyojit runtime has two asynchronous activities that happen "behind"
the application's back: epoch boundaries (page-table dirty-bit scans) and
SSD IO completions (proactive flushes finishing).  In the real system these
are a timer thread and device interrupts; here they are events on a
priority queue that the experiment runner drains whenever the application
clock passes an event's timestamp.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.sim.clock import SimClock

#: Sentinel for "no pending event": later than any reachable timestamp.
NEVER_NS = 1 << 63

Action = Callable[[], None]


class EventQueue:
    """Min-heap of ``(when_ns, seq, action)`` entries.

    Entries order by timestamp, then by ``seq`` — a counter stamped at
    scheduling time — so simultaneous events fire in the order they were
    scheduled.  That FIFO tie order is the simulator's determinism
    contract.

    :attr:`next_due_at` is the earliest pending timestamp (``NEVER_NS``
    when empty), maintained so hot-path callers can skip draining
    entirely while the clock has not reached it.  Callers may only rely
    on it as a lower bound: "clock below the bound" always means "nothing
    due".
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Action]] = []
        self._seq = 0  # the next entry's tie-break stamp
        self.next_due_at: int = NEVER_NS

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, when_ns: int, action: Action) -> None:
        """Schedule ``action`` to run at absolute time ``when_ns``."""
        if when_ns < 0:
            raise ValueError(f"cannot schedule event at negative time: {when_ns}")
        when_ns = int(when_ns)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (when_ns, seq, action))
        if when_ns < self.next_due_at:
            self.next_due_at = when_ns

    def peek_time(self) -> Optional[int]:
        """Timestamp of the earliest pending event, or ``None`` if empty."""
        return self._heap[0][0] if self._heap else None

    def pop_due(self, now_ns: int) -> Optional[Action]:
        """Pop the earliest action with timestamp <= ``now_ns``, if any."""
        heap = self._heap
        if not heap or heap[0][0] > now_ns:
            return None
        action = heapq.heappop(heap)[2]
        self.next_due_at = heap[0][0] if heap else NEVER_NS
        return action


class Simulation:
    """A clock plus an event queue: the spine of one experiment.

    Every simulated device (MMU, SSD, Viyojit runtime) holds a reference to
    one :class:`Simulation` and charges time / schedules completions
    through it.

    The central method is :meth:`run_until`: it fires all events whose
    timestamps have been passed by the application clock, in timestamp
    order, letting background activity (epoch scans, flush completions)
    interleave deterministically with foreground work.
    """

    def __init__(self, start_ns: int = 0) -> None:
        self.clock = SimClock(start_ns)
        self.events = EventQueue()

    @property
    def now(self) -> int:
        return self.clock.now

    def schedule_at(self, when_ns: int, action: Action) -> None:
        """Schedule ``action`` at absolute virtual time ``when_ns``."""
        self.events.schedule(when_ns, action)

    def schedule_after(self, delta_ns: int, action: Action) -> None:
        """Schedule ``action`` ``delta_ns`` after the current time."""
        self.events.schedule(self.clock.now + delta_ns, action)

    def drain_due(self) -> int:
        """Fire every event due at or before the current clock time.

        Returns the number of events fired.  Events may schedule further
        events; those fire too if they are already due.  The queue's
        bound is refreshed before each action runs, so an action that
        re-enters the simulation sees a consistent queue.
        """
        clock = self.clock
        events = self.events
        heap = events._heap
        pop = heapq.heappop
        fired = 0
        while heap and heap[0][0] <= clock._now:
            action = pop(heap)[2]
            events.next_due_at = heap[0][0] if heap else NEVER_NS
            action()
            fired += 1
        return fired

    def run_until(self, when_ns: int) -> int:
        """Advance to ``when_ns``, firing due events *in timestamp order*.

        Unlike ``clock.advance_to(t); drain_due()``, this steps the clock
        event by event so an event's action observes the virtual time at
        which it logically fires.
        """
        clock = self.clock
        events = self.events
        heap = events._heap
        pop = heapq.heappop
        fired = 0
        while heap and heap[0][0] <= when_ns:
            at, _seq, action = pop(heap)
            events.next_due_at = heap[0][0] if heap else NEVER_NS
            clock.advance_to(at)
            action()
            fired += 1
        clock.advance_to(when_ns)
        return fired
