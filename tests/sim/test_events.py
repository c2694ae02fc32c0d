"""Unit tests for the event queue and simulation spine."""

import pytest

from repro.sim.events import EventQueue, Simulation


class TestEventQueue:
    def test_empty(self):
        queue = EventQueue()
        assert len(queue) == 0
        assert queue.peek_time() is None
        assert queue.pop_due(10**12) is None

    def test_schedule_and_pop(self):
        queue = EventQueue()
        fired = []
        queue.schedule(100, lambda: fired.append("a"))
        action = queue.pop_due(100)
        action()
        assert fired == ["a"]

    def test_not_due_yet(self):
        queue = EventQueue()
        queue.schedule(100, lambda: None)
        assert queue.pop_due(99) is None
        assert queue.pop_due(100) is not None

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(-1, lambda: None)

    def test_timestamp_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(300, lambda: fired.append(3))
        queue.schedule(100, lambda: fired.append(1))
        queue.schedule(200, lambda: fired.append(2))
        while (action := queue.pop_due(1000)) is not None:
            action()
        assert fired == [1, 2, 3]

    def test_fifo_for_simultaneous_events(self):
        queue = EventQueue()
        fired = []
        for tag in "abc":
            queue.schedule(50, lambda tag=tag: fired.append(tag))
        while (action := queue.pop_due(50)) is not None:
            action()
        assert fired == ["a", "b", "c"]


class TestSimulation:
    def test_schedule_after_is_relative(self):
        sim = Simulation()
        sim.clock.advance(100)
        sim.schedule_after(50, lambda: None)
        assert sim.events.peek_time() == 150

    def test_drain_due_fires_everything_due(self):
        sim = Simulation()
        fired = []
        sim.schedule_at(10, lambda: fired.append(1))
        sim.schedule_at(20, lambda: fired.append(2))
        sim.schedule_at(30, lambda: fired.append(3))
        sim.clock.advance(20)
        assert sim.drain_due() == 2
        assert fired == [1, 2]

    def test_drain_due_fires_chained_events(self):
        sim = Simulation()
        fired = []

        def first():
            fired.append("first")
            sim.schedule_at(sim.now, lambda: fired.append("chained"))

        sim.schedule_at(5, first)
        sim.clock.advance(5)
        assert sim.drain_due() == 2
        assert fired == ["first", "chained"]

    def test_run_until_steps_clock_through_events(self):
        sim = Simulation()
        observed = []
        sim.schedule_at(10, lambda: observed.append(sim.now))
        sim.schedule_at(20, lambda: observed.append(sim.now))
        sim.run_until(100)
        assert observed == [10, 20]
        assert sim.now == 100

    def test_run_until_ignores_future_events(self):
        sim = Simulation()
        fired = []
        sim.schedule_at(500, lambda: fired.append(1))
        sim.run_until(100)
        assert fired == []
        assert sim.now == 100

    def test_run_until_event_scheduling_events(self):
        sim = Simulation()
        fired = []

        def recur():
            fired.append(sim.now)
            if sim.now < 50:
                sim.schedule_after(10, recur)

        sim.schedule_at(10, recur)
        sim.run_until(100)
        assert fired == [10, 20, 30, 40, 50]

    def test_same_instant_events_fire_in_schedule_order(self):
        """``(when, seq)`` FIFO ties, re-entrant scheduling included.

        An action that schedules at the current instant queues behind
        every event already scheduled for that instant, under both
        drain entry points.
        """

        def populate(sim, fired):
            def first():
                fired.append("a")
                sim.schedule_at(40, lambda: fired.append("d"))

            sim.schedule_at(40, first)
            sim.schedule_at(40, lambda: fired.append("b"))
            sim.schedule_at(40, lambda: fired.append("c"))
            sim.schedule_at(30, lambda: fired.append("early"))

        drained, stepped = [], []
        sim = Simulation()
        populate(sim, drained)
        sim.clock.advance(40)
        assert sim.drain_due() == 5
        sim = Simulation()
        populate(sim, stepped)
        assert sim.run_until(40) == 5
        assert drained == stepped == ["early", "a", "b", "c", "d"]
        assert sim.events.next_due_at > 40 and len(sim.events) == 0

    def test_run_until_past_is_safe(self):
        sim = Simulation()
        sim.clock.advance(100)
        sim.run_until(50)
        assert sim.now == 100
