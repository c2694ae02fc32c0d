"""Discrete virtual-time substrate shared by all simulated components.

The paper's evaluation runs on real hardware and reports wall-clock
throughput and latency.  This reproduction replaces wall-clock time with a
deterministic virtual clock measured in integer nanoseconds.  Every cost in
the system (a DRAM access, a write-protection trap, a TLB flush, an SSD
write) is expressed as a virtual-time charge, so experiments are exactly
reproducible and independent of the host machine.

Public classes
--------------
:class:`SimClock`
    Monotonic virtual clock with helpers for advancing time.
:class:`EventQueue`
    Priority queue of timestamped callbacks (epoch ticks, IO completions).
:class:`Simulation`
    Couples a clock and an event queue; the unit every simulated device
    hangs off.
"""

from repro.sim.clock import NS_PER_MS, NS_PER_SEC, NS_PER_US, SimClock
from repro.sim.events import EventQueue, Simulation

__all__ = [
    "SimClock",
    "EventQueue",
    "Simulation",
    "NS_PER_US",
    "NS_PER_MS",
    "NS_PER_SEC",
]
