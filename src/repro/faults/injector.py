"""Arms a :class:`~repro.faults.plan.FaultPlan` against a live simulation.

The injector owns the plan's single seeded RNG stream and three fault
channels:

* **SSD submissions** — installed as :attr:`repro.storage.ssd.SSD.
  fault_hook`; consulted on every submission in arrival order, so the
  probabilistic draws are a deterministic function of (plan seed,
  workload).  Failures raise :class:`~repro.storage.ssd.SSDFaultError`
  (absorbed by the flusher's bounded retry); delays add device latency.
* **Battery degradation** — scheduled at the plan's virtual instants.
  Each step degrades the battery and, for budgeted runtimes, invokes
  :meth:`repro.core.runtime.Viyojit.retune_for_battery` so the dirty
  budget shrinks gracefully (section 8) instead of silently running with
  a budget the battery can no longer honour.
* **Power cut** — a scheduled :class:`PowerCut` raise at a virtual
  instant, or a watch on the run's :class:`BoundaryTracer` that raises
  at the Nth emission of a named trace event (a run whose tracer records
  no events cannot honour that cut, so :meth:`FaultInjector.attach`
  refuses it).  Either way the exception unwinds out of the
  application's write/read call exactly as a real power failure would
  interrupt it, leaving the system state frozen for the crash simulator
  to inspect.

:class:`BoundaryTracer` is the one tracer that acts on what it records:
the plan's event cut here, and the crash-point explorer's inline probe
and replay cut (:mod:`repro.faults.explorer`), are callbacks on it.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from repro.faults.plan import FaultPlan, PowerCutPoint
from repro.obs.events import BatteryDegraded, SSDFault, TraceEvent
from repro.obs.tracer import NULL_TRACER, RecordingTracer, Tracer
from repro.sim.events import Simulation
from repro.storage.ssd import SSD, SSDFaultError

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance only
    from repro.core.runtime import Viyojit
    from repro.power.battery import Battery
    from repro.power.power_model import PowerModel


class PowerCut(RuntimeError):
    """The injected power failure: raised at the configured instant.

    ``at_ns`` is the virtual time of the cut; ``source`` describes what
    triggered it (``"at_ns"`` or ``"event:<Name>#<occurrence>"``).
    """

    def __init__(self, at_ns: int, source: str) -> None:
        super().__init__(f"power cut at t={at_ns} ({source})")
        self.at_ns = at_ns
        self.source = source


#: ``callback(index, event)``: ``index`` is the 0-based ordinal of
#: ``event`` among the emissions its watch counts.
BoundaryCallback = Callable[[int, TraceEvent], None]


class BoundaryWatch:
    """One :meth:`BoundaryTracer.watch`: its event types and emission count."""

    __slots__ = ("types", "callback", "count")

    def __init__(self, types: Iterable[str], callback: BoundaryCallback) -> None:
        self.types = frozenset(types)
        self.callback = callback
        self.count = 0


class BoundaryTracer(RecordingTracer):
    """A recording tracer that calls back on emissions of watched event types.

    Each watch counts the emissions of its own event types, in emission
    order, and calls its callback on every one after the event is
    recorded.  A callback may raise :class:`PowerCut`, which unwinds out
    of the emitting component as a power failure would.  The event
    stream of a seeded run is deterministic, so "the 37th SyncEviction"
    names a reproducible instant.
    """

    def __init__(self, clock=None, max_events: int = 1_000_000) -> None:
        super().__init__(clock=clock, max_events=max_events)
        self._watches: List[BoundaryWatch] = []

    def watch(
        self, types: Iterable[str], callback: BoundaryCallback
    ) -> BoundaryWatch:
        """Call ``callback`` on every later emission of one of ``types``."""
        watch = BoundaryWatch(types, callback)
        self._watches.append(watch)
        return watch

    def emit(self, event: TraceEvent) -> None:
        super().emit(event)
        name = event.type_name
        for watch in self._watches:
            if name in watch.types:
                index = watch.count
                watch.count = index + 1
                watch.callback(index, event)


class FaultInjector:
    """Wires one fault plan into one simulation's components.

    Construct, then :meth:`attach` to a built (not necessarily started)
    system.  Counters (``injected_failures``, ``injected_delays``,
    ``battery_degradations``) expose what actually fired, so tests can
    assert the plan was exercised rather than silently inert.
    """

    def __init__(
        self,
        plan: FaultPlan,
        sim: Simulation,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.plan = plan
        self.sim = sim
        self.tracer = tracer
        self.rng = random.Random(plan.seed)
        self.injected_failures = 0
        self.injected_delays = 0
        self.battery_degradations = 0
        self._submissions = 0
        self._match_counts: List[int] = [0] * len(plan.ssd_rules)
        self._ssd: Optional[SSD] = None
        self._system: Optional["Viyojit"] = None
        self._battery: Optional["Battery"] = None
        self._power_model: Optional["PowerModel"] = None

    # -- wiring ------------------------------------------------------------

    def attach(
        self,
        ssd: Optional[SSD] = None,
        system: Optional["Viyojit"] = None,
        battery: Optional["Battery"] = None,
        power_model: Optional["PowerModel"] = None,
    ) -> None:
        """Install the plan's channels into live components.

        ``ssd`` gets the submission hook (when the plan has SSD rules).
        ``battery``/``power_model`` enable degradation steps; ``system``
        additionally enables the graceful budget shrink on each step.  An
        event power cut is armed on the injector's tracer, which must be
        a :class:`BoundaryTracer`.  A plan with battery steps but no
        battery to degrade, or with an event cut but no tracer to watch
        for the event, is a configuration error and raises
        ``ValueError`` — fault plans must never be silently inert.
        """
        if self.plan.ssd_rules:
            if ssd is None:
                raise ValueError("plan has ssd_rules but no SSD was provided")
            ssd.fault_hook = self.on_submit
            self._ssd = ssd
        if self.plan.battery_steps:
            if battery is None or power_model is None:
                raise ValueError(
                    "plan has battery_steps but no battery/power model "
                    "was provided"
                )
            self._battery = battery
            self._power_model = power_model
            self._system = system
            for step in self.plan.battery_steps:
                self.sim.schedule_at(
                    step.at_ns, self._battery_step_action(step.fraction)
                )
        cut = self.plan.power_cut
        if cut is None:
            return
        if cut.at_ns is not None:
            self.sim.schedule_at(cut.at_ns, self._power_cut_action(cut.at_ns))
        elif isinstance(self.tracer, BoundaryTracer):
            self.tracer.watch((cut.on_event,), self._event_cut_action(cut))
        else:
            raise ValueError(
                f"plan cuts power on a {cut.on_event} event but the run's "
                "tracer cannot watch for it (pass a BoundaryTracer)"
            )

    def detach(self) -> None:
        """Remove the SSD hook (scheduled events simply stop mattering)."""
        if self._ssd is not None and self._ssd.fault_hook is not None:
            self._ssd.fault_hook = None
            self._ssd = None

    # -- SSD channel -------------------------------------------------------

    def on_submit(self, op: str, now_ns: int, size_bytes: int) -> int:
        """The :data:`~repro.storage.ssd.SSDFaultHook` implementation.

        Consults every matching rule in plan order; the first failure
        wins (and consumes no further draws this submission).  Delay
        contributions from multiple rules accumulate.
        """
        self._submissions += 1
        extra_ns = 0
        for index, rule in enumerate(self.plan.ssd_rules):
            if not rule.active_at(op, now_ns):
                continue
            self._match_counts[index] += 1
            fail = bool(
                rule.fail_every and self._match_counts[index] % rule.fail_every == 0
            )
            if not fail and rule.fail_prob > 0.0:
                fail = self.rng.random() < rule.fail_prob
            if fail:
                self.injected_failures += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        SSDFault(
                            t=now_ns,
                            op=op,
                            kind="fail",
                            size_bytes=size_bytes,
                            delay_ns=0,
                        )
                    )
                raise SSDFaultError(op, now_ns, size_bytes)
            if rule.delay_prob > 0.0 and self.rng.random() < rule.delay_prob:
                extra_ns += rule.delay_ns
        if extra_ns:
            self.injected_delays += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    SSDFault(
                        t=now_ns,
                        op=op,
                        kind="delay",
                        size_bytes=size_bytes,
                        delay_ns=extra_ns,
                    )
                )
        return extra_ns

    # -- battery channel ---------------------------------------------------

    def _battery_step_action(self, fraction: float):
        def fire() -> None:
            battery = self._battery
            power_model = self._power_model
            if battery is None or power_model is None:  # pragma: no cover
                raise RuntimeError("battery step fired before attach()")
            battery.degrade(fraction)
            self.battery_degradations += 1
            budget = 0
            if self._system is not None:
                budget = self._system.retune_for_battery(power_model, battery)
            if self.tracer.enabled:
                self.tracer.emit(
                    BatteryDegraded(
                        t=self.sim.now,
                        fraction=fraction,
                        health=battery.health,
                        budget=budget,
                    )
                )

        return fire

    # -- power-cut channel -------------------------------------------------

    @staticmethod
    def _power_cut_action(at_ns: int):
        def fire() -> None:
            raise PowerCut(at_ns, "at_ns")

        return fire

    @staticmethod
    def _event_cut_action(cut: PowerCutPoint) -> BoundaryCallback:
        target = cut.occurrence - 1
        source = f"event:{cut.on_event}#{cut.occurrence}"

        def fire(index: int, event: TraceEvent) -> None:
            if index == target:
                raise PowerCut(event.t, source)

        return fire
