"""Power-failure simulation and durability verification.

The whole point of the dirty budget is this module's invariant: *at any
instant*, the provisioned battery holds enough usable energy to write
every dirty page to the SSD.  The crash simulator can be pointed at a
running :class:`repro.core.runtime.Viyojit` (or the full-battery baseline)
at an arbitrary moment and will:

1. compute the energy required to flush the current dirty set
   (:class:`repro.power.PowerModel` arithmetic of section 5.1),
2. compare it against the battery's usable energy,
3. perform the battery-powered flush and reconstruct the post-recovery
   memory image from the backing store,
4. verify that every page's recovered contents equal its last written
   contents (data durability, not just bookkeeping).

Section 8's availability claim — flush time during shutdown is bounded by
the budget — falls out of the same arithmetic and is exposed via
:meth:`CrashSimulator.shutdown_flush_seconds`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Protocol, Set, runtime_checkable

from repro.mem.nvdram import NVDRAMRegion
from repro.power.battery import Battery
from repro.power.power_model import PowerModel
from repro.storage.backing_store import BackingStore


class SupportsDirtyPages(Protocol):
    """The narrow runtime surface the crash simulator needs.

    Both :class:`repro.core.runtime.Viyojit` and the full-battery
    baseline satisfy this structurally; extensions (fine-grained
    trackers, future runtimes) only need a region and a dirty-page
    query.
    """

    region: NVDRAMRegion

    def dirty_pages(self) -> Iterable[int]:
        """Pages whose durable copy is stale right now."""
        ...


@runtime_checkable
class SupportsRecovery(SupportsDirtyPages, Protocol):
    """A runtime whose durability can actually be *verified*.

    The secondary capabilities the crash simulator needs to rebuild and
    check a post-recovery image: a durable :class:`BackingStore` and an
    exact dirty-byte query.  These used to be probed with ``getattr``,
    which meant a mis-wired (e.g. fault-injected or wrapped) runtime
    silently fell back to the baseline path and *skipped* durability
    verification.  They are now an explicit protocol: a system handed to
    :class:`CrashSimulator` must either satisfy it or declare the
    full-battery assumption via an ``assumes_full_battery`` marker
    (:class:`repro.core.runtime.FullBatteryNVDRAM`); anything else is a
    loud :class:`TypeError` at construction time.
    """

    backing: BackingStore

    def dirty_bytes(self) -> int:
        """Exact bytes whose durable copy is stale right now."""
        ...


@dataclass
class CrashReport:
    """Outcome of one simulated power-failure event."""

    dirty_pages: int
    dirty_bytes: int
    flush_seconds: float
    energy_needed_joules: float
    battery_usable_joules: float
    survives: bool
    pages_lost: List[int] = field(default_factory=list)

    @property
    def energy_margin_joules(self) -> float:
        """Spare battery energy after the flush (negative = data loss)."""
        return self.battery_usable_joules - self.energy_needed_joules


@dataclass
class RecoveryReport:
    """Outcome of rebuilding memory from durable state after a crash."""

    pages_checked: int
    pages_recovered: int
    pages_corrupt: List[int]
    pages_lost: List[int]

    @property
    def intact(self) -> bool:
        return not self.pages_corrupt and not self.pages_lost


class CrashSimulator:
    """Pulls the (virtual) power cord on a running NV-DRAM system."""

    def __init__(
        self,
        system: SupportsDirtyPages,
        power_model: PowerModel,
        battery: Battery,
    ) -> None:
        # Loud capability check (no getattr fallbacks): the system either
        # supports full recovery verification or explicitly declares the
        # full-battery assumption.  A fault-injected or wrapped runtime
        # that loses `backing`/`dirty_bytes` must fail here, not silently
        # skip durability verification.
        recoverable = isinstance(system, SupportsRecovery)
        full_battery = getattr(system, "assumes_full_battery", False) is True
        if not recoverable and not full_battery:
            raise TypeError(
                f"{type(system).__name__} is neither recovery-verifiable "
                "(SupportsRecovery: a `backing` store and a `dirty_bytes()` "
                "query) nor marked `assumes_full_battery`; refusing to "
                "construct a CrashSimulator that would silently skip "
                "durability verification"
            )
        self.system = system
        self.power_model = power_model
        self.battery = battery
        self._recoverable = recoverable

    def _dirty_set(self) -> Set[int]:
        return set(self.system.dirty_pages())

    def power_failure(self) -> CrashReport:
        """Assess (without mutating anything) a power loss right now."""
        dirty = self._dirty_set()
        page_size = self.system.region.page_size
        # Recovery-verifiable systems expose exact dirty bytes (the
        # section 7 fine-grained extension reports sub-page totals);
        # full-battery baselines flush full pages.
        system = self.system
        if isinstance(system, SupportsRecovery):
            dirty_bytes = system.dirty_bytes()
        else:
            dirty_bytes = len(dirty) * page_size
        energy = self.power_model.energy_to_flush(dirty_bytes)
        usable = self.battery.usable_joules
        survives = energy <= usable
        pages_lost: List[int] = []
        if not survives:
            # The battery dies mid-flush: pages beyond the affordable byte
            # count are lost.  Flush hottest-last would be ideal; we model
            # an arbitrary deterministic order (sorted) because Viyojit's
            # guarantee is that this branch is never reached.
            affordable_pages = self.power_model.dirty_budget_pages(
                self.battery, page_size
            )
            pages_lost = sorted(dirty)[affordable_pages:]
        return CrashReport(
            dirty_pages=len(dirty),
            dirty_bytes=dirty_bytes,
            flush_seconds=self.power_model.flush_time_seconds(dirty_bytes),
            energy_needed_joules=energy,
            battery_usable_joules=usable,
            survives=survives,
            pages_lost=pages_lost,
        )

    def crash_and_recover(self) -> RecoveryReport:
        """Flush on battery, drop power, rebuild memory from durable state.

        Only meaningful for systems with a backing store (Viyojit); the
        baseline flushes its whole region, which its full-size battery
        covers by construction.
        """
        report = self.power_failure()
        region = self.system.region
        system = self.system
        backing = system.backing if isinstance(system, SupportsRecovery) else None

        # The battery-powered flush: dirty pages' current contents reach
        # durable media (except any the battery cannot afford).
        durable: Dict[int, bytes] = {}
        if backing is not None:
            for pfn in range(region.num_pages):
                data = backing.read(pfn)
                if data is not None:
                    durable[pfn] = data
        lost = set(report.pages_lost)
        for pfn in self._dirty_set():
            if pfn not in lost:
                durable[pfn] = region.page_bytes(pfn)
        if backing is None:
            # The baseline's full-battery flush covers every touched page.
            for pfn, _version in region.touched_pages():
                if pfn not in lost:
                    durable[pfn] = region.page_bytes(pfn)

        # Recovery: compare the rebuilt image against pre-crash contents.
        corrupt: List[int] = []
        checked = 0
        for pfn, _version in region.touched_pages():
            checked += 1
            expected = region.page_bytes(pfn)
            recovered = durable.get(pfn, bytes(region.page_size))
            if recovered != expected and pfn not in lost:
                corrupt.append(pfn)
        return RecoveryReport(
            pages_checked=checked,
            pages_recovered=checked - len(corrupt) - len(lost),
            pages_corrupt=corrupt,
            pages_lost=sorted(lost),
        )

    def shutdown_flush_seconds(self) -> float:
        """Section 8: time to flush at shutdown, bounded by the budget."""
        dirty_bytes = len(self._dirty_set()) * self.system.region.page_size
        return self.power_model.flush_time_seconds(dirty_bytes)


def full_backup_battery(
    power_model: PowerModel, nvdram_bytes: int
) -> Battery:
    """The battery a conventional NV-DRAM system provisions (baseline)."""
    return Battery.for_usable_energy(power_model.full_backup_energy(nvdram_bytes))


def viyojit_battery(
    power_model: PowerModel, dirty_budget_bytes: int
) -> Battery:
    """The battery Viyojit provisions for a given dirty budget."""
    return power_model.battery_for_dirty_bytes(dirty_budget_bytes)
