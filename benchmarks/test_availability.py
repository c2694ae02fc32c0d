"""Section 8: availability and battery-failure handling benefits.

Two quantified claims:

* **Increased availability** — bounding dirty pages bounds the shutdown
  flush: a full 4 TB flush takes ~17 minutes at 4 GB/s, while an
  11%-budget Viyojit shutdown takes ~11% of that.
* **Handling battery cell failures** — when the battery degrades, the
  dirty budget can be retuned at runtime and durability is preserved,
  instead of disabling NV-DRAM outright.
"""

import pytest

from repro.bench.reporting import format_table
from repro.core.config import ViyojitConfig
from repro.core.crash import CrashSimulator, viyojit_battery
from repro.core.runtime import Viyojit
from repro.power.power_model import PowerModel
from repro.sim.events import Simulation

PAGE = 4096


def make_viyojit(sim, num_pages, budget):
    system = Viyojit(
        sim, num_pages=num_pages, config=ViyojitConfig(dirty_budget_pages=budget)
    )
    system.start()
    return system


def shutdown_rows():
    model = PowerModel()
    four_tb = 4 * 1024**4
    rows = []
    for label, dirty_bytes in (
        ("full 4 TB flush (baseline worst case)", four_tb),
        ("46% dirty budget", int(four_tb * 0.46)),
        ("23% dirty budget", int(four_tb * 0.23)),
        ("11% dirty budget", int(four_tb * 0.11)),
    ):
        rows.append(
            {
                "scenario": label,
                "flush_minutes": round(model.flush_time_seconds(dirty_bytes) / 60, 1),
            }
        )
    return rows


def test_shutdown_time_bounded_by_budget(benchmark):
    rows = benchmark.pedantic(shutdown_rows, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Section 8: shutdown flush time (4 TB server)"))
    full = rows[0]["flush_minutes"]
    eleven = rows[-1]["flush_minutes"]
    assert full == pytest.approx(17, rel=0.2)  # the paper's ~17 minutes
    assert eleven == pytest.approx(full * 0.11, rel=0.1)


def test_runtime_budget_retuning_preserves_durability(benchmark):
    def scenario():
        sim = Simulation()
        system = make_viyojit(sim, num_pages=512, budget=64)
        model = PowerModel()
        battery = viyojit_battery(model, 64 * PAGE)
        crash = CrashSimulator(system, model, battery)
        mapping = system.mmap(128 * PAGE)
        for page in range(64):
            system.write(mapping.base_addr + page * PAGE, b"live data")
        states = [("healthy", crash.power_failure().survives)]
        battery.degrade(0.4)
        states.append(("degraded 40%, before retune", crash.power_failure().survives))
        new_budget = system.retune_for_battery(model, battery)
        states.append(("after retuning to new budget", crash.power_failure().survives))
        return new_budget, states

    new_budget, states = benchmark.pedantic(scenario, rounds=1, iterations=1)
    print()
    print(
        format_table(
            [{"state": name, "survives_power_failure": ok} for name, ok in states],
            title=f"Section 8: battery degradation handling (retuned budget: "
            f"{new_budget} pages)",
        )
    )
    assert states[0][1] is True
    assert states[1][1] is False  # degradation breaks the old budget
    assert states[2][1] is True   # retuning restores durability
