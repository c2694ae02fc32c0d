"""Per-rule tests: each fixture file seeds known violations at known lines.

Every rule is exercised three ways: the seeded violations are found with
the right rule ID and line number, the compliant constructs in the same
fixture are *not* flagged, and suppression comments behave per-line and
per-rule.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint_paths, lint_source, make_rules

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def findings(fixture: str, *rule_ids: str):
    """(rule_id, line) pairs reported for a fixture, sorted."""
    rules = make_rules(rule_ids) if rule_ids else None
    report = lint_paths([FIXTURES / fixture], rules=rules)
    return [(v.rule_id, v.line) for v in report.violations]


class TestD1Determinism:
    def test_seeded_violations_found_at_exact_lines(self):
        assert findings("bad_d1.py", "D1") == [
            ("D1", 9),   # time.time()
            ("D1", 13),  # time.perf_counter_ns()
            ("D1", 17),  # random.Random() without a seed
            ("D1", 21),  # random.randint on the global RNG
            ("D1", 25),  # np.random.rand global state
            ("D1", 29),  # np.random.default_rng() without a seed
        ]

    def test_seeded_rng_instances_not_flagged(self):
        assert lint_source(
            "import random\nrng = random.Random(7)\nx = rng.random()\n"
        ) == []
        assert lint_source(
            "import numpy as np\ngen = np.random.default_rng(7)\n"
        ) == []

    def test_wall_clock_through_datetime_flagged(self):
        violations = lint_source(
            "import datetime\nstamp = datetime.datetime.now()\n",
            rules=make_rules(["D1"]),
        )
        assert [(v.rule_id, v.line) for v in violations] == [("D1", 2)]


class TestV1VirtualTime:
    def test_wall_clock_into_ns_values(self):
        assert findings("bad_v1.py", "V1") == [
            ("V1", 6),  # start_ns = time.monotonic_ns()
            ("V1", 7),  # when_ns= keyword fed from time.time_ns()
            ("V1", 8),  # attribute deadline_ns from time.time()
        ]

    def test_ns_values_from_sim_clock_are_fine(self):
        violations = lint_source(
            "def f(sim):\n    start_ns = sim.clock.now\n    return start_ns\n",
            rules=make_rules(["V1"]),
        )
        assert violations == []

    def test_non_ns_names_not_flagged(self):
        violations = lint_source(
            "import time\nstamp = time.time()\n",
            rules=make_rules(["V1"]),
        )
        assert violations == []


class TestT1TracerGuard:
    def test_unguarded_constructions_found(self):
        assert findings("bad_t1.py", "T1") == [
            ("T1", 6),   # plain unguarded construction
            ("T1", 13),  # construction in the disabled branch
        ]

    def test_files_without_event_imports_ignored(self):
        violations = lint_source(
            "class WriteFault:\n    pass\n\nx = WriteFault()\n",
            rules=make_rules(["T1"]),
        )
        assert violations == []

    def test_module_alias_construction_flagged(self):
        source = (
            "from repro.obs import events\n"
            "def f(tracer, now):\n"
            "    tracer.emit(events.TLBFlush(t=now, entries=0))\n"
        )
        violations = lint_source(source, rules=make_rules(["T1"]))
        assert [(v.rule_id, v.line) for v in violations] == [("T1", 3)]


class TestL1Layering:
    def test_direct_indexing_outside_mem_flagged(self):
        assert findings("bad_l1.py", "L1") == [
            ("L1", 5),   # write_protected[pfn]
            ("L1", 9),   # dirty[:]
            ("L1", 13),  # shadow_dirty[pfn]
            ("L1", 17),  # _wp_bits[pfn]
        ]

    def test_repro_mem_modules_exempt(self):
        source = "def scan(self):\n    self.dirty[:] = False\n"
        violations = lint_source(
            source,
            path="src/repro/mem/page_table.py",
            rules=make_rules(["L1"]),
        )
        assert violations == []


class TestE1BareAssert:
    def test_bare_assert_flagged(self):
        assert findings("bad_e1.py", "E1") == [("E1", 5)]

    def test_typed_raise_not_flagged(self):
        violations = lint_source(
            "def f(x):\n    if x < 0:\n        raise ValueError(x)\n",
            rules=make_rules(["E1"]),
        )
        assert violations == []


class TestSuppression:
    def test_suppression_comments(self):
        # Lines 6 (by ID), 10 (blanket), and 14 (multi-ID) are silenced;
        # line 18 names the wrong rule and stays flagged.
        assert findings("suppressed.py") == [("L1", 18)]

    def test_clean_fixture_is_clean(self):
        assert findings("clean.py") == []

    def test_fault_injection_idiom_is_clean(self):
        # The faults subsystem's plan-seeded RNG, virtual-clock reads,
        # and guarded SSDFault construction need zero suppressions.
        assert findings("seeded_faultplan.py") == []
