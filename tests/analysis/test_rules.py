"""Per-rule tests: each fixture file seeds known violations at known lines.

Every rule is exercised three ways: the seeded violations are found with
the right rule ID and line number, the compliant constructs in the same
fixture are *not* flagged, and suppression comments behave per-line and
per-rule.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint_project, lint_source
from repro.analysis.program_rules import WallClockTaintRule
from repro.analysis.rules import (
    BareAssertRule,
    DeterminismRule,
    LayeringRule,
    TracerGuardRule,
    VirtualTimeRule,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def findings(fixture: str, *rules: type):
    """(rule_id, line) pairs reported for a fixture, sorted."""
    instances = [rule() for rule in rules] if rules else None
    report = lint_project([FIXTURES / fixture], rules=instances)
    return [(v.rule_id, v.line) for v in report.violations]


class TestD1Determinism:
    def test_seeded_violations_found_at_exact_lines(self):
        assert findings("bad_d1.py", DeterminismRule) == [
            ("D1", 21),  # random.randint on the global RNG
            ("D1", 25),  # np.random.rand global state
        ]
        # The fixture's wall clocks are W1's, its RNG constructions R1's.
        assert findings("bad_d1.py") == [
            ("W1", 9),   # time.time()
            ("W1", 13),  # time.perf_counter_ns()
            ("R1", 17),  # random.Random() without a seed
            ("D1", 21),
            ("D1", 25),
            ("R1", 29),  # np.random.default_rng() without a seed
            ("R1", 33),  # random.Random(7): a literal, not a plumbed seed
            ("R1", 34),  # np.random.default_rng(7)
        ]

    def test_seeded_rng_instances_not_flagged(self):
        rules = [DeterminismRule()]
        assert lint_source(
            "import random\nrng = random.Random(7)\nx = rng.random()\n",
            rules=rules,
        ) == []
        assert lint_source(
            "import numpy as np\ngen = np.random.default_rng(7)\n", rules=rules
        ) == []

    def test_nondeterministic_sources_flagged(self):
        violations = lint_source(
            "import os, uuid\nkey = uuid.uuid4()\nsalt = os.urandom(8)\n"
        )
        assert [(v.rule_id, v.line) for v in violations] == [("D1", 2), ("D1", 3)]

    def test_wall_clock_through_datetime_flagged(self):
        # Wall clocks moved from D1 to W1, which resolves import aliases.
        violations = lint_source(
            "import datetime\nstamp = datetime.datetime.now()\n",
            rules=[DeterminismRule(), WallClockTaintRule()],
        )
        assert [(v.rule_id, v.line) for v in violations] == [("W1", 2)]


class TestV1VirtualTime:
    def test_wall_clock_into_ns_values(self):
        assert findings("bad_v1.py", VirtualTimeRule) == [
            ("V1", 6),  # start_ns = time.monotonic_ns()
            ("V1", 7),  # when_ns= keyword fed from time.time_ns()
            ("V1", 8),  # attribute deadline_ns from time.time()
        ]

    def test_ns_values_from_sim_clock_are_fine(self):
        violations = lint_source(
            "def f(sim):\n    start_ns = sim.clock.now\n    return start_ns\n",
            rules=[VirtualTimeRule()],
        )
        assert violations == []

    def test_non_ns_names_not_flagged(self):
        violations = lint_source(
            "import time\nstamp = time.time()\n",
            rules=[VirtualTimeRule()],
        )
        assert violations == []


class TestT1TracerGuard:
    def test_unguarded_constructions_found(self):
        assert findings("bad_t1.py", TracerGuardRule) == [
            ("T1", 6),   # plain unguarded construction
            ("T1", 13),  # construction in the disabled branch
        ]

    def test_files_without_event_imports_ignored(self):
        violations = lint_source(
            "class WriteFault:\n    pass\n\nx = WriteFault()\n",
            rules=[TracerGuardRule()],
        )
        assert violations == []

    def test_module_alias_construction_flagged(self):
        source = (
            "from repro.obs import events\n"
            "def f(tracer, now):\n"
            "    tracer.emit(events.TLBFlush(t=now, entries=0))\n"
        )
        violations = lint_source(source, rules=[TracerGuardRule()])
        assert [(v.rule_id, v.line) for v in violations] == [("T1", 3)]


class TestL1Layering:
    def test_direct_indexing_outside_mem_flagged(self):
        assert findings("bad_l1.py", LayeringRule) == [
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
            rules=[LayeringRule()],
        )
        assert violations == []


class TestE1BareAssert:
    def test_bare_assert_flagged(self):
        assert findings("bad_e1.py", BareAssertRule) == [("E1", 5)]

    def test_typed_raise_not_flagged(self):
        violations = lint_source(
            "def f(x):\n    if x < 0:\n        raise ValueError(x)\n",
            rules=[BareAssertRule()],
        )
        assert violations == []


class TestSuppression:
    def test_suppression_comments(self):
        # Lines 10 (blanket), 14 (multi-ID) and 22 (by ID) are silenced;
        # lines 6 and 18 name the wrong rule and stay flagged.
        assert findings("suppressed.py") == [("W1", 6), ("L1", 18)]

    def test_clean_fixture_is_clean(self):
        assert findings("clean.py") == []

    def test_fault_injection_idiom_is_clean(self):
        # The faults subsystem's plan-seeded RNG, virtual-clock reads,
        # and guarded SSDFault construction need zero suppressions.
        assert findings("seeded_faultplan.py") == []


#: Every (file, line) the lint reported on the fixture tree with the
#: whole-program rules on, before D1 dropped its wall-clock and
#: RNG-construction checks (W1 and R1 report those lines now).
FIXTURE_FINDING_LINES = {
    "bad_d1.py": [9, 13, 17, 21, 25, 29, 33, 34],
    "bad_e1.py": [5],
    "bad_l1.py": [5, 9, 13, 17],
    "bad_t1.py": [6, 13],
    "bad_v1.py": [6, 7, 8],
    "program/bad_r1.py": [18, 22, 26, 30],
    "program/bad_w1.py": [12, 16, 20],
    "suppressed.py": [6, 18],
}


class TestFixtureParity:
    def test_every_fixture_finding_line_is_still_reported(self):
        report = lint_project([FIXTURES])
        lines = {}
        for v in report.violations:
            relative = Path(v.path).relative_to(FIXTURES).as_posix()
            lines.setdefault(relative, set()).add(v.line)
        assert {path: sorted(found) for path, found in lines.items()} == (
            FIXTURE_FINDING_LINES
        )
        # One report per finding: no rule names the same line twice.
        keys = [(v.path, v.line, v.rule_id) for v in report.violations]
        assert len(keys) == len(set(keys))
