"""Unit tests for ViyojitConfig validation."""

import re

import numpy as np
import pytest

from repro.core.config import ViyojitConfig
from repro.sim.clock import NS_PER_MS


class TestDefaults:
    def test_paper_defaults(self):
        config = ViyojitConfig(dirty_budget_pages=100)
        assert config.epoch_ns == NS_PER_MS          # 1 ms epochs
        assert config.history_epochs == 64           # 64-epoch history
        assert config.pressure_alpha == 0.75         # EWMA weight
        assert config.max_outstanding_io == 16       # 16 outstanding IOs
        assert config.flush_tlb_on_scan is True
        assert config.proactive is True

    def test_frozen(self):
        config = ViyojitConfig(dirty_budget_pages=100)
        with pytest.raises(Exception):
            config.dirty_budget_pages = 5


class TestValidation:
    def test_budget_positive(self):
        with pytest.raises(ValueError):
            ViyojitConfig(dirty_budget_pages=0)

    @pytest.mark.parametrize("budget", [0.5, 2.0, True, np.float64(3.0)])
    def test_budget_must_be_whole_pages(self, budget):
        """A fractional budget used to truncate to 0 pages and hang the
        first faulting store; ``True`` used to mean one page."""
        with pytest.raises(ValueError, match=re.escape(repr(budget))):
            ViyojitConfig(dirty_budget_pages=budget)

    def test_numpy_integer_budget_accepted(self):
        assert ViyojitConfig(dirty_budget_pages=np.int64(8)).dirty_budget_pages == 8

    def test_epoch_positive(self):
        with pytest.raises(ValueError):
            ViyojitConfig(dirty_budget_pages=1, epoch_ns=0)

    def test_history_bounds(self):
        with pytest.raises(ValueError):
            ViyojitConfig(dirty_budget_pages=1, history_epochs=0)
        with pytest.raises(ValueError):
            ViyojitConfig(dirty_budget_pages=1, history_epochs=65)
        ViyojitConfig(dirty_budget_pages=1, history_epochs=64)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            ViyojitConfig(dirty_budget_pages=1, pressure_alpha=0)
        with pytest.raises(ValueError):
            ViyojitConfig(dirty_budget_pages=1, pressure_alpha=1.1)

    def test_io_cap_positive(self):
        with pytest.raises(ValueError):
            ViyojitConfig(dirty_budget_pages=1, max_outstanding_io=0)
