"""Substrate fixtures: the mem unit tests take the class under test from here.

There is one page table and one TLB.  The ``kernel`` fixture keeps the
single parameter id ``object`` only so that test ids stay what they were
while a second (struct-of-arrays) kernel ran the same bodies — the
tier-1 floor list names them.
"""

from __future__ import annotations

import pytest

from repro.mem.page_table import PageTable
from repro.mem.tlb import TLB


@pytest.fixture(params=["object"])
def kernel(request):
    return request.param


@pytest.fixture
def page_table_cls(kernel):
    return PageTable


@pytest.fixture
def tlb_cls(kernel):
    return TLB
