"""Fixture: suppression comments silence findings per line and per rule."""
import time


def wall_clock_under_retired_id():
    return time.time()  # lint: ignore[D1]


def suppressed_blanket():
    return time.time()  # lint: ignore


def suppressed_multi(page_table):
    return page_table.dirty[int(time.time())]  # lint: ignore[L1, W1]


def wrong_id_still_flagged(page_table, pfn):
    return page_table.dirty[pfn]  # lint: ignore[W1]


def suppressed_by_id():
    return time.time()  # lint: ignore[W1]
