"""Fixture: L1 violations — PTE bit arrays indexed outside repro.mem."""


def corrupt_protection(page_table, pfn):
    page_table.write_protected[pfn] = False


def clear_all_dirty(page_table):
    page_table.dirty[:] = False


def peek_shadow(page_table, pfn):
    return page_table.shadow_dirty[pfn]


def poke_protection_byte(page_table, pfn):
    page_table._wp_bits[pfn] = 0


def through_the_mmu_is_fine(mmu, pfn):
    mmu.unprotect_page(pfn)
    return mmu.page_table.is_dirty(pfn)
