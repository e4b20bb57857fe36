"""Tests for the PAL DTLB miss handler's structure.

The multithreaded mechanism relies on structural properties of the
handler (Section 4.2 of the paper); these tests pin them down.
"""

import pytest

from repro.exceptions.handler_code import (
    CAUSE_HANDLERS,
    build_dtlb_handler,
    handler_length,
    install_dtlb_handler,
)
from repro.isa.instructions import Opcode
from repro.isa.program import Program


class TestHandlerStructure:
    def test_assembles(self):
        insts, labels = build_dtlb_handler()
        assert len(insts) > 0
        assert "page_fault" in labels

    def test_all_instructions_privileged(self):
        insts, _ = build_dtlb_handler()
        assert all(inst.privileged for inst in insts)

    def test_common_case_length_matches_fault_label(self):
        insts, labels = build_dtlb_handler()
        assert handler_length() == labels["page_fault"]

    def test_common_path_ends_with_reti(self):
        insts, labels = build_dtlb_handler()
        common = insts[: labels["page_fault"]]
        assert common[-1].op is Opcode.RETI

    def test_common_path_performs_no_stores(self):
        """Section 4.2: 'The TLB miss handler performs no stores'."""
        insts, labels = build_dtlb_handler()
        common = insts[: labels["page_fault"]]
        assert not any(inst.is_store for inst in common)

    def test_common_path_single_load_from_page_table(self):
        insts, labels = build_dtlb_handler()
        common = insts[: labels["page_fault"]]
        assert sum(1 for inst in common if inst.is_load) == 1

    def test_hardexc_precedes_any_permanent_effect(self):
        """Section 4.3: hardexc must come before anything that affects
        visible machine state on the fault path."""
        insts, labels = build_dtlb_handler()
        fault_path = insts[labels["page_fault"]:]
        hardexc_idx = next(
            i for i, inst in enumerate(fault_path) if inst.op is Opcode.HARDEXC
        )
        for inst in fault_path[:hardexc_idx]:
            assert not inst.is_store
            assert inst.op is not Opcode.TLBWR

    def test_common_case_is_short(self):
        """Exception handlers are 'in the tens of instructions'."""
        assert handler_length() <= 20

    def test_install_records_entry(self):
        program = Program()
        entry = install_dtlb_handler(program)
        assert program.pal_entries["dtlb_miss"] == entry
        assert program.pal_base == entry


@pytest.mark.parametrize("cause", sorted(CAUSE_HANDLERS))
def test_each_build_returns_fresh_containers(cause):
    """Images are assembled once per process; every caller gets copies."""
    build, length = CAUSE_HANDLERS[cause]
    insts, labels = build()
    again, again_labels = build()
    assert (again, again_labels) == (insts, labels)
    assert again is not insts and again_labels is not labels
    expected = (list(insts), dict(labels), length())
    insts.clear()
    labels["bogus"] = 99
    assert build() + (length(),) == expected
