"""The software DTLB miss handler (PAL code).

Mirrors the structure of the Alpha 21164 PALcode data-TLB miss handler
the paper simulates: a handful of instructions that read the faulting
virtual address from a privileged register, index the flat page table,
load the PTE (a privileged, physically-addressed load that still travels
through the caches), validity-check it, install the translation with
``tlbwr``, and return with ``reti``.

The page-fault path demonstrates the paper's *hard exception* reversion:
``hardexc`` before any instruction that permanently affects visible
machine state.  Executed by an exception thread it squashes the thread
and re-raises the exception through the traditional mechanism; executed
traditionally it is a no-op and the handler continues into fix-up code
that "pages in" the page (sets the PTE valid bit) and retries.

The handler deliberately performs **no stores** and reads **only** the
privileged VA/PTBR registers and the page table on its common path --
the structural properties Section 4.2 of the paper relies on to avoid
general-purpose cross-thread register renaming.
"""

from __future__ import annotations

import functools

from repro.isa.assembler import assemble
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.memory.address import PAGE_SHIFT

#: The common-case handler: entry through ``reti`` (used for window
#: reservations and handler-length prediction).
DTLB_HANDLER_SOURCE = f"""
; Data-TLB miss handler ({PAGE_SHIFT}-bit page offset, flat page table)
dtlb_miss:
    mfpr  r1, VA          ; faulting virtual address
    mfpr  r2, PTBR        ; page table base
    srl   r3, r1, {PAGE_SHIFT}
    sll   r4, r3, 3
    add   r4, r2, r4      ; &PTE
    ld    r5, 0(r4)       ; PTE (privileged load: physical, cached)
    and   r6, r5, 1       ; valid bit
    beq   r6, r0, page_fault
    tlbwr r1, r5          ; install translation (speculative fill)
    reti
page_fault:
    hardexc               ; needs the traditional mechanism's full powers
    or    r5, r5, 1       ; "page in": mark the PTE valid
    st    r5, 0(r4)
    tlbwr r1, r5
    reti
"""


@functools.cache
def _assembled(source: str) -> tuple[list[Instruction], dict[str, int]]:
    """Assemble a PAL image once per process (the sources are constants).

    Only :func:`_image` reads the result, and it copies both containers.
    The instructions themselves are shared, which is safe because
    :class:`Instruction` is frozen.
    """
    return assemble(source, privileged=True)


def _image(source: str) -> tuple[list[Instruction], dict[str, int]]:
    """A fresh ``(instructions, local labels)`` copy of ``source``'s image."""
    insts, labels = _assembled(source)
    return list(insts), dict(labels)


def build_dtlb_handler() -> tuple[list[Instruction], dict[str, int]]:
    """Assemble the handler; returns (instructions, local labels)."""
    return _image(DTLB_HANDLER_SOURCE)


def handler_length() -> int:
    """Common-case handler length in instructions (entry through reti)."""
    insts, labels = build_dtlb_handler()
    return labels["page_fault"]


def install_dtlb_handler(program: Program) -> int:
    """Append the handler to ``program``; returns its entry PC."""
    insts, labels = build_dtlb_handler()
    return program.append_pal(insts, labels, name="dtlb_miss")


#: Instruction-emulation handler (the paper's Section 6 generalized
#: mechanism): reads the faulting instruction's source value from a
#: privileged register, computes popcount branch-free, and writes the
#: faulting instruction's destination with ``mtdst`` -- converting the
#: excepting instruction into a completed nop and waking its consumers.
EMUL_HANDLER_SOURCE = """
emul_handler:
    mfpr  r1, EXC_SRC
    li    r2, 6148914691236517205     ; 0x5555...
    srl   r3, r1, 1
    and   r3, r3, r2
    sub   r1, r1, r3                  ; pairwise sums
    li    r2, 3689348814741910323     ; 0x3333...
    and   r3, r1, r2
    srl   r1, r1, 2
    and   r1, r1, r2
    add   r1, r1, r3                  ; nibble sums
    srl   r3, r1, 4
    add   r1, r1, r3
    li    r2, 1085102592571150095     ; 0x0f0f...
    and   r1, r1, r2
    li    r2, 72340172838076673       ; 0x0101...
    mul   r1, r1, r2
    srl   r1, r1, 56                  ; byte-sum in the top byte
    mtdst r1
    reti
"""


def build_emul_handler() -> tuple[list[Instruction], dict[str, int]]:
    """Assemble the instruction-emulation handler."""
    return _image(EMUL_HANDLER_SOURCE)


def emul_handler_length() -> int:
    """Length of the emulation handler in instructions."""
    return len(build_emul_handler()[0])


def install_emul_handler(program: Program) -> int:
    """Append the emulation handler to ``program``; returns its entry PC."""
    insts, labels = build_emul_handler()
    return program.append_pal(insts, labels, name="emul")


# ---------------------------------------------------------------------------
# repro.scenarios cause handlers (docs/SCENARIOS.md cause catalog).
# ---------------------------------------------------------------------------

#: Instruction-TLB miss handler.  Structurally the DTLB handler's twin:
#: the latched VA is the *fetch* address (pc * 4), the PTE travels the
#: same flat page table, and the fill instruction is ``itlbwr``.  The
#: page-fault arm reverts through ``hardexc`` exactly like the data side.
ITLB_MISS_HANDLER_SOURCE = f"""
; Instruction-TLB miss handler ({PAGE_SHIFT}-bit page offset, flat page table)
itlb_miss:
    mfpr  r1, VA          ; faulting fetch address
    mfpr  r2, PTBR        ; page table base
    srl   r3, r1, {PAGE_SHIFT}
    sll   r4, r3, 3
    add   r4, r2, r4      ; &PTE
    ld    r5, 0(r4)       ; PTE (privileged load: physical, cached)
    and   r6, r5, 1       ; valid bit
    beq   r6, r0, ipage_fault
    itlbwr r1, r5         ; install fetch translation (speculative fill)
    reti
ipage_fault:
    hardexc               ; needs the traditional mechanism's full powers
    or    r5, r5, 1       ; "page in": mark the PTE valid
    st    r5, 0(r4)
    itlbwr r1, r5
    reti
"""

#: Unaligned-access fixup handler: loads the aligned-down 8-byte word
#: containing the faulting address (a privileged, physically-addressed
#: load, same machinery as the PTE load) and completes the excepting
#: ``ld`` with ``mtdst`` -- returning *past* it, like emulation.
UNALIGNED_HANDLER_SOURCE = """
unaligned_handler:
    mfpr  r1, VA          ; faulting (misaligned) effective address
    li    r2, -8
    and   r1, r1, r2      ; align down to the containing word
    ld    r3, 0(r1)       ; privileged load of the aligned word
    mtdst r3
    reti
"""

#: Byte-swap emulation handler (``brev``): the classic three-step
#: SWAR bswap64, completing the excepting instruction via ``mtdst``.
BREV_HANDLER_SOURCE = """
brev_handler:
    mfpr  r1, EXC_SRC
    li    r2, 71777214294589695       ; 0x00ff00ff00ff00ff
    and   r3, r1, r2
    sll   r3, r3, 8
    srl   r1, r1, 8
    and   r1, r1, r2
    or    r1, r1, r3                  ; bytes swapped within halfwords
    li    r2, 281470681808895         ; 0x0000ffff0000ffff
    and   r3, r1, r2
    sll   r3, r3, 16
    srl   r1, r1, 16
    and   r1, r1, r2
    or    r1, r1, r3                  ; halfwords swapped within words
    sll   r3, r1, 32
    srl   r1, r1, 32
    or    r1, r1, r3                  ; words swapped
    mtdst r1
    reti
"""

#: Software-interrupt service handler (``swint``): a splitmix-style
#: 64-bit mix of the latched source operand -- the paper's "any
#: restartable exception" argument exercised with an arbitrary software
#: service routine that still completes via ``mtdst``.
SWINT_HANDLER_SOURCE = """
swint_handler:
    mfpr  r1, EXC_SRC
    li    r2, 11400714819323198485    ; 0x9e3779b97f4a7c15
    mul   r1, r1, r2
    srl   r3, r1, 29
    xor   r1, r1, r3
    mtdst r1
    reti
"""


def build_itlb_handler() -> tuple[list[Instruction], dict[str, int]]:
    """Assemble the ITLB miss handler; returns (instructions, labels)."""
    return _image(ITLB_MISS_HANDLER_SOURCE)


def itlb_handler_length() -> int:
    """Common-case ITLB handler length (entry through reti)."""
    return build_itlb_handler()[1]["ipage_fault"]


def build_unaligned_handler() -> tuple[list[Instruction], dict[str, int]]:
    """Assemble the unaligned-access fixup handler."""
    return _image(UNALIGNED_HANDLER_SOURCE)


def unaligned_handler_length() -> int:
    """Length of the unaligned fixup handler in instructions."""
    return len(build_unaligned_handler()[0])


def build_brev_handler() -> tuple[list[Instruction], dict[str, int]]:
    """Assemble the byte-swap emulation handler."""
    return _image(BREV_HANDLER_SOURCE)


def brev_handler_length() -> int:
    """Length of the byte-swap handler in instructions."""
    return len(build_brev_handler()[0])


def build_swint_handler() -> tuple[list[Instruction], dict[str, int]]:
    """Assemble the software-interrupt service handler."""
    return _image(SWINT_HANDLER_SOURCE)


def swint_handler_length() -> int:
    """Length of the software-interrupt handler in instructions."""
    return len(build_swint_handler()[0])


#: Cause name -> (builder, common-case length fn).  The restartability
#: pass and the simulator's handler-length registration both iterate
#: this catalog, so a new cause is one entry here plus its source above.
CAUSE_HANDLERS: dict[str, tuple] = {
    "dtlb_miss": (build_dtlb_handler, handler_length),
    "emul": (build_emul_handler, emul_handler_length),
    "itlb_miss": (build_itlb_handler, itlb_handler_length),
    "unaligned": (build_unaligned_handler, unaligned_handler_length),
    "brev": (build_brev_handler, brev_handler_length),
    "swint": (build_swint_handler, swint_handler_length),
}


def install_scenario_handlers(program: Program) -> dict[str, int]:
    """Append the repro.scenarios cause handlers (ITLB miss, unaligned
    fixup, byte-swap emulation, software interrupt) to ``program``."""
    for name in ("itlb_miss", "unaligned", "brev", "swint"):
        insts, labels = CAUSE_HANDLERS[name][0]()
        program.append_pal(insts, labels, name=name)
    return dict(program.pal_entries)


def install_handlers(program: Program, scenario_causes: bool = False) -> dict[str, int]:
    """Install every PAL handler; returns {name: entry PC}.

    ``scenario_causes=True`` additionally installs the repro.scenarios
    cause handlers; the default image set is byte-identical to the seed.
    """
    install_dtlb_handler(program)
    install_emul_handler(program)
    if scenario_causes:
        install_scenario_handlers(program)
    return dict(program.pal_entries)
