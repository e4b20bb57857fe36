"""Seeded random-but-lintable guest-program generation.

The differential fuzzer needs programs that are (a) deterministic, (b)
architecturally total (no undefined behaviour to diverge on -- the ISA's
semantics are total by construction: division by zero yields zero, FP
clamps, ``emul`` is popcount), (c) guaranteed to terminate, and (d)
clean under the :mod:`repro.analysis` guest lint, which acts as the
validity oracle for every emitted program.

Programs are built from a small IR -- a list of :class:`GenOp` body
descriptors -- rather than raw text, so the shrinker can delete ops and
re-render instead of mutating assembly strings:

* a fixed prologue initialises every register the body may read
  (must-defined dataflow holds on every path by construction);
* the body is a seeded mix of ALU, FP, ``emul``, load/store, and
  *forward-only* conditional skips (the body CFG is a DAG, so one body
  pass always terminates);
* a counted outer loop repeats the body; memory operands are masked
  into a ``PAGES``-page region (wider than the 64-entry DTLB, so
  capacity misses and page walks happen naturally);
* ``halt`` ends the program.

A *mix style* (:data:`MIX_STYLES`) shapes how the requested exception
causes interleave:

``uniform``
    Cause ops are blended into the regular seeded op stream (the
    default, byte-identical to the pre-mix generator).
``back_to_back``
    Cause ops additionally appear in consecutive clusters, so a second
    exception is raised while the previous handler is still in flight
    (the paper's multiple-outstanding-exception case).
``nested``
    Cause clusters are wrapped in forward-skip branches, nesting the
    triggers inside speculative control flow so handlers overlap
    mispredict squashes.

Randomness is a local splitmix64 stream -- no :mod:`random`, so the same
seed renders the same program on every platform and process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.config import splitmix64

__all__ = [
    "CAUSES",
    "GenOp",
    "GeneratedProgram",
    "MIX_STYLES",
    "Rng",
    "generate_ops",
    "render_program",
]

#: Base of the data region every memory op is masked into.
DATA_BASE = 0x1000_0000
#: Region pages (8 KiB each); 128 > the 64-entry DTLB, so the generated
#: access stream overflows the TLB by construction.
PAGES = 128
REGION_BYTES = PAGES * 8192
#: Word-aligned offset mask within the region (region size is 2**20).
OFF_MASK = (REGION_BYTES - 1) & ~0x7

#: A second, *load-only* region for unaligned accesses.  No store ever
#: targets it, so a trapping misaligned load and the perfect machine's
#: silently-aligned load read the same (zero-filled) words and the
#: architectural digest stays mechanism-invariant by construction.
LOAD_BASE = 0x2000_0000
LOAD_PAGES = 16
LOAD_REGION_BYTES = LOAD_PAGES * 8192
LOAD_OFF_MASK = (LOAD_REGION_BYTES - 1) & ~0x7

#: Instructions of wrong-path filler jumped over inside the loop when
#: ITLB pressure is requested: > one 8 KiB page (2048 instructions), so
#: the loop head and tail are guaranteed to sit on different text pages
#: and a 1-entry ITLB thrashes on every iteration.
ITLB_STRIDE = 2080

#: Integer registers the body may use as data sources/destinations.
DATA_REGS = tuple(range(1, 9))
#: FP registers the body may use.
FP_REGS = tuple(range(1, 5))
#: r9: rolling pointer, r10: region base, r11: address scratch,
#: r12/r13: loop counter/limit, r14: load-only region base (unaligned).
PTR_REG, BASE_REG, ADDR_REG, CTR_REG, LIM_REG, LOAD_REG = 9, 10, 11, 12, 13, 14

_ALU_OPS = ("add", "sub", "and", "or", "xor", "mul", "div", "sll", "srl",
            "cmplt", "cmpeq")
_FP_OPS = ("fadd", "fsub", "fmul", "fdiv")
_BRANCH_OPS = ("beq", "bne", "blt", "bge")
#: Post-shift keeps shift amounts in [0, 16) so sll/srl stay meaningful.
_SHIFT_MASK = 0xF


class Rng:
    """A tiny deterministic PRNG over splitmix64 (no :mod:`random`)."""

    def __init__(self, seed: int) -> None:
        self._state = seed & ((1 << 64) - 1)

    def next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        return splitmix64(self._state)

    def below(self, n: int) -> int:
        """Uniform-ish integer in ``[0, n)``."""
        return self.next() % n

    def choice(self, seq):
        return seq[self.below(len(seq))]


@dataclass(frozen=True)
class GenOp:
    """One body operation: pre-rendered lines plus skip metadata.

    ``skip`` > 0 marks a forward conditional branch guarding the next
    ``skip`` surviving ops; its single line is rendered with a fresh
    label at render time (`{label}` placeholder), which is what keeps
    deletion-based shrinking valid.
    """

    kind: str
    lines: tuple[str, ...]
    skip: int = 0


@dataclass
class GeneratedProgram:
    """A rendered program plus the IR it came from (for shrinking)."""

    seed: int
    iters: int
    ops: list[GenOp]
    source: str = ""
    regions: list = field(default_factory=list)
    #: Exception causes this program was generated to exercise.
    causes: tuple = ()
    #: Loop page-straddle filler length (0 = contiguous loop).
    itlb_stride: int = 0


def _alu(rng: Rng) -> GenOp:
    op = rng.choice(_ALU_OPS)
    rd = rng.choice(DATA_REGS)
    ra = rng.choice(DATA_REGS)
    if rng.below(3) == 0:
        imm = rng.next() & 0xFFFF if op not in ("sll", "srl") else (
            rng.next() & _SHIFT_MASK
        )
        return GenOp("alu", (f"{op} r{rd}, r{ra}, {imm}",))
    rb = rng.choice(DATA_REGS)
    if op in ("sll", "srl"):
        # Register shift amounts are unbounded 64-bit values; mask via an
        # immediate form instead so results stay non-degenerate.
        return GenOp("alu", (f"{op} r{rd}, r{ra}, {rng.next() & _SHIFT_MASK}",))
    return GenOp("alu", (f"{op} r{rd}, r{ra}, r{rb}",))


def _fp(rng: Rng) -> GenOp:
    roll = rng.below(4)
    if roll == 0:
        return GenOp("fp", (f"itof f{rng.choice(FP_REGS)}, r{rng.choice(DATA_REGS)}",))
    if roll == 1:
        return GenOp("fp", (f"ftoi r{rng.choice(DATA_REGS)}, f{rng.choice(FP_REGS)}",))
    op = rng.choice(_FP_OPS)
    return GenOp(
        "fp",
        (f"{op} f{rng.choice(FP_REGS)}, f{rng.choice(FP_REGS)}, "
         f"f{rng.choice(FP_REGS)}",),
    )


def _emul(rng: Rng) -> GenOp:
    return GenOp(
        "emul", (f"emul r{rng.choice(DATA_REGS)}, r{rng.choice(DATA_REGS)}",)
    )


def _mem(rng: Rng) -> GenOp:
    """A load or store at a data-dependent masked region offset."""
    value = rng.choice(DATA_REGS)
    if rng.below(2) == 0:
        # Rolling-pointer access: a page-plus stride guarantees the walk
        # covers many distinct pages regardless of data-register values.
        setup = (
            f"add r{PTR_REG}, r{PTR_REG}, {8192 + 8 * (1 + rng.below(16))}",
            f"and r{ADDR_REG}, r{PTR_REG}, {hex(OFF_MASK)}",
            f"add r{ADDR_REG}, r{ADDR_REG}, r{BASE_REG}",
        )
    else:
        setup = (
            f"and r{ADDR_REG}, r{rng.choice(DATA_REGS)}, {hex(OFF_MASK)}",
            f"add r{ADDR_REG}, r{ADDR_REG}, r{BASE_REG}",
        )
    if rng.below(3) == 0:
        return GenOp("st", (*setup, f"st r{value}, 0(r{ADDR_REG})"))
    return GenOp("ld", (*setup, f"ld r{value}, 0(r{ADDR_REG})"))


def _brev(rng: Rng) -> GenOp:
    return GenOp(
        "brev", (f"brev r{rng.choice(DATA_REGS)}, r{rng.choice(DATA_REGS)}",)
    )


def _swint(rng: Rng) -> GenOp:
    return GenOp(
        "swint", (f"swint r{rng.choice(DATA_REGS)}, r{rng.choice(DATA_REGS)}",)
    )


def _unaligned(rng: Rng) -> GenOp:
    """A misaligned load from the load-only region (odd offset 1..7)."""
    setup = (
        f"and r{ADDR_REG}, r{rng.choice(DATA_REGS)}, {hex(LOAD_OFF_MASK)}",
        f"add r{ADDR_REG}, r{ADDR_REG}, r{LOAD_REG}",
    )
    offset = 1 + rng.below(7)
    return GenOp(
        "unaligned",
        (*setup, f"ld r{rng.choice(DATA_REGS)}, {offset}(r{ADDR_REG})"),
    )


def _skip(rng: Rng) -> GenOp:
    op = rng.choice(_BRANCH_OPS)
    ra = rng.choice(DATA_REGS)
    rb = rng.choice(DATA_REGS)
    return GenOp(
        "skip", (f"{op} r{ra}, r{rb}, {{label}}",), skip=1 + rng.below(4)
    )


#: Restartable-exception causes the generator can target.  ``dtlb_miss``
#: and ``emul`` are always present in the default maker mix; the others
#: add their maker to the pool (or, for ``itlb_miss``, a page-straddling
#: loop layout) only when requested, so default output stays
#: byte-identical to the pre-scenario generator.
CAUSES = ("dtlb_miss", "emul", "itlb_miss", "unaligned", "brev", "swint")

_CAUSE_MAKERS = {"brev": _brev, "swint": _swint, "unaligned": _unaligned}

MIX_STYLES = ("uniform", "back_to_back", "nested")

#: Ops per back-to-back / nested cause cluster.
_CLUSTER = 3


def _cause_op(cause: str, rng: Rng) -> GenOp | None:
    """One trigger op for ``cause`` (None: layout-driven, e.g. ITLB)."""
    maker = _CAUSE_MAKERS.get(cause)
    if maker is None:
        maker = {"emul": _emul, "dtlb_miss": _mem}.get(cause)
    return maker(rng) if maker else None


def _cluster_ops(causes: tuple, rng: Rng, nested: bool) -> list[GenOp]:
    """A consecutive run of cause triggers, optionally skip-wrapped."""
    ops: list[GenOp] = []
    if nested:
        # The skip guards the cluster: the triggers sit inside
        # speculative forward control flow, so a mispredict can squash
        # mid-handler.  Clamp the skip span to the cluster size.
        guard = _skip(rng)
        ops.append(GenOp(guard.kind, guard.lines, skip=_CLUSTER))
    burst = [op for op in (_cause_op(c, rng) for c in causes) if op is not None]
    if not burst:
        return []
    while len(ops) < _CLUSTER + (1 if nested else 0):
        ops.append(burst[rng.below(len(burst))])
    return ops


def generate_ops(
    seed: int, length: int, causes: tuple = (), mix: str = "uniform"
) -> list[GenOp]:
    """The seeded body IR: ``length`` ops mixing every op class.

    ``causes`` appends the matching cause makers to the pool (in fixed
    :data:`CAUSES` order, so the stream is seed-deterministic); an empty
    tuple reproduces the pre-scenario op mix exactly.  A ``mix`` other
    than ``uniform`` then inserts two or three cause clusters from a
    second seeded stream, leaving the base stream untouched.
    """
    rng = Rng(seed)
    makers = (_alu, _alu, _mem, _mem, _fp, _emul, _skip)
    extra = tuple(
        _CAUSE_MAKERS[c] for c in CAUSES if c in causes and c in _CAUSE_MAKERS
    )
    makers = makers + extra + extra  # double weight: causes should fire often
    ops = [rng.choice(makers)(rng) for _ in range(length)]
    if mix == "uniform":
        return ops
    rng = Rng(seed ^ 0x5CE4A210)
    for _ in range(2 + rng.below(2)):
        cluster = _cluster_ops(causes, rng, nested=mix == "nested")
        if not cluster:
            break
        at = rng.below(len(ops) + 1)
        ops[at:at] = cluster
    return ops


def render_program(
    ops: list[GenOp], seed: int, iters: int, itlb_stride: int = 0
) -> str:
    """Render the IR into assembly: prologue, counted loop, halt.

    ``itlb_stride`` > 0 splits the loop across a text-page boundary: the
    tail (loop counter + back branch) sits past ``itlb_stride``
    never-executed filler instructions, reached by an always-taken
    forward branch, so each iteration fetches from two distinct pages
    and a small ITLB misses continuously.
    """
    rng = Rng(splitmix64(seed ^ 0xC0FFEE))
    lines = ["main:"]
    for reg in DATA_REGS:
        lines.append(f"  li r{reg}, {rng.next() & 0xFFFFFFFF}")
    for reg in FP_REGS:
        lines.append(f"  itof f{reg}, r{DATA_REGS[reg % len(DATA_REGS)]}")
    lines.append(f"  li r{PTR_REG}, 0")
    lines.append(f"  li r{BASE_REG}, {hex(DATA_BASE)}")
    lines.append(f"  li r{CTR_REG}, 0")
    lines.append(f"  li r{LIM_REG}, {iters}")
    if any(op.kind == "unaligned" for op in ops):
        lines.append(f"  li r{LOAD_REG}, {hex(LOAD_BASE)}")
    lines.append("loop:")
    #: (ops until placement, label) for open forward skips.
    open_skips: list[list] = []
    next_label = 0
    for op in ops:
        if op.kind == "skip":
            label = f"skip{next_label}"
            next_label += 1
            lines.append("  " + op.lines[0].format(label=label))
            open_skips.append([op.skip, label])
            continue
        for line in op.lines:
            lines.append("  " + line)
        still_open: list[list] = []
        for entry in open_skips:
            entry[0] -= 1
            if entry[0] <= 0:
                lines.append(f"{entry[1]}:")
            else:
                still_open.append(entry)
        open_skips = still_open
    for _, label in open_skips:
        lines.append(f"{label}:")
    if itlb_stride > 0:
        lines.append(f"  beq r{CTR_REG}, r{CTR_REG}, far")
        for _ in range(itlb_stride):
            lines.append(f"  add r{DATA_REGS[0]}, r{DATA_REGS[0]}, 0")
        lines.append("far:")
    lines.append(f"  add r{CTR_REG}, r{CTR_REG}, 1")
    lines.append(f"  blt r{CTR_REG}, r{LIM_REG}, loop")
    lines.append("  halt")
    return "\n".join(lines) + "\n"


def generate_program(
    seed: int,
    length: int = 36,
    iters: int = 24,
    causes: tuple = (),
    mix: str = "uniform",
) -> GeneratedProgram:
    """Generate one complete program (IR + rendered source + regions).

    ``causes`` selects the restartable-exception causes the program
    should exercise (see :data:`CAUSES`) and ``mix`` how their triggers
    interleave (see :data:`MIX_STYLES`); the defaults are byte-identical
    to the pre-scenario generator.
    """
    itlb_stride = ITLB_STRIDE if "itlb_miss" in causes else 0
    ops = generate_ops(seed, length, causes=causes, mix=mix)
    source = render_program(ops, seed, iters, itlb_stride=itlb_stride)
    regions = [(DATA_BASE, REGION_BYTES)]
    if any(op.kind == "unaligned" for op in ops):
        regions.append((LOAD_BASE, LOAD_REGION_BYTES))
    return GeneratedProgram(
        seed=seed,
        iters=iters,
        ops=ops,
        source=source,
        regions=regions,
        causes=tuple(causes),
        itlb_stride=itlb_stride,
    )
