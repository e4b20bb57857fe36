"""Machine-state capture and restore: one field walk over every state class.

A *state class* declares ``_SNAPSHOT_TRANSIENT``: the names of the
fields it does not capture (an empty tuple when it captures them all).
Capture enumerates an object's fields -- every ``__slots__`` entry over
its MRO plus every entry of its instance ``__dict__``, so dataclass
fields and attributes set after construction alike -- minus the names
declared transient anywhere in its MRO.  Nothing is named by hand: a
new field is captured unless its class declares it transient.

Each value is written by its exact type as JSON (the container in
:mod:`repro.checkpoint.format` makes it canonical); nothing is pickled:

* ``int``/``float``/``str``/``bool``/``None`` as themselves, and a list
  of them as a plain JSON list (one pass each way);
* any other container as a one-key object naming its type: ``l`` list,
  ``t`` tuple, ``q`` deque, ``s`` set (written sorted, so the bytes
  never depend on hash order), ``D`` dict and ``od`` OrderedDict (as
  ``[key, value]`` pairs in insertion order).  A dict of scalars is
  ``d`` and a list of such dicts (a cache's sets) ``ld``: both go
  through in one pass each way;
* an enum (``e``, by member name) or a value dataclass (``v``, its
  field values in declaration order) of the closed tables
  :data:`ENUM_TYPES` and :data:`VALUE_TYPES`; decoding resolves no
  other type name;
* a stable reference: ``u`` a uop's seq, ``x`` an exception instance's
  id, ``h`` a thread context's tid, ``p`` a program's index in the
  simulator's program list.  Uops, instances and threads keep their
  fields in the body's ``uops``/``instances``/``threads`` tables;
  programs are static and never written;
* any other state object, held in a field (``o``), as its state class --
  the nearest class in its MRO that declares ``_SNAPSHOT_TRANSIENT`` --
  and its fields.

Anything else (a callable, a class without the declaration, a state
object inside a container) makes capture raise :class:`SnapshotError`
naming ``Class.attr`` and the type.

Restore first builds a shell for every uop and instance -- a uop
re-fetches its transient ``inst`` from the program image, an instance
keeps its saved id without drawing a new one -- and then fills every
field, so each reference resolves.  State objects are restored *in
place*, never replaced, so aliases stay bound: a mechanism's
``traditional.stats`` is its own ``stats``, and ``core._ifetch`` is
``hierarchy.l1i.access``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from collections import OrderedDict, deque
from itertools import chain

from repro.branch.cascaded import _Stage2Entry
from repro.branch.ras import RASCheckpoint
from repro.branch.unit import BranchCheckpoint
from repro.branch.yags import _CacheEntry
from repro.checkpoint.format import (
    CheckpointFormatError,
    CheckpointMismatchError,
    read_checkpoint,
    write_checkpoint,
)
from repro.exceptions.base import (
    ExceptionInstance,
    instance_id_state,
    restore_instance_id_state,
)
from repro.exceptions.hardware import _Walk
from repro.exceptions.limits import LimitKnobs
from repro.exceptions.quickstart import _PrefetchEntry
from repro.isa.program import Program
from repro.memory.hierarchy import HierarchyConfig
from repro.memory.tlb import TLBEntry
from repro.pipeline.thread import ThreadContext, ThreadState
from repro.pipeline.uop import Uop, UopState
from repro.sim.config import FUPool, MachineConfig

#: Value dataclasses: rebuilt from their fields, never restored in place.
VALUE_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        TLBEntry,
        _Walk,
        _PrefetchEntry,
        _CacheEntry,
        _Stage2Entry,
        BranchCheckpoint,
        RASCheckpoint,
    )
}

#: Enums: written by member name.
ENUM_TYPES: dict[str, type[enum.Enum]] = {
    cls.__name__: cls for cls in (UopState, ThreadState)
}

#: Config fields a *warm* restore may legitimately differ on: the whole
#: point of a warm checkpoint is attaching a different mechanism to a
#: shared warmed machine, and the sanitizer is pure instrumentation.
_WARM_VARIANT_FIELDS = frozenset({"mechanism", "sanitize"})

#: Layers a warm restore skips when their kind is not the machine's.
_TLB_LAYERS = ("dtlb", "itlb")

_SCALARS = frozenset({int, float, str, bool, type(None)})
_UNSET = object()


class SnapshotError(TypeError):
    """Capture met a value it cannot write; the message names the field."""


@functools.cache
def _state_class(cls: type) -> str | None:
    """Name of the nearest class in ``cls``'s MRO declaring
    ``_SNAPSHOT_TRANSIENT`` (None: not a state class).  A subclass that
    adds no declaration, like the fused kernel's core, shares its base's."""
    for klass in cls.__mro__:
        if "_SNAPSHOT_TRANSIENT" in vars(klass):
            return klass.__name__
    return None


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """A value dataclass's field names, in declaration order."""
    return tuple(f.name for f in dataclasses.fields(cls))


@functools.cache
def _layout(cls: type) -> tuple[tuple[str, ...], frozenset[str]]:
    """(captured slot names, transient names) of ``cls``."""
    transient = frozenset(
        name
        for klass in cls.__mro__
        for name in vars(klass).get("_SNAPSHOT_TRANSIENT", ())
    )
    slots: dict[str, None] = {}
    for klass in reversed(cls.__mro__):
        names = vars(klass).get("__slots__", ())
        for name in (names,) if isinstance(names, str) else names:
            if name not in transient and name not in ("__dict__", "__weakref__"):
                slots[name] = None
    return tuple(slots), transient


class SnapshotContext:
    """One capture or restore pass: the field walker and its reference
    tables (uops by seq, instances by id, threads by tid)."""

    __slots__ = (
        "core",
        "programs",
        "_uops",
        "_instances",
        "_threads",
        "_pending",
        "_open",
        "_where",
        "_encoders",
        "_decoders",
    )

    def __init__(self, core, programs) -> None:
        self.core = core
        self.programs = list(programs)
        self._uops: dict[int, Uop] = {}
        self._instances: dict[int, ExceptionInstance] = {}
        self._threads: dict[int, ThreadContext] = {}
        #: Referenced uops/instances/threads whose fields are not yet written.
        self._pending: list = []
        #: ids of the state objects being written (a cycle is an error).
        self._open: set[int] = set()
        #: ``Class.attr`` of the field being written, for error messages.
        self._where = "<body>"
        self._encoders = {
            list: self._list,
            tuple: lambda v: {"t": self._seq(v)},
            deque: self._deque,
            set: self._set,
            dict: self._dict,
            OrderedDict: lambda v: {"od": self._pairs_of(v)},
            Uop: lambda uop: self._ref("u", uop.seq, uop, self._uops),
            ExceptionInstance: lambda x: self._ref("x", x.id, x, self._instances),
            ThreadContext: lambda t: self._ref("h", t.tid, t, self._threads),
            Program: self._program_ref,
        }
        self._decoders = {
            "l": lambda p: [x if type(x) in _SCALARS else self.decode(x) for x in p],
            "t": lambda p: tuple(self._items(p)),
            "q": lambda p: deque(self._items(p)),
            "s": lambda p: set(self._items(p)),
            "d": dict,
            "ld": lambda p: [dict(pairs) for pairs in p],
            "D": lambda p: dict(self._pairs(p)),
            "od": lambda p: OrderedDict(self._pairs(p)),
            "e": self._enum,
            "v": self._value,
            "u": lambda seq: self._resolve(self._uops, seq, "uop"),
            "x": lambda iid: self._resolve(self._instances, iid, "exception instance"),
            "h": lambda tid: self.core.threads[tid],
            "p": lambda idx: self.programs[idx],
        }

    # -- capture side ---------------------------------------------------
    def encode(self, value, field: bool = False):
        """The JSON form of one value (see the module docstring); a state
        object only as a ``field``, since restore fills it in place."""
        kind = type(value)
        if kind in _SCALARS:
            return value
        encoder = self._encoders.get(kind)
        if encoder is not None:
            return encoder(value)
        name = kind.__name__
        if ENUM_TYPES.get(name) is kind:
            return {"e": [name, value.name]}
        if VALUE_TYPES.get(name) is kind:
            fields = [getattr(value, f) for f in _field_names(kind)]
            encode = self.encode
            fields = [v if type(v) in _SCALARS else encode(v) for v in fields]
            return {"v": [name, *fields]}
        state_class = _state_class(kind)
        if state_class is None:
            raise SnapshotError(
                f"cannot capture {self._where}: {kind.__qualname__} is not a "
                "value type and declares no _SNAPSHOT_TRANSIENT"
            )
        if not field:
            raise SnapshotError(
                f"cannot capture {self._where}: a {kind.__qualname__} inside a "
                "container (state objects are restored in place, as fields)"
            )
        if id(value) in self._open:
            raise SnapshotError(
                f"cannot capture {self._where}: it leads back to the "
                f"{kind.__qualname__} that holds it"
            )
        self._open.add(id(value))
        try:
            return {"o": [state_class, self.fields(value)]}
        finally:
            self._open.discard(id(value))

    def fields(self, obj) -> dict:
        """Every captured field of ``obj``, encoded."""
        cls = type(obj)
        slots, transient = _layout(cls)
        where, out = self._where, {}
        for name in slots:
            value = getattr(obj, name, _UNSET)
            if type(value) in _SCALARS:
                out[name] = value
            elif value is not _UNSET:  # an unset slot stays unset
                self._where = f"{cls.__name__}.{name}"
                out[name] = self.encode(value, field=True)
        for name, value in getattr(obj, "__dict__", {}).items():
            if name in transient:
                continue
            if type(value) in _SCALARS:
                out[name] = value
            else:
                self._where = f"{cls.__name__}.{name}"
                out[name] = self.encode(value, field=True)
        self._where = where
        return out

    def _seq(self, items) -> list | dict:
        """A sequence's form: a copy when it holds only scalars, else ``l``."""
        if _SCALARS.issuperset(map(type, items)):
            return list(items)
        encode = self.encode
        return {"l": [v if type(v) in _SCALARS else encode(v) for v in items]}

    def _list(self, value: list) -> list | dict:
        """A list's form, ``ld`` when it holds only dicts of scalars."""
        if (
            value
            and {dict}.issuperset(map(type, value))
            and _SCALARS.issuperset(map(type, chain.from_iterable(value)))
            and _SCALARS.issuperset(
                map(type, chain.from_iterable(map(dict.values, value)))
            )
        ):
            return {"ld": [list(d.items()) for d in value]}
        return self._seq(value)

    def _dict(self, value: dict) -> dict:
        if _SCALARS.issuperset(map(type, value)) and _SCALARS.issuperset(
            map(type, value.values())
        ):
            return {"d": list(value.items())}  # json writes each tuple as a pair
        return {"D": self._pairs_of(value)}

    def _pairs_of(self, value: dict) -> list:
        encode = self.encode
        return [[encode(k), encode(v)] for k, v in value.items()]

    def _set(self, value: set) -> dict:
        try:
            items = sorted(value)
        except TypeError:  # mixed element types: group them by type
            items = sorted(value, key=lambda v: (type(v).__name__, repr(v)))
        return {"s": self._seq(items)}

    def _deque(self, value: deque) -> dict:
        if value.maxlen is not None:
            raise SnapshotError(f"cannot capture {self._where}: a bounded deque")
        return {"q": self._seq(value)}

    def _ref(self, tag: str, key: int, obj, table: dict) -> dict:
        """A reference by stable key; :meth:`tables` writes the fields."""
        if key not in table:
            table[key] = obj
            self._pending.append(obj)
        return {tag: key}

    def _program_ref(self, program: Program) -> dict:
        for idx, candidate in enumerate(self.programs):
            if candidate is program:
                return {"p": idx}
        raise SnapshotError(
            f"cannot capture {self._where}: its program is not loaded in "
            "this simulator"
        )

    def tables(self) -> dict[str, list]:
        """Write every referenced uop, instance and thread, to a fixpoint
        (writing one may reference more), sorted by seq, id and tid."""
        uops: dict[int, list] = {}
        instances: dict[int, dict] = {}
        threads: dict[int, dict] = {}
        while self._pending:
            obj = self._pending.pop()
            kind = type(obj)
            if kind is Uop:
                # The uop's one hook: ``inst`` is static program text, so
                # the entry names the image to re-fetch it from instead.
                program = self.core.threads[obj.thread_id].program
                if program is None:
                    raise SnapshotError(
                        f"uop #{obj.seq} belongs to thread {obj.thread_id}, "
                        "which has no program"
                    )
                uops[obj.seq] = [self._program_ref(program)["p"], self.fields(obj)]
            elif kind is ExceptionInstance:
                instances[obj.id] = self.fields(obj)
            else:
                threads[obj.tid] = self.fields(obj)
        return {
            "uops": [uops[k] for k in sorted(uops)],
            "instances": [instances[k] for k in sorted(instances)],
            "threads": [threads[k] for k in sorted(threads)],
        }

    # -- restore side ---------------------------------------------------
    def admit(self, body: dict) -> None:
        """Build a shell for every saved uop and instance."""
        if len(body["threads"]) != len(self.core.threads):
            raise CheckpointMismatchError(
                f"checkpoint has {len(body['threads'])} thread contexts, "
                f"this machine has {len(self.core.threads)}"
            )
        for prog, fields in body["uops"]:
            uop = Uop.__new__(Uop)
            uop.inst = self.programs[prog].fetch(fields["pc"])
            if uop.inst is None:
                raise ValueError(
                    f"snapshot uop pc {fields['pc']} is outside program {prog}'s text"
                )
            self._uops[fields["seq"]] = uop
        for fields in body["instances"]:
            # No __init__: an instance keeps its saved id, and the
            # allocator does not advance.
            self._instances[fields["id"]] = ExceptionInstance.__new__(
                ExceptionInstance
            )

    def fill_tables(self, body: dict) -> None:
        """Fill every shell's fields, and the threads' in place."""
        for _, fields in body["uops"]:
            self.fill(self._uops[fields["seq"]], fields)
        for fields in body["instances"]:
            self.fill(self._instances[fields["id"]], fields)
        for fields in body["threads"]:
            self.fill(self.core.threads[fields["tid"]], fields)

    def restore_into(self, obj, encoded, where: str) -> None:
        """Restore a state object's fields in place."""
        saved, have = _saved_class(encoded), _class_of(obj)
        if saved != have:
            raise CheckpointMismatchError(
                f"checkpoint holds {saved or 'no'} state for {where}, "
                f"this machine has {have or 'none'}"
            )
        if obj is not None:
            self.fill(obj, encoded["o"][1])

    def fill(self, obj, fields: dict) -> None:
        """Set each saved field of ``obj``; state objects in place."""
        for name, encoded in fields.items():
            kind = type(encoded)
            if kind is dict and "o" in encoded:
                self.restore_into(
                    getattr(obj, name, None), encoded, f"{type(obj).__name__}.{name}"
                )
            elif kind in _SCALARS:
                setattr(obj, name, encoded)
            else:
                setattr(obj, name, self.decode(encoded))

    def decode(self, encoded):
        """The value one JSON form stands for."""
        kind = type(encoded)
        if kind is list:
            return encoded.copy()
        if kind is not dict:
            return encoded
        ((tag, payload),) = encoded.items()
        decoder = self._decoders.get(tag)
        if decoder is None:
            raise CheckpointFormatError(f"checkpoint holds unknown value tag {tag!r}")
        return decoder(payload)

    def _items(self, payload):
        """A decoded list, without the copy a plain list would get."""
        return payload if type(payload) is list else self.decode(payload)

    def _pairs(self, payload: list) -> list:
        decode = self.decode
        return [(decode(k), decode(v)) for k, v in payload]

    def _enum(self, payload):
        name, member = payload
        cls = ENUM_TYPES.get(name)
        if cls is None:
            raise CheckpointFormatError(f"checkpoint names unknown enum {name!r}")
        return cls[member]

    def _value(self, payload):
        name, *fields = payload
        cls = VALUE_TYPES.get(name)
        if cls is None:
            raise CheckpointFormatError(f"checkpoint names unknown type {name!r}")
        return cls(*[x if type(x) in _SCALARS else self.decode(x) for x in fields])

    @staticmethod
    def _resolve(table: dict, key: int, what: str):
        try:
            return table[key]
        except KeyError:
            raise ValueError(f"snapshot references unknown {what} {key}") from None


# ----------------------------------------------------------------------
def machine_config_from_dict(data: dict) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from its ``asdict`` form."""
    kwargs = dict(data)
    if kwargs.get("fu_pool") is not None:
        kwargs["fu_pool"] = FUPool(**kwargs["fu_pool"])
    kwargs["hierarchy"] = HierarchyConfig(**kwargs["hierarchy"])
    kwargs["limits"] = LimitKnobs(**kwargs["limits"])
    return MachineConfig(**kwargs)


def check_config_compatible(
    config: MachineConfig, saved: dict, warm: bool
) -> None:
    """Reject restores onto a differently shaped machine."""
    current = dataclasses.asdict(config)
    ignore = _WARM_VARIANT_FIELDS if warm else frozenset()
    diffs = sorted(
        key
        for key in current.keys() | saved.keys()
        if key not in ignore and current.get(key) != saved.get(key)
    )
    if diffs:
        raise CheckpointMismatchError(
            "machine configuration differs from the snapshot's on: "
            + ", ".join(diffs)
        )


def _layers(sim) -> dict:
    """The machine's layers, by body key."""
    return {
        "memory": sim.memory,
        "page_table": sim.page_table,
        "dtlb": sim.dtlb,
        "itlb": sim.itlb,
        "hierarchy": sim.hierarchy,
        "bpu": sim.bpu,
        "core": sim.core,
        "mechanism": sim.core.mechanism,
    }


def _saved_class(encoded: dict | None) -> str | None:
    return None if encoded is None else encoded["o"][0]


def _class_of(obj) -> str | None:
    return None if obj is None else _state_class(type(obj))


def capture_machine(sim) -> dict:
    """Serialize a simulator's complete machine state to a body dict.

    Read-only: capturing never perturbs the machine, so a run that was
    snapshotted mid-way stays bit-identical to one that was not.  Must
    be called between ``step()`` boundaries.
    """
    from repro.sim.parallel import engine_fingerprint

    core = sim.core
    if core._exec_heap is not None or core._exec_seq != -1:
        raise RuntimeError("core snapshot is only defined between step() boundaries")
    ctx = SnapshotContext(core, sim.programs)
    body = {
        "engine": engine_fingerprint(),
        "config": dataclasses.asdict(sim.config),
    }
    for name, layer in _layers(sim).items():
        ctx._where = name
        body[name] = ctx.encode(layer, field=True)
    body.update(ctx.tables())
    body["instance_next_id"] = instance_id_state()
    return body


def restore_machine(sim, body: dict, warm: bool = False) -> None:
    """Rebuild captured state onto a freshly constructed simulator.

    The simulator must have been built from the same workload and the
    same engine sources.  An *exact* restore reproduces everything,
    including the mechanism's in-flight bookkeeping, so restore-then-run
    is bit-identical to straight-through.  A *warm* restore attaches a
    (possibly different) mechanism to a quiesced architectural state:
    the mechanism and the instance-id allocator keep their fresh state,
    and a TLB is only restored when its kind matches (a ``perfect``
    machine has no real TLB to warm).
    """
    from repro.sim.parallel import engine_fingerprint

    if body.get("engine") != engine_fingerprint():
        raise CheckpointMismatchError(
            f"checkpoint was written by engine {body.get('engine')!r}, "
            f"these sources are {engine_fingerprint()!r} "
            "(regenerate the checkpoint)"
        )
    check_config_compatible(sim.config, body["config"], warm=warm)

    ctx = SnapshotContext(sim.core, sim.programs)
    ctx.admit(body)
    ctx.fill_tables(body)
    for name, layer in _layers(sim).items():
        saved = body[name]
        if warm and (
            name == "mechanism"
            or (name in _TLB_LAYERS and _saved_class(saved) != _class_of(layer))
        ):
            continue
        ctx.restore_into(layer, saved, name)
    if not warm:
        restore_instance_id_state(body["instance_next_id"])


# ----------------------------------------------------------------------
def save_simulator_checkpoint(
    sim, path, kind: str = "exact", extra_meta: dict | None = None
) -> str:
    """Capture ``sim`` and write it as a checkpoint file; returns the hash."""
    body = capture_machine(sim)
    meta = {
        "kind": kind,
        "engine": body["engine"],
        "mechanism": sim.config.mechanism,
        "cycle": sim.core.cycle,
        "retired_user": sim.core.stats.retired_user,
    }
    if extra_meta:
        meta.update(extra_meta)
    return write_checkpoint(path, body, meta)


def restore_simulator_checkpoint(sim, path, warm: bool = False) -> dict:
    """Read a checkpoint file into ``sim``; returns the header.

    Records the restore's lineage on the simulator so results and
    manifests can report which checkpoint (by hash) a run started from.
    """
    header, body = read_checkpoint(path)
    restore_machine(sim, body, warm=warm)
    meta = header.get("meta", {})
    sim.checkpoint_lineage = {
        "hash": header["sha256"],
        "kind": meta.get("kind"),
        "warmup_insts": meta.get("warmup_insts"),
    }
    return header
