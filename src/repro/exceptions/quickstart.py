"""Quick-start: prefetched handlers in idle fetch buffers (Section 5.4).

The multithreaded mechanism's dominant remaining overhead is handler
fetch/decode latency (Table 3).  Quick-start attacks the fetch half:
while a thread context is idle, the machine predicts the next exception
type, prefetches that handler with *spare* fetch bandwidth, and parks the
fetched-but-undecoded instructions in the idle thread's otherwise-unused
fetch buffer.  When an exception spawns onto that context the handler
image is already past fetch: it pays only decode + schedule + register
read.  If the exception arrives before the prefetch finished, whatever
was prefetched is used and the tail is fetched normally (the paper:
"the instructions have not always been prefetched").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions.multithreaded import MultithreadedMechanism
from repro.exceptions.predictors import ExceptionTypePredictor
from repro.isa.instructions import Opcode
from repro.pipeline.thread import ThreadContext, ThreadState
from repro.pipeline.uop import Uop


@dataclass
class _PrefetchEntry:
    pc: int
    ready_cycle: int


class QuickStartMechanism(MultithreadedMechanism):
    """Multithreaded exception handling with handler prefetch."""

    name = "quickstart"

    def __init__(self) -> None:
        super().__init__()
        self.type_predictor = ExceptionTypePredictor()
        #: tid -> prefetched handler image (in handler order).
        self._images: dict[int, list[_PrefetchEntry]] = {}
        #: tid -> next handler offset to prefetch (None = image complete).
        self._cursor: dict[int, int] = {}
        #: tid -> exception type the prefetched image belongs to.
        self._image_type: dict[int, str] = {}

    # ------------------------------------------------------------------
    def fetch_idle(self, now: int, budget: int) -> int:
        """Spend leftover fetch bandwidth prefetching into idle buffers."""
        core = self.core
        predicted = self.type_predictor.predict() or "dtlb_miss"
        entry = core.pal_entries.get(predicted)
        if entry is None:
            return 0
        length = core.handler_lengths.get(predicted, core.handler_length)
        used = 0
        for thread in core.threads:
            if used >= budget:
                break
            if thread.state is not ThreadState.IDLE:
                continue
            if self._image_type.get(thread.tid) not in (None, predicted):
                # The prediction changed: restart the image.
                self._images[thread.tid] = []
                self._cursor[thread.tid] = 0
            self._image_type[thread.tid] = predicted
            cursor = self._cursor.get(thread.tid, 0)
            if cursor >= length:
                continue
            image = self._images.setdefault(thread.tid, [])
            while used < budget and cursor < length:
                pc = entry + cursor
                # Prefetch goes through the I-cache like any fetch.
                core.hierarchy.ifetch(pc * 4, now)
                image.append(
                    _PrefetchEntry(pc=pc, ready_cycle=now + core.config.fetch_latency)
                )
                cursor += 1
                used += 1
            self._cursor[thread.tid] = cursor
        return used

    # ------------------------------------------------------------------
    def _start_frontend(self, thread: ThreadContext, now: int) -> None:
        """Serve the handler from the prefetched image where possible."""
        core = self.core
        exc_type = (
            thread.exc_instance.exc_type if thread.exc_instance else "dtlb_miss"
        )
        self.type_predictor.verify(exc_type)
        self.type_predictor.record(exc_type)
        image = self._images.pop(thread.tid, [])
        image_type = self._image_type.pop(thread.tid, None)
        self._cursor.pop(thread.tid, None)
        if image and image_type != exc_type:
            # Wrong handler prefetched: the image is useless.
            self.stats.quickstart_wrong_type += 1
            image = []
        usable = [e for e in image if e.ready_cycle <= now]
        # Entries still in the fetch pipe arrive on schedule; use them too.
        in_flight = [e for e in image if e.ready_cycle > now]
        served = usable + in_flight

        if not served:
            super()._start_frontend(thread, now)
            return
        length = core.handler_lengths.get(exc_type, core.handler_length)
        if len(served) >= length:
            self.stats.quickstart_hits += 1
        else:
            self.stats.quickstart_partial += 1

        exc_id = thread.exc_instance.id if thread.exc_instance else None
        bus = core.listeners
        saw_reti = False
        for entry in served:
            inst = thread.program.fetch(entry.pc)
            uop = Uop(core.alloc_seq(), thread.tid, entry.pc, inst)
            uop.fetch_cycle = now
            uop.avail_cycle = max(now, entry.ready_cycle)
            uop.is_handler = True
            uop.quickstarted = True
            if inst.is_branch:
                pred = core.bpu.predict(entry.pc, inst)
                uop.checkpoint = pred.checkpoint
                uop.pred_taken = pred.taken
                uop.pred_target = pred.target
            thread.rob.append(uop)
            thread.fetch_buffer.append(uop)
            core.stats.fetched += 1
            if bus is not None:
                bus.fetch(now, thread.tid, uop.seq, entry.pc, inst.op.value, True)
            if inst.op is Opcode.RETI:
                saw_reti = True
        if saw_reti:
            thread.fetch_done = True
            thread.fetch_stall_until = 1 << 60
        else:
            # Partial image: fetch the rest of the handler normally.
            thread.pc = self._handler_entry(thread) + len(served)
            thread.fetch_stall_until = now + 1

    def _thread_freed(self, thread: ThreadContext, now: int) -> None:
        """Restart prefetch for a context returning to the idle pool."""
        self._images[thread.tid] = []
        self._cursor[thread.tid] = 0
        self._image_type.pop(thread.tid, None)

    _SNAPSHOT_TRANSIENT = ()

    def drain(self, now: int) -> None:
        """Drop prefetched handler images along with in-flight exception
        work; the type predictor's learned history survives."""
        super().drain(now)
        self._images.clear()
        self._cursor.clear()
        self._image_type.clear()
