"""First-class observability: event bus, attribution, trace export.

The pipeline core and the exception mechanisms emit typed
:class:`~repro.obs.events.ObsEvent` records through an optional
:class:`~repro.obs.events.EventBus` (``SMTCore.listeners``).  The bus is
``None`` by default and every emission site is guarded by a single
``is not None`` check, so a machine with no listeners runs bit-identical
to one built before this package existed (the same pattern as the
runtime sanitizer, docs/ANALYSIS.md).

Subscribers shipped here:

* :class:`~repro.obs.attribution.CycleAttribution` -- classifies every
  cycle into the paper's Table-3 penalty categories (useful user work,
  handler fetch/decode, handler execute, squash/refetch waste, splice
  stall, idle) and records per-episode phase timings.
* :class:`~repro.obs.chrome.ChromeTraceExporter` -- Chrome
  ``trace_event`` JSON, one track per hardware thread, handler episodes
  as colored spans (load in ``chrome://tracing`` or Perfetto).

``python -m repro.obs`` (or the ``repro-trace`` script) runs one
workload with tracing on and writes the trace plus a run manifest.
See docs/OBSERVABILITY.md.
"""

from repro.obs.attribution import (
    ATTRIBUTION_CATEGORIES,
    AttributionTable,
    CycleAttribution,
    EpisodeRecord,
)
from repro.obs.chrome import ChromeTraceExporter, validate_chrome_trace
from repro.obs.events import (
    EVENT_KINDS,
    EventBus,
    ObsEvent,
    attach_bus,
)
from repro.obs.manifest import (
    build_manifest,
    config_hash,
    validate_manifest,
    write_manifest,
)

__all__ = [
    "ATTRIBUTION_CATEGORIES",
    "AttributionTable",
    "ChromeTraceExporter",
    "CycleAttribution",
    "EpisodeRecord",
    "EVENT_KINDS",
    "EventBus",
    "ObsEvent",
    "attach_bus",
    "build_manifest",
    "config_hash",
    "validate_chrome_trace",
    "validate_manifest",
    "write_manifest",
]
