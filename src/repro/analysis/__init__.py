"""Static and runtime analysis for the simulator.

Four passes (see docs/ANALYSIS.md):

* :mod:`repro.analysis.guest` — CFG + def-use lint over assembled guest
  programs (workloads, PAL handler images, examples);
* :mod:`repro.analysis.sanitizer` — opt-in runtime invariant checker
  for the pipeline (``REPRO_SANITIZE=1`` / ``MachineConfig.sanitize``);
* :mod:`repro.analysis.archlint` — AST lint over ``src/repro`` itself
  (layering, ``__slots__`` on hot classes, nondeterminism sources);
* :mod:`repro.analysis.restart` — abstract interpretation of PAL
  handler images proving they can be squashed and replayed on a
  back-to-back trap.

Drive them with ``repro-lint`` / ``python -m repro.analysis``.
"""

from repro.analysis.diagnostics import Diagnostic, Severity, summarize
from repro.analysis.guest import analyze_program, analyze_source, analyze_unit
from repro.analysis.sanitizer import PipelineSanitizer, SanitizerError

__all__ = [
    "Diagnostic",
    "PipelineSanitizer",
    "SanitizerError",
    "Severity",
    "analyze_program",
    "analyze_source",
    "analyze_unit",
    "summarize",
]
