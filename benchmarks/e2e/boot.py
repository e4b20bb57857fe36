"""Run a ``repro`` command with the benchmark's tracer installed.

    python benchmarks/e2e/boot.py TRACE_DIR MODULE [ARGS...]

does what ``python -m MODULE ARGS...`` does, after
:func:`benchmarks.e2e.trace.install` has wrapped the traced layers, so
the command and every pool worker it forks write spans to TRACE_DIR.
The traced paper and serve runs start their commands through here.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent


def main() -> None:
    # Import the benchmark as the ``benchmarks.e2e`` package: its own
    # directory on sys.path would shadow the standard ``trace`` module.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
    sys.path[:0] = [str(_HERE.parents[1] / "src"), str(_HERE.parents[1])]
    from benchmarks.e2e import trace

    if len(sys.argv) < 3:
        raise SystemExit("usage: boot.py TRACE_DIR MODULE [ARGS...]")
    trace_dir, module, *args = sys.argv[1:]
    trace.install(trace_dir)
    sys.argv = [module, *args]
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
