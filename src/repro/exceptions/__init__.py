"""Exception architectures -- the paper's contribution and its baselines.

Four mechanisms, all pluggable into the SMT core:

* :class:`~repro.exceptions.traditional.TraditionalMechanism` -- trap by
  squashing the faulting instruction and everything younger, fetching the
  handler into the *same* thread, and refetching the application after
  ``reti`` (which is unpredicted, costing a second pipeline refill).
* :class:`~repro.exceptions.multithreaded.MultithreadedMechanism` -- the
  paper's proposal: spawn the handler into an idle SMT context, keep the
  main thread fetching, splice the handler into the retirement stream
  before the excepting instruction, reserve window slots, squash the main
  thread's tail if the handler would otherwise deadlock, buffer secondary
  same-page misses and re-link the handler to an older excepting
  instruction seen out of order, and revert to the traditional mechanism
  when no idle context exists or when the handler raises ``hardexc``.
* :class:`~repro.exceptions.hardware.HardwareWalkerMechanism` -- a
  finite-state-machine page walker that fetches no instructions but
  competes for load/store ports and fills the TLB speculatively.
* :class:`~repro.exceptions.quickstart.QuickStartMechanism` -- the
  multithreaded mechanism plus the paper's quick-start optimisation: the
  predicted next handler is prefetched into an idle thread's fetch buffer
  so a spawned handler skips fetch latency (but still pays decode).

:mod:`~repro.exceptions.limits` holds the Table 3 limit-study knobs.
"""

# Mechanism modules import pipeline types, which import the machine
# config, which needs LimitKnobs from this package -- so everything here
# is loaded lazily (PEP 562) to keep `from repro.exceptions.limits
# import LimitKnobs` cycle-free.
_LAZY = {
    "ExceptionInstance": "repro.exceptions.base",
    "ExceptionMechanism": "repro.exceptions.base",
    "build_dtlb_handler": "repro.exceptions.handler_code",
    "handler_length": "repro.exceptions.handler_code",
    "HardwareWalkerMechanism": "repro.exceptions.hardware",
    "LimitKnobs": "repro.exceptions.limits",
    "MultithreadedMechanism": "repro.exceptions.multithreaded",
    "ExceptionTypePredictor": "repro.exceptions.predictors",
    "QuickStartMechanism": "repro.exceptions.quickstart",
    "TraditionalMechanism": "repro.exceptions.traditional",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "ExceptionInstance",
    "ExceptionMechanism",
    "build_dtlb_handler",
    "handler_length",
    "HardwareWalkerMechanism",
    "LimitKnobs",
    "MultithreadedMechanism",
    "ExceptionTypePredictor",
    "QuickStartMechanism",
    "TraditionalMechanism",
]


def make_mechanism(name: str):
    """Construct an (unattached) mechanism by configuration name."""
    if name == "traditional":
        from repro.exceptions.traditional import TraditionalMechanism

        return TraditionalMechanism()
    if name == "multithreaded":
        from repro.exceptions.multithreaded import MultithreadedMechanism

        return MultithreadedMechanism()
    if name == "hardware":
        from repro.exceptions.hardware import HardwareWalkerMechanism

        return HardwareWalkerMechanism()
    if name == "quickstart":
        from repro.exceptions.quickstart import QuickStartMechanism

        return QuickStartMechanism()
    if name == "perfect":
        return None  # Perfect TLB: no mechanism is ever invoked.
    raise ValueError(f"unknown mechanism {name!r}")
