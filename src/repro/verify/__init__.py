"""Correctness tooling: differential fuzzing and invariant checking.

The subsystem has five parts (see docs/correctness.md):

* :mod:`repro.verify.genprog` — seeded random micro-op program generator;
* :mod:`repro.verify.oracle` — differential oracle comparing every
  scheduler config against the functional executor;
* :mod:`repro.verify.invariants` — per-cycle microarchitectural
  invariant checks (enabled with ``Pipeline(..., check_invariants=True)``);
* :mod:`repro.verify.shrink` — ddmin-style failure minimiser;
* :mod:`repro.verify.chaos` — fault-injection harness for the
  fault-tolerant campaign runner (see docs/robustness.md).

``python -m repro fuzz`` drives the first four; ``python -m repro
chaos`` drives the last.
"""

from .invariants import InvariantViolation, check_pipeline

__all__ = ["InvariantViolation", "check_pipeline"]

# NOTE: repro.verify.chaos is imported lazily (``from repro.verify
# import chaos``) by the runner worker hook; importing it here would
# drag the pipeline into every verify import.
