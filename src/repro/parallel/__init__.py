"""Simulated shared-memory parallel runtime.

CPython's GIL rules out real parallel refinement (see DESIGN.md), so this
package provides a *deterministic simulation* of the paper's TBB runtime:

* :class:`ParallelRuntime` schedules work items over ``p`` virtual threads in
  chunks, giving every algorithm the same loop structure it has in the
  paper: one chunk walk (``chunk_bounds``) hands every loop the bounds of
  its chunks, in issue order, and their virtual threads, and one ledger
  (``record_chunks`` / ``record``) keeps each phase's costs and each
  ``(phase, tid)`` thread slice, traced or not.
* :mod:`repro.parallel.cost_model` turns per-phase work/span/bytes-moved
  measurements into modelled speedups for the scaling figures (Fig. 5, 8).
"""

from repro.parallel.runtime import ParallelRuntime, WorkStats
from repro.parallel.cost_model import CostModel, MachineModel, PhaseCost

__all__ = [
    "ParallelRuntime",
    "WorkStats",
    "CostModel",
    "MachineModel",
    "PhaseCost",
]
