"""Memory accounting substrate.

The paper's headline claims are *memory* claims: per-thread rating maps cost
``O(n*p)`` bytes, the sparse gain table costs ``O(m)`` instead of ``O(n*k)``,
graph compression shrinks the input 3-26x, and the combination reduces peak
RSS 16-fold on web graphs.  Measuring Python-process RSS would drown those
signals in interpreter noise, so this package provides an *allocation
ledger*: every data structure in the system registers its exact byte
footprint (numpy ``nbytes``, codec byte lengths, modelled per-thread
buffers), and :class:`MemoryTracker` records running totals, global peaks and
per-phase peaks.  Virtual-memory overcommitment (used by one-pass contraction
and single-pass compression) is modelled by charging only *touched* bytes.

See DESIGN.md section 2 for why this substitution preserves the paper's
measurements.
"""

from repro.memory.tracker import (
    Allocation,
    MemoryBudgetExceeded,
    MemoryTracker,
    PhaseStats,
)
from repro.memory.report import render_phase_breakdown
from repro.memory.scratch import (
    install_ledger,
    tracked_empty,
    tracked_full,
    tracked_ones,
    tracked_zeros,
    uninstall_ledger,
)

__all__ = [
    "Allocation",
    "MemoryBudgetExceeded",
    "MemoryTracker",
    "PhaseStats",
    "render_phase_breakdown",
    "install_ledger",
    "tracked_empty",
    "tracked_full",
    "tracked_ones",
    "tracked_zeros",
    "uninstall_ledger",
]
