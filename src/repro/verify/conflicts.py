"""Dynamic conflict detection for the simulated parallel runtime.

The simulation executes virtual threads one at a time, so races can never
corrupt values -- which also means they can never be *observed* by testing
outcomes alone.  Instead, this detector checks the paper's synchronization
claims the way ThreadSanitizer would: kernels declare every access to a
registered shared location together with its synchronization class, and two
accesses to the same ``(array, index)`` by *different* virtual threads
within one parallel region conflict whenever at least one of them is an
unsynchronized (plain) write:

* ``write``  -- plain store, no synchronization claimed.  Conflicts with
  any access by another thread (write-write, read-write, atomic-write).
* ``read``   -- load that the algorithm tolerates being stale (LP reads
  neighbor labels mid-round with relaxed semantics).  Conflicts only with a
  plain write by another thread.
* ``atomic`` -- fetch-add / CAS / atomic store.  Conflicts only with a
  plain write by another thread.

A *region* is one parallel loop between barriers (one LP round, one
contraction chunk sweep); :meth:`ConflictDetector.begin_region` clears the
access maps because the barrier orders everything before it.  The current
virtual thread is announced by the loop walking the region's
:meth:`ParallelRuntime.chunk_bounds` (the LP drivers and one-pass
contraction as they replay a round or a level the kernel ran in one call), and
:meth:`ParallelRuntime.region` hands it back at the barrier; accesses
recorded with no current thread (sequential sections) are ignored.

Because the analysis is membership-based rather than timing-based, a
declared race is caught under *any* schedule in which two differently-owned
chunks touch the same location -- schedule fuzzing (replaying the loop under
many interleavings, which changes chunk contents, commit order, and hence
the access sets) widens the set of locations exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Sentinel thread id meaning "accessed by more than one thread already".
_MANY = -2


@dataclass(frozen=True)
class Conflict:
    """One detected unsynchronized access pair."""

    array: str  # registered shared-array name
    index: int  # element index (vertex / cluster / edge slot id)
    kind: str  # "write-write" | "read-write" | "atomic-write"
    tids: tuple[int, int]  # (earlier accessor, current accessor)
    phase: str  # owning parallel region

    def __str__(self) -> str:
        return (
            f"{self.kind} conflict on {self.array}[{self.index}] "
            f"between virtual threads {self.tids[0]} and {self.tids[1]} "
            f"in phase {self.phase!r}"
        )


@dataclass
class _AccessMaps:
    """Per-array access state within the current region."""

    writes: dict = field(default_factory=dict)  # index -> tid
    reads: dict = field(default_factory=dict)  # index -> tid | _MANY
    atomics: dict = field(default_factory=dict)  # index -> tid | _MANY


class ConflictDetector:
    """Records per-virtual-thread access sets and flags conflicts.

    Attach to a runtime with :meth:`ParallelRuntime.attach_detector`; a
    loop over :meth:`~ParallelRuntime.chunk_bounds` sets
    :attr:`current_tid` to each chunk's virtual thread before its accesses.
    """

    def __init__(self, *, max_conflicts: int = 1000) -> None:
        self.current_tid: int | None = None
        self.phase: str = ""
        self.conflicts: list[Conflict] = []
        self.max_conflicts = max_conflicts
        self.regions_checked = 0
        self.accesses_recorded = 0
        self._arrays: dict[str, _AccessMaps] = {}

    # ------------------------------------------------------------------ #
    # region protocol
    # ------------------------------------------------------------------ #
    def begin_region(self, phase: str) -> None:
        """Enter a parallel region; the barrier clears all access maps."""
        self.phase = phase
        self._arrays.clear()
        self.regions_checked += 1

    def end_region(self) -> None:
        self._arrays.clear()
        self.current_tid = None

    # ------------------------------------------------------------------ #
    # access recording
    # ------------------------------------------------------------------ #
    def _maps(self, array: str) -> _AccessMaps:
        m = self._arrays.get(array)
        if m is None:
            m = self._arrays[array] = _AccessMaps()
        return m

    def _flag(self, array: str, index: int, kind: str, other: int, tid: int) -> None:
        if len(self.conflicts) < self.max_conflicts:
            self.conflicts.append(
                Conflict(array, int(index), kind, (int(other), int(tid)), self.phase)
            )

    def record_write(self, array: str, indices, tid: int | None = None) -> None:
        """Plain (unsynchronized) stores to ``array[indices]``."""
        tid = self.current_tid if tid is None else tid
        if tid is None:
            return
        m = self._maps(array)
        idxs = np.unique(np.asarray(indices, dtype=np.int64))
        self.accesses_recorded += len(idxs)
        for i in idxs.tolist():
            w = m.writes.get(i)
            if w is not None and w != tid:
                self._flag(array, i, "write-write", w, tid)
            r = m.reads.get(i)
            if r is not None and r != tid:
                self._flag(array, i, "read-write", r if r != _MANY else -1, tid)
            a = m.atomics.get(i)
            if a is not None and a != tid:
                self._flag(array, i, "atomic-write", a if a != _MANY else -1, tid)
            m.writes[i] = tid

    def record_read(self, array: str, indices, tid: int | None = None) -> None:
        """Relaxed loads from ``array[indices]`` (staleness tolerated)."""
        tid = self.current_tid if tid is None else tid
        if tid is None:
            return
        m = self._maps(array)
        idxs = np.unique(np.asarray(indices, dtype=np.int64))
        self.accesses_recorded += len(idxs)
        for i in idxs.tolist():
            w = m.writes.get(i)
            if w is not None and w != tid:
                self._flag(array, i, "read-write", w, tid)
            r = m.reads.get(i)
            if r is None:
                m.reads[i] = tid
            elif r != tid:
                m.reads[i] = _MANY

    def record_atomic(self, array: str, indices, tid: int | None = None) -> None:
        """Synchronized RMW / atomic stores on ``array[indices]``."""
        tid = self.current_tid if tid is None else tid
        if tid is None:
            return
        m = self._maps(array)
        idxs = np.unique(np.asarray(indices, dtype=np.int64))
        self.accesses_recorded += len(idxs)
        for i in idxs.tolist():
            w = m.writes.get(i)
            if w is not None and w != tid:
                self._flag(array, i, "atomic-write", w, tid)
            a = m.atomics.get(i)
            if a is None:
                m.atomics[i] = tid
            elif a != tid:
                m.atomics[i] = _MANY

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    @property
    def clean(self) -> bool:
        return not self.conflicts

    def summary(self) -> str:
        if self.clean:
            return (
                f"no conflicts ({self.regions_checked} regions, "
                f"{self.accesses_recorded} accesses checked)"
            )
        lines = [f"{len(self.conflicts)} conflict(s):"]
        lines += [f"  {c}" for c in self.conflicts[:10]]
        if len(self.conflicts) > 10:
            lines.append(f"  ... and {len(self.conflicts) - 10} more")
        return "\n".join(lines)
