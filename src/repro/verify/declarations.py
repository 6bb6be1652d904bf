"""Shared-access declarations: the single source of truth for both the
dynamic :class:`~repro.verify.conflicts.ConflictDetector` and the static
``repro lint`` parallel-access pass.

Every kernel that runs a parallel region
(:meth:`~repro.parallel.runtime.ParallelRuntime.region`) must declare, up
front, every shared location it touches and the synchronization class of
each access:

* ``read``   -- relaxed load; the algorithm tolerates staleness (LP reads
  neighbor labels mid-round).
* ``write``  -- plain store that is *provably disjoint* across virtual
  threads (one-pass contraction's per-chunk ``E'`` / ``P'`` slices, which
  its dual counter's prefix sums place apart; per-owner favorite slots).
  The dynamic detector verifies the disjointness claim under fuzzed
  schedules.
* ``atomic`` -- fetch-add / CAS / atomic store (label commits, weight
  transfers).

Kernels do not call ``detector.record_*`` directly; they bind a
:class:`SharedAccessRecorder` via :func:`recorder_for` and go through its
``read`` / ``write`` / ``atomic`` methods.  The recorder refuses any access
that is not declared here (:class:`UndeclaredAccessError`), so the registry
cannot silently drift from the kernels -- and the static analyzer
(:mod:`repro.analysis.parallel_access`) cross-references the same registry
against the kernel ASTs, so *all* paths are checked at rest, not only the
ones a fuzzed schedule happens to exercise.

``vars`` names the kernel-local Python variables backing each shared array;
the static pass uses them to catch raw subscript stores that bypass the
recorder entirely (an *undeclared write*).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Recognized synchronization classes, in detector terminology.
ACCESS_MODES = ("read", "write", "atomic")


class UndeclaredAccessError(RuntimeError):
    """A kernel recorded an access that its declarations do not cover."""

    def __init__(self, kernel: str, array: str, mode: str, declared) -> None:
        super().__init__(
            f"kernel {kernel!r} recorded undeclared access {mode} on "
            f"{array!r}; declared: {sorted(declared) or 'nothing'} -- add an "
            f"AccessDecl to repro.verify.declarations.KERNELS"
        )
        self.kernel = kernel
        self.array = array
        self.mode = mode


@dataclass(frozen=True)
class AccessDecl:
    """One declared access class on one shared location.

    ``array`` is the detector/ledger name of the location; ``vars`` lists
    the kernel-local variable names that alias it (used by the static pass
    to spot raw stores); ``note`` documents *why* the class is safe.
    """

    array: str
    mode: str  # "read" | "write" | "atomic"
    vars: tuple[str, ...] = ()
    note: str = ""

    def __post_init__(self) -> None:
        if self.mode not in ACCESS_MODES:
            raise ValueError(
                f"unknown access mode {self.mode!r} for {self.array!r}; "
                f"know {ACCESS_MODES}"
            )


#: kernel key -> declared accesses.  Keys are stable identifiers passed to
#: :func:`recorder_for` by the kernels and referenced by lint fixtures.
KERNELS: dict[str, tuple[AccessDecl, ...]] = {
    "lp-clustering": (
        AccessDecl(
            "clusters",
            "read",
            vars=("clusters",),
            note="neighbor labels mid-round; LP tolerates staleness",
        ),
        AccessDecl(
            "clusters",
            "atomic",
            vars=("clusters",),
            note="label commit (the paper's CAS store)",
        ),
        AccessDecl(
            "cluster-weights",
            "atomic",
            vars=("cluster_weights",),
            note="weight transfer via CAS loop on source and target",
        ),
        AccessDecl(
            "shared-sparse-array",
            "atomic",
            note="two-phase LP: bumped vertices flush ratings with fetch-add",
        ),
        AccessDecl(
            "favorites",
            "write",
            vars=("favorites",),
            note="per-owner favorite slot; owners are disjoint across chunks",
        ),
        AccessDecl(
            "vertex-weights",
            "read",
            vars=("vwgt",),
            note="immutable within a level; any store is a bug",
        ),
    ),
    "one-pass-contraction": (
        AccessDecl(
            "coarse-edges",
            "write",
            vars=("eprime",),
            note="each chunk's slice starts at its d_prev, a prefix sum in run order",
        ),
        AccessDecl(
            "coarse-indptr",
            "write",
            vars=("pprime",),
            note="slice [s_prev, s_prev+|chunk|) is owned by one chunk",
        ),
        AccessDecl(
            "new-id-of-leader",
            "write",
            note="each leader belongs to exactly one chunk (dense_remap writes them)",
        ),
        AccessDecl(
            "coarse-vwgt",
            "write",
            vars=("new_vwgt",),
            note="new coarse IDs are chunk-disjoint by construction",
        ),
        AccessDecl(
            "dual-counter",
            "atomic",
            note="the 128-bit (d, s) CMPXCHG16B transaction, one a chunk",
        ),
    ),
    "lp-refinement": (
        AccessDecl(
            "partition",
            "read",
            vars=("part",),
            note="neighbor block IDs mid-round; staleness tolerated",
        ),
        AccessDecl(
            "partition",
            "atomic",
            vars=("part",),
            note="block commit of a moved vertex",
        ),
        AccessDecl(
            "block-weights",
            "atomic",
            note="balance-constraint weight transfer via CAS",
        ),
        AccessDecl(
            "vertex-weights",
            "read",
            vars=("vwgt",),
            note="immutable within a level; any store is a bug",
        ),
    ),
}


def declared_modes(kernel: str) -> dict[str, frozenset[str]]:
    """``array -> {modes}`` for one kernel; raises ``KeyError`` if unknown."""
    out: dict[str, set[str]] = {}
    for decl in KERNELS[kernel]:
        out.setdefault(decl.array, set()).add(decl.mode)
    return {a: frozenset(m) for a, m in out.items()}


def shared_vars(kernel: str) -> dict[str, str]:
    """``local variable name -> array name`` for one kernel."""
    out: dict[str, str] = {}
    for decl in KERNELS[kernel]:
        for v in decl.vars:
            out[v] = decl.array
    return out


class SharedAccessRecorder:
    """Declaration-checked front end to a :class:`ConflictDetector`.

    Binding is cheap; with no detector attached every record method is a
    declaration check plus an early return, so kernels can keep one code
    path.  Index arrays that cost work to collect are gathered only when
    :attr:`active` -- the LP drivers make the same round call either way,
    and then replay the round's chunks to the recorder.
    """

    __slots__ = ("detector", "kernel", "_modes")

    def __init__(self, detector, kernel: str) -> None:
        try:
            self._modes = declared_modes(kernel)
        except KeyError:
            raise UndeclaredAccessError(kernel, "*", "*", ()) from None
        self.detector = detector
        self.kernel = kernel

    @property
    def active(self) -> bool:
        """True when a detector is attached and accesses are recorded."""
        return self.detector is not None

    def _check(self, array: str, mode: str) -> None:
        modes = self._modes.get(array)
        if modes is None or mode not in modes:
            raise UndeclaredAccessError(
                self.kernel, array, mode, modes or ()
            )

    def read(self, array: str, indices) -> None:
        """Relaxed loads from ``array[indices]``."""
        self._check(array, "read")
        if self.detector is not None:
            self.detector.record_read(array, indices)

    def write(self, array: str, indices) -> None:
        """Plain stores claimed to be thread-disjoint."""
        self._check(array, "write")
        if self.detector is not None:
            self.detector.record_write(array, indices)

    def atomic(self, array: str, indices) -> None:
        """Synchronized RMW / atomic stores."""
        self._check(array, "atomic")
        if self.detector is not None:
            self.detector.record_atomic(array, indices)


def recorder_for(detector, kernel: str) -> SharedAccessRecorder:
    """Bind ``kernel``'s declarations to ``detector`` (which may be None)."""
    return SharedAccessRecorder(detector, kernel)
