"""Chunk-granular numpy bulk kernels for the hot phases (ROADMAP item 1).

Every kernel in this package operates on *one chunk* of work, bounded by
:meth:`repro.parallel.runtime.ParallelRuntime.chunk_bounds` -- the kernels
never schedule work themselves and never hold state across chunks, so the
simulated-parallel semantics (ownership, conflict detection, deterministic
replay) are entirely the caller's.  The contract:

* inputs are the chunk's flattened adjacency (``owner``/``neighbors``/
  ``weights`` from :func:`repro.graph.access.chunk_adjacency`) plus whatever
  shared arrays the phase reads;
* shared-array *mutations* happen either in the calling kernel (which binds
  a :class:`~repro.verify.declarations.SharedAccessRecorder`) or through an
  explicitly-passed capacity array (:func:`bulk_size_constrained_commit`),
  never through hidden module state;
* every kernel is the *only* implementation of its phase -- the
  shared-memory partitioner, :mod:`repro.dist` and the service all call
  it -- and is bit-identical to a same-signature scalar reference.  Those
  references live outside production, in ``tests/scalar_reference.py``;
  the differential tests (``tests/test_bulk_equivalence.py``) swap them in
  for the kernels and prove equality across seeds and thread counts.

One level up, :mod:`repro.core.kernels.lp_chunk` runs a whole LP round --
the rate / pick / commit pipeline the first three kernels below once formed
in the two LP drivers -- as one call into the compiled ``lp_kernel.c``
(:mod:`repro.graph._native`); the numpy pipelines it replaced live in
``tests/oracles.py`` as its reference, and the balancer and the baselines
keep calling the kernels directly.  Every coarse graph is aggregated by one
:func:`contraction_step`, on the same compiled rating map.

Scratch arrays are allocated with the tracked constructors from
:mod:`repro.memory.scratch` so the memory ledger (and the ``repro lint``
untracked-allocation pass) sees them.
"""

from repro.core.kernels.commit import bulk_size_constrained_commit
from repro.core.kernels.contraction import (
    aggregate_coarse_edges,
    cluster_leaders,
    contraction_step,
    gather_cluster_members,
    group_by_label,
)
from repro.core.kernels.gains import (
    batch_hash_insert,
    batch_hash_probe,
    entry_width_bits_bulk,
    move_gains,
    two_way_cut,
    two_way_gains,
)
from repro.core.kernels.segments import segment_best_last

__all__ = [
    "bulk_size_constrained_commit",
    "cluster_leaders",
    "contraction_step",
    "gather_cluster_members",
    "group_by_label",
    "aggregate_coarse_edges",
    "segment_best_last",
    "move_gains",
    "two_way_gains",
    "two_way_cut",
    "batch_hash_insert",
    "batch_hash_probe",
    "entry_width_bits_bulk",
]
