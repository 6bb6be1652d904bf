"""The hot phases' kernels: the compiled LP and contraction entries, and the
numpy bulk kernels the balancer, distributed LP and the baselines call.

:mod:`repro.core.kernels.lp_chunk` binds ``lp_kernel.c``
(:mod:`repro.graph._native`): one call runs a whole LP round of clustering
or refinement -- the kernel walks the round's chunk bounds itself, in the
runtime's execution order, rating, picking and committing chunk by chunk --
or picks one batch of distributed LP.  Every coarse graph is aggregated by
one :func:`contraction_step` on the same compiled rating map.  Each entry
reads the graph where it keeps its rows, keyed by vertex id.  The numpy
pipelines these calls replaced live in ``tests/oracles.py`` as their
reference.

The numpy kernels (:func:`bulk_size_constrained_commit`, the gain and hash
kernels, :func:`segment_best_last`, the contraction gather and reduction)
each work on one chunk's flattened arrays and hold no state across chunks.
Shared-array mutations happen in the calling phase, which binds a
:class:`~repro.verify.declarations.SharedAccessRecorder`, or through an
explicitly passed capacity array, never through hidden module state.  Their
scalar references live in ``tests/scalar_reference.py``;
``tests/test_bulk_equivalence.py`` swaps them in and proves equality across
seeds and thread counts.

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
