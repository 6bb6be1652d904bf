"""Segment primitives over ``(owner, value)`` pair lists.

The chunk kernels all reduce a sorted-by-owner pair list (the output shape
of :func:`repro.graph.access.segment_reduce_ratings`) down to one winner
per owner; this module holds the shared argmax.
"""

from __future__ import annotations

import numpy as np

from repro.memory.scratch import tracked_empty


def _first_of_segment(owner: np.ndarray) -> np.ndarray:
    """Mask of the first element of every contiguous owner segment."""
    first = tracked_empty(len(owner), np.bool_, name="segment-first-mask")
    first[0] = True
    first[1:] = owner[1:] != owner[:-1]
    return first


def _segment_max_candidates(owner: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Indices of every pair achieving its segment's maximum ``rank``."""
    first = _first_of_segment(owner)
    seg_of = np.cumsum(first) - 1
    seg_max = np.maximum.reduceat(rank, np.flatnonzero(first))
    return np.flatnonzero(rank == seg_max[seg_of])


def segment_best_last(
    owner: np.ndarray, rank: np.ndarray, tiebreak: np.ndarray | None = None
) -> np.ndarray:
    """Index of the per-owner maximum of ``rank``.

    Among equal ranks the *latest* original position wins -- exactly the
    behaviour of a sequential "``>=`` keeps the newer candidate" scan.  An
    optional ``tiebreak`` array is consulted before position: the winner
    maximizes ``(rank, tiebreak, position)`` lexicographically.  ``owner``
    must be non-decreasing (the natural output order of the segment
    reductions feeding this).  Returns indices into the pair list, one per
    distinct owner, in ascending owner order.

    With no ``tiebreak`` and integer ranks inside ``+-2^(62 - bits)``
    (``bits`` holding a position), ``(rank << bits) + position`` packs the
    comparison into one int64 and the segment maximum *is* the winner;
    anything else takes the general candidate route.
    """
    if len(owner) == 0:
        return np.empty(0, dtype=np.int64)
    assert len(owner) < 2 or owner[0] <= owner[-1]  # sorted-by-owner input
    if tiebreak is None and rank.dtype.kind in "iu":
        bits = len(owner).bit_length()
        limit = 1 << (62 - bits)
        if -limit <= int(rank.min()) and int(rank.max()) < limit:
            packed = (rank.astype(np.int64, copy=False) << bits) + np.arange(
                len(owner), dtype=np.int64
            )
            starts = np.flatnonzero(_first_of_segment(owner))
            return np.maximum.reduceat(packed, starts) & ((1 << bits) - 1)
    # general route: among the pairs at their segment's maximum rank the
    # winner maximizes (tiebreak, position) -- the same question one level
    # down, where the positions themselves rank a list without tiebreak
    cand = _segment_max_candidates(owner, rank)
    nxt = cand if tiebreak is None else tiebreak[cand]
    return cand[segment_best_last(owner[cand], nxt)]
