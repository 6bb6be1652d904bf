"""Bulk size-constrained commit: the vectorized equivalent of the
sequential "move if the target still fits" loop used by LP clustering and
LP refinement.

The scalar reference processes candidates in order::

    for each candidate (u, target):
        if capacities[target] + weight(u) > limit(target): reject
        capacities[prev(u)] -= weight(u)
        capacities[target]  += weight(u)
        accept

Order matters only through the capacity array, and the capacity of a
bucket only changes through candidates that name it as ``target`` or
``prev``.  That yields an exact two-tier evaluation:

* **safe buckets**: if ``capacities[t] + inflow(t) <= limit(t)``, where
  ``inflow(t)`` sums the weights of *all* candidates targeting ``t``, then
  every candidate targeting ``t`` accepts no matter the order -- arrivals
  into ``t`` are bounded by ``inflow`` and departures only lower the
  capacity.  These candidates commit in bulk with ``np.add.at``: all
  arrivals are landed up front, which is also how safety is read off
  (``capacities[t] > limit(t)`` afterwards) without grouping by target.
* **unsafe buckets** ``U``: candidates whose target *or* prev lies in
  ``U`` are replayed by the scalar rule in candidate order (they are the
  only events that read or move capacity of a bucket in ``U``).  Replay
  touches the real capacity array, so its decisions match the reference
  bit for bit.

Candidates whose target is safe but whose prev is unsafe still accept
unconditionally (the safety proof does not involve ``prev``), but their
departure must land in replay order so later unsafe-target decisions see
it -- hence they are replayed too.
"""

from __future__ import annotations

import numpy as np

from repro.memory.scratch import tracked_full


def bulk_size_constrained_commit(
    targets: np.ndarray,
    prevs: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    limits,
) -> np.ndarray:
    """Commit candidate moves against ``capacities`` in place.

    Parameters
    ----------
    targets, prevs, weights:
        int64 arrays, one entry per candidate, in commit order.  Each mover
        must appear at most once (its ``prev`` is read before any commit).
    capacities:
        the shared bucket-weight array; mutated exactly as the scalar loop
        would.
    limits:
        scalar cap, or a per-bucket int64 array (deep multilevel's
        per-block budgets).

    Returns the boolean acceptance mask over candidates.
    """
    accepted = tracked_full(len(targets), True, np.bool_, name="commit-accepted")
    per_bucket = isinstance(limits, np.ndarray)
    # land every arrival first: a target is unsafe iff it now exceeds its
    # limit, and the arrivals of the safe ones are already committed
    np.add.at(capacities, targets, weights)
    event = capacities[targets] > (limits[targets] if per_bucket else limits)
    if np.any(event):
        # a departure is order-sensitive only out of a target that overflowed
        leaving = np.flatnonzero(
            capacities[prevs] > (limits[prevs] if per_bucket else limits)
        )
        if len(leaving):
            event[leaving[np.isin(prevs[leaving], targets[event])]] = True
        # ordered scalar replay of the (rare) contended candidates, from the
        # capacities they would have met: their own arrivals taken back out
        replay = np.flatnonzero(event)
        np.subtract.at(capacities, targets[replay], weights[replay])
        for i in replay.tolist():
            c = int(targets[i])
            w = int(weights[i])
            lim = int(limits[c]) if per_bucket else limits
            if capacities[c] + w > lim:
                accepted[i] = False
                continue
            capacities[int(prevs[i])] -= w
            capacities[c] += w

    bulk = np.flatnonzero(~event)
    np.subtract.at(capacities, prevs[bulk], weights[bulk])
    return accepted
