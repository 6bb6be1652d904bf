"""Per-vertex scalar references for the bulk kernels (tests only).

The production tree has exactly one implementation of each hot phase --
the chunk kernels in :mod:`repro.core.kernels` and the bulk varint
encoder.  The oracle they are checked against lives here: one
same-signature sequential loop per kernel, written the way the phase
would read without numpy batching.  ``tests/test_kernels.py`` compares
each pair on edge cases; :func:`scalar_references` swaps the references
in for the kernels in every module that imported them, so
``tests/test_bulk_equivalence.py`` can run the whole pipeline on the
oracle and demand bit-identical partitions.
"""

from __future__ import annotations

import contextlib
import sys
from collections import Counter

import numpy as np
import pytest

import repro  # noqa: F401  (loads every module that imports a kernel)
import repro.dist  # noqa: F401
from repro.core.kernels.gains import HASH_MULT
from repro.core.refinement.gain_table import entry_width_bits
from repro.graph.varint import encode_stream


def scalar_commit(targets, prevs, weights, capacities, limits):
    """Sequential "move if the target still fits" loop."""
    per_bucket = isinstance(limits, np.ndarray)
    acc = np.ones(len(targets), dtype=bool)
    for i in range(len(targets)):
        t, w = int(targets[i]), int(weights[i])
        lim = int(limits[t]) if per_bucket else limits
        if capacities[t] + w > lim:
            acc[i] = False
            continue
        capacities[int(prevs[i])] -= w
        capacities[t] += w
    return acc


def brute_best(owner, rank, tiebreak=None):
    """Per owner, maximize (rank, tiebreak, position): one ``>=`` scan."""
    best: dict[int, tuple[tuple[int, int], int]] = {}
    for i, o in enumerate(np.asarray(owner).tolist()):
        key = (int(rank[i]), int(tiebreak[i]) if tiebreak is not None else 0)
        if o not in best or key >= best[o][0]:
            best[o] = (key, i)
    return np.array([best[o][1] for o in sorted(best)], dtype=np.int64)


def scalar_move_gains(po, pb, pr, cur_of_owner, num_owners):
    """gain = affinity(block) - affinity(current block), pair by pair."""
    cur_aff = [0] * num_owners
    for o, b, r in zip(po.tolist(), pb.tolist(), pr.tolist()):
        if b == int(cur_of_owner[o]):
            cur_aff[o] = r
    gain = np.array(
        [r - cur_aff[o] for o, r in zip(po.tolist(), pr.tolist())],
        dtype=np.int64,
    )
    is_current = np.array(
        [b == int(cur_of_owner[o]) for o, b in zip(po.tolist(), pb.tolist())],
        dtype=bool,
    )
    return gain, is_current


def _home_slot(block: int, cap: int) -> int:
    return (block * HASH_MULT & 0xFFFFFFFF) % cap


def scalar_hash_insert(keys, vals, lo, caps, blocks, deltas, empty=-1):
    """One linear-probing insert per pair, in pair order."""
    assert len(blocks) == 0 or int(blocks.max()) <= np.iinfo(np.int32).max
    for i in range(len(blocks)):
        base, cap, block = int(lo[i]), int(caps[i]), int(blocks[i])
        p = _home_slot(block, cap)
        while keys[base + p] != empty:
            p = (p + 1) % cap
        keys[base + p] = block
        vals[base + p] = deltas[i]


def scalar_hash_probe(keys, lo, caps, blocks, empty=-1):
    """Slot of ``blocks[i]`` in row ``i``'s table, or -1 if absent."""
    out = np.full(len(blocks), -1, dtype=np.int64)
    for i in range(len(blocks)):
        base, cap, block = int(lo[i]), int(caps[i]), int(blocks[i])
        p = _home_slot(block, cap)
        for _ in range(cap):
            k = keys[base + p]
            if k == block:
                out[i] = base + p
                break
            if k == empty:
                break
            p = (p + 1) % cap
    return out


def scalar_entry_widths(total_incident_weight):
    return np.array(
        [entry_width_bits(int(w)) for w in np.asarray(total_incident_weight).tolist()],
        dtype=np.int64,
    )


def scalar_encode_stream(values, lengths=None):
    out = bytearray()
    encode_stream(np.asarray(values, dtype=np.int64), out)
    return np.frombuffer(bytes(out), dtype=np.uint8)


#: kernel name -> (home module, scalar reference)
REFERENCES = {
    "bulk_size_constrained_commit": ("repro.core.kernels.commit", scalar_commit),
    "segment_best_last": ("repro.core.kernels.segments", brute_best),
    "move_gains": ("repro.core.kernels.gains", scalar_move_gains),
    "batch_hash_insert": ("repro.core.kernels.gains", scalar_hash_insert),
    "batch_hash_probe": ("repro.core.kernels.gains", scalar_hash_probe),
    "entry_width_bits_bulk": ("repro.core.kernels.gains", scalar_entry_widths),
    "encode_stream_bulk": ("repro.graph.varint", scalar_encode_stream),
}


@contextlib.contextmanager
def scalar_references():
    """Run the body with every bulk kernel replaced by its scalar reference.

    The swap reaches each loaded ``repro.*`` module holding the kernel
    under its own name (``from ... import`` bindings included).  Yields a
    :class:`~collections.Counter` of reference calls so a caller can prove
    the oracle actually ran.
    """
    calls: Counter = Counter()

    def counted(name, ref):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return ref(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name, (home, ref) in REFERENCES.items():
            original = getattr(sys.modules[home], name)
            holders = [
                mod
                for modname, mod in list(sys.modules.items())
                if modname.startswith("repro")
                and getattr(mod, name, None) is original
            ]
            assert len(holders) >= 2, name  # home + at least one caller
            wrapped = counted(name, ref)
            for mod in holders:
                mp.setattr(mod, name, wrapped)
        yield calls
