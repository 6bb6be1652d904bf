"""Content fingerprints for graphs.

The serving layer keys its caches by *what the graph is*, not by the
Python object identity: two requests naming byte-identical graphs must
coalesce into one partitioner run, and a graph mutated by a delta batch
must stop matching every cache entry computed from its previous state.

A fingerprint is a short blake2b digest over the structural arrays (CSR)
or the encoded byte stream (compressed representation), prefixed with
``n``/``m`` so a collision would additionally have to match the size
header.  Both representations of the *same* graph deliberately produce
*different* fingerprints — the cache stores representation-specific
artifacts (a compressed graph is itself a cached value), so conflating
them would alias entries of different byte sizes.

This is the *content* fingerprint: the service hashes a graph with it once,
when the graph is registered.  After that the service keys the graph by a
*state digest* (:func:`repro.serve.deltas.state_fingerprint`): the same
96-bit blake2b over the previous key and the delta's canonical form, so a
delta costs what it changes instead of a re-hash of every array.  Both
give different content different keys; only the content fingerprint
gives two lineages that reach the same bytes the same key.
"""

from __future__ import annotations

import hashlib

import numpy as np

DIGEST_SIZE = 12  # 96 bits: collision-safe for any plausible cache size


def graph_fingerprint(graph) -> str:
    """Hex content digest of a CSR or compressed graph."""
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    h.update(f"{graph.n}:{graph.num_directed_edges}:".encode())
    if hasattr(graph, "indptr"):  # CSR
        h.update(b"csr:")
        h.update(np.ascontiguousarray(graph.indptr).tobytes())
        h.update(np.ascontiguousarray(graph.adjncy).tobytes())
        if graph.has_edge_weights:
            h.update(np.ascontiguousarray(graph.adjwgt).tobytes())
        if graph.has_vertex_weights:
            h.update(np.ascontiguousarray(graph.vwgt).tobytes())
    else:  # compressed: offsets + encoded stream are the structure
        h.update(b"cmp:")
        h.update(np.ascontiguousarray(graph.offsets).tobytes())
        data = graph.data
        h.update(data if isinstance(data, (bytes, bytearray)) else bytes(data))
        vwgt = np.asarray(graph.vwgt)
        if graph.has_vertex_weights:
            h.update(vwgt.tobytes())
    return h.hexdigest()
