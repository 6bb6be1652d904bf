"""Known-good parallel kernel: every access matches its declaration."""

import numpy as np

from repro.verify.declarations import recorder_for


def good_kernel(det, runtime, order, clusters, cluster_weights, vwgt):
    rec = recorder_for(det, "lp-clustering")
    with runtime.region("lp-clustering-round0"):
        bounds, tids = runtime.chunk_bounds(len(order))
        for (lo, hi), tid in zip(bounds.tolist(), tids.tolist()):
            det.current_tid = tid
            chunk = order[lo:hi]
            nbrs = chunk
            if rec.active:
                rec.read("clusters", nbrs)
                rec.read("vertex-weights", chunk)
            moved = chunk[clusters[chunk] != 0]
            if rec.active:
                rec.atomic("clusters", moved)
                rec.atomic("cluster-weights", moved)
    return clusters


def helper_shares_module_kernel(rec, part):
    # helpers extracted from the kernel resolve to the module's binding
    rec.atomic("clusters", np.arange(4))
    return part
