"""Known-bad parallel kernel: one of each parallel-access violation."""

from repro.verify.declarations import recorder_for


def bad_kernel(det, runtime, order, clusters, vwgt, scratch):
    rec = recorder_for(det, "lp-clustering")
    with runtime.region("lp-clustering-round0"):
        for lo, hi in runtime.chunk_bounds(len(order))[0].tolist():
            chunk = order[lo:hi]
            rec.read("ratings-scratch", chunk)  # PA001: never declared
            rec.write("clusters", chunk)  # PA002: declared read/atomic only
            det.record_write("cluster-weights", chunk)  # PA002 via direct call
            vwgt[chunk] = 0  # PA003: vertex-weights is declared read-only
    return clusters


def bad_binding(det):
    rec = recorder_for(det, "no-such-kernel")  # PA005: unknown key
    return rec


def bad_refine(det, runtime, order, part):
    rec = recorder_for(det, "lp-refinement")
    with runtime.region("lp-refinement-round0"):
        part[order] = 0  # PA003: stored to in the region, not through the recorder
    return rec
