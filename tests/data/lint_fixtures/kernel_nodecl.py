"""Known-bad dispatch: parallel work with no access declarations at all."""


def undeclared_kernel(runtime, order, out):
    total = 0
    with runtime.region("undeclared"):  # PA004: no recorder bound
        bounds, _tids = runtime.chunk_bounds(len(order))
        for lo, hi in bounds.tolist():
            out[order[lo:hi]] = 1
            total += hi - lo
    return total
