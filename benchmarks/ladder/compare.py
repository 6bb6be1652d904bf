"""Compare two ladder documents (``run.py --out``).

    python benchmarks/ladder/compare.py BASE.json NEW.json

One row per end-to-end metric and workload -- base, new, the ratio with
its base, and a verdict:

* ``regressed``  the new median is worse than the base by more than the bound;
* ``unresolved`` the run-to-run spread of either side is wider than the
  bound, and the new samples are not all better than all base samples;
* ``improved``   better by more than the base's own spread (its bound, for a
  metric with one sample per run);
* ``unchanged``  everything else.

Then, per workload, the per-layer self-time diff sorted by absolute change,
so a claimed saving can be located (or shown to sit elsewhere).
Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import sys


def spread(row: dict) -> float:
    """IQR over median of one side's samples (0 for a single sample)."""
    if row.get("n", 1) < 2 or "q1" not in row or not row["median"]:
        return 0.0
    return (row["q3"] - row["q1"]) / abs(row["median"])


def verdict(better: str, base: dict, new: dict, bound: float) -> str:
    lower = better == "lower"
    b, n = base["value"], new["value"]
    if b == n:
        return "unchanged"
    scale = abs(b) if b else 1.0
    worse_by = (n - b) / scale if lower else (b - n) / scale
    if worse_by > bound:
        return "regressed"
    noise = max(spread(base), spread(new))
    if noise > bound and "min" in base and "min" in new:
        all_better = new["max"] < base["min"] if lower else new["min"] > base["max"]
        if not all_better:
            return "unresolved"
    # a single sample has no spread of its own: its bound stands in
    resolution = spread(base) if base.get("n", 1) > 1 and "q1" in base else bound
    if -worse_by > resolution:
        return "improved"
    return "unchanged"


def end_to_end_rows(base: dict, new: dict) -> list[tuple]:
    rows = []
    for name, bdoc in base["workloads"].items():
        ndoc = new["workloads"].get(name)
        if ndoc is None:
            continue
        for metric, brow in bdoc["end_to_end"].items():
            nrow = ndoc["end_to_end"][metric]
            spec = base["metrics"][metric]
            ratio = nrow["value"] / brow["value"] if brow["value"] else float("nan")
            rows.append(
                (name, metric, brow["value"], nrow["value"], ratio,
                 verdict(spec["better"], brow, nrow, spec["bound"]))
            )
    return rows


def self_time_rows(bdoc: dict, ndoc: dict) -> list[tuple]:
    if not bdoc.get("per_layer") or not ndoc.get("per_layer"):
        return []
    bm, nm = bdoc["per_layer"]["metrics"], ndoc["per_layer"]["metrics"]
    rows = []
    for key, b in bm.items():
        if not key.endswith(".self_s"):
            continue
        n = nm.get(key)
        if b is None or n is None or (b == 0 and n == 0):
            continue
        rows.append((key[: -len(".self_s")], b, n, n - b))
    return sorted(rows, key=lambda r: -abs(r[3]))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = (json.load(open(p)) for p in argv)
    rows = end_to_end_rows(base, new)
    print(f"{'workload':<14} {'metric':<12} {'base':>14} {'new':>14} {'new/base':>9}  verdict")
    for name, metric, b, n, ratio, v in rows:
        print(f"{name:<14} {metric:<12} {b:>14.6g} {n:>14.6g} {ratio:>9.4f}  {v}")
    for name, bdoc in base["workloads"].items():
        ndoc = new["workloads"].get(name)
        diff = self_time_rows(bdoc, ndoc) if ndoc else []
        if not diff:
            continue
        flag = "" if bdoc["per_layer"]["reliable"] and ndoc["per_layer"]["reliable"] else "  (unreliable trace)"
        print(f"\n{name}: per-layer self time, base -> new{flag}")
        for layer, b, n, d in diff:
            print(f"  {layer:<44} {b:>9.4f} s {n:>9.4f} s {d:>+9.4f} s")
    return 1 if any(r[5] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
