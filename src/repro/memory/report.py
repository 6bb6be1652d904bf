"""Rendering of memory ledgers into the breakdowns shown in the paper.

:func:`render_phase_breakdown` reproduces the layout of Figure 2 (memory per
phase, per level, split by data-structure category) as an ASCII table.
"""

from __future__ import annotations

from repro.memory.tracker import MemoryTracker


def fmt_bytes(n: float) -> str:
    """``2048`` -> ``"2.00 KiB"``: the package's one byte formatter."""
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024 or unit == "TiB":
            return f"{n:.2f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    raise AssertionError("unreachable")


def render_phase_breakdown(tracker: MemoryTracker, *, max_depth: int = 3) -> str:
    """Render per-phase peak memory as an indented ASCII tree (Figure 2)."""
    lines = [f"peak memory: {fmt_bytes(tracker.peak_bytes)}"]
    for path in sorted(tracker.phases()):
        depth = path.count("/")
        if depth >= max_depth:
            continue
        stats = tracker.phases()[path]
        indent = "  " * depth
        name = path.rsplit("/", 1)[-1]
        top = sorted(stats.peak_breakdown.items(), key=lambda kv: -kv[1])[:3]
        cats = ", ".join(f"{c}={fmt_bytes(b)}" for c, b in top)
        lines.append(f"{indent}{name}: peak {fmt_bytes(stats.peak_bytes)} ({cats})")
    return "\n".join(lines)
