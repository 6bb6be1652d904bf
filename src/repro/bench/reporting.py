"""ASCII table / series renderers for the benchmark harness."""

from __future__ import annotations

from collections.abc import Sequence


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.01:
            return f"{v:.3g}"
        return f"{v:.2f}"
    return str(v)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str | None = None,
) -> str:
    """Render rows as a fixed-width ASCII table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for r in cells:
        out.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(out)


def render_series(name: str, xs: Sequence, ys: Sequence[float], unit: str = "") -> str:
    """One-line x->y series (for figure-shaped outputs)."""
    pairs = ", ".join(f"{x}: {_fmt(y)}{unit}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def render_waterfall(steps: Sequence[tuple[str, float]], unit="KiB") -> str:
    """Figure-1-style memory waterfall with bars scaled to the maximum."""
    if not steps:
        return "(empty)"
    peak = max(v for _, v in steps)
    lines = []
    for name, v in steps:
        bar = "#" * max(1, int(40 * v / peak))
        lines.append(f"{name:<28}{v:>12.1f} {unit}  {bar}")
    return "\n".join(lines)
