"""Tests for the ASCII renderers in repro.bench.reporting.

The composed golden report (tests/data/golden_bench_report.txt) pins the
exact table / waterfall / series formatting — regenerate it by running
this file with REGEN_GOLDEN=1 in the environment.
"""

import os
from pathlib import Path

import pytest

from repro.bench.reporting import (
    _fmt,
    render_series,
    render_table,
    render_waterfall,
)
from repro.memory.report import fmt_bytes

GOLDEN = Path(__file__).parent / "data" / "golden_bench_report.txt"


def compose_report() -> str:
    """A deterministic report exercising every renderer."""
    table = render_table(
        ["algorithm", "instance", "cut", "ratio"],
        [
            ("terapart", "fem-grid", 162, 1.0),
            ("kaminpar", "fem-grid", 158, 0.9753),
            ("terapart-fm", "web-large", 20875, 1234.5678),
            ("mt-metis", "kmer-A2a", 0, 0.0001234),
        ],
        title="Set A cuts (golden)",
    )
    waterfall = render_waterfall(
        [
            ("input graph", 1024.0),
            ("compression", 256.5),
            ("coarsening", 890.25),
            ("gain tables", 64.125),
        ]
    )
    series = render_series(
        "speedup", [1, 2, 4, 8], [1.0, 1.9, 3.6, 6.55], unit="x"
    )
    bytes_line = " / ".join(
        fmt_bytes(v) for v in (512, 2048, 5.5 * 1024**2, 3.25 * 1024**3, 2.0 * 1024**4)
    )
    return "\n\n".join([table, waterfall, series, bytes_line]) + "\n"


class TestGoldenReport:
    def test_matches_golden(self):
        text = compose_report()
        if os.environ.get("REGEN_GOLDEN"):
            GOLDEN.write_text(text)
        assert GOLDEN.exists(), "run with REGEN_GOLDEN=1 once to create"
        assert text == GOLDEN.read_text()


class TestRenderTable:
    def test_empty_rows(self):
        out = render_table(["a", "bb"], [])
        lines = out.splitlines()
        assert lines[0] == "a | bb"
        assert lines[1] == "--+---"

    def test_column_widths_fit_widest_cell(self):
        out = render_table(["h"], [["wide-cell"], ["x"]])
        rows = out.splitlines()
        assert all(len(r) == len(rows[0]) for r in rows)

    def test_title_is_first_line(self):
        out = render_table(["a"], [[1]], title="T")
        assert out.splitlines()[0] == "T"


class TestFmt:
    def test_zero_float(self):
        assert _fmt(0.0) == "0"

    def test_small_and_large_use_3g(self):
        assert _fmt(0.001234) == "0.00123"
        assert _fmt(123456.0) == "1.23e+05"

    def test_mid_range_two_decimals(self):
        assert _fmt(3.14159) == "3.14"

    def test_non_float_passthrough(self):
        assert _fmt(7) == "7"
        assert _fmt("x") == "x"


class TestFmtBytes:
    @pytest.mark.parametrize(
        "n,expect",
        [
            (0, "0 B"),
            (1023, "1023 B"),
            (1024, "1.00 KiB"),
            (5.5 * 1024**2, "5.50 MiB"),
            (3.25 * 1024**3, "3.25 GiB"),
            (2.0 * 1024**4, "2.00 TiB"),
            (4096 * 1024**4, "4096.00 TiB"),  # TiB is the cap, no overflow
        ],
    )
    def test_units(self, n, expect):
        assert fmt_bytes(n) == expect


class TestRenderWaterfall:
    def test_empty(self):
        assert render_waterfall([]) == "(empty)"

    def test_bars_scale_to_peak(self):
        out = render_waterfall([("a", 100.0), ("b", 50.0)])
        bars = [line.count("#") for line in out.splitlines()]
        assert bars[0] == 40 and bars[1] == 20

    def test_small_value_keeps_one_bar(self):
        out = render_waterfall([("a", 1000.0), ("b", 0.01)])
        assert out.splitlines()[1].count("#") == 1


class TestRenderSeries:
    def test_pairs_and_unit(self):
        out = render_series("mem", [1, 2], [10.0, 20.5], unit="GiB")
        assert out == "mem: 1: 10.00GiB, 2: 20.50GiB"
