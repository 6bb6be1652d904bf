"""Tests for memory report rendering (repro.memory.report)."""

from repro.memory import MemoryTracker
from repro.memory.report import render_phase_breakdown


class TestRenderPhaseBreakdown:
    def test_renders_tree(self):
        t = MemoryTracker()
        with t.phase("partition"):
            with t.phase("coarsening"):
                aid = t.alloc("maps", 4096, "clustering")
                t.free(aid)
            with t.phase("refinement"):
                aid = t.alloc("table", 2048, "gain-table")
                t.free(aid)
        out = render_phase_breakdown(t)
        assert "partition" in out
        assert "coarsening" in out
        assert "4.00 KiB" in out
        assert "clustering" in out  # category appears in the breakdown

    def test_max_depth_limits_output(self):
        t = MemoryTracker()
        with t.phase("a"):
            with t.phase("b"):
                with t.phase("c"):
                    t.alloc("x", 10)
        deep = render_phase_breakdown(t, max_depth=3)
        shallow = render_phase_breakdown(t, max_depth=1)
        assert "c" in deep.split("peak memory")[1]
        assert len(shallow.splitlines()) < len(deep.splitlines())

    def test_empty_tracker(self):
        out = render_phase_breakdown(MemoryTracker())
        assert "peak memory" in out
