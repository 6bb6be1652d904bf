"""Tests for per-phase regression attribution (obs/regress/attrib)."""

from repro.obs.regress.attrib import (
    PhaseDelta,
    aggregate_profiles,
    attribute,
    diff_profiles,
    format_attribution,
    phase_profile,
)
from repro.obs.tracer import normalize_phase


def _obs(scale_clustering=1.0, scale_coarsen_bytes=1.0):
    """A miniature obs registry shaped like MetricsRegistry.to_dict()."""
    cl = 0.40 * scale_clustering
    phases = [
        {"name": "partition", "tracker_path": "partition", "wall_seconds": 1.0},
        {
            "name": "compression",
            "tracker_path": "partition/compression",
            "wall_seconds": 0.10,
        },
        {
            "name": "coarsening",
            "tracker_path": "partition/coarsening",
            "wall_seconds": 0.20 + cl,
        },
        {
            "name": "clustering",
            "tracker_path": "partition/coarsening/coarsening-level0/clustering",
            "wall_seconds": cl / 2,
        },
        {
            "name": "clustering",
            "tracker_path": "partition/coarsening/coarsening-level1/clustering",
            "wall_seconds": cl / 2,
        },
        {
            "name": "refinement-level1",
            "tracker_path": "partition/refinement-level1",
            "wall_seconds": 0.05,
        },
        {
            "name": "refinement-level0",
            "tracker_path": "partition/refinement-level0",
            "wall_seconds": 0.05,
        },
        {"name": "untracked-span", "wall_seconds": 9.9},  # no tracker_path
    ]
    waterfall = [
        {"phase": "partition", "name": "partition", "peak_bytes": 1000},
        {
            "phase": "partition/compression",
            "name": "compression",
            "peak_bytes": 200,
        },
        {
            "phase": "partition/coarsening",
            "name": "coarsening",
            "peak_bytes": int(1000 * scale_coarsen_bytes),
        },
        {
            "phase": "partition/coarsening/coarsening-level0/contraction",
            "name": "contraction",
            "peak_bytes": int(900 * scale_coarsen_bytes),
        },
        {
            "phase": "partition/refinement-level0",
            "name": "refinement-level0",
            "peak_bytes": 300,
        },
    ]
    return {"phases": phases, "waterfall": waterfall}


def _db_rec(obs):
    return {"kind": "partition", "run": {}, "obs": obs}


class TestProfileExtraction:
    def test_normalize_strips_level_suffix(self):
        assert normalize_phase("refinement-level12") == "refinement"
        assert normalize_phase("clustering") == "clustering"

    def test_top_level_vs_kernel_split(self):
        p = phase_profile(_obs())
        assert set(p["wall"]) == {"compression", "coarsening", "refinement"}
        assert set(p["kernel_wall"]) == {"clustering"}
        # the root span and spans without a tracker_path never appear
        assert "partition" not in p["wall"]
        assert "untracked-span" not in p["kernel_wall"]

    def test_levels_aggregate(self):
        p = phase_profile(_obs())
        # two refinement levels sum; two clustering levels sum
        assert p["wall"]["refinement"] == 0.10
        assert p["kernel_wall"]["clustering"] == 0.40

    def test_bytes_keep_max_peak(self):
        p = phase_profile(_obs())
        assert p["bytes"]["coarsening"] == 1000
        assert p["kernel_bytes"]["contraction"] == 900


class TestAggregation:
    def test_wall_means_bytes_max(self):
        a = phase_profile(_obs())
        b = phase_profile(_obs(scale_clustering=3.0, scale_coarsen_bytes=2.0))
        agg = aggregate_profiles([a, b])
        assert agg["kernel_wall"]["clustering"] == (0.40 + 1.20) / 2
        assert agg["bytes"]["coarsening"] == 2000  # max, not mean

    def test_empty(self):
        agg = aggregate_profiles([])
        assert agg == {
            "wall": {},
            "bytes": {},
            "kernel_wall": {},
            "kernel_bytes": {},
        }


class TestDiff:
    def test_names_the_offending_phase(self):
        base = phase_profile(_obs())
        cand = phase_profile(_obs(scale_clustering=3.0))
        deltas = diff_profiles(base, cand, section="wall")
        assert deltas and deltas[0].phase == "coarsening"
        kdeltas = diff_profiles(base, cand, section="kernel_wall")
        assert kdeltas[0].phase == "clustering"
        assert kdeltas[0].pct > 100

    def test_small_phases_filtered_by_share(self):
        base = {"wall": {"big": 10.0, "tiny": 0.001}}
        cand = {"wall": {"big": 10.0, "tiny": 0.01}}  # tiny grew 10x
        deltas = diff_profiles(base, cand, section="wall", min_share=0.02)
        assert deltas == []  # below the share floor: noise, not a finding

    def test_new_phase_reported_as_infinite(self):
        base = {"wall": {"a": 1.0}}
        cand = {"wall": {"a": 1.0, "cache": 0.5}}
        deltas = diff_profiles(base, cand, section="wall")
        assert deltas[0].phase == "cache"
        assert deltas[0].pct == float("inf")
        assert "(new)" in deltas[0].describe()


class TestAttribute:
    def test_time_regression_names_clustering(self):
        base = [_db_rec(_obs()) for _ in range(3)]
        cand = [_db_rec(_obs(scale_clustering=3.0)) for _ in range(3)]
        deltas = attribute(
            base, cand, regressed_metrics=("wall_seconds",)
        )
        names = {d.phase for d in deltas}
        assert "coarsening" in names and "clustering" in names
        assert all(d.metric == "time" for d in deltas)

    def test_bytes_regression_names_contraction(self):
        base = [_db_rec(_obs())]
        cand = [_db_rec(_obs(scale_coarsen_bytes=2.0))]
        deltas = attribute(base, cand, regressed_metrics=("peak_bytes",))
        names = {d.phase for d in deltas}
        assert {"coarsening", "contraction"} <= names
        assert all(d.metric == "bytes" for d in deltas)

    def test_condensed_baseline_profile(self):
        """Baselines store condensed profiles, not raw obs."""
        base_profile = aggregate_profiles([phase_profile(_obs())])
        cand = [_db_rec(_obs(scale_clustering=2.0))]
        deltas = attribute(
            [],
            cand,
            regressed_metrics=("wall_seconds",),
            base_profile=base_profile,
        )
        assert any(d.phase == "clustering" for d in deltas)

    def test_records_without_obs_are_skipped(self):
        deltas = attribute(
            [{"kind": "partition", "run": {}, "obs": None}],
            [{"kind": "partition", "run": {}, "obs": None}],
            regressed_metrics=("wall_seconds",),
        )
        assert deltas == []


class TestFormatting:
    def test_headline_orders_time_before_bytes(self):
        deltas = [
            PhaseDelta("gain-tables", "bytes", 100.0, 121.0),
            PhaseDelta("contraction", "time", 1.0, 1.38),
        ]
        line = format_attribution(deltas)
        assert line.index("contraction") < line.index("gain-tables")
        assert "+38% time" in line
        assert "+21% bytes" in line

    def test_no_mover_message(self):
        assert "noise floor" in format_attribution([])
