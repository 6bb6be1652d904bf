"""Unit tests for the work/span/bandwidth cost model."""

from repro.parallel.cost_model import CostModel, MachineModel
from repro.parallel.runtime import WorkStats


def _stats(**kw) -> WorkStats:
    s = WorkStats("test")
    for k, v in kw.items():
        setattr(s, k, v)
    return s


class TestPhaseTime:
    def test_pure_compute_scales_linearly(self):
        cm = CostModel(MachineModel(bandwidth_cores=10**9))
        s = _stats(work=1e9)
        t1 = cm.phase_time(s, 1).seconds
        t10 = cm.phase_time(s, 10).seconds
        assert abs(t1 / t10 - 10) < 1e-6

    def test_sequential_work_does_not_scale(self):
        cm = CostModel()
        s = _stats(work=1e9, max_parallelism=1)  # all sequential
        t1 = cm.phase_time(s, 1).compute_seconds
        t96 = cm.phase_time(s, 96).compute_seconds
        assert abs(t1 - t96) < 1e-9

    def test_bandwidth_saturates(self):
        m = MachineModel(bandwidth_cores=48)
        cm = CostModel(m)
        s = _stats(bytes_moved=1e12)
        t48 = cm.phase_time(s, 48).bandwidth_seconds
        t96 = cm.phase_time(s, 96).bandwidth_seconds
        assert t48 == t96  # flat beyond the saturation point

    def test_atomics_parallelize_with_contention_overhead(self):
        cm = CostModel()
        s = _stats(atomic_ops=10**6)
        a1 = cm.phase_time(s, 1).atomic_seconds
        a96 = cm.phase_time(s, 96).atomic_seconds
        # atomics spread over threads, so total time drops with p ...
        assert a96 < a1
        # ... but contention makes them scale sub-linearly
        assert a96 > a1 / 96


class TestSpeedups:
    def test_speedup_bounded_by_p(self):
        cm = CostModel(MachineModel(bandwidth_cores=10**9))
        phases = {"a": _stats(work=1e9)}
        for p in (2, 12, 96):
            assert cm.speedup(phases, p) <= p + 1e-9

    def test_bandwidth_limits_speedup(self):
        """The paper's observation: memory-bound phases cap speedup."""
        m = MachineModel(bandwidth_cores=48)
        cm = CostModel(m)
        # heavily memory-bound workload
        phases = {"a": _stats(work=1e6, bytes_moved=1e12)}
        assert cm.speedup(phases, 96) <= 48 * 1.05

    def test_amdahl_with_sequential_fraction(self):
        cm = CostModel(MachineModel(bandwidth_cores=10**9))
        # a tenth of the work in a one-thread phase
        phases = {"a": _stats(work=9e8), "seq": _stats(work=1e8, max_parallelism=1)}
        s96 = cm.speedup(phases, 96)
        # Amdahl bound: 1 / (0.1 + 0.9/96)
        assert s96 < 1 / (0.1 + 0.9 / 96) + 1e-6
        assert s96 > 5

    def test_speedup_curve_monotone(self):
        cm = CostModel()
        phases = {"a": _stats(work=1e9, bytes_moved=1e10)}
        curve = cm.speedup_curve(phases)
        vals = [curve[p] for p in (12, 24, 48, 96)]
        assert vals == sorted(vals)

    def test_larger_instances_scale_better(self):
        """Figure 5's pattern: sequential IP amortises on larger graphs."""
        cm = CostModel(MachineModel(bandwidth_cores=10**9))
        fixed_sequential = 1e7
        seq = _stats(work=fixed_sequential, max_parallelism=1)
        small = {"a": _stats(work=1e8 - fixed_sequential), "seq": seq}
        large = {"a": _stats(work=1e10 - fixed_sequential), "seq": seq}
        assert cm.speedup(large, 96) > cm.speedup(small, 96)
