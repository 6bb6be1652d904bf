"""Work/span/bandwidth cost model for the scaling figures.

The paper notes (Section VI-A1) that TeraPart "does not perform any expensive
arithmetic operations and is limited by memory bandwidth", which is why
96-core speedups saturate around 30-40x.  We reproduce that mechanism
explicitly: each phase reports total work ``W``, critical-path span ``S``,
bytes moved ``B`` and atomic-op count ``A``; the modelled parallel time on
``p`` cores is

    T(p) = max( W/min(p, P_max) + S ,  B / BW(p) )
           +  A/p * c_atomic * contention(p)

where ``P_max`` caps the threads a phase can use (``1`` for a sequential
one), ``BW(p)`` is a saturating bandwidth curve (linear up to the number of
memory channels' worth of cores, then flat) and ``contention(p)`` grows
mildly with ``p``.  Self-relative speedup is ``T(1)/T(p)``.

This reproduces the shape of Figure 5 (larger graphs scale better because
sequential initial partitioning amortises) and the weak-scaling behaviour in
Figure 8 (right).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.parallel.runtime import WorkStats


@dataclass(frozen=True)
class MachineModel:
    """Coarse model of the paper's 96-core EPYC 9684X machine.

    ``work_rate`` is work-units per second per core; ``bandwidth_cores`` is
    the core count at which memory bandwidth saturates -- graph partitioning
    issues mostly random accesses, so the 12 DDR5 channels of the EPYC are
    effectively saturated by a handful of cores' worth of demand (this is
    what caps the paper's 96-core speedups at 17-42x);
    ``bytes_per_second_per_core`` converts traffic into time.
    """

    work_rate: float = 50e6
    bytes_per_second_per_core: float = 1.6e9
    bandwidth_cores: int = 8
    atomic_cost: float = 2e-8
    contention_exponent: float = 0.3

    def bandwidth(self, p: int) -> float:
        effective = min(p, self.bandwidth_cores)
        return effective * self.bytes_per_second_per_core

    def contention(self, p: int) -> float:
        return float(p) ** self.contention_exponent


@dataclass
class PhaseCost:
    """Modelled time of one phase on ``p`` cores."""

    name: str
    compute_seconds: float
    bandwidth_seconds: float
    atomic_seconds: float

    @property
    def seconds(self) -> float:
        return max(self.compute_seconds, self.bandwidth_seconds) + self.atomic_seconds


@dataclass
class CostModel:
    machine: MachineModel = field(default_factory=MachineModel)

    def phase_time(self, stats: WorkStats, p: int) -> PhaseCost:
        m = self.machine
        effective_p = max(1.0, min(float(p), stats.max_parallelism))
        compute = stats.work / (effective_p * m.work_rate) + stats.span / m.work_rate
        bandwidth = stats.bytes_moved / m.bandwidth(p)
        atomics = stats.atomic_ops / p * m.atomic_cost * m.contention(p)
        return PhaseCost(stats.name, compute, bandwidth, atomics)

    def total_time(self, phases: dict[str, WorkStats], p: int) -> float:
        return sum(self.phase_time(s, p).seconds for s in phases.values())

    def speedup(self, phases: dict[str, WorkStats], p: int) -> float:
        t1 = self.total_time(phases, 1)
        tp = self.total_time(phases, p)
        if tp <= 0:
            return float(p)
        return t1 / tp

    def speedup_curve(
        self, phases: dict[str, WorkStats], ps: tuple[int, ...] = (12, 24, 48, 96)
    ) -> dict[int, float]:
        return {p: self.speedup(phases, p) for p in ps}
