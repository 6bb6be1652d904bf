"""Verification subsystem: phase-boundary invariant checks.

:mod:`repro.verify.invariants` holds the structural checks the multilevel
driver runs behind ``config.debug.validation_level`` (``--selfcheck``).
"""

from repro.verify.invariants import (
    InvariantViolation,
    check_clustering,
    check_coarse_mapping,
    check_compressed_roundtrip,
    check_csr,
    check_gain_table_vs_recompute,
    check_partition,
)

__all__ = [
    "InvariantViolation",
    "check_clustering",
    "check_coarse_mapping",
    "check_compressed_roundtrip",
    "check_csr",
    "check_gain_table_vs_recompute",
    "check_partition",
]
