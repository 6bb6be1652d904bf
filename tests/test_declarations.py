"""Tests for the shared-access declaration registry and tracked scratch.

The registry (repro.verify.declarations) is the single source of truth the
dynamic ConflictDetector and the static lint pass both consume; the
recorder must refuse undeclared accesses at runtime exactly where the
static pass flags them at rest.  Tracked scratch (repro.memory.scratch)
backs the untracked-allocation pass's fix path.
"""

import gc

import numpy as np
import pytest

from repro.memory import MemoryTracker
from repro.memory.scratch import (
    install_ledger,
    tracked_empty,
    tracked_full,
    tracked_zeros,
    uninstall_ledger,
)
from repro.verify.conflicts import ConflictDetector
from repro.verify.declarations import (
    KERNELS,
    AccessDecl,
    UndeclaredAccessError,
    declared_modes,
    recorder_for,
    shared_vars,
)


class TestRegistry:
    def test_declared_modes_merge_per_array(self):
        modes = declared_modes("lp-clustering")
        assert modes["clusters"] == {"read", "atomic"}
        assert modes["favorites"] == {"write"}

    def test_shared_vars_maps_locals(self):
        assert shared_vars("lp-refinement")["part"] == "partition"
        assert shared_vars("lp-clustering")["vwgt"] == "vertex-weights"

    def test_one_pass_vars_name_locals_of_the_kernel(self):
        """The static pass spots raw stores by these names, so each must be a
        local ``contract_one_pass`` assigns: ``E'``'s buffer, ``P'``..."""
        import ast
        from pathlib import Path

        from repro.core.coarsening import one_pass_contraction

        module = ast.parse(Path(one_pass_contraction.__file__).read_text())
        (kernel,) = [
            f for f in module.body if isinstance(f, ast.FunctionDef) and f.name == "contract_one_pass"
        ]
        stored = {
            n.id for n in ast.walk(kernel) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        aliases = shared_vars("one-pass-contraction")
        assert aliases["eprime"] == "coarse-edges" and aliases["pprime"] == "coarse-indptr"
        assert set(aliases) <= stored, set(aliases) - stored

    @pytest.mark.parametrize(
        "key, module, function",
        [
            ("lp-clustering", "repro.core.coarsening.lp_clustering", "label_propagation_clustering"),
            ("lp-refinement", "repro.core.refinement.lp_refine", "lp_refine"),
        ],
    )  # fmt: skip
    def test_lp_vars_name_locals_of_the_lp_loops(self, key, module, function):
        """The same for the two LP loops: ``clusters``, ``cluster_weights``,
        ``favorites``, ``part`` and ``vwgt`` are the locals each hands its
        round kernel."""
        import ast
        import importlib
        from pathlib import Path

        tree = ast.parse(Path(importlib.import_module(module).__file__).read_text())
        (loop,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == function]
        stored = {
            n.id for n in ast.walk(loop) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        assert set(shared_vars(key)) <= stored, set(shared_vars(key)) - stored

    def test_every_kernel_mode_is_valid(self):
        for kernel, decls in KERNELS.items():
            for d in decls:
                assert d.mode in ("read", "write", "atomic"), (kernel, d)

    def test_invalid_mode_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown access mode"):
            AccessDecl("x", "volatile")


class TestRecorder:
    def test_declared_accesses_forward_to_detector(self):
        det = ConflictDetector()
        det.begin_region("r")
        det.current_tid = 0
        rec = recorder_for(det, "lp-clustering")
        rec.read("clusters", [1, 2])
        rec.atomic("cluster-weights", [0])
        rec.write("favorites", [3])
        det.current_tid = None
        det.end_region()
        assert det.clean
        assert det.accesses_recorded == 4

    def test_undeclared_array_refused(self):
        rec = recorder_for(ConflictDetector(), "lp-clustering")
        with pytest.raises(UndeclaredAccessError, match="ratings-scratch"):
            rec.read("ratings-scratch", [0])

    def test_wrong_mode_refused(self):
        rec = recorder_for(ConflictDetector(), "lp-clustering")
        with pytest.raises(UndeclaredAccessError, match="cluster-weights"):
            rec.write("cluster-weights", [0])

    def test_unknown_kernel_refused(self):
        with pytest.raises(UndeclaredAccessError):
            recorder_for(None, "no-such-kernel")

    def test_detectorless_recorder_still_checks(self):
        rec = recorder_for(None, "lp-refinement")
        assert not rec.active
        rec.atomic("partition", [0])  # declared: fine, records nothing
        with pytest.raises(UndeclaredAccessError):
            rec.write("partition", [0])


class TestTrackedScratch:
    def setup_method(self):
        uninstall_ledger()

    def teardown_method(self):
        uninstall_ledger()

    def test_no_ledger_plain_numpy(self):
        arr = tracked_empty(100, np.int64, name="x")
        assert arr.shape == (100,) and arr.dtype == np.int64

    def test_charges_and_frees_with_array_lifetime(self):
        tracker = MemoryTracker()
        install_ledger(tracker)
        arr = tracked_zeros(1000, np.int64, name="scratch-buf")
        assert tracker.current_bytes == arr.nbytes
        assert tracker.peak_bytes >= 8000
        del arr
        gc.collect()
        assert tracker.current_bytes == 0

    def test_full_and_values(self):
        tracker = MemoryTracker()
        install_ledger(tracker)
        arr = tracked_full(10, 7, np.int64, name="f")
        assert arr.tolist() == [7] * 10
        assert tracker.current_bytes == 80

    def test_uninstall_stops_charging(self):
        tracker = MemoryTracker()
        install_ledger(tracker)
        uninstall_ledger()
        _ = tracked_empty(1000, np.int64)
        assert tracker.current_bytes == 0
