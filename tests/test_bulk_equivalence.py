"""Differential-equivalence harness for the bulk numpy kernels.

The hot phases (two-phase LP clustering commits, LP refinement move
scoring, gain-table construction/probing, input compression) have one
implementation each: the chunk kernels in :mod:`repro.core.kernels` and
the bulk varint encoder.  Every run here is repeated with the kernels
swapped for the per-vertex scalar references of
``tests/scalar_reference.py`` and must come out *bit-identical* across
>= 8 seeds x p in {1, 2, 4, 8}, for both the LP pipeline (``terapart``)
and the FM pipelines (``terapart-fm*``); and a selfcheck run (every
invariant check) must stay clean.
"""

import numpy as np
import pytest

import repro
from repro.core.config import DebugConfig, preset
from repro.graph import generators as gen
from scalar_reference import scalar_references

SEEDS = range(8)
PS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def mesh():
    return gen.rgg2d(400, avg_degree=8, seed=11)


@pytest.fixture(scope="module")
def web():
    return gen.weblike(350, avg_degree=7, seed=11)


LP_KERNELS = ("bulk_size_constrained_commit", "segment_best_last", "move_gains")


def _pair(graph, name, *, seed, p, k=4, expect=LP_KERNELS, **overrides):
    """Partition on the kernels, then on the scalar references; everything
    else identical.  ``expect`` names references the second run must have
    reached, so a rename cannot silently turn this into kernel vs kernel."""
    cfg = preset(name, seed=seed, p=p, **overrides)
    bulk = repro.partition(graph, k, cfg)
    with scalar_references() as calls:
        ref = repro.partition(graph, k, cfg)
    missing = [kernel for kernel in expect if not calls[kernel]]
    assert not missing, (name, missing)
    return bulk, ref


def _assert_identical(a, b, ctxt):
    assert np.array_equal(a.partition, b.partition), ctxt
    assert a.cut == b.cut, ctxt
    assert a.imbalance == b.imbalance, ctxt


@pytest.mark.parametrize("p", PS)
def test_terapart_bit_identical_full_matrix(mesh, p):
    """The headline matrix: 8 seeds x every thread count on the LP path."""
    for seed in SEEDS:
        a, b = _pair(mesh, "terapart", seed=seed, p=p)
        _assert_identical(a, b, f"terapart seed={seed} p={p}")


@pytest.mark.parametrize("p", (1, 4, 8))
def test_terapart_bit_identical_weblike(web, p):
    """Skewed degree distribution exercises the hash gain-table rows and
    high-degree contraction segments."""
    for seed in range(4):
        a, b = _pair(
            web, "terapart", seed=seed, p=p,
            expect=LP_KERNELS + ("encode_stream_bulk",),
        )
        _assert_identical(a, b, f"terapart/web seed={seed} p={p}")


FM_KERNELS = {
    "terapart-fm": LP_KERNELS,
    "terapart-fm-full": LP_KERNELS,
    "terapart-fm-none": LP_KERNELS,
}


@pytest.mark.parametrize("name", tuple(FM_KERNELS))
def test_fm_presets_bit_identical(web, name):
    """FM refinement: gains_many seeding + gain-table kernels, all three
    gain-table kinds."""
    for seed in range(3):
        for p in (1, 8):
            a, b = _pair(web, name, seed=seed, p=p, expect=FM_KERNELS[name])
            _assert_identical(a, b, f"{name} seed={seed} p={p}")


def test_uncompressed_input_bit_identical(mesh):
    """CSR-input path (no compression) uses different adjacency access
    kernels; it must agree with the scalar references too."""
    for seed in range(4):
        a, b = _pair(mesh, "terapart", seed=seed, p=4, compress_input=False)
        _assert_identical(a, b, f"csr seed={seed} p=4")


@pytest.mark.parametrize("compressed", [False, True])
def test_dist_bit_identical(web, compressed):
    """repro.dist runs on the same kernels and codec, so the same swap
    covers the distributed LP, its commit and the per-level encoder."""
    from repro.dist import dpartition

    bulk = dpartition(web, 4, 4, compressed=compressed)
    with scalar_references() as calls:
        ref = dpartition(web, 4, 4, compressed=compressed)
    assert all(calls[kernel] for kernel in LP_KERNELS)
    assert bool(calls["encode_stream_bulk"]) == compressed
    assert np.array_equal(bulk.partition, ref.partition)
    assert (bulk.cut, bulk.rank_peak_bytes) == (ref.cut, ref.rank_peak_bytes)


def test_selfcheck_run_is_clean_and_identical(mesh):
    """Kernels + every invariant check: the checks pass, and the validated
    run reproduces the unvalidated partition."""
    cfg = preset("terapart", seed=2, p=8)
    res = repro.partition(mesh, 4, cfg.with_(debug=DebugConfig(validation_level=2)))
    assert res.selfcheck is not None and res.selfcheck["invariant_checks"] > 0
    assert np.array_equal(res.partition, repro.partition(mesh, 4, cfg).partition)
