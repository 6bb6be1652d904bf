"""Tracked scratch allocation: ledger-visible transient numpy buffers.

The hot decode paths (:mod:`repro.graph.varint`, :mod:`repro.graph.access`)
allocate short-lived scratch arrays sized by the *input* (``count`` decoded
values, gathered neighborhood lengths).  Those bytes are real memory the
paper's accounting would see, but they historically bypassed the
:class:`~repro.memory.tracker.MemoryTracker` ledger -- exactly the class of
leak the ``repro lint`` untracked-allocation pass exists to catch.

This module closes the gap without threading a tracker through every codec
signature: a process-wide *scratch ledger* can be installed (mirroring
``graph.access.install_tracer``), and the ``tracked_*`` constructors charge
each buffer to it under the ``"scratch"`` category.  The charge lives as
long as the array does -- a ``weakref.finalize`` frees the ledger entry when
the buffer is collected -- so concurrent scratch shows up in phase peaks
with correct lifetimes.

With no ledger installed (the default, and the production fast path) every
wrapper is a plain numpy call behind one module-global ``None`` check, so
performance-sensitive callers pay nothing.  Runs opt in through
``config.obs.track_scratch`` (wired in the partitioner driver) or by
calling :func:`install_ledger` directly.
"""

from __future__ import annotations

import weakref

import numpy as np

_ledger = None  # MemoryTracker | None


def install_ledger(tracker) -> None:
    """Charge subsequent tracked scratch allocations to ``tracker``."""
    global _ledger
    _ledger = tracker


def uninstall_ledger() -> None:
    global _ledger
    _ledger = None


def _charge(arr: np.ndarray, name: str) -> np.ndarray:
    led = _ledger
    if led is not None and arr.nbytes:
        aid = led.alloc(name, arr.nbytes, "scratch")
        # tie the ledger entry to the buffer's lifetime: the entry is freed
        # when the array is garbage-collected, however long callers hold it
        weakref.finalize(arr, led.free, aid)
    return arr


class _SlotCharge:
    """Weakref-able owner of a list's charge (a ``list`` cannot carry one)."""

    __slots__ = ("__weakref__",)


def tracked_slots(slots: int, name: str) -> _SlotCharge | None:
    """Charge a Python list's ``slots`` 8-byte slots (its pointer array, not
    the objects behind it) for as long as the returned token is referenced."""
    led = _ledger
    if led is None or not slots:
        return None
    token = _SlotCharge()
    weakref.finalize(token, led.free, led.alloc(name, 8 * slots, "scratch"))
    return token


def tracked_empty(shape, dtype=np.int64, *, name: str = "scratch") -> np.ndarray:
    """``np.empty`` that registers the buffer with the scratch ledger."""
    return _charge(np.empty(shape, dtype=dtype), name)


def tracked_zeros(shape, dtype=np.int64, *, name: str = "scratch") -> np.ndarray:
    """``np.zeros`` that registers the buffer with the scratch ledger."""
    return _charge(np.zeros(shape, dtype=dtype), name)


def tracked_ones(shape, dtype=np.int64, *, name: str = "scratch") -> np.ndarray:
    """``np.ones`` that registers the buffer with the scratch ledger."""
    return _charge(np.ones(shape, dtype=dtype), name)


def tracked_full(
    shape, fill_value, dtype=np.int64, *, name: str = "scratch"
) -> np.ndarray:
    """``np.full`` that registers the buffer with the scratch ledger."""
    return _charge(np.full(shape, fill_value, dtype=dtype), name)
