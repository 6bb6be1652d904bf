"""Worklist fixpoint solver over a generic lattice.

A pass expresses itself as a forward dataflow problem: a *state* flows
along CFG edges, blocks transform it with a *transfer* function, and
merge points combine incoming states with a *join*.  The solver is
agnostic to the state representation -- anything with a join and an
equality works; the dtype pass uses variable -> bit-width maps.

States must be treated as immutable by transfer functions: return a new
object, never mutate the argument.  ``None`` is reserved by the solver to
mean "edge not reached yet" and is the identity of every join.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.dataflow.cfg import CFG, Block

__all__ = ["fixpoint", "join_env", "MAX_ITERATIONS"]

#: hard cap on solver sweeps; a well-formed finite lattice converges far
#: earlier, so hitting this indicates a non-monotone transfer function
MAX_ITERATIONS = 10_000

Transfer = Callable[[Block, Any], Any]
Join = Callable[[Any, Any], Any]


def fixpoint(
    cfg: CFG,
    transfer: Transfer,
    entry_state: Any,
    join: Join,
    *,
    eq: Callable[[Any, Any], bool] | None = None,
) -> tuple[dict[int, Any], dict[int, Any]]:
    """Solve a forward dataflow problem to fixpoint.

    Returns ``(ins, outs)``: the state at entry / exit of each block id.
    Unreached blocks keep ``None``.  Raises ``RuntimeError`` when the
    iteration cap is hit (non-monotone transfer or unbounded lattice).
    """
    equal = eq if eq is not None else (lambda a, b: a == b)
    ins: dict[int, Any] = {b.bid: None for b in cfg.blocks}
    outs: dict[int, Any] = {b.bid: None for b in cfg.blocks}
    ins[cfg.entry.bid] = entry_state
    outs[cfg.entry.bid] = entry_state

    worklist = [b for b in cfg.rpo() if b is not cfg.entry]
    queued = {b.bid for b in worklist}
    steps = 0
    while worklist:
        steps += 1
        if steps > MAX_ITERATIONS:
            raise RuntimeError(
                f"dataflow solver did not converge after {MAX_ITERATIONS} "
                f"steps in {getattr(cfg.func, 'name', '<fn>')}"
            )
        block = worklist.pop(0)
        queued.discard(block.bid)
        state: Any = None
        for p in block.preds:
            o = outs[p.bid]
            if o is None:
                continue
            state = o if state is None else join(state, o)
        if state is None:
            continue  # unreachable so far
        ins[block.bid] = state
        new_out = transfer(block, state)
        if outs[block.bid] is None or not equal(outs[block.bid], new_out):
            outs[block.bid] = new_out
            for s in block.succs:
                if s.bid not in queued and s is not cfg.entry:
                    worklist.append(s)
                    queued.add(s.bid)
    return ins, outs


def join_env(a: dict, b: dict, join_val: Join | None = None) -> dict:
    """Pointwise join of two variable environments.

    A variable missing on either side is unknown after the merge and is
    dropped.  With no ``join_val``, differing values also drop (the
    two-point "same or unknown" lattice the dtype pass uses); otherwise
    ``join_val`` merges them and ``None`` results drop.
    """
    out = {}
    for k, va in a.items():
        if k not in b:
            continue
        vb = b[k]
        if va == vb:
            out[k] = va
        elif join_val is not None:
            merged = join_val(va, vb)
            if merged is not None:
                out[k] = merged
    return out
