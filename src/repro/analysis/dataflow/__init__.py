"""Intra-procedural dataflow framework for the ``repro lint`` passes.

Two layers (DESIGN.md section 13):

* :mod:`~repro.analysis.dataflow.cfg` -- per-function control-flow
  graphs: basic blocks, branch/loop/try edges, dominators;
* :mod:`~repro.analysis.dataflow.solver` -- a worklist fixpoint solver
  over a caller-supplied lattice (state + transfer + join).

The ``int-width`` dtype lattice is built on these pieces; a new
flow-sensitive pass should be too -- see the pass-authoring guide in
DESIGN.md section 13.
"""

from repro.analysis.dataflow.cfg import CFG, Block, build_cfg, header_exprs
from repro.analysis.dataflow.solver import fixpoint, join_env

__all__ = [
    "CFG",
    "Block",
    "build_cfg",
    "header_exprs",
    "fixpoint",
    "join_env",
]
