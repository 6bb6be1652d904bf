"""Tests for the flow-sensitive dataflow engine (repro.analysis.dataflow).

Covers the CFG builder (shapes for the structured-control constructs the
passes rely on), the worklist fixpoint solver (convergence, unreachable
code, the non-monotone safety valve) and the environment join.
"""

import ast
import textwrap

import pytest

from repro.analysis.dataflow import build_cfg, fixpoint, join_env


def _fn(src: str, name: str | None = None) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(src))
    fns = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if name is None:
        return fns[0]
    return next(f for f in fns if f.name == name)


def _reachable(cfg):
    seen = set()
    stack = [cfg.entry]
    while stack:
        b = stack.pop()
        if b.bid in seen:
            continue
        seen.add(b.bid)
        stack.extend(b.succs)
    return seen


# --------------------------------------------------------------------- #
# CFG shapes
# --------------------------------------------------------------------- #
class TestCFGShapes:
    def test_straight_line(self):
        cfg = build_cfg(_fn("def f():\n    x = 1\n    return x\n"))
        assert cfg.entry.stmts == []
        assert cfg.exit.bid in _reachable(cfg)
        # the lone body block falls through to exit via the return
        body = cfg.block_of[cfg.func.body[0]]
        assert cfg.exit in body.succs

    def test_if_else_diamond(self):
        fn = _fn(
            """
            def f(c):
                if c:
                    x = 1
                else:
                    x = 2
                return x
            """
        )
        cfg = build_cfg(fn)
        if_stmt = fn.body[0]
        then_block = cfg.block_of[if_stmt.body[0]]
        else_block = cfg.block_of[if_stmt.orelse[0]]
        merge_block = cfg.block_of[fn.body[1]]
        assert then_block is not else_block
        assert merge_block in then_block.succs
        assert merge_block in else_block.succs
        dom = cfg.dominators()
        # entry dominates everything reachable; neither branch dominates
        # the merge
        for bid in _reachable(cfg):
            assert cfg.entry.bid in dom[bid]
        assert not cfg.dominates(dom, then_block, merge_block)
        assert not cfg.dominates(dom, else_block, merge_block)

    def test_while_loop_back_edge(self):
        fn = _fn(
            """
            def f(n):
                i = 0
                while i < n:
                    i = i + 1
                return i
            """
        )
        cfg = build_cfg(fn)
        header = cfg.block_of[fn.body[1]]
        body = cfg.block_of[fn.body[1].body[0]]
        assert header in body.succs  # the back edge
        assert cfg.block_of[fn.body[2]] in header.succs  # the loop exit

    def test_for_loop_shape(self):
        fn = _fn(
            """
            def f(xs):
                acc = 0
                for x in xs:
                    acc = acc + x
                return acc
            """
        )
        cfg = build_cfg(fn)
        header = cfg.block_of[fn.body[1]]
        body = cfg.block_of[fn.body[1].body[0]]
        assert header in body.succs
        assert cfg.block_of[fn.body[2]].bid in _reachable(cfg)

    def test_early_return_unreachable_tail(self):
        fn = _fn(
            """
            def f(c):
                if c:
                    return 1
                return 2
            """
        )
        cfg = build_cfg(fn)
        then_block = cfg.block_of[fn.body[0].body[0]]
        assert then_block.succs == [cfg.exit]

    def test_try_body_reaches_handler(self):
        fn = _fn(
            """
            def f():
                try:
                    x = risky()
                except ValueError:
                    x = None
                return x
            """
        )
        cfg = build_cfg(fn)
        body = cfg.block_of[fn.body[0].body[0]]
        handler = cfg.block_of[fn.body[0].handlers[0].body[0]]
        # over-approximation: the body block may jump to the handler
        assert handler.bid in {s.bid for s in body.succs}
        assert cfg.block_of[fn.body[1]].bid in _reachable(cfg)

    def test_rpo_starts_at_entry(self):
        fn = _fn("def f(c):\n    if c:\n        x = 1\n    return 0\n")
        cfg = build_cfg(fn)
        order = cfg.rpo()
        assert order[0] is cfg.entry
        seen = {b.bid for b in order}
        assert seen == {b.bid for b in cfg.blocks}


# --------------------------------------------------------------------- #
# fixpoint solver
# --------------------------------------------------------------------- #
class TestFixpoint:
    def _const_transfer(self, block, env):
        env = dict(env)
        for stmt in block.stmts:
            if isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Constant
            ):
                env[stmt.targets[0].id] = stmt.value.value
        return env

    def test_diamond_join_drops_conflicts(self):
        fn = _fn(
            """
            def f(c):
                a = 7
                if c:
                    x = 1
                else:
                    x = 2
                return x
            """
        )
        cfg = build_cfg(fn)
        ins, outs = fixpoint(cfg, self._const_transfer, {}, join_env)
        merge = cfg.block_of[fn.body[2]]
        assert ins[merge.bid]["a"] == 7  # agreed on both paths
        assert "x" not in ins[merge.bid]  # conflicting constants drop

    def test_loop_converges(self):
        fn = _fn(
            """
            def f(n):
                x = 5
                while n:
                    x = 5
                return x
            """
        )
        cfg = build_cfg(fn)
        ins, outs = fixpoint(cfg, self._const_transfer, {}, join_env)
        assert ins[cfg.exit.bid]["x"] == 5

    def test_unreachable_blocks_stay_none(self):
        fn = _fn(
            """
            def f():
                return 1
                x = 2
            """
        )
        cfg = build_cfg(fn)
        ins, outs = fixpoint(cfg, self._const_transfer, {}, join_env)
        dead = cfg.block_of[fn.body[1]]
        assert ins[dead.bid] is None and outs[dead.bid] is None

    def test_non_monotone_transfer_raises(self):
        fn = _fn("def f(n):\n    while n:\n        n = n\n    return n\n")
        cfg = build_cfg(fn)

        def widen_forever(block, env):
            return {"i": env.get("i", 0) + 1}  # never stabilises

        def keep_max(a, b):
            return {"i": max(a.get("i", 0), b.get("i", 0))}

        with pytest.raises(RuntimeError, match="converge"):
            fixpoint(cfg, widen_forever, {}, keep_max)


class TestJoinEnv:
    def test_agreement_and_conflict(self):
        assert join_env({"a": 1, "b": 2}, {"a": 1, "b": 3}) == {"a": 1}

    def test_missing_keys_drop(self):
        assert join_env({"a": 1}, {}) == {}

    def test_custom_join_merges(self):
        out = join_env({"a": 1}, {"a": 2}, join_val=max)
        assert out == {"a": 2}

    def test_custom_join_none_drops(self):
        out = join_env({"a": 1}, {"a": 2}, join_val=lambda x, y: None)
        assert out == {}
