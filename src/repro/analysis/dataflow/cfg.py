"""Per-function control-flow graphs for the lint dataflow passes.

A :class:`CFG` is built from one ``ast.FunctionDef`` (or async variant).
Statements are grouped into :class:`Block` basic blocks connected by
directed edges; compound statements (``if``/``while``/``for``/``with``)
appear in the block that evaluates their *header* (test / iterable /
context expressions) while their bodies live in successor blocks.  The
shape is deliberately an over-approximation of CPython's real control
flow -- every block inside a ``try`` body gets an edge to every handler,
``raise``/``return`` edge to the exit block -- because the pass built on
top (dtype inference) only needs may-reach / must-dominate facts, not
exact exception semantics.

Use :func:`header_exprs` to get the expressions a compound statement
evaluates *inside its own block*; iterating a compound node with
``ast.walk`` would wrongly visit its body, which belongs to other blocks.
"""

from __future__ import annotations

import ast
from typing import Iterator

__all__ = ["Block", "CFG", "build_cfg", "header_exprs"]

#: statements whose bodies are routed to successor blocks
_COMPOUND = (
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.Try,
    ast.With,
    ast.AsyncWith,
)


class Block:
    """A basic block: straight-line statements plus successor edges."""

    __slots__ = ("bid", "label", "stmts", "succs", "preds")

    def __init__(self, bid: int, label: str) -> None:
        self.bid = bid
        self.label = label
        self.stmts: list[ast.stmt] = []
        self.succs: list[Block] = []
        self.preds: list[Block] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Block {self.bid} {self.label!r} stmts={len(self.stmts)}>"


class CFG:
    """Control-flow graph of one function.

    ``entry`` holds no statements; ``exit`` collects every ``return``,
    ``raise`` and fall-off-the-end edge.  ``block_of`` maps each statement
    node to the block that evaluates it (its header, for compound nodes).
    """

    def __init__(self, func: ast.AST) -> None:
        self.func = func
        self.blocks: list[Block] = []
        self.entry = self.new_block("entry")
        self.exit = self.new_block("exit")
        self.block_of: dict[ast.stmt, Block] = {}

    def new_block(self, label: str) -> Block:
        b = Block(len(self.blocks), label)
        self.blocks.append(b)
        return b

    def add_edge(self, src: Block, dst: Block) -> None:
        if dst not in src.succs:
            src.succs.append(dst)
            dst.preds.append(src)

    # ------------------------------------------------------------------ #
    # analysis helpers
    # ------------------------------------------------------------------ #
    def rpo(self) -> list[Block]:
        """Blocks in reverse post-order from the entry (unreachable last)."""
        seen: set[int] = set()
        order: list[Block] = []

        def dfs(b: Block) -> None:
            seen.add(b.bid)
            for s in b.succs:
                if s.bid not in seen:
                    dfs(s)
            order.append(b)

        dfs(self.entry)
        post = list(reversed(order))
        post.extend(b for b in self.blocks if b.bid not in seen)
        return post

    def dominators(self) -> dict[int, set[int]]:
        """Block id -> ids of blocks that dominate it (including itself).

        Classic iterative dataflow; unreachable blocks dominate nothing
        and are dominated by everything (vacuous paths)."""
        reachable = {b.bid for b in self.rpo() if b is self.entry or b.preds}
        all_ids = set(range(len(self.blocks)))
        dom: dict[int, set[int]] = {b.bid: set(all_ids) for b in self.blocks}
        dom[self.entry.bid] = {self.entry.bid}
        changed = True
        while changed:
            changed = False
            for b in self.rpo():
                if b is self.entry:
                    continue
                preds = [p for p in b.preds if p.bid in reachable]
                if not preds:
                    continue
                new = set.intersection(*(dom[p.bid] for p in preds))
                new.add(b.bid)
                if new != dom[b.bid]:
                    dom[b.bid] = new
                    changed = True
        return dom

    def dominates(
        self, dom: dict[int, set[int]], a: Block, b: Block
    ) -> bool:
        return a.bid in dom[b.bid]


def header_exprs(stmt: ast.stmt) -> Iterator[ast.expr]:
    """Expressions a statement evaluates in its *own* block.

    For simple statements this is every sub-expression; for compound
    statements only the header (test, iterable, context items)."""
    if isinstance(stmt, ast.If) or isinstance(stmt, ast.While):
        yield stmt.test
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield stmt.iter
        yield stmt.target
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            yield item.context_expr
            if item.optional_vars is not None:
                yield item.optional_vars
    elif isinstance(stmt, ast.Try):
        return
    else:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                yield child


class _Builder:
    def __init__(self, func: ast.AST) -> None:
        self.cfg = CFG(func)
        # (continue_target, break_target) per enclosing loop
        self.loops: list[tuple[Block, Block]] = []
        # handler-entry blocks of enclosing try statements; every block
        # built under a try body is wired to these afterwards
        self.handler_stack: list[list[Block]] = []

    # ------------------------------------------------------------------ #
    def build(self) -> CFG:
        cur = self.cfg.new_block("body")
        self.cfg.add_edge(self.cfg.entry, cur)
        end = self.stmts(self.cfg.func.body, cur)
        if end is not None:
            self.cfg.add_edge(end, self.cfg.exit)
        return self.cfg

    def record(self, stmt: ast.stmt, block: Block) -> None:
        block.stmts.append(stmt)
        self.cfg.block_of[stmt] = block

    def stmts(self, body: list[ast.stmt], cur: Block | None) -> Block | None:
        """Thread ``body`` through blocks; ``None`` means flow terminated."""
        for s in body:
            if cur is None:
                cur = self.cfg.new_block("unreachable")
            cur = self.stmt(s, cur)
        return cur

    # ------------------------------------------------------------------ #
    def stmt(self, s: ast.stmt, cur: Block) -> Block | None:
        cfg = self.cfg
        # any statement evaluated under a try body may transfer to handlers
        for handlers in self.handler_stack:
            for h in handlers:
                cfg.add_edge(cur, h)

        if isinstance(s, ast.If):
            self.record(s, cur)
            after = cfg.new_block("if.after")
            then = cfg.new_block("if.then")
            cfg.add_edge(cur, then)
            then_end = self.stmts(s.body, then)
            if then_end is not None:
                cfg.add_edge(then_end, after)
            if s.orelse:
                els = cfg.new_block("if.else")
                cfg.add_edge(cur, els)
                els_end = self.stmts(s.orelse, els)
                if els_end is not None:
                    cfg.add_edge(els_end, after)
            else:
                cfg.add_edge(cur, after)
            return after if after.preds else None

        if isinstance(s, (ast.While, ast.For, ast.AsyncFor)):
            header = cfg.new_block("loop.header")
            cfg.add_edge(cur, header)
            self.record(s, header)
            after = cfg.new_block("loop.after")
            body = cfg.new_block("loop.body")
            cfg.add_edge(header, body)
            self.loops.append((header, after))
            body_end = self.stmts(s.body, body)
            self.loops.pop()
            if body_end is not None:
                cfg.add_edge(body_end, header)
            if s.orelse:
                els = cfg.new_block("loop.else")
                cfg.add_edge(header, els)
                els_end = self.stmts(s.orelse, els)
                if els_end is not None:
                    cfg.add_edge(els_end, after)
            else:
                cfg.add_edge(header, after)
            return after

        if isinstance(s, ast.Try):
            self.record(s, cur)
            body = cfg.new_block("try.body")
            cfg.add_edge(cur, body)
            handler_entries = [
                cfg.new_block(f"except.{i}") for i in range(len(s.handlers))
            ]
            after = cfg.new_block("try.after")
            self.handler_stack.append(handler_entries)
            body_end = self.stmts(s.body, body)
            self.handler_stack.pop()
            if s.orelse:  # runs only when the body raised nothing
                body_end = self.stmts(s.orelse, body_end)
            ends: list[Block] = []
            if body_end is not None:
                ends.append(body_end)
            for h_entry, handler in zip(handler_entries, s.handlers):
                h_end = self.stmts(handler.body, h_entry)
                if h_end is not None:
                    ends.append(h_end)
                # a handler may re-raise past us
                cfg.add_edge(h_entry, cfg.exit)
            if s.finalbody:
                fin = cfg.new_block("finally")
                for e in ends:
                    cfg.add_edge(e, fin)
                # the exceptional path also runs finally before unwinding
                if not handler_entries:
                    cfg.add_edge(body, fin)
                fin_end = self.stmts(s.finalbody, fin)
                if fin_end is None:
                    return None
                cfg.add_edge(fin_end, after)
            else:
                for e in ends:
                    cfg.add_edge(e, after)
            return after if after.preds else None

        if isinstance(s, (ast.With, ast.AsyncWith)):
            self.record(s, cur)
            return self.stmts(s.body, cur)

        if isinstance(s, ast.Return):
            self.record(s, cur)
            cfg.add_edge(cur, cfg.exit)
            return None

        if isinstance(s, ast.Raise):
            self.record(s, cur)
            cfg.add_edge(cur, cfg.exit)
            return None

        if isinstance(s, ast.Break):
            self.record(s, cur)
            if self.loops:
                cfg.add_edge(cur, self.loops[-1][1])
            return None

        if isinstance(s, ast.Continue):
            self.record(s, cur)
            if self.loops:
                cfg.add_edge(cur, self.loops[-1][0])
            return None

        if isinstance(s, ast.Match):
            self.record(s, cur)
            after = cfg.new_block("match.after")
            for i, case in enumerate(s.cases):
                arm = cfg.new_block(f"match.{i}")
                cfg.add_edge(cur, arm)
                arm_end = self.stmts(case.body, arm)
                if arm_end is not None:
                    cfg.add_edge(arm_end, after)
            cfg.add_edge(cur, after)  # no case may match
            return after

        self.record(s, cur)
        return cur


def build_cfg(func: ast.AST) -> CFG:
    """CFG of one ``FunctionDef`` / ``AsyncFunctionDef``."""
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise TypeError(f"build_cfg wants a function node, got {type(func)}")
    return _Builder(func).build()
