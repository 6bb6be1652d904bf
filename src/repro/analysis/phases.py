"""Pass 4: phase/span discipline (PH001-PH003).

The observability stack -- per-phase memory peaks, regression attribution,
the run database -- keys everything on phase names.  A span that invents a
new spelling silently falls out of every report, and a span entered by hand
(``__enter__`` / ``__exit__``) breaks the tracker's phase stack on the
error path.  This pass pins both down statically:

* ``PH001`` (error) -- a ``tracker.phase`` / ``ctx.phase`` / tracer
  ``span`` name that does not normalize (via
  :func:`~repro.obs.tracer.normalize_phase`) to a member of
  :data:`~repro.obs.tracer.KNOWN_PHASES`.
* ``PH002`` (error) -- a span/phase call not used directly as a context
  manager (assigned, entered manually, passed around).
* ``PH003`` (warning) -- a span/phase name the analyzer cannot resolve to
  literals (dynamic name), so PH001 cannot be checked.

PH002 makes every manually-managed span an error, so no flow analysis of
``__enter__`` / ``__exit__`` paths is needed: a span that is not a
``with`` item is already reported wherever it could leak.

Name resolution folds constants through one level of locals: plain string
assignments, two-armed literal conditionals (``a if c else b``) and
f-strings over those.  An unresolvable f-string hole directly after a
``...round`` / ``...level`` prefix is treated as a counter and checked with
``0`` substituted, since :func:`normalize_phase` strips those suffixes
anyway.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, Module, terminal_name
from repro.obs.tracer import KNOWN_PHASES, normalize_phase

PASS_ID = "phase-discipline"

#: the files that *implement* spans, phases and their context managers
EXCLUDE = (
    "repro/obs/",
    "repro/memory/tracker.py",
    "repro/core/context.py",
    "repro/analysis/",
)


def _literal_env(mod: Module, fn: ast.AST | None) -> dict[str, set[str]]:
    """Names assigned only string literals (or literal conditionals) in
    scope, mapped to their possible values."""
    env: dict[str, set[str]] = {}
    roots = [mod.tree] if fn is None else [mod.tree, fn]
    seen_assign: dict[str, int] = {}
    for root in roots:
        for node in ast.walk(root):
            if not isinstance(node, ast.Assign):
                continue
            if root is mod.tree and mod.enclosing_function(node) is not None:
                continue  # function locals are out of module scope
            if root is fn and mod.enclosing_function(node) is not fn:
                continue  # nested functions' locals are out of fn scope
            for t in node.targets:
                if not isinstance(t, ast.Name):
                    continue
                vals = _literal_values(node.value)
                seen_assign[t.id] = seen_assign.get(t.id, 0) + 1
                if vals is None or seen_assign[t.id] > 1:
                    env.pop(t.id, None)  # reassigned or non-literal: unknown
                else:
                    env[t.id] = vals
    return env


def _literal_values(node: ast.AST) -> set[str] | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        a = _literal_values(node.body)
        b = _literal_values(node.orelse)
        if a is not None and b is not None:
            return a | b
    return None


def _resolve_name(
    node: ast.AST, env: dict[str, set[str]]
) -> set[str] | None:
    """Possible values of a span-name expression; None = unresolvable."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.IfExp):
        return _literal_values(node)
    if isinstance(node, ast.JoinedStr):
        candidates = {""}
        for part in node.values:
            if isinstance(part, ast.Constant):
                candidates = {c + str(part.value) for c in candidates}
                continue
            if isinstance(part, ast.FormattedValue):
                sub = None
                if isinstance(part.value, ast.Name):
                    sub = env.get(part.value.id)
                if sub is None:
                    # a counter hole after "...round"/"...level" is benign:
                    # normalize_phase strips the whole suffix
                    if all(
                        c.endswith("round") or c.endswith("level")
                        for c in candidates
                    ):
                        sub = {"0"}
                    else:
                        return None
                candidates = {c + s for c in candidates for s in sub}
        return candidates
    return None


def _is_span_site(node: ast.Call) -> str | None:
    """Return "span" / "phase" when ``node`` is a tracing call site."""
    if not isinstance(node.func, ast.Attribute):
        return None
    attr = node.func.attr
    recv = terminal_name(node.func) or ""
    if attr == "span" and "tracer" in recv:
        return "span"
    if attr == "phase" and (
        recv in ("ctx", "tracker") or "tracker" in recv or "tracer" in recv
    ):
        # "tracer" receivers cover the distributed driver, which threads its
        # ClusterObserver (one span mirrored onto every rank's SpanTracer)
        # under that name; ctx wraps the shared-memory tracer
        return "phase"
    return None


def run(mod: Module) -> list[Finding]:
    if any(mod.rel.startswith(p) for p in EXCLUDE):
        return []
    findings: list[Finding] = []
    span_vars: set[str] = set()  # names assigned from span/phase calls

    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _is_span_site(node.value):
                span_vars.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
        if not isinstance(node, ast.Call):
            continue

        # manual __enter__ on a stored span: PH002
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "__enter__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in span_vars
        ):
            findings.append(
                Finding(
                    PASS_ID,
                    "PH002",
                    "error",
                    mod.rel,
                    node.lineno,
                    f"span {node.func.value.id!r} entered manually; use a "
                    "with-block so the phase stack unwinds on errors",
                    subject=f"{mod.qualname(node)}:__enter__",
                )
            )
            continue

        kind = _is_span_site(node)
        if kind is None:
            continue

        if not isinstance(mod.parent(node), ast.withitem):
            findings.append(
                Finding(
                    PASS_ID,
                    "PH002",
                    "error",
                    mod.rel,
                    node.lineno,
                    f"{kind}() call is not the context expression of a "
                    "with-block; spans must be scope-bound",
                    subject=f"{mod.qualname(node)}:{kind}",
                )
            )

        if not node.args:
            continue
        env = _literal_env(mod, mod.enclosing_function(node))
        names = _resolve_name(node.args[0], env)
        if names is None:
            findings.append(
                Finding(
                    PASS_ID,
                    "PH003",
                    "warning",
                    mod.rel,
                    node.lineno,
                    f"{kind} name is dynamic; the analyzer cannot check it "
                    "against KNOWN_PHASES",
                    subject=f"{mod.qualname(node)}:{kind}:<dynamic>",
                )
            )
            continue
        for name in sorted(names):
            norm = normalize_phase(name)
            if norm not in KNOWN_PHASES:
                findings.append(
                    Finding(
                        PASS_ID,
                        "PH001",
                        "error",
                        mod.rel,
                        node.lineno,
                        f"{kind} name {name!r} normalizes to {norm!r}, "
                        "which is not in repro.obs.tracer.KNOWN_PHASES",
                        subject=norm,
                    )
                )
    return findings
