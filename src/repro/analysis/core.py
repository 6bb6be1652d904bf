"""Shared infrastructure for the ``repro lint`` static passes.

Each pass is a pure function from a parsed :class:`Module` to a list of
:class:`Finding`.  Findings carry enough identity -- pass ID, short code,
repo-relative file, line, and a *subject* (the variable / array / phase the
finding is about) -- for two consumers:

* humans read ``file:line: CODE [pass] message``;
* the suppression baseline matches findings by :func:`fingerprint`
  (pass, file, code, subject), deliberately *without* line numbers, so
  unrelated edits that shift lines do not churn the committed baseline.

Inline suppressions use ``# repro-lint: ignore[<pass-or-code>, ...] --
<reason>`` on the offending line or the line directly above it; the
reason after ``--`` is required on new suppressions (a suppression
without one still works but is reported as a legacy *bare ignore* so the
gate output lists the debt); an id that is neither a pass nor a code
suppresses nothing and is listed as *unknown*.  ``# repro-lint:
skip-file`` anywhere in the first ten lines exempts a whole module.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

#: pass ID -> the finding codes it emits, in report order
PASS_CODES = {
    "parallel-access": ("PA001", "PA002", "PA003", "PA004", "PA005"),
    "untracked-alloc": ("UA001",),
    "int-width": ("IW001", "IW002"),
    "phase-discipline": ("PH001", "PH002", "PH003"),
}
PASS_IDS = tuple(PASS_CODES)

#: every token an ignore[...] may name (lowercased, as parsed)
_KNOWN_IGNORES = frozenset(
    [*PASS_IDS, "all", *(c.lower() for cs in PASS_CODES.values() for c in cs)]
)

#: the lookbehind keeps backtick-quoted doc text (``# repro-lint: ...``)
#: from registering as a real suppression
_SUPPRESS_RE = re.compile(
    r"(?<!`)#\s*repro-lint:\s*ignore\[([^\]]+)\](?:\s*--\s*(\S.*?)\s*$)?"
)
_SKIP_FILE_RE = re.compile(r"#\s*repro-lint:\s*skip-file")


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding."""

    pass_id: str  # one of PASS_IDS
    code: str  # short stable code, e.g. "PA001"
    severity: str  # "error" | "warning"
    file: str  # repo-relative path (see Module.rel)
    line: int
    message: str
    subject: str = ""  # stable identity component (var / array / phase)

    def render(self) -> str:
        return (
            f"{self.file}:{self.line}: {self.code} "
            f"[{self.pass_id}] {self.message}"
        )


def fingerprint(f: Finding) -> str:
    """Line-insensitive identity used by the suppression baseline."""
    return f"{f.pass_id}|{f.file}|{f.code}|{f.subject}"


class Module:
    """A parsed source file plus the lookup helpers the passes share."""

    def __init__(self, path: Path, source: str, rel: str) -> None:
        self.path = path
        self.source = source
        self.rel = rel  # stable repo-relative path used in findings
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        # suppressions: line -> set of pass-ids/codes (lowercased);
        # reasons: line -> the text after "--" (None for legacy bare ignores)
        self.suppressions: dict[int, set[str]] = {}
        self.suppression_reasons: dict[int, str | None] = {}
        self.skip_file = False
        for i, text in enumerate(self.lines, start=1):
            m = _SUPPRESS_RE.search(text)
            if m:
                ids = {t.strip().lower() for t in m.group(1).split(",")}
                self.suppressions[i] = ids
                self.suppression_reasons[i] = m.group(2)
            if i <= 10 and _SKIP_FILE_RE.search(text):
                self.skip_file = True
        # numpy import aliases ("np" for `import numpy as np`)
        self.np_aliases: set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "numpy":
                        self.np_aliases.add(a.asname or "numpy")

    # ------------------------------------------------------------------ #
    # AST helpers
    # ------------------------------------------------------------------ #
    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        """Innermost FunctionDef/AsyncFunctionDef containing ``node``."""
        cur = self._parents.get(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cur
            cur = self._parents.get(cur)
        return None

    def qualname(self, node: ast.AST) -> str:
        """Dotted class/function path of the scope containing ``node``."""
        parts: list[str] = []
        cur: ast.AST | None = node
        while cur is not None:
            if isinstance(
                cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                parts.append(cur.name)
            cur = self._parents.get(cur)
        return ".".join(reversed(parts)) or "<module>"

    def is_np_call(self, node: ast.AST, names: tuple[str, ...]) -> str | None:
        """If ``node`` is ``np.<name>(...)`` with name in ``names``, return it."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self.np_aliases
            and node.func.attr in names
        ):
            return node.func.attr
        return None

    def suppressed(self, f: Finding) -> bool:
        for line in (f.line, f.line - 1):
            ids = self.suppressions.get(line)
            if ids and (
                f.pass_id in ids or f.code.lower() in ids or "all" in ids
            ):
                return True
        return False

    def bare_ignores(self) -> list[int]:
        """Lines of legacy suppressions missing the ``-- <reason>`` text."""
        return sorted(
            line
            for line, reason in self.suppression_reasons.items()
            if reason is None
        )

    def unknown_ignores(self) -> list[tuple[int, list[str]]]:
        """``(line, tokens)`` of suppressions naming no pass or code (a
        typo, or a retired check): they suppress nothing."""
        return [
            (line, sorted(ids - _KNOWN_IGNORES))
            for line, ids in sorted(self.suppressions.items())
            if ids - _KNOWN_IGNORES
        ]


def terminal_name(node: ast.AST) -> str | None:
    """Rightmost-but-one identifier of a call receiver.

    ``runtime.region`` -> "runtime"; ``self.tracer.span`` -> "tracer";
    ``ctx.phase`` -> "ctx".
    """
    if isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def const_str(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def const_int(node: ast.AST) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    return None


def load_module(path: Path, repo_root: Path | None = None) -> Module:
    """Parse ``path``; ``rel`` is anchored at the ``repro`` package when the
    file lives inside one (stable across checkouts and installs)."""
    source = path.read_text()
    parts = path.resolve().parts
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        rel = "/".join(parts[idx:])
    elif repo_root is not None:
        try:
            rel = str(path.resolve().relative_to(repo_root.resolve()))
        except ValueError:
            rel = path.name
    else:
        rel = path.name
    return Module(path, source, rel)


@dataclass
class LintReport:
    """Findings of one lint run, split by baseline status."""

    findings: list[Finding] = field(default_factory=list)  # after suppressions
    new: list[Finding] = field(default_factory=list)  # not covered by baseline
    baselined: int = 0
    suppressed: int = 0
    files_checked: int = 0
    stale_baseline: list[str] = field(default_factory=list)
    # "file:line" of suppressions with no `-- reason` (legacy bare ignores)
    bare_suppressions: list[str] = field(default_factory=list)
    # "file:line [tokens]" of suppressions naming no known pass or code
    unknown_suppressions: list[str] = field(default_factory=list)

    def by_pass(self) -> dict[str, int]:
        out = {p: 0 for p in PASS_IDS}
        for f in self.findings:
            out[f.pass_id] = out.get(f.pass_id, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "total_findings": len(self.findings),
            "new_findings": [f.__dict__ for f in self.new],
            "baselined": self.baselined,
            "suppressed": self.suppressed,
            "by_pass": self.by_pass(),
            "stale_baseline": self.stale_baseline,
            "bare_suppressions": self.bare_suppressions,
            "unknown_suppressions": self.unknown_suppressions,
        }
