"""Pass 1: parallel-access discipline (PA001-PA005).

Kernels that run a parallel region (``with runtime.region(...)``, the
chunks of :meth:`ParallelRuntime.chunk_bounds` inside) must route every
shared-array access through a :class:`~repro.verify.declarations
.SharedAccessRecorder` bound to a declared kernel key.  This pass
cross-references the kernel ASTs against the *same* declaration registry
the dynamic :class:`~repro.verify.conflicts.ConflictDetector` enforces at
runtime (``repro.verify.declarations.KERNELS``), so undeclared accesses are
caught at rest -- on every path, not only the paths a fuzzed schedule
happens to execute.

Codes:

* ``PA001`` (error) -- access recorded on an array the kernel never
  declared.
* ``PA002`` (error) -- access recorded under a synchronization class the
  declaration does not grant (e.g. a plain ``write`` on an array declared
  atomic-only).
* ``PA003`` (error) -- raw subscript store to a kernel-local variable that
  aliases a declared shared array (``AccessDecl.vars``), where its
  declaration grants neither ``write`` nor ``atomic``, or anywhere inside
  the parallel region (whose shared writes the detector hears only through
  the recorder) -- a store bypassing the recorder's discipline entirely.
* ``PA004`` (warning) -- function opens ``with runtime.region(...)`` but
  binds no recorder and records nothing: parallel work with no access
  declarations at all.
* ``PA005`` (error) -- ``recorder_for(..., key)`` with a key missing from
  the registry (warning when the key is not a string literal).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.core import Finding, Module, const_str, terminal_name
from repro.verify.declarations import KERNELS, declared_modes, shared_vars

PASS_ID = "parallel-access"

#: files that implement the recording machinery itself
EXCLUDE = (
    "repro/verify/",
    "repro/parallel/runtime.py",
    "repro/analysis/",
)

_RECORD_MODES = {
    "record_read": "read",
    "record_write": "write",
    "record_atomic": "atomic",
}
_RECORDER_MODES = ("read", "write", "atomic")


@dataclass(frozen=True)
class _Binding:
    scope: ast.AST | None  # enclosing function node, None = module level
    var: str  # recorder variable name
    kernel: str | None  # None when the key is not a literal
    line: int


def _collect_bindings(mod: Module) -> list[_Binding]:
    out: list[_Binding] = []
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Assign) or not isinstance(
            node.value, ast.Call
        ):
            continue
        func = node.value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "recorder_for" or len(node.value.args) < 2:
            continue
        targets = [
            t.id for t in node.targets if isinstance(t, ast.Name)
        ]
        if not targets:
            continue
        out.append(
            _Binding(
                scope=mod.enclosing_function(node),
                var=targets[0],
                kernel=const_str(node.value.args[1]),
                line=node.lineno,
            )
        )
    return out


def _kernel_for(
    mod: Module, node: ast.AST, bindings: list[_Binding]
) -> _Binding | None:
    """Innermost recorder binding visible from ``node``'s scope."""
    fn: ast.AST | None = mod.enclosing_function(node)
    while fn is not None:
        for b in bindings:
            if b.scope is fn:
                return b
        fn = mod.enclosing_function(fn)
    module_level = [b for b in bindings if b.scope is None]
    if module_level:
        return module_level[0]
    # single-kernel module: helpers extracted from the kernel share it
    if len({b.kernel for b in bindings}) == 1 and bindings:
        return bindings[0]
    return None


def _is_region(node: ast.AST) -> bool:
    """``with runtime.region(...)``: the block of a parallel region."""
    return isinstance(node, (ast.With, ast.AsyncWith)) and any(
        isinstance(item.context_expr, ast.Call)
        and isinstance(item.context_expr.func, ast.Attribute)
        and item.context_expr.func.attr == "region"
        for item in node.items
    )


def _in_region(mod: Module, node: ast.AST) -> bool:
    """Whether ``node`` lies in a parallel region of its own function."""
    cur = mod.parent(node)
    while cur is not None and not isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
        if _is_region(cur):
            return True
        cur = mod.parent(cur)
    return False


def _check_access(
    mod: Module,
    node: ast.Call,
    kernel: str,
    array: str,
    mode: str,
    findings: list[Finding],
) -> None:
    modes = declared_modes(kernel).get(array)
    if modes is None:
        findings.append(
            Finding(
                PASS_ID,
                "PA001",
                "error",
                mod.rel,
                node.lineno,
                f"kernel {kernel!r} records {mode} on undeclared array "
                f"{array!r}; declare it in repro.verify.declarations.KERNELS",
                subject=f"{kernel}:{array}:{mode}",
            )
        )
    elif mode not in modes:
        findings.append(
            Finding(
                PASS_ID,
                "PA002",
                "error",
                mod.rel,
                node.lineno,
                f"kernel {kernel!r} records {mode} on {array!r} but its "
                f"declaration only grants {sorted(modes)}",
                subject=f"{kernel}:{array}:{mode}",
            )
        )


def run(mod: Module) -> list[Finding]:
    if any(mod.rel.startswith(p) for p in EXCLUDE):
        return []
    findings: list[Finding] = []
    bindings = _collect_bindings(mod)

    for b in bindings:
        if b.kernel is None:
            findings.append(
                Finding(
                    PASS_ID,
                    "PA005",
                    "warning",
                    mod.rel,
                    b.line,
                    "recorder_for called with a non-literal kernel key; "
                    "the static pass cannot check its accesses",
                    subject=f"{b.var}:<dynamic>",
                )
            )
        elif b.kernel not in KERNELS:
            findings.append(
                Finding(
                    PASS_ID,
                    "PA005",
                    "error",
                    mod.rel,
                    b.line,
                    f"recorder_for bound to unknown kernel key "
                    f"{b.kernel!r}; known: {sorted(KERNELS)}",
                    subject=b.kernel,
                )
            )
    recorder_vars = {b.var for b in bindings}

    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            attr = node.func.attr
            recv = terminal_name(node.func)
            # recorder-mediated access: rec.read/write/atomic("array", ix)
            if (
                attr in _RECORDER_MODES
                and recv in recorder_vars
                and node.args
            ):
                binding = _kernel_for(mod, node, bindings)
                array = const_str(node.args[0])
                if binding and binding.kernel in KERNELS and array:
                    _check_access(
                        mod, node, binding.kernel, array, attr, findings
                    )
            # direct detector access: det.record_write("array", ix)
            elif attr in _RECORD_MODES and node.args:
                binding = _kernel_for(mod, node, bindings)
                array = const_str(node.args[0])
                if binding and binding.kernel in KERNELS and array:
                    _check_access(
                        mod,
                        node,
                        binding.kernel,
                        array,
                        _RECORD_MODES[attr],
                        findings,
                    )

        # PA003: raw subscript store to a declared shared variable
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for t in targets:
                if not (
                    isinstance(t, ast.Subscript)
                    and isinstance(t.value, ast.Name)
                ):
                    continue
                binding = _kernel_for(mod, node, bindings)
                if not binding or binding.kernel not in KERNELS:
                    continue
                aliases = shared_vars(binding.kernel)
                array = aliases.get(t.value.id)
                if array is None:
                    continue
                modes = declared_modes(binding.kernel)[array]
                if "write" not in modes and "atomic" not in modes:
                    why = f"declared {sorted(modes)}-only"
                elif _in_region(mod, node):
                    why = "stored to in the parallel region, not through the recorder,"
                else:
                    continue
                findings.append(
                    Finding(
                        PASS_ID,
                        "PA003",
                        "error",
                        mod.rel,
                        node.lineno,
                        f"raw store to {t.value.id!r} aliases shared "
                        f"array {array!r}, {why} in kernel "
                        f"{binding.kernel!r}",
                        subject=f"{binding.kernel}:{array}:store",
                    )
                )

    # PA004: parallel region in a function with no declarations at all
    for node in ast.walk(mod.tree):
        if not _is_region(node):
            continue
        fn = mod.enclosing_function(node)
        if fn is None:
            continue
        if _kernel_for(mod, node, bindings) is not None:
            continue
        records = any(
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr in _RECORD_MODES
            for n in ast.walk(fn)
        )
        if not records:
            findings.append(
                Finding(
                    PASS_ID,
                    "PA004",
                    "warning",
                    mod.rel,
                    node.lineno,
                    f"{mod.qualname(node)} runs a parallel region without "
                    "binding a SharedAccessRecorder or recording any "
                    "accesses",
                    subject=mod.qualname(node),
                )
            )
    return findings
