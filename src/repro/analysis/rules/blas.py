"""R009 — engine worker entry points apply the BLAS budget.

Every process the engine starts loads its own OpenBLAS, and each one
starts as many threads as the host has cores: ``N`` workers on ``C``
cores run ``N * C`` BLAS threads and slow every GEMM down.  Capping the
parent before ``process.start()`` is not enough — a ``spawn`` child
loads a fresh OpenBLAS — so the cap must run inside the child.  In the
configured packages (``AnalysisConfig.worker_entry_packages``) every
callable passed as ``target=`` to ``Process(...)`` or ``initializer=``
to ``Pool(...)`` (by keyword or in its second positional slot) must
resolve to a function, in the same module or imported from an analysed
one, whose body calls ``limit_blas_threads``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..project import AnalysisConfig, ModuleInfo, ProjectIndex, import_from_base
from ..registry import Rule, register
from ..violations import Violation

#: Process-starting callee -> the keyword naming its entry point.  Both
#: also take the entry point as their second positional argument.
_ENTRY_KEYWORDS = {"Process": "target", "Pool": "initializer"}

_BUDGET_CALL = "limit_blas_threads"


def _callee_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _entry_point(node: ast.Call) -> ast.expr | None:
    keyword = _ENTRY_KEYWORDS.get(_callee_name(node) or "")
    if keyword is None:
        return None
    for item in node.keywords:
        if item.arg == keyword:
            return item.value
    return node.args[1] if len(node.args) > 1 else None


def _top_level_function(module: ModuleInfo, name: str) -> ast.AST | None:
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == name:
            return stmt
    return None


def _resolve(
    expr: ast.expr, module: ModuleInfo, project: ProjectIndex
) -> ast.AST | None:
    """The function definition a bare-name entry point refers to."""
    if not isinstance(expr, ast.Name):
        return None
    local = _top_level_function(module, expr.id)
    if local is not None:
        return local
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        for alias in node.names:
            if (alias.asname or alias.name) != expr.id:
                continue
            base = import_from_base(node, module.name, module.is_package)
            source = project.get(base) if base else None
            if source is not None:
                return _top_level_function(source, alias.name)
    return None


def _calls_budget(function: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call) and _callee_name(node) == _BUDGET_CALL
        for node in ast.walk(function)
    )


@register
class WorkerBlasBudgetRule(Rule):
    code = "R009"
    name = "worker-blas-budget"
    summary = (
        "engine worker entry points (Process target=, Pool initializer=) "
        "must call limit_blas_threads (no BLAS oversubscription)"
    )

    def check_module(
        self,
        module: ModuleInfo,
        project: ProjectIndex,
        config: AnalysisConfig,
    ) -> Iterable[Violation]:
        if not any(
            module.name == package or module.name.startswith(package + ".")
            for package in config.worker_entry_packages
        ):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            entry = _entry_point(node)
            if entry is None:
                continue
            function = _resolve(entry, module, project)
            if function is not None and _calls_budget(function):
                continue
            label = ast.unparse(entry)
            problem = (
                "does not call limit_blas_threads"
                if function is not None
                else "does not resolve to a function in the analysed tree"
            )
            yield Violation(
                self.code,
                module.rel_path,
                node.lineno,
                node.col_offset,
                f"worker entry point {label} {problem}; every engine "
                "process must cap its BLAS threads before scoring",
            )
