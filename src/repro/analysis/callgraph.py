"""Worker-reachability: which modules execute inside pool workers.

Rule P102 (mutable module state in worker-executed code) needs to know
which modules a pool worker can run. That set is derived statically, in
two steps:

1. **Roots.** Every call to ``run_tasks(...)`` ships its first
   argument (and its ``initializer=`` keyword, when present) to worker
   processes. Each such callable is resolved through the calling
   module's imports and local definitions to the module that *defines*
   it -- those defining modules are the worker entry modules. The
   executor module itself (wherever ``run_tasks`` is *defined*) is also
   a root: its bootstrap/injection code runs in every worker.

2. **Closure.** Anything a worker entry module imports -- at module
   level or lazily inside a function, since workers resolve both -- is
   reachable too, transitively, restricted to modules inside the
   scanned tree.

The result deliberately over-approximates (a worker that imports a
module can call anything in it); under-approximation is what this rule
exists to prevent.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: Callables whose arguments are shipped to worker processes.
EXECUTOR_NAMES = ("run_tasks",)

#: Keyword arguments of those executors that also carry worker-executed
#: callables.
EXECUTOR_CALLABLE_KWARGS = ("initializer",)


def _called_name(func: ast.expr) -> Optional[str]:
    """The trailing identifier of a call target (``pool.run_tasks`` ->
    ``run_tasks``), or None for computed targets."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _ModuleIndex(ast.NodeVisitor):
    """Per-module facts the reachability pass needs."""

    def __init__(self) -> None:
        self.imported_modules: Set[str] = set()  # absolute dotted names
        self.import_aliases: Dict[str, str] = {}  # local name -> module
        self.from_imports: Dict[str, Tuple[str, str]] = {}  # name -> (module, orig)
        self.defined: Set[str] = set()
        self.shipped_callables: List[ast.expr] = []

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.imported_modules.add(alias.name)
            self.import_aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            self.imported_modules.add(node.module)
            for alias in node.names:
                # ``from repro.parallel import shard`` imports the
                # *module* repro.parallel.shard; record the candidate --
                # the closure keeps it only if it names a scanned module.
                self.imported_modules.add(f"{node.module}.{alias.name}")
                self.from_imports[alias.asname or alias.name] = (
                    node.module,
                    alias.name,
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.defined.add(node.name)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.defined.add(node.name)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.defined.add(node.name)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _called_name(node.func) in EXECUTOR_NAMES:
            if node.args:
                self.shipped_callables.append(node.args[0])
            for keyword in node.keywords:
                if keyword.arg in EXECUTOR_CALLABLE_KWARGS:
                    self.shipped_callables.append(keyword.value)
        self.generic_visit(node)


def index_module(tree: ast.AST) -> _ModuleIndex:
    index = _ModuleIndex()
    index.visit(tree)
    return index


def _resolve_callable_module(
    expr: ast.expr, module_name: str, index: _ModuleIndex
) -> Optional[str]:
    """The dotted module that defines a shipped callable, or None."""
    if isinstance(expr, ast.Name):
        if expr.id in index.defined:
            return module_name
        if expr.id in index.from_imports:
            return index.from_imports[expr.id][0]
        return None
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        base = expr.value.id
        if base in index.import_aliases:
            return index.import_aliases[base]
        if base in index.from_imports:
            # ``from repro.parallel import shard; shard._run_shard``
            module, original = index.from_imports[base]
            return f"{module}.{original}"
    return None


def worker_reachable_modules(
    indexed: Dict[str, _ModuleIndex],
) -> Set[str]:
    """Dotted names of modules a pool worker can execute.

    ``indexed`` maps each scanned module's dotted name to its
    :func:`index_module` result; names outside this mapping (stdlib,
    third-party) are ignored.
    """
    roots: Set[str] = set()
    for name, index in indexed.items():
        if any(executor in index.defined for executor in EXECUTOR_NAMES):
            roots.add(name)
        for expr in index.shipped_callables:
            target = _resolve_callable_module(expr, name, index)
            if target is not None and target in indexed:
                roots.add(target)
    reachable: Set[str] = set()
    frontier = [name for name in roots if name in indexed]
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        for imported in indexed[name].imported_modules:
            for candidate in _package_modules(imported, indexed):
                if candidate not in reachable:
                    frontier.append(candidate)
    return reachable


def _package_modules(
    imported: str, indexed: Dict[str, _ModuleIndex]
) -> Iterable[str]:
    """The scanned modules an import of ``imported`` pulls in.

    Importing a package executes its ``__init__``; the candidate names
    recorded by the index cover submodules imported as attributes.
    """
    if imported in indexed:
        yield imported
    init = f"{imported}.__init__"
    if init in indexed:
        yield init
