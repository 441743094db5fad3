"""The rule catalog: the codebase's hard invariants as named checks.

Four families, lettered after the invariants they defend (see
``docs/LINTING.md`` for the full rationale):

* **D -- determinism.** Results must be a pure function of
  configuration, never of ambient process state.

  - ``D101`` ambient RNG: calls into ``np.random.*`` / the stdlib
    ``random`` module outside the blessed stream module
    (``repro/utils/rng.py``). All randomness routes through
    ``counter_rng`` / ``counter_uniforms`` (coordinate-keyed streams)
    or ``new_rng``/``fork_rng`` (explicitly seeded sequential streams).
  - ``D102`` wall-clock reads: ``time.time``/``perf_counter``/
    ``datetime.now`` & friends outside the blessed measurement module
    (``repro/utils/timing.py``).
    ``time.monotonic`` is deliberately allowed: the codebase uses it
    only for deadline/timeout arithmetic, which bounds *when* work
    stops, never *what* it computes.

* **P -- cross-process safety.** A worker process must see exactly the
  state the parent shipped it.

  - ``P101`` ambient environment reads: ``os.environ``/``os.getenv``
    reads outside the per-layer ``config.py`` modules. Environment
    *writes* are allowed -- they are the documented parent-side
    mechanism for scoping knobs to worker processes.
  - ``P102`` mutable module state in worker-executed code: a
    module-level binding that is mutated (or rebound via ``global``)
    from function scope, in a module reachable from a pool-worker entry
    point (see :mod:`repro.analysis.callgraph`). Intentional
    per-process caches carry a pragma documenting their cross-process
    story.

* **E -- typed-error discipline.** Failures crossing the pool boundary
  must be typed :class:`~repro.errors.ReproError` values, never
  swallowed.

  - ``E101`` swallowed broad except: a bare/``Exception``/
    ``BaseException`` handler whose body cannot re-raise, inside
    ``parallel/``, ``serving/`` or ``faults/``.
  - ``E102`` untyped raise: raising a builtin exception type in those
    same subsystems.

* **R -- registry drift.** The configuration surface has one source of
  truth (:mod:`repro.analysis.registry`).

  - ``R101`` unregistered ``REPRO_*`` token;
  - ``R102`` unregistered CLI long flag in an ``add_argument`` call;
  - ``R103`` stale registry entry (variable registered but gone from
    the scanned tree; only checked when the registry module itself is
    in scope, i.e. on whole-tree runs).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import registry
from repro.analysis.findings import Finding

# --------------------------------------------------------------------
# Rule metadata
# --------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """One named invariant check."""

    id: str
    name: str
    summary: str


RULES: Tuple[Rule, ...] = (
    Rule("D101", "ambient-rng",
         "np.random.* / stdlib random outside repro/utils/rng.py; route "
         "randomness through counter_rng/counter_uniforms or new_rng"),
    Rule("D102", "wall-clock",
         "time.time/perf_counter/datetime.now outside the blessed "
         "measurement module (utils/timing.py)"),
    Rule("P101", "ambient-env",
         "os.environ / os.getenv read outside a layer config.py module"),
    Rule("P102", "worker-mutable-state",
         "module-level state mutated from function scope in a "
         "worker-reachable module"),
    Rule("E101", "swallowed-except",
         "bare/broad except that cannot re-raise, in parallel/, "
         "serving/ or faults/"),
    Rule("E102", "untyped-raise",
         "builtin exception raised in parallel/, serving/ or faults/; "
         "raise a ReproError subtype"),
    Rule("R101", "unregistered-env",
         "REPRO_* token missing from analysis/registry.py"),
    Rule("R102", "unregistered-flag",
         "CLI long flag missing from analysis/registry.py"),
    Rule("R103", "stale-registry",
         "registered REPRO_* variable no longer present in the tree"),
    Rule("X100", "syntax-error",
         "file does not parse; emitted unconditionally (a file that "
         "cannot be parsed cannot be checked or pragma'd)"),
    Rule("X101", "unjustified-pragma",
         "lint-ok pragma without a justification; the workflow requires "
         "the why next to the what"),
)

RULE_IDS: Tuple[str, ...] = tuple(rule.id for rule in RULES)


# --------------------------------------------------------------------
# Blessed locations (path suffixes, '/'-separated)
# --------------------------------------------------------------------

#: The only module that may touch ambient RNG constructors: it is where
#: seeds are canonicalised and counter streams are keyed.
RNG_BLESSED_SUFFIXES = ("repro/utils/rng.py",)

#: Modules whose purpose *is* wall-clock measurement.
CLOCK_BLESSED_SUFFIXES = ("repro/utils/timing.py",)

#: Environment reads are legal only in per-layer config modules.
ENV_BLESSED_BASENAME = "config.py"

#: Subsystems under typed-error discipline (results cross the pool
#: boundary or the serving API).
TYPED_ERROR_DIR_PARTS = ("parallel", "serving", "faults")

#: Builtin exception types that must not cross the pool boundary raw.
BUILTIN_EXCEPTIONS = frozenset({
    "Exception", "BaseException", "ValueError", "TypeError",
    "RuntimeError", "KeyError", "IndexError", "AttributeError",
    "OSError", "IOError", "LookupError", "ArithmeticError",
    "ZeroDivisionError", "OverflowError", "StopIteration",
    "NotImplementedError", "AssertionError", "TimeoutError",
    "MemoryError", "EOFError", "FileNotFoundError", "PermissionError",
    "InterruptedError", "BrokenPipeError", "ConnectionError",
})

#: time-module attributes whose reads leak wall-clock into results.
#: ``monotonic``/``monotonic_ns`` are excluded by design (deadline
#: arithmetic only -- they bound *when* work stops, not what it computes).
CLOCK_ATTRS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns", "clock_gettime",
})

DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: Mutating method names that turn a module-level container into state.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popleft",
    "appendleft", "clear", "update", "setdefault", "add", "discard",
    "__setitem__", "sort", "reverse",
})

_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                             "BoundedSemaphore", "Event", "local"})


# --------------------------------------------------------------------
# Per-file context
# --------------------------------------------------------------------


class FileContext:
    """Parsed source plus the name/alias tables the rules share."""

    def __init__(self, relpath: str, source: str, module_name: str) -> None:
        self.relpath = relpath.replace("\\", "/")
        self.source = source
        self.module_name = module_name
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=relpath)
        # local name -> imported module ("np" -> "numpy")
        self.module_aliases: Dict[str, str] = {}
        # local name -> (module, original name) for from-imports
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[
                        alias.asname or alias.name.split(".")[0]
                    ] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.level == 0:
                    for alias in node.names:
                        self.from_imports[alias.asname or alias.name] = (
                            node.module, alias.name
                        )

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: str, node_or_line, message: str) -> Finding:
        line = (
            node_or_line
            if isinstance(node_or_line, int)
            else node_or_line.lineno
        )
        return Finding(
            rule=rule,
            path=self.relpath,
            line=line,
            message=message,
            snippet=self.snippet(line),
        )

    # -- helpers shared by several rules ------------------------------

    def path_endswith(self, suffixes: Sequence[str]) -> bool:
        return any(self.relpath.endswith(suffix) for suffix in suffixes)

    def in_typed_error_dirs(self) -> bool:
        parts = self.relpath.split("/")
        return any(part in TYPED_ERROR_DIR_PARTS for part in parts[:-1])

    def resolves_to_module(self, node: ast.expr, module: str) -> bool:
        """Whether ``node`` names ``module`` through the file's imports."""
        if isinstance(node, ast.Name):
            return self.module_aliases.get(node.id) == module
        if isinstance(node, ast.Attribute):
            # e.g. numpy.random reached as an attribute of numpy
            base = self.attribute_chain(node)
            return base == module
        return False

    def attribute_chain(self, node: ast.expr) -> Optional[str]:
        """Dotted name of an attribute chain rooted at a Name, resolved
        through import aliases (``np.random.rand`` -> ``numpy.random.rand``);
        None for computed roots."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in self.module_aliases:
            root = self.module_aliases[root]
        elif root in self.from_imports:
            module, original = self.from_imports[root]
            root = f"{module}.{original}"
        parts.append(root)
        return ".".join(reversed(parts))


# --------------------------------------------------------------------
# D101 -- ambient RNG
# --------------------------------------------------------------------


def check_ambient_rng(ctx: FileContext) -> List[Finding]:
    if ctx.path_endswith(RNG_BLESSED_SUFFIXES):
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "random" or node.module.startswith(
                ("numpy.random", "random.")
            ):
                findings.append(ctx.finding(
                    "D101", node,
                    f"import from ambient RNG module {node.module!r}; "
                    "route randomness through repro.utils.rng",
                ))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith(
                    ("numpy.random", "random.")
                ):
                    findings.append(ctx.finding(
                        "D101", node,
                        f"import of ambient RNG module {alias.name!r}; "
                        "route randomness through repro.utils.rng",
                    ))
        elif isinstance(node, ast.Call):
            chain = ctx.attribute_chain(node.func)
            if chain and (
                chain.startswith("numpy.random.")
                or chain.startswith("random.")
            ):
                findings.append(ctx.finding(
                    "D101", node,
                    f"ambient RNG call {chain}(); use "
                    "repro.utils.rng (counter_rng/counter_uniforms for "
                    "coordinate-keyed draws, new_rng for seeded streams)",
                ))
    return findings


# --------------------------------------------------------------------
# D102 -- wall-clock reads
# --------------------------------------------------------------------


def check_wall_clock(ctx: FileContext) -> List[Finding]:
    if ctx.path_endswith(CLOCK_BLESSED_SUFFIXES):
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            bad = [a.name for a in node.names if a.name in CLOCK_ATTRS]
            if bad:
                findings.append(ctx.finding(
                    "D102", node,
                    f"imports wall-clock reader(s) {', '.join(bad)} from "
                    "time; only blessed measurement modules may read the "
                    "clock (time.monotonic deadline arithmetic is exempt)",
                ))
        elif isinstance(node, ast.Call):
            chain = ctx.attribute_chain(node.func)
            if chain is None:
                continue
            if chain.startswith("time.") and chain.split(".", 1)[1] in CLOCK_ATTRS:
                findings.append(ctx.finding(
                    "D102", node,
                    f"wall-clock read {chain}(); results must not depend "
                    "on the clock -- measure inside utils/timing.py, "
                    "or pragma with a justification",
                ))
            elif (
                chain.startswith("datetime.")
                and chain.rsplit(".", 1)[-1] in DATETIME_ATTRS
            ):
                findings.append(ctx.finding(
                    "D102", node,
                    f"wall-clock read {chain}(); results must not depend "
                    "on the calendar clock",
                ))
    return findings


# --------------------------------------------------------------------
# P101 -- ambient environment reads
# --------------------------------------------------------------------


def _is_environ(ctx: FileContext, node: ast.expr) -> bool:
    chain = ctx.attribute_chain(node)
    return chain in ("os.environ",)


def check_ambient_env(ctx: FileContext) -> List[Finding]:
    if ctx.relpath.rsplit("/", 1)[-1] == ENV_BLESSED_BASENAME:
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            chain = ctx.attribute_chain(node.func)
            if chain == "os.getenv":
                findings.append(ctx.finding(
                    "P101", node,
                    "ambient os.getenv read; resolve through the layer's "
                    "config.py so parent and workers agree on precedence",
                ))
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "setdefault", "pop")
                and _is_environ(ctx, node.func.value)
            ):
                findings.append(ctx.finding(
                    "P101", node,
                    f"ambient os.environ.{node.func.attr} read; resolve "
                    "through the layer's config.py module",
                ))
        elif isinstance(node, ast.Subscript):
            if isinstance(node.ctx, ast.Load) and _is_environ(ctx, node.value):
                findings.append(ctx.finding(
                    "P101", node,
                    "ambient os.environ[...] read; resolve through the "
                    "layer's config.py module (writes are the documented "
                    "parent-side scoping mechanism and stay legal)",
                ))
    return findings


# --------------------------------------------------------------------
# P102 -- mutable module state in worker-reachable modules
# --------------------------------------------------------------------


def _module_level_bindings(tree: ast.Module) -> Dict[str, int]:
    """Module-level ``name -> lineno`` for simple assignments."""
    bindings: Dict[str, int] = {}
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                bindings.setdefault(target.id, node.lineno)
    return bindings


def _iter_scope(body) -> "List[ast.AST]":
    """Every node of one scope, *not* descending into nested function
    (or lambda) bodies -- those are separate scopes with their own pass."""
    out: List[ast.AST] = []
    stack = list(body)
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return out


def _local_names(func: ast.AST) -> Set[str]:
    """Parameter and locally bound names of one function body (nested
    function bodies excluded -- they get their own scope pass)."""
    names: Set[str] = set()
    args = func.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        names.add(arg.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in _iter_scope(func.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _function_scope_mutations(tree: ast.Module) -> Dict[str, List[int]]:
    """Names mutated or globally rebound inside function bodies.

    A name the function binds locally (parameter or plain assignment)
    shadows the module binding, so mutating it is not module state --
    unless a ``global`` statement says otherwise.
    """
    mutated: Dict[str, List[int]] = {}

    def note(name: str, line: int) -> None:
        mutated.setdefault(name, []).append(line)

    def scan_function(func: ast.AST) -> None:
        scope = _iter_scope(func.body)
        declared_global: Set[str] = set()
        for node in scope:
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        locals_here = _local_names(func) - declared_global
        for name in declared_global:
            note(name, func.lineno)

        def hits_module(name: str) -> bool:
            return name not in locals_here

        for node in scope:
            if (
                isinstance(node, (ast.Subscript, ast.Attribute))
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name)
                and hits_module(node.value.id)
            ):
                note(node.value.id, node.lineno)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
                and hits_module(node.func.value.id)
            ):
                note(node.func.value.id, node.func.value.lineno)

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan_function(node)
    return mutated


def _is_lock_binding(tree: ast.Module, name: str) -> bool:
    """Synchronisation primitives are coordination, not data state."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            value = node.value
            if isinstance(value, ast.Call):
                func = value.func
                attr = (
                    func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None
                )
                return attr in _LOCK_FACTORIES
    return False


def check_worker_mutable_state(
    ctx: FileContext, worker_reachable: bool
) -> List[Finding]:
    if not worker_reachable:
        return []
    findings: List[Finding] = []
    bindings = _module_level_bindings(ctx.tree)
    mutations = _function_scope_mutations(ctx.tree)
    for name, lines in sorted(mutations.items()):
        if name not in bindings:
            continue
        if name.startswith("__"):  # __all__ etc. are never touched at run time
            continue
        if _is_lock_binding(ctx.tree, name):
            continue
        line = bindings[name]
        findings.append(ctx.finding(
            "P102", line,
            f"module-level state {name!r} is mutated from function scope "
            f"(line{'s' if len(lines) > 1 else ''} "
            f"{', '.join(str(l) for l in sorted(set(lines))[:4])}) in a "
            "worker-reachable module; per-process caches/counters need a "
            "pragma documenting their cross-process story",
        ))
    return findings


# --------------------------------------------------------------------
# E101 / E102 -- typed-error discipline
# --------------------------------------------------------------------


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True

    def broad(node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in (
            "Exception", "BaseException"
        )

    if isinstance(handler.type, ast.Tuple):
        return any(broad(el) for el in handler.type.elts)
    return broad(handler.type)


def check_swallowed_except(ctx: FileContext) -> List[Finding]:
    if not ctx.in_typed_error_dirs():
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad_handler(node):
            continue
        if any(isinstance(sub, ast.Raise) for body in node.body
               for sub in ast.walk(body)):
            continue
        findings.append(ctx.finding(
            "E101", node,
            "broad except swallows the error in a pool/serving subsystem; "
            "catch typed ReproError subtypes, re-raise, or pragma with the "
            "containment justification",
        ))
    return findings


def check_untyped_raise(ctx: FileContext) -> List[Finding]:
    if not ctx.in_typed_error_dirs():
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name) and exc.id in BUILTIN_EXCEPTIONS:
            findings.append(ctx.finding(
                "E102", node,
                f"raises builtin {exc.id} across the pool/serving "
                "boundary; raise a ReproError subtype from repro.errors "
                "so callers can catch the package's failures as one family",
            ))
    return findings


# --------------------------------------------------------------------
# R101 / R102 / R103 -- registry drift
# --------------------------------------------------------------------

_REGISTRY_SUFFIX = "repro/analysis/registry.py"


def check_env_registration(ctx: FileContext) -> List[Finding]:
    if ctx.relpath.endswith(_REGISTRY_SUFFIX):
        return []
    findings: List[Finding] = []
    for number, line in enumerate(ctx.lines, start=1):
        for token in sorted(registry.scan_env_tokens_in_text(line)):
            if not registry.is_registered_env_token(token):
                findings.append(ctx.finding(
                    "R101", number,
                    f"{token} is not registered in "
                    "repro/analysis/registry.py; every REPRO_* variable "
                    "must be declared there (docs and parsers consume it)",
                ))
    return findings


def check_flag_registration(ctx: FileContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            and node.args
        ):
            continue
        first = node.args[0]
        if (
            isinstance(first, ast.Constant)
            and isinstance(first.value, str)
            and first.value.startswith("--")
            and first.value not in registry.registered_flag_names()
        ):
            findings.append(ctx.finding(
                "R102", node,
                f"CLI flag {first.value!r} is not registered in "
                "repro/analysis/registry.py",
            ))
    return findings


def check_stale_registry(
    contexts: Sequence[FileContext], root: Optional[str]
) -> List[Finding]:
    """R103 -- runs only when the registry module itself is in scope.

    Scans the conventional trees under ``root`` when given (whole-repo
    runs); otherwise falls back to the scanned sources, so partial runs
    that deliberately include the registry still get drift coverage.
    """
    reg_ctx = next(
        (c for c in contexts if c.relpath.endswith(_REGISTRY_SUFFIX)), None
    )
    if reg_ctx is None:
        return []
    if root is not None:
        seen = registry.scan_env_tokens(root)
    else:
        seen = set()
        for ctx in contexts:
            if ctx is not reg_ctx:
                seen |= registry.scan_env_tokens_in_text(ctx.source)
    findings: List[Finding] = []
    for name in sorted(registry.registered_env_names() - seen):
        line = _registry_entry_line(reg_ctx, name)
        findings.append(reg_ctx.finding(
            "R103", line,
            f"{name} is registered but no longer appears in the scanned "
            "tree; delete the stale entry (and its documentation)",
        ))
    return findings


def _registry_entry_line(reg_ctx: FileContext, name: str) -> int:
    pattern = re.compile(rf'"{re.escape(name)}"')
    for number, line in enumerate(reg_ctx.lines, start=1):
        if pattern.search(line):
            return number
    return 1


# --------------------------------------------------------------------
# Dispatch table consumed by the engine
# --------------------------------------------------------------------

#: rule id -> per-file checker. P102 and R103 need cross-file state and
#: are dispatched specially by the engine.
PER_FILE_CHECKS: Dict[str, Callable[[FileContext], List[Finding]]] = {
    "D101": check_ambient_rng,
    "D102": check_wall_clock,
    "P101": check_ambient_env,
    "E101": check_swallowed_except,
    "E102": check_untyped_raise,
    "R101": check_env_registration,
    "R102": check_flag_registration,
}


def known_rule_ids() -> Set[str]:
    return set(RULE_IDS)
