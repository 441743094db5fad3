"""Single source of truth for the repo's configuration surface.

Every ``REPRO_*`` environment variable and every long CLI flag the
package exposes is declared here, once, with its owning module. Three
consumers keep each other honest:

* ``repro lint`` (rules R101/R102/R103 in :mod:`repro.analysis.rules`)
  fails when a ``REPRO_*`` token or an ``add_argument("--flag")``
  appears in the source tree without a registry entry -- and when a
  registry entry no longer appears anywhere (stale entry);
* ``scripts/check_docs.py`` fails when a registry entry is missing from
  ``docs/CONFIGURATION.md``, or the doc mentions an unregistered token
  -- docs drift and code drift are caught against the *same* list
  instead of two independent greps;
* the config modules themselves import their env-var names from here,
  so a renamed variable cannot silently fork from its registration.

Family prefixes: prose like "the ``REPRO_RETRY_*`` family" leaves a
``REPRO_RETRY_`` token in the tree. Those are registered as
:data:`FAMILY_PREFIXES` (each must prefix at least one real variable)
rather than as variables, and the scan helpers accept them.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Set, Tuple

#: Token shape shared by every scanner (linter, docs gate, tests).
ENV_TOKEN_PATTERN = re.compile(r"REPRO_[A-Z0-9_]+")

#: Directories (relative to the repo root) where configuration surface
#: may be introduced. Tests are deliberately excluded: they reference
#: hypothetical and negative-case values.
SCAN_DIRS: Tuple[str, ...] = ("src", "scripts", "benchmarks")


@dataclass(frozen=True)
class EnvVar:
    """One registered ``REPRO_*`` environment variable."""

    name: str
    owner: str  # module (or tree) whose config layer resolves it
    description: str


@dataclass(frozen=True)
class CliFlag:
    """One registered long CLI flag of the ``snn-hybrid`` parser."""

    name: str
    subcommand: str  # "common" = shared via add_common
    description: str


_ENV_VARS: Tuple[EnvVar, ...] = (
    # -- parallel layer (src/repro/parallel/config.py) ----------------
    EnvVar("REPRO_WORKERS", "repro/parallel/config.py",
           "worker-process count; 1 is the serial fallback"),
    EnvVar("REPRO_ON_SHARD_FAILURE", "repro/parallel/config.py",
           "poison-shard handling: raise (default) or skip"),
    EnvVar("REPRO_START_METHOD", "repro/parallel/config.py",
           "multiprocessing start method override for service pools"),
    EnvVar("REPRO_RETRY_MAX_ATTEMPTS", "repro/parallel/config.py",
           "per-task attempt budget of the self-healing executor"),
    EnvVar("REPRO_RETRY_BACKOFF_MS", "repro/parallel/config.py",
           "base wait before a pool restart after an abort"),
    EnvVar("REPRO_RETRY_BACKOFF_MAX_MS", "repro/parallel/config.py",
           "cap of the doubling restart wait"),
    EnvVar("REPRO_RETRY_TASK_TIMEOUT_MS", "repro/parallel/config.py",
           "per-attempt wall budget that kills wedged workers"),
    # -- faults layer (src/repro/faults/config.py) --------------------
    EnvVar("REPRO_FAULT_PLAN", "repro/faults/config.py",
           "deterministic worker-fault injection plan"),
    # -- experiments layer (src/repro/experiments/config.py) ----------
    EnvVar("REPRO_EVAL_CACHE", "repro/experiments/config.py",
           "0 disables the disk-backed evaluation cache"),
    # -- serving layer (src/repro/serving/config.py) ------------------
    EnvVar("REPRO_SERVE_MAX_BATCH", "repro/serving/config.py",
           "most requests one dynamic batch may coalesce"),
    EnvVar("REPRO_SERVE_MAX_WAIT_MS", "repro/serving/config.py",
           "longest the batcher holds the oldest request open"),
    EnvVar("REPRO_SERVE_QUEUE_DEPTH", "repro/serving/config.py",
           "bounded per-model admission queue"),
    EnvVar("REPRO_SERVE_TIMEOUT_MS", "repro/serving/config.py",
           "default per-request deadline from admission"),
    EnvVar("REPRO_SERVE_DRAIN_MS", "repro/serving/config.py",
           "graceful-drain budget at shutdown"),
    # -- benchmarks ---------------------------------------------------
    EnvVar("REPRO_BENCH_SCALE", "benchmarks/bench_runtime_hotpaths.py",
           "preset scale of the runtime hot-path bench"),
    EnvVar("REPRO_BENCH_WORKSPACE", "benchmarks/bench_runtime_hotpaths.py",
           "artifact workspace of the runtime hot-path bench"),
)

#: Registered family prefixes: prose shorthand for a group of variables
#: ("REPRO_RETRY_*"). Each must prefix at least one registered variable.
FAMILY_PREFIXES: Tuple[str, ...] = (
    "REPRO_RETRY_",
    "REPRO_SERVE_",
)


_CLI_FLAGS: Tuple[CliFlag, ...] = (
    CliFlag("--version", "top-level", "print the package version"),
    # -- shared via add_common ----------------------------------------
    CliFlag("--scale", "common", "preset scale: tiny | small | paper"),
    CliFlag("--workspace", "common", "artifact workspace directory"),
    CliFlag("--seed", "common", "master experiment seed"),
    CliFlag("--encoder-seed", "common", "counter-stream encoding seed"),
    CliFlag("--quiet", "common", "suppress progress output"),
    CliFlag("--workers", "common", "worker processes for sharded eval"),
    CliFlag("--eval-cache", "common", "enable the disk evaluation cache"),
    CliFlag("--no-eval-cache", "common", "disable the disk evaluation cache"),
    CliFlag("--retries", "common", "attempts per shard before quarantine"),
    CliFlag("--on-shard-failure", "common", "poison handling: raise | skip"),
    # -- per-subcommand -----------------------------------------------
    CliFlag("--scheme", "train/evaluate/simulate/partition/serve",
            "quantization scheme"),
    CliFlag("--coding", "train/evaluate/simulate/serve", "input coding"),
    CliFlag("--config", "simulate", "hardware configuration"),
    CliFlag("--budget", "partition", "NC budget of the balanced allocation"),
    CliFlag("--write-md", "experiment", "write EXPERIMENTS.md-style output"),
    CliFlag("--max-batch", "serve", "dynamic-batch size cap"),
    CliFlag("--max-wait-ms", "serve", "batching window"),
    CliFlag("--queue-depth", "serve", "bounded admission queue"),
    CliFlag("--timeout-ms", "serve", "per-request deadline"),
    CliFlag("--drain-ms", "serve", "graceful-drain budget"),
    CliFlag("--mode", "serve", "load shape: open | closed"),
    CliFlag("--rate", "serve", "open-loop arrival rate"),
    CliFlag("--requests", "serve", "total requests to replay"),
    CliFlag("--clients", "serve", "closed-loop client count"),
    # -- lint subcommand (repro lint / python -m repro.analysis) ------
    CliFlag("--format", "lint", "finding output: human | json"),
    CliFlag("--baseline", "lint", "grandfathered-findings file"),
    CliFlag("--update-baseline", "lint", "rewrite the baseline file"),
    CliFlag("--select", "lint", "comma-separated rule subset"),
    CliFlag("--list-rules", "lint", "print the rule catalog and exit"),
)


ENV_VARS: Dict[str, EnvVar] = {var.name: var for var in _ENV_VARS}

CLI_FLAGS: Dict[str, CliFlag] = {flag.name: flag for flag in _CLI_FLAGS}


def registered_env_names() -> Set[str]:
    """The registered variable names (family prefixes excluded)."""
    return set(ENV_VARS)


def registered_flag_names() -> Set[str]:
    """The registered long CLI flags."""
    return set(CLI_FLAGS)


def documented_tokens() -> Set[str]:
    """Every token ``docs/CONFIGURATION.md`` must mention.

    Variables, family prefixes and flags -- the docs-drift gate
    (``scripts/check_docs.py``) iterates exactly this set.
    """
    return registered_env_names() | set(FAMILY_PREFIXES) | registered_flag_names()


def is_registered_env_token(token: str) -> bool:
    """Whether a scanned ``REPRO_*`` token is accounted for.

    A token ending in ``_`` (prose shorthand for a variable family)
    matches
    through :data:`FAMILY_PREFIXES`; anything else must be a registered
    variable.
    """
    if token.endswith("_"):
        return token in FAMILY_PREFIXES
    return token in ENV_VARS


def scan_env_tokens_in_text(text: str) -> Set[str]:
    """Every ``REPRO_*`` token mentioned in ``text``."""
    return set(ENV_TOKEN_PATTERN.findall(text))


def scan_env_tokens(root: str, dirs: Iterable[str] = SCAN_DIRS) -> Set[str]:
    """Every ``REPRO_*`` token in the ``.py``/``.sh`` files under
    ``root``'s ``dirs`` -- the same walk the docs gate has always used,
    shared so the linter and the docs gate cannot diverge."""
    found: Set[str] = set()
    for scan_dir in dirs:
        top = os.path.join(root, scan_dir)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in filenames:
                if not name.endswith((".py", ".sh")):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, "r", encoding="utf-8") as handle:
                    found |= scan_env_tokens_in_text(handle.read())
    return found


def verify_against_tree(root: str) -> Tuple[Set[str], Set[str]]:
    """Registry vs source tree, both directions.

    Returns ``(unregistered, stale)``: tokens present in the tree but
    not registered, and registered variables no longer mentioned
    anywhere. Both empty on a healthy tree.
    """
    seen = scan_env_tokens(root)
    unregistered = {tok for tok in seen if not is_registered_env_token(tok)}
    stale = registered_env_names() - seen
    return unregistered, stale
