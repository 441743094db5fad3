"""Docs drift gate: configuration surface vs docs/CONFIGURATION.md.

The configuration surface is declared once, in
:mod:`repro.analysis.registry`. This gate holds three parties to that
declaration and fails with exit code 1 on any disagreement:

1. **source tree vs registry** -- every ``REPRO_*`` token in ``src/``,
   ``scripts/`` and ``benchmarks/`` must be registered, and every
   registered variable must still be mentioned somewhere (no stale
   entries);
2. **argument parser vs registry** -- every long option of the
   ``snn-hybrid`` CLI (all subcommands) must be registered, and every
   registered flag must exist on the parser;
3. **registry vs docs** -- every registered token must appear in
   ``docs/CONFIGURATION.md``;
4. **docs vs registry** -- every ``REPRO_*`` token in
   ``docs/CONFIGURATION.md`` must be registered (a variable, or a family
   prefix for starred prose like ``REPRO_RETRY_*``).

So a new knob cannot land without being registered *and* documented,
and a deleted one cannot leave its doc section behind.
``repro lint`` enforces (1) and (2) statically per-file (rules
R101/R102/R103); this gate re-checks them end-to-end at CI time. Wired
into ``scripts/perf_smoke.sh``; run standalone with:

    PYTHONPATH=src python scripts/check_docs.py
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Iterator, List, Set

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not any(os.path.isdir(os.path.join(p, "repro")) for p in sys.path if p):
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

CONFIG_DOC = os.path.join(REPO_ROOT, "docs", "CONFIGURATION.md")


def _walk_options(parser: argparse.ArgumentParser) -> Iterator[str]:
    for action in parser._actions:
        for option in action.option_strings:
            if option.startswith("--") and option != "--help":
                yield option
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _walk_options(sub)


def cli_flags() -> Set[str]:
    """Every long option of the CLI, across all subcommands."""
    from repro.cli import build_parser

    return set(_walk_options(build_parser()))


def _is_documented(token: str, documented: str) -> bool:
    """Word-boundary membership, not substring membership: a token must
    not count as documented just because a longer token extending it
    (same name plus an extra ``_SUFFIX`` or ``-suffix``) appears in the
    text. A family prefix (trailing ``_``) is documented by its
    starred prose form."""
    if token.endswith("_"):
        token = token + "*"
    return (
        re.search(
            rf"(?<![A-Za-z0-9_-]){re.escape(token)}(?![A-Za-z0-9_-])",
            documented,
        )
        is not None
    )


def main() -> int:
    from repro.analysis import registry

    problems: List[str] = []

    # 1. source tree vs registry, both directions
    unregistered, stale = registry.verify_against_tree(REPO_ROOT)
    for token in sorted(unregistered):
        problems.append(
            f"REGISTRY DRIFT: REPRO_* token {token} appears in the source "
            f"tree but is not declared in repro/analysis/registry.py"
        )
    for token in sorted(stale):
        problems.append(
            f"REGISTRY DRIFT: registered variable {token} no longer "
            f"appears anywhere in the source tree (stale entry)"
        )

    # 2. argument parser vs registry, both directions
    parser_flags = cli_flags()
    registered_flags = registry.registered_flag_names()
    for flag in sorted(parser_flags - registered_flags):
        problems.append(
            f"REGISTRY DRIFT: CLI flag {flag} exists on the parser but is "
            f"not declared in repro/analysis/registry.py"
        )
    for flag in sorted(registered_flags - parser_flags):
        problems.append(
            f"REGISTRY DRIFT: registered CLI flag {flag} does not exist "
            f"on the parser (stale entry)"
        )

    # 3. registry vs docs
    with open(CONFIG_DOC, "r", encoding="utf-8") as handle:
        documented = handle.read()
    for token in sorted(registry.documented_tokens()):
        if not _is_documented(token, documented):
            kind = (
                "environment variable" if token.startswith("REPRO_")
                else "CLI flag"
            )
            problems.append(
                f"DOCS DRIFT: {kind} {token} is registered but missing "
                f"from docs/CONFIGURATION.md"
            )

    # 4. docs vs registry
    for token in sorted(registry.scan_env_tokens_in_text(documented)):
        if not registry.is_registered_env_token(token):
            problems.append(
                f"DOCS DRIFT: docs/CONFIGURATION.md mentions {token}, "
                f"which is not declared in repro/analysis/registry.py"
            )

    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    env_count = len(registry.registered_env_names()) + len(
        registry.FAMILY_PREFIXES
    )
    print(
        f"docs configuration reference is complete "
        f"({env_count} REPRO_* variables, {len(parser_flags)} CLI flags)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
