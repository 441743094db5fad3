"""The registry as single source of truth, and the shipped tree's own
cleanliness under the linter -- the repo eats its own dog food."""

from __future__ import annotations

import os

from repro.analysis import lint_paths
from repro.analysis.baseline import load_baseline, partition_baseline
from repro.analysis import registry

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


class TestRegistry:
    def test_every_family_prefix_prefixes_a_variable(self):
        names = registry.registered_env_names()
        for prefix in registry.FAMILY_PREFIXES:
            assert any(name.startswith(prefix) for name in names), prefix

    def test_prefix_token_matching(self):
        assert registry.is_registered_env_token("REPRO_WORKERS")
        assert registry.is_registered_env_token("REPRO_RETRY_")
        assert not registry.is_registered_env_token("REPRO_BOGUS")
        # A trailing-underscore token only matches a registered family.
        assert not registry.is_registered_env_token("REPRO_BOGUS_")

    def test_registry_matches_source_tree_exactly(self):
        unregistered, stale = registry.verify_against_tree(REPO_ROOT)
        assert unregistered == set()
        assert stale == set()

    def test_registry_matches_argument_parser(self):
        import argparse

        from repro.cli import build_parser

        def walk(parser):
            for action in parser._actions:
                for option in action.option_strings:
                    if option.startswith("--") and option != "--help":
                        yield option
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from walk(sub)

        assert set(walk(build_parser())) == registry.registered_flag_names()

    def test_documented_tokens_all_in_configuration_md(self):
        doc = open(
            os.path.join(REPO_ROOT, "docs", "CONFIGURATION.md"),
            encoding="utf-8",
        ).read()
        for token in registry.documented_tokens():
            probe = token + "*" if token.endswith("_") else token
            assert probe in doc, token

    def test_configuration_md_mentions_only_registered_tokens(self):
        """The reverse direction: a deleted variable's doc section
        cannot outlive its registry entry."""
        doc = open(
            os.path.join(REPO_ROOT, "docs", "CONFIGURATION.md"),
            encoding="utf-8",
        ).read()
        stray = {
            token
            for token in registry.scan_env_tokens_in_text(doc)
            if not registry.is_registered_env_token(token)
        }
        assert stray == set()


class TestShippedTree:
    def test_src_lints_clean_against_checked_in_baseline(self):
        result = lint_paths(["src"], root=REPO_ROOT)
        baseline = load_baseline(
            os.path.join(REPO_ROOT, "lint-baseline.json")
        )
        fresh, _grandfathered = partition_baseline(result.findings, baseline)
        assert fresh == [], "\n".join(f.render() for f in fresh)

    def test_worker_reachability_covers_the_real_pool_modules(self):
        result = lint_paths(["src"], root=REPO_ROOT)
        for module in (
            "repro.parallel.pool",
            "repro.parallel.shard",
            "repro.runtime.kernels",
        ):
            assert module in result.worker_reachable, module

    def test_baseline_entries_still_correspond_to_findings(self):
        # Every checked-in baseline entry must still be consumed by a
        # real finding -- otherwise the entry is stale and should go.
        result = lint_paths(["src"], root=REPO_ROOT)
        baseline = load_baseline(
            os.path.join(REPO_ROOT, "lint-baseline.json")
        )
        _fresh, grandfathered = partition_baseline(result.findings, baseline)
        assert len(grandfathered) == sum(baseline.values())
