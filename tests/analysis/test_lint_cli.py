"""The lint CLI surfaces: ``repro lint`` (the ``snn-hybrid`` subcommand),
``python -m repro.analysis``, and the ``scripts/check_static.py`` gate --
including the gate's guarantee to fail non-zero on a seeded violation."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SRC = os.path.join(REPO_ROOT, "src")


def run_cli(args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


class TestLintCli:
    def test_module_entry_point_clean_tree(self):
        proc = run_cli(["-m", "repro.analysis", "src"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_repro_cli_subcommand_matches(self):
        proc = run_cli(["-m", "repro.cli", "lint", "src"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_list_rules(self):
        proc = run_cli(["-m", "repro.analysis", "--list-rules"])
        assert proc.returncode == 0
        for rule_id in ("D101", "D102", "P101", "P102", "E101", "E102",
                        "R101", "R102", "R103", "X100", "X101"):
            assert rule_id in proc.stdout, rule_id

    def test_json_format(self):
        proc = run_cli(["-m", "repro.analysis", "src", "--format", "json"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["findings"] == []
        assert payload["files_scanned"] > 50
        assert payload["suppressed"] > 0
        assert payload["baselined"] == 0

    def test_unknown_rule_select_is_a_usage_error(self):
        proc = run_cli(["-m", "repro.analysis", "src", "--select", "Z999"])
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr

    def test_missing_path_is_a_usage_error(self):
        proc = run_cli(["-m", "repro.analysis", "no/such/dir"])
        assert proc.returncode == 2

    def test_findings_exit_one(self, tmp_path):
        bad = tmp_path / "src"
        bad.mkdir()
        (bad / "thing.py").write_text(
            "import random\n", encoding="utf-8"
        )
        proc = run_cli(["-m", "repro.analysis", "src"], cwd=str(tmp_path))
        assert proc.returncode == 1
        assert "D101" in proc.stdout


def _seed_copy(tmp_path):
    """A copy of the shipped tree with one fresh D101 violation seeded
    into the runtime kernels."""
    root = tmp_path / "seeded"
    root.mkdir()
    shutil.copytree(SRC, root / "src")
    shutil.copy(
        os.path.join(REPO_ROOT, "lint-baseline.json"),
        root / "lint-baseline.json",
    )
    kernels = root / "src" / "repro" / "runtime" / "kernels.py"
    source = kernels.read_text(encoding="utf-8")
    source += (
        "\n\ndef _sneaky_noise(shape):\n"
        "    import numpy as np\n"
        "    return np.random.rand(*shape)\n"
    )
    kernels.write_text(source, encoding="utf-8")
    return str(root)


class TestCheckStaticGate:
    GATE = os.path.join(REPO_ROOT, "scripts", "check_static.py")

    def test_gate_passes_on_the_shipped_tree(self):
        proc = run_cli([self.GATE])
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_gate_fails_nonzero_on_seeded_violation(self, tmp_path):
        seeded = _seed_copy(tmp_path)
        proc = run_cli([self.GATE, "--root", seeded])
        assert proc.returncode != 0
        assert "D101" in proc.stdout
        assert "kernels.py" in proc.stdout

    def test_baseline_does_not_absorb_the_seeded_violation(self, tmp_path):
        # The seeded line is fresh: no baseline entry matches its
        # (rule, path, snippet) key, so the gate must fail even though a
        # baseline file is present and valid.
        seeded = _seed_copy(tmp_path)
        proc = run_cli(["-m", "repro.analysis", "src"], cwd=seeded)
        assert proc.returncode == 1
        assert "baselined" in proc.stdout
