"""``repro lint`` end-to-end: exit codes, JSON schema, baseline flow."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main

BAD_SNIPPET = textwrap.dedent(
    """
    import random

    def f():
        return random.random()
    """
)

GOOD_SNIPPET = textwrap.dedent(
    """
    def f(rng):
        return rng.normal()
    """
)


def write_tree(root: Path, source: str) -> Path:
    pkg = root / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(source)
    return pkg


def lint(tmp_path: Path, *extra: str) -> int:
    return main(
        [
            "lint",
            str(tmp_path / "pkg"),
            "--root",
            str(tmp_path),
            "--baseline",
            str(tmp_path / "baseline.json"),
            *extra,
        ]
    )


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, GOOD_SNIPPET)
        assert lint(tmp_path) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_violations_exit_one_naming_rule_and_location(self, tmp_path, capsys):
        write_tree(tmp_path, BAD_SNIPPET)
        assert lint(tmp_path) == 1
        out = capsys.readouterr().out
        assert "R001" in out
        # file:line anchor present
        assert "mod.py:5" in out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, GOOD_SNIPPET)
        assert lint(tmp_path, "--select", "R999") == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nowhere")]) == 2

    def test_select_skips_other_rules(self, tmp_path):
        write_tree(tmp_path, BAD_SNIPPET)
        assert lint(tmp_path, "--select", "R006") == 0

    def test_ignore_silences_rule(self, tmp_path):
        write_tree(tmp_path, BAD_SNIPPET)
        assert lint(tmp_path, "--ignore", "R001") == 0


class TestJsonOutput:
    def test_schema(self, tmp_path, capsys):
        write_tree(tmp_path, BAD_SNIPPET)
        assert lint(tmp_path, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "files_checked",
            "rules_run",
            "suppressed",
            "violations",
            "baselined",
            "clean",
        }
        assert payload["clean"] is False
        assert payload["files_checked"] == 2
        (violation,) = payload["violations"]
        assert set(violation) == {"rule", "path", "line", "col", "message"}
        assert violation["rule"] == "R001"
        assert violation["path"].endswith("mod.py")
        assert isinstance(violation["line"], int)

    def test_clean_json(self, tmp_path, capsys):
        write_tree(tmp_path, GOOD_SNIPPET)
        assert lint(tmp_path, "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["violations"] == []


class TestBaseline:
    def test_write_then_pass(self, tmp_path, capsys):
        write_tree(tmp_path, BAD_SNIPPET)
        assert lint(tmp_path, "--write-baseline") == 0
        baseline = json.loads((tmp_path / "baseline.json").read_text())
        assert baseline["version"] == 1
        assert len(baseline["violations"]) == 1
        capsys.readouterr()
        # Grandfathered: same finding no longer fails the run.
        assert lint(tmp_path) == 0
        assert "baselined: 1" in capsys.readouterr().out

    def test_new_violation_still_fails_with_baseline(self, tmp_path):
        write_tree(tmp_path, BAD_SNIPPET)
        assert lint(tmp_path, "--write-baseline") == 0
        mod = tmp_path / "pkg" / "mod.py"
        mod.write_text(BAD_SNIPPET + "\n\ndef g():\n    return random.choice([1])\n")
        assert lint(tmp_path) == 1

    def test_strict_rejects_nonempty_baseline(self, tmp_path, capsys):
        write_tree(tmp_path, BAD_SNIPPET)
        assert lint(tmp_path, "--write-baseline") == 0
        capsys.readouterr()
        assert lint(tmp_path, "--strict") == 1
        assert "empty baseline" in capsys.readouterr().err

    def test_strict_with_empty_baseline_passes(self, tmp_path):
        write_tree(tmp_path, GOOD_SNIPPET)
        (tmp_path / "baseline.json").write_text(
            '{"version": 1, "violations": []}\n'
        )
        assert lint(tmp_path, "--strict") == 0

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, GOOD_SNIPPET)
        (tmp_path / "baseline.json").write_text("{not json")
        assert lint(tmp_path) == 2


class TestListRules:
    def test_catalog_names_every_rule(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "R001", "R002", "R003", "R004", "R005", "R006", "R007", "R008", "R009"
        ):
            assert code in out


class TestRepoIsClean:
    """The shipped tree itself passes its own linter.

    This is the acceptance criterion `repro lint src/ exits 0 with an
    empty baseline` as a tier-1 test, so a violation introduced by any
    future PR fails locally before CI.
    """

    def test_src_lint_clean_under_committed_baseline(self, capsys):
        repo = Path(__file__).resolve().parents[2]
        baseline = repo / "analysis-baseline.json"
        assert baseline.exists()
        assert json.loads(baseline.read_text())["violations"] == []
        code = main(
            [
                "lint",
                str(repo / "src"),
                "--root",
                str(repo),
                "--baseline",
                str(baseline),
                "--strict",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, f"repro lint src/ found violations:\n{out}"
