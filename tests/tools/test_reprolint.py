"""Fixture-driven self-tests for the ``tools.reprolint`` linter.

Each rule must (a) fire on its seeded-bad fixture with the exact rule id
and line number and (b) stay silent on the shared ``clean.py`` fixture of
near-miss patterns.  Suppression comments, allowlists, CLI behaviour, and
the repo-wide clean-run acceptance criterion are covered as well.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tools.reprolint import ALL_RULES, lint_file, lint_paths, lint_source
from tools.reprolint.cli import main
from tools.reprolint.engine import (
    DEFAULT_ALLOWLIST,
    PARSE_ERROR_ID,
    Suppressions,
    iter_python_files,
)
from tools.reprolint.rules import RULES_BY_ID

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def findings_for(name):
    """(rule_id, line) pairs for a fixture, bypassing path allowlists."""
    result = lint_file(FIXTURES / name, allowlist={})
    return [(f.rule_id, f.line) for f in result.findings]


class TestRuleFixtures:
    def test_rl001_falsy_default(self):
        assert findings_for("bad_rl001.py") == [
            ("RL001", 5),
            ("RL001", 10),
            ("RL001", 15),
            ("RL001", 20),
        ]

    def test_rl002_unseeded_random(self):
        assert findings_for("bad_rl002.py") == [
            ("RL002", 10),
            ("RL002", 14),
            ("RL002", 18),
            ("RL002", 22),
            ("RL002", 26),
            ("RL002", 30),
        ]

    def test_rl003_array_truthiness(self):
        assert findings_for("bad_rl003.py") == [
            ("RL003", 7),
            ("RL003", 10),
            ("RL003", 12),
            ("RL003", 17),
        ]

    def test_rl004_mutable_default(self):
        assert findings_for("bad_rl004.py") == [
            ("RL004", 4),
            ("RL004", 9),
            ("RL004", 13),
            ("RL004", 13),
        ]

    def test_rl005_float_equality(self):
        assert findings_for("bad_rl005.py") == [
            ("RL005", 5),
            ("RL005", 9),
            ("RL005", 13),
        ]

    def test_rl006_silent_except(self):
        assert findings_for("bad_rl006.py") == [
            ("RL006", 7),
            ("RL006", 14),
            ("RL006", 22),
        ]

    def test_rl008_ckernel_internals(self):
        assert findings_for("bad_rl008.py") == [
            ("RL008", 3),
            ("RL008", 4),
            ("RL008", 5),
            ("RL008", 6),
            ("RL008", 10),
            ("RL008", 22),
        ]

    def test_rl008_silent_inside_features(self):
        source = "from repro.features import _ckernel\n"
        result = lint_source(source, path="src/repro/features/minirocket.py")
        assert result.findings == []

    def test_rl008_warm_functions_exempt(self):
        source = (
            "def warmup_models():\n"
            "    from repro.features import _ckernel\n"
            "    return _ckernel.available()\n"
        )
        result = lint_source(source, path="src/repro/core/registry.py")
        assert result.findings == []

    def test_rl008_allowlisted_in_tests(self):
        source = "from repro.features import _ckernel\n"
        assert lint_source(
            source, path="tests/features/test_minirocket_parity.py"
        ).findings == []
        assert [
            f.rule_id
            for f in lint_source(source, path="scripts/run_eval.py").findings
        ] == ["RL008"]

    def test_rl009_undeclared_mutable_state(self):
        assert findings_for("bad_rl009.py") == [
            ("RL009", 7),
            ("RL009", 8),
            ("RL009", 9),
            ("RL009", 10),
            ("RL009", 11),
            ("RL009", 12),
            ("RL009", 21),  # invalid annotation kind
        ]

    def test_rl010_lock_discipline(self):
        assert findings_for("bad_rl010.py") == [
            ("RL010", 10),  # unlocked module-binding read
            ("RL010", 24),  # unlocked attribute read
        ]

    def test_rl011_thread_hostile_escape(self):
        assert findings_for("bad_rl011.py") == [
            ("RL011", 12),  # module global
            ("RL011", 17),  # global-declared store
            ("RL011", 22),  # subscript into a shared container
            ("RL011", 27),  # executor submission
        ]

    def test_rl011_sees_hostile_classes_from_other_files(self):
        # The project index carries thread-hostile declarations across
        # modules: SessionManager is declared hostile in
        # repro.core.session, and an escape in a *different* file must
        # still fire.
        from tools.reprolint.concurrency import build_project_index
        from tools.reprolint import lint_source

        source = (
            "def leak(registry, auth):\n"
            "    registry['x'] = SessionManager(auth)\n"
        )
        index = build_project_index(
            iter_python_files([REPO_ROOT / "src" / "repro" / "core"])
        )
        assert "SessionManager" in index.thread_hostile_classes
        result = lint_source(source, path="src/repro/other.py", project=index)
        assert [f.rule_id for f in result.findings] == ["RL011"]
        # Without the index the same source is silent: the class is
        # declared elsewhere.
        assert lint_source(source, path="src/repro/other.py").findings == []

    def test_rl012_blocking_while_locked(self):
        assert findings_for("bad_rl012.py") == [
            ("RL012", 10),  # file I/O
            ("RL012", 15),  # compile
            ("RL012", 25),  # warmup
        ]

    def test_clean_fixture_is_silent(self):
        assert findings_for("clean.py") == []

    def test_every_rule_has_a_firing_fixture(self):
        """The fixture suite exercises each registered rule at least once."""
        fired = set()
        for fixture in sorted(FIXTURES.glob("bad_*.py")):
            result = lint_file(fixture, allowlist={})
            fired.update(f.rule_id for f in result.findings)
        assert fired == set(RULES_BY_ID)


class TestSuppressions:
    def test_suppressed_fixture_only_mismatched_rule_fires(self):
        # Every suppression in the fixture is honoured; the deliberately
        # wrong rule id on the last function does not mask RL004.
        assert findings_for("suppressed.py") == [("RL004", 28)]

    def test_suppressed_count_reported(self):
        result = lint_file(FIXTURES / "suppressed.py", allowlist={})
        assert result.suppressed == 5

    def test_suppressed_concurrency_fixture_is_silent(self):
        assert findings_for("suppressed_concurrency.py") == []

    def test_suppressed_concurrency_count(self):
        result = lint_file(
            FIXTURES / "suppressed_concurrency.py", allowlist={}
        )
        assert result.suppressed == 4

    def test_suppression_records_capture_reasons(self):
        from tools.reprolint.engine import collect_suppressions

        records = collect_suppressions(
            [FIXTURES / "suppressed_concurrency.py"]
        )
        assert [(r.line, r.rules) for r in records] == [
            (11, ("RL009",)),
            (21, ("RL010",)),
            (31, ("RL012",)),
            (36, ("RL011",)),
        ]
        assert records[0].reason.startswith("benign lazy memo")
        assert all(r.reason for r in records)

    def test_disable_parses_with_and_without_justification(self):
        sup = Suppressions(
            [
                "x = 1  # reprolint: disable=RL001",
                "y = 2  # reprolint: disable=RL001, RL005 -- because",
                "# reprolint: disable-next=all",
                "z = 3",
            ]
        )
        from tools.reprolint.engine import Finding

        assert sup.is_suppressed(Finding("f", 1, 0, "RL001", ""))
        assert not sup.is_suppressed(Finding("f", 1, 0, "RL005", ""))
        assert sup.is_suppressed(Finding("f", 2, 0, "RL005", ""))
        assert sup.is_suppressed(Finding("f", 4, 0, "RL003", ""))
        assert not sup.is_suppressed(Finding("f", 3, 0, "RL003", ""))


class TestAllowlist:
    SOURCE = "def f(score):\n    return score == 0.5\n"

    def test_default_allowlist_quiets_rl005_in_tests(self):
        result = lint_source(self.SOURCE, path="tests/eval/test_metrics.py")
        assert result.findings == []

    def test_same_source_fires_in_src(self):
        result = lint_source(self.SOURCE, path="src/repro/eval/metrics.py")
        assert [f.rule_id for f in result.findings] == ["RL005"]

    def test_allowlist_patterns_cover_nested_paths(self):
        result = lint_source(
            self.SOURCE, path="/abs/checkout/tests/eval/test_metrics.py"
        )
        assert result.findings == []
        assert "RL005" in DEFAULT_ALLOWLIST


class TestEngine:
    def test_parse_error_is_a_finding(self):
        result = lint_source("def broken(:\n", path="x.py")
        assert result.exit_code == 1
        assert [f.rule_id for f in result.findings] == [PARSE_ERROR_ID]

    def test_discovery_skips_fixture_and_cache_dirs(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "fixtures").mkdir()
        (tmp_path / "pkg" / "fixtures" / "bad.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "c.py").write_text("x = 1\n")
        found = iter_python_files([tmp_path])
        assert [p.name for p in found] == ["ok.py"]

    def test_explicit_file_bypasses_discovery_filters(self):
        result = lint_paths([FIXTURES / "bad_rl004.py"], allowlist={})
        assert result.files_checked == 1
        assert result.findings

    def test_findings_sorted_and_rendered(self):
        result = lint_file(FIXTURES / "bad_rl001.py", allowlist={})
        rendered = result.findings[0].render()
        assert rendered.startswith(str(FIXTURES / "bad_rl001.py"))
        assert ":5:" in rendered and "RL001" in rendered
        assert result.findings == sorted(result.findings)


class TestCli:
    def test_exit_zero_on_clean_file(self, capsys):
        code = main([str(FIXTURES / "clean.py")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out

    def test_exit_one_with_text_findings(self, capsys):
        code = main([str(FIXTURES / "bad_rl004.py")])
        out = capsys.readouterr().out
        assert code == 1
        assert "RL004" in out and "bad_rl004.py" in out

    def test_json_format(self, capsys):
        code = main(["--format", "json", str(FIXTURES / "bad_rl005.py")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["exit_code"] == 1
        assert payload["files_checked"] == 1
        assert {f["rule"] for f in payload["findings"]} == {"RL005"}
        assert {"path", "line", "col", "rule", "message"} <= set(
            payload["findings"][0]
        )

    def test_select_restricts_rules(self, capsys):
        code = main(["--select", "RL001", str(FIXTURES / "bad_rl004.py")])
        assert code == 0
        code = main(["--select", "RL004", str(FIXTURES / "bad_rl004.py")])
        assert code == 1
        capsys.readouterr()

    def test_ignore_drops_rules(self, capsys):
        code = main(["--ignore", "RL004", str(FIXTURES / "bad_rl004.py")])
        assert code == 0
        capsys.readouterr()

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(SystemExit):
            main(["--select", "RL999", str(FIXTURES / "clean.py")])

    def test_missing_path_is_usage_error(self, capsys):
        code = main([str(FIXTURES / "does_not_exist.py")])
        captured = capsys.readouterr()
        assert code == 2
        assert "no such file" in captured.err

    def test_list_rules(self, capsys):
        code = main(["--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for rule in ALL_RULES:
            assert rule.rule_id in out

    def test_show_suppressions_text(self, capsys):
        code = main(
            ["--show-suppressions", str(FIXTURES / "suppressed_concurrency.py")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "suppressed_concurrency.py:11: RL009" in out
        assert "benign lazy memo" in out
        assert "reprolint: 4 suppressions" in out

    def test_show_suppressions_json(self, capsys):
        code = main(
            [
                "--show-suppressions",
                "--format",
                "json",
                str(FIXTURES / "suppressed_concurrency.py"),
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [r["line"] for r in payload] == [11, 21, 31, 36]
        assert payload[1]["rules"] == ["RL010"]
        assert payload[1]["reason"] == "deliberate unlocked fast path"

    def test_concurrency_manifest_flag(self, capsys):
        code = main(
            ["--concurrency-manifest", str(FIXTURES / "bad_rl010.py")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("# Concurrency manifest")
        assert "`_HANDLE`" in out and "guarded-by: `_LOCK`" in out
        assert "| `Registry` | `_cache` | `self._lock` |" in out


class TestManifest:
    def test_rendering_is_deterministic(self):
        from tools.reprolint.concurrency import (
            build_project_index,
            render_manifest,
        )

        files = iter_python_files([REPO_ROOT / "src", REPO_ROOT / "tools"])
        first = render_manifest(build_project_index(files))
        second = render_manifest(build_project_index(list(reversed(files))))
        assert first == second

    def test_committed_manifest_is_fresh(self, monkeypatch):
        """CONCURRENCY.md must match `--concurrency-manifest src tools`."""
        from tools.reprolint.concurrency import (
            build_project_index,
            render_manifest,
        )

        monkeypatch.chdir(REPO_ROOT)
        files = iter_python_files([Path("src"), Path("tools")])
        rendered = render_manifest(build_project_index(files))
        committed = (REPO_ROOT / "CONCURRENCY.md").read_text(encoding="utf-8")
        assert rendered == committed, (
            "CONCURRENCY.md is stale; regenerate with "
            "`python -m tools.reprolint --concurrency-manifest src tools "
            "> CONCURRENCY.md`"
        )

    def test_undeclared_state_is_called_out(self):
        from tools.reprolint.concurrency import (
            build_project_index,
            render_manifest,
        )

        index = build_project_index([FIXTURES / "bad_rl009.py"])
        manifest = render_manifest(index)
        assert "**UNDECLARED**" in manifest
        assert "`REGISTRY`" in manifest and "rebound-global" in manifest


class TestRepoIsClean:
    def test_acceptance_command_exits_zero(self):
        """`python -m tools.reprolint src tests scripts` exits 0."""
        code = main(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"), str(REPO_ROOT / "scripts")]
        )
        assert code == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "RL001" in proc.stdout
