"""repro-lint self-tests.

Covers the fixture corpus (one flagged + one clean module per rule —
the meta-test enforces the pair exists, alongside a docstring, for
every registered rule), the module-classification layer (role globs
and ``imports:`` patterns through the import graph), suppression
comments, the baseline round-trip, the CLI surface, and — the real
gate — that the repo's own ``src/`` tree lints clean under the
checked-in config and baseline.
"""

import ast
import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.exceptions import LintError
from repro.lint import (
    RULES,
    Baseline,
    ImportGraph,
    LintConfig,
    ModuleClassifier,
    lint_paths,
    load_baseline,
    load_config,
    module_name_for,
    write_baseline,
)
from repro.lint.cli import main
from repro.lint.engine import parse_suppressions

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]

#: rule code -> findings its flagged fixture must produce.  Keeping
#: this table in sync with the registry is itself asserted below.
EXPECTED_FLAGGED = {
    "DET001": 4,
    "DET002": 5,
    "DET003": 3,
    "DET004": 2,
    "ERR001": 2,
    "ERR002": 3,
    "IO001": 3,
    "IO002": 1,
    "IO003": 2,
}


@pytest.fixture(scope="module")
def fixture_config():
    return load_config(FIXTURES)


def _lint(config, *names):
    return lint_paths([FIXTURES / name for name in names], config)


class TestRuleRegistryMeta:
    def test_fixture_table_matches_registry(self):
        assert set(EXPECTED_FLAGGED) == set(RULES)

    def test_every_rule_has_docstring_and_fixture_pair(self):
        for code, rule in sorted(RULES.items()):
            doc = type(rule).__doc__ or ""
            assert code in doc, f"{code} docstring must open with its code"
            assert len(doc.strip()) > 100, f"{code} docstring too thin"
            for suffix in ("flagged", "clean"):
                fixture = FIXTURES / f"{code.lower()}_{suffix}.py"
                assert fixture.is_file(), f"missing fixture {fixture.name}"

    def test_rules_have_distinct_names(self):
        names = [rule.name for rule in RULES.values()]
        assert len(names) == len(set(names))
        assert all(names)


class TestFixtureCorpus:
    @pytest.mark.parametrize("code", sorted(EXPECTED_FLAGGED))
    def test_flagged_fixture_fires(self, fixture_config, code):
        findings, suppressed = _lint(
            fixture_config, f"{code.lower()}_flagged.py"
        )
        assert suppressed == 0
        assert {f.rule for f in findings} == {code}
        assert len(findings) == EXPECTED_FLAGGED[code]

    @pytest.mark.parametrize("code", sorted(EXPECTED_FLAGGED))
    def test_clean_fixture_is_silent(self, fixture_config, code):
        findings, suppressed = _lint(
            fixture_config, f"{code.lower()}_clean.py"
        )
        assert findings == []
        assert suppressed == 0

    def test_whole_corpus_totals(self, fixture_config):
        findings, suppressed = lint_paths([FIXTURES], fixture_config)
        assert Counter(f.rule for f in findings) == Counter(EXPECTED_FLAGGED)
        assert suppressed == 0

    def test_io002_flags_the_module_once_at_line_one(self, fixture_config):
        findings, _ = _lint(fixture_config, "io002_flagged.py")
        (finding,) = findings
        assert finding.line == 1
        assert finding.path == "io002_flagged.py"
        assert "FORMAT_VERSION" in finding.message

    def test_findings_render_and_serialise(self, fixture_config):
        findings, _ = _lint(fixture_config, "det001_flagged.py")
        first = findings[0]
        assert first.render().startswith("det001_flagged.py:")
        payload = first.to_json()
        assert payload["rule"] == "DET001"
        assert payload["line_text"] == first.line_text


class TestClassification:
    def test_module_names(self):
        assert (
            module_name_for(
                REPO_ROOT / "src/repro/engine/shard.py", REPO_ROOT, ("src",)
            )
            == "repro.engine.shard"
        )
        assert (
            module_name_for(FIXTURES / "io001_flagged.py", FIXTURES, ())
            == "io001_flagged"
        )

    def test_imports_pattern_carries_role_through_graph(self, fixture_config):
        graph = ImportGraph()
        for name in ("io001_flagged.py", "err002_flagged.py"):
            path = FIXTURES / name
            graph.add_module(
                module_name_for(path, FIXTURES, ()),
                ast.parse(path.read_text()),
            )
        classifier = ModuleClassifier(fixture_config.roles, graph)
        # io001_flagged imports fixture_contracts -> artifact-writers.
        assert "artifact-writers" in classifier.roles_for("io001_flagged")
        # err002_flagged does not -> no writer role.
        assert "artifact-writers" not in classifier.roles_for("err002_flagged")

    def test_seed_paths_role_exempts_det002(self):
        config = LintConfig(
            root=FIXTURES,
            source_roots=(),
            roles={"seed-paths": ("det002_*",)},
        )
        findings, _ = _lint(config, "det002_flagged.py")
        assert findings == []

    def test_telemetry_role_exempts_det004(self):
        config = LintConfig(
            root=FIXTURES,
            source_roots=(),
            roles={
                "artifact-writers": ("det004_*",),
                "telemetry": ("det004_*",),
            },
        )
        findings, _ = _lint(config, "det004_flagged.py")
        assert findings == []

    def test_scoped_rules_stay_off_without_roles(self):
        config = LintConfig(root=FIXTURES, source_roots=(), roles={})
        findings, _ = _lint(config, "det003_flagged.py")
        assert findings == []


class TestConfig:
    def test_fixture_config_loads_from_standalone_toml(self, fixture_config):
        assert fixture_config.source_roots == ()
        assert fixture_config.roles["merge-paths"] == ("det003_*",)
        assert fixture_config.baseline is None

    def test_repo_config_loads_from_pyproject(self):
        config = load_config(REPO_ROOT)
        assert config.baseline == "lint-baseline.json"
        assert "src" in config.source_roots

    def test_unknown_keys_rejected(self, tmp_path):
        bad = tmp_path / "repro-lint.toml"
        bad.write_text("[tool.repro-lint]\ntypo-key = true\n")
        with pytest.raises(LintError, match="typo-key"):
            load_config(tmp_path)

    def test_non_list_role_rejected(self, tmp_path):
        bad = tmp_path / "repro-lint.toml"
        bad.write_text(
            "[tool.repro-lint.roles]\nmerge-paths = 'not-a-list'\n"
        )
        with pytest.raises(LintError, match="merge-paths"):
            load_config(tmp_path)

    def test_rule_option_overrides_allowed_raises(self, tmp_path):
        # Narrowing ERR001's allowed family makes AnalysisError a finding.
        config_file = tmp_path / "repro-lint.toml"
        config_file.write_text(
            "[tool.repro-lint]\nsource-roots = []\n"
            "[tool.repro-lint.roles]\npublic-paths = ['err001_*']\n"
            "[tool.repro-lint.rules.ERR001]\nallowed = ['JobSpecError']\n"
        )
        config = load_config(FIXTURES, explicit=config_file)
        findings, _ = _lint(config, "err001_clean.py")
        assert [f.rule for f in findings] == ["ERR001"]
        assert "AnalysisError" in findings[0].message


class TestSuppressions:
    def test_trailing_comment_suppresses_that_line(self):
        sup = parse_suppressions(
            ["x = p.glob('*')  # repro-lint: disable=DET001"]
        )
        assert sup.is_suppressed("DET001", 1)
        assert not sup.is_suppressed("DET002", 1)

    def test_standalone_comment_covers_next_line(self):
        sup = parse_suppressions(
            ["# repro-lint: disable=DET004, ERR002", "now = time.time()"]
        )
        assert sup.is_suppressed("DET004", 2)
        assert sup.is_suppressed("ERR002", 2)

    def test_disable_file(self):
        sup = parse_suppressions(
            ["# repro-lint: disable-file=IO001", "", "whatever = 1"]
        )
        assert sup.is_suppressed("IO001", 999)

    def test_marker_must_follow_the_hash(self):
        # Prose mentioning the tool is not a suppression.
        sup = parse_suppressions(
            ["x = 1  # silenced via repro-lint: disable=DET001 elsewhere"]
        )
        assert not sup.is_suppressed("DET001", 1)

    def test_empty_code_list_is_an_error(self):
        with pytest.raises(LintError, match="empty"):
            parse_suppressions(["# repro-lint: disable=  "])

    def test_marker_inside_a_string_is_text(self):
        # Only comments suppress: a string spelling the marker, even an
        # empty one, is neither a suppression nor an error.
        sup = parse_suppressions([
            'x = "# repro-lint: disable=DET001"',
            "y = '# repro-lint: disable=  '",
            '"""',
            "# repro-lint: disable-file=IO001",
            '"""',
        ])
        assert not sup.is_suppressed("DET001", 1)
        assert not sup.is_suppressed("DET001", 2)
        assert not sup.is_suppressed("IO001", 999)

    def test_end_to_end_inline_suppression(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "from pathlib import Path\n"
            "def stems(d: Path):\n"
            "    # hostless listing is fine here: entries are unlinked.\n"
            "    # repro-lint: disable=DET001\n"
            "    return [p.stem for p in d.glob('*')]\n"
        )
        config = LintConfig(root=tmp_path, source_roots=(), roles={})
        findings, suppressed = lint_paths([mod], config)
        assert findings == []
        assert suppressed == 1

    def test_wrong_code_does_not_suppress(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "from pathlib import Path\n"
            "def stems(d: Path):\n"
            "    return [p.stem for p in d.glob('*')]  "
            "# repro-lint: disable=DET002\n"
        )
        config = LintConfig(root=tmp_path, source_roots=(), roles={})
        findings, suppressed = lint_paths([mod], config)
        assert [f.rule for f in findings] == ["DET001"]
        assert suppressed == 0


class TestBaseline:
    def test_round_trip_covers_everything(self, fixture_config, tmp_path):
        findings, _ = _lint(fixture_config, "det001_flagged.py")
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings)
        baseline = load_baseline(baseline_path)
        assert baseline.filter_new(findings) == []
        assert baseline.covered_count(findings) == len(findings)

    def test_line_moves_do_not_churn_the_baseline(
        self, fixture_config, tmp_path
    ):
        findings, _ = _lint(fixture_config, "det001_flagged.py")
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings)
        shifted = [
            dataclasses.replace(f, line=f.line + 40) for f in findings
        ]
        assert load_baseline(baseline_path).filter_new(shifted) == []

    def test_new_findings_exceed_the_budget(self, fixture_config, tmp_path):
        findings, _ = _lint(fixture_config, "det001_flagged.py")
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings[:1])
        fresh = load_baseline(baseline_path).filter_new(findings)
        assert len(fresh) == len(findings) - 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json").entries == Counter()

    def test_version_skew_rejected(self, tmp_path):
        stale = tmp_path / "baseline.json"
        stale.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(LintError, match="version"):
            load_baseline(stale)

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"not": "a baseline"}))
        with pytest.raises(LintError, match="not a repro-lint baseline"):
            load_baseline(bad)
        bad.write_text(
            json.dumps({"version": 1, "findings": [{"rule": "DET001"}]})
        )
        with pytest.raises(LintError, match="malformed"):
            load_baseline(bad)


class TestCli:
    @pytest.fixture(autouse=True)
    def _in_fixture_dir(self, monkeypatch):
        monkeypatch.chdir(FIXTURES)

    def test_explain_prints_rule_doc(self, capsys):
        assert main(["--explain", "DET001"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "sorted" in out

    def test_explain_unknown_rule_is_usage_error(self, capsys):
        assert main(["--explain", "NOPE"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules_lists_every_code(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_flagged_file_exits_one_with_json_report(self, capsys):
        assert main(["det001_flagged.py", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["tool"] == "repro-lint"
        assert report["counts"]["new"] == EXPECTED_FLAGGED["DET001"]
        assert report["counts"]["suppressed"] == 0
        assert {f["rule"] for f in report["findings"]} == {"DET001"}

    def test_clean_file_exits_zero(self, capsys):
        assert main(["det001_clean.py"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().err

    def test_report_file_is_written(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["det002_flagged.py", "--report", str(report_path)]
        )
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["counts"]["new"] == EXPECTED_FLAGGED["DET002"]

    def test_write_baseline_then_gate(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "det003_flagged.py",
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                ]
            )
            == 0
        )
        capsys.readouterr()
        # Grandfathered: the same findings now gate to zero new.
        assert main(["det003_flagged.py", "--baseline", str(baseline)]) == 0
        # --no-baseline reports them all again.
        assert (
            main(
                [
                    "det003_flagged.py",
                    "--baseline",
                    str(baseline),
                    "--no-baseline",
                ]
            )
            == 1
        )

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["no-such-dir"]) == 2
        assert "no such file" in capsys.readouterr().err


class TestRepoTreeIsClean:
    """The acceptance gate: the shipped tree lints clean in-process."""

    def test_src_lints_clean_under_checked_in_config(self):
        config = load_config(REPO_ROOT)
        findings, _ = lint_paths([REPO_ROOT / "src"], config)
        baseline = (
            load_baseline(REPO_ROOT / config.baseline)
            if config.baseline
            else Baseline()
        )
        fresh = baseline.filter_new(findings)
        assert fresh == [], "\n".join(f.render() for f in fresh)

    def test_checked_in_baseline_is_empty(self):
        data = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
        assert data == {"version": 1, "findings": []}
