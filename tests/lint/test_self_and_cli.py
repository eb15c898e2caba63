"""The gate the CI job enforces, pinned as a test: the repo's own source
lints clean, and the CLI verbs keep their exit-code/JSON contract."""

import json
import os

import pytest

from repro.cli import main
from repro.lint import lint_paths

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")


def test_repo_source_lints_clean():
    report = lint_paths([REPO_SRC])
    assert report.errors == [], "\n" + report.format_text()
    # No test reads a measurement clock: tier-1 holds no wall-clock verdict.
    tests = lint_paths([os.path.join(REPO_SRC, "..", "..", "tests")])
    assert [f for f in tests.errors if f.rule == "ORL010"] == [], \
        "\n" + tests.format_text()


def test_rule_catalog_doc_is_the_catalog():
    """docs/static_analysis.md's ORL and ORV tables list every rule with
    the catalog's name and severity, and nothing else."""
    from repro.lint.rules import RULES
    doc = os.path.join(REPO_SRC, "..", "..", "docs", "static_analysis.md")
    documented = {}
    with open(doc, encoding="utf-8") as stream:
        for line in stream:
            if line.startswith("| OR"):
                rule, name, severity = (
                    cell.strip() for cell in line.strip("|\n").split("|")[:3])
                documented[rule] = (name, severity)
    assert documented == {
        rule.id: (rule.name, rule.severity) for rule in RULES.values()}


def test_cli_lint_clean_exit_zero(capsys):
    assert main(["lint", REPO_SRC]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_lint_finding_exit_one(tmp_path, capsys):
    bad = tmp_path / "serve" / "bad.py"
    bad.parent.mkdir()
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "ORL003" in out and "bad.py:4" in out


def test_cli_lint_json_output(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x=[]):\n    return x\n")
    assert main(["lint", "--json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["errors"] == 1
    (finding,) = payload["findings"]
    assert finding["rule"] == "ORL008"
    assert finding["line"] == 1
    assert finding["severity"] == "error"


def test_cli_lint_missing_path_usage_error(capsys):
    assert main(["lint", "/no/such/dir"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_lint_strict_promotes_warnings(tmp_path):
    warn_only = tmp_path / "warn.py"
    warn_only.write_text("x = 1  # lint: disable=ORL999\n")
    assert main(["lint", str(warn_only)]) == 0
    assert main(["lint", "--strict", str(warn_only)]) == 1


def test_cli_verify_zoo_model(capsys):
    assert main(["verify", "wrn-40-2"]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_verify_corrupt_engine_json(tmp_path, capsys):
    path = tmp_path / "junk.oeng"
    path.write_bytes(b"not an engine at all")
    assert main(["verify", "--json", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    (finding,) = payload["findings"]
    assert finding["rule"] == "ORV100"


@pytest.mark.parametrize("argv", [["lint"], ["verify"]])
def test_cli_verbs_require_arguments(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
