"""Engine-level tests for ``repro lint``: CLI, JSON schema, selection.

The self-check at the bottom is the PR's acceptance gate: the shipped
tree must lint clean, so the analyzer stays a required CI job rather
than a dashboard of known failures.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint.engine import LINT_SCHEMA_VERSION, LintUsageError, RULE_CODES, run_lint
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

HAZARD = "import time\n\ndef tick():\n    return time.time()\n"


@pytest.fixture
def hazard_file(tmp_path):
    path = tmp_path / "hazard.py"
    path.write_text(HAZARD)
    return path


# -- selection ------------------------------------------------------------


def test_select_limits_rules(hazard_file):
    assert [f.code for f in run_lint([str(hazard_file)], select=["DET001"]).findings] == ["DET001"]
    assert run_lint([str(hazard_file)], select=["SLOT001"]).findings == []


def test_unknown_code_is_a_usage_error(hazard_file):
    with pytest.raises(LintUsageError, match="unknown rule code"):
        run_lint([str(hazard_file)], select=["NOPE001"])


def test_missing_path_is_a_usage_error(tmp_path):
    with pytest.raises(LintUsageError, match="no such file"):
        run_lint([str(tmp_path / "missing")])


def test_syntax_error_becomes_parse_finding(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    result = run_lint([str(bad)])
    (finding,) = result.findings
    assert finding.code == "PARSE"


def test_findings_are_sorted_and_stable(tmp_path):
    for name in ("b.py", "a.py"):
        (tmp_path / name).write_text(HAZARD)
    first = run_lint([str(tmp_path)])
    second = run_lint([str(tmp_path)])
    assert [f.render() for f in first.findings] == [f.render() for f in second.findings]
    assert [f.path for f in first.findings] == sorted(f.path for f in first.findings)


# -- JSON schema ----------------------------------------------------------


def test_json_schema(hazard_file):
    payload = json.loads(run_lint([str(hazard_file)]).to_json())
    assert payload["version"] == LINT_SCHEMA_VERSION
    assert payload["files_scanned"] == 1
    assert payload["counts"] == {"DET001": 1}
    assert payload["suppressed_inline"] == 0
    assert set(payload) == {
        "version", "files_scanned", "counts", "suppressed_inline", "findings"
    }
    (finding,) = payload["findings"]
    assert set(finding) == {"code", "message", "path", "line", "col"}
    assert finding["code"] == "DET001"
    assert finding["line"] == 4


def test_render_github(hazard_file):
    out = run_lint([str(hazard_file)]).render_github()
    error, notice = out.splitlines()
    assert error.startswith("::error file=")
    assert "title=DET001" in error and ",line=4," in error
    assert notice.startswith("::notice title=repro-lint::")
    assert notice.endswith("1 finding(s) in 1 file(s)")


# -- CLI ------------------------------------------------------------------


def test_cli_exit_codes(tmp_path, hazard_file, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def tick(sim):\n    return sim.now\n")
    assert main(["lint", str(clean)]) == 0
    assert main(["lint", str(hazard_file)]) == 1
    assert main(["lint", str(hazard_file), "--select", "BOGUS"]) == 2
    capsys.readouterr()


def test_cli_json_output(hazard_file, capsys):
    assert main(["lint", str(hazard_file), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"DET001": 1}


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULE_CODES:
        assert code in out


def test_cli_survives_broken_pipe(tmp_path):
    """`repro lint ... | head -1` must not traceback on SIGPIPE.

    The findings output must exceed the kernel pipe buffer (64 KiB) or
    the write completes before ``head`` exits and nothing is exercised.
    """
    import subprocess
    import sys

    body = "import time\n" + "t = time.time()\n" * 1000
    (tmp_path / "big.py").write_text(body)
    result = subprocess.run(
        f"{sys.executable} -m repro lint {tmp_path} | head -1",
        shell=True,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert "Traceback" not in result.stderr
    assert "BrokenPipeError" not in result.stderr


def test_cli_select(hazard_file, capsys):
    assert main(["lint", str(hazard_file), "--select", "SLOT001"]) == 0
    assert main(["lint", str(hazard_file), "--select", "DET001,SIM001"]) == 1
    capsys.readouterr()


def test_cli_unknown_code_lists_known_codes(hazard_file, capsys):
    assert main(["lint", str(hazard_file), "--select", "NOPE001"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule code" in err
    for code in RULE_CODES:
        assert code in err


def test_cli_codes_are_case_insensitive(hazard_file, capsys):
    assert main(["lint", str(hazard_file), "--select", "det001"]) == 1
    capsys.readouterr()


def test_cli_format_github(hazard_file, capsys):
    assert main(["lint", str(hazard_file), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert "::notice title=repro-lint::" in out


def test_cli_writes_nothing_and_has_no_cache_switch(hazard_file, tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main(["lint", str(hazard_file)]) == 1
    assert list(workdir.iterdir()) == []
    with pytest.raises(SystemExit) as usage:
        main(["lint", str(hazard_file), "--no-cache"])
    assert usage.value.code == 2


# -- self-check -----------------------------------------------------------


def test_shipped_tree_lints_clean():
    """`repro lint src/` exits 0 on the tree this repo ships."""
    result = run_lint([str(REPO_ROOT / "src")])
    assert [f.render() for f in result.findings] == []
    assert result.clean
    assert result.files_scanned > 100


def test_cli_on_shipped_tree(capsys):
    assert main(["lint", str(REPO_ROOT / "src")]) == 0
    capsys.readouterr()
