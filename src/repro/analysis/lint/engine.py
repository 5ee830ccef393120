"""The ``repro lint`` engine: file walking, rule driving, suppression.

The engine parses each file once and hands the tree to every selected
rule (file rules report immediately; project rules accumulate and
report in ``finalize``).  There is one suppression layer: a
``# lint: ignore[CODE, ...]`` comment on the flagged line (or a bare
``# lint: ignore`` for all codes) — for sites a human has verified are
deterministic despite matching a conservative pattern.  A bracket that
does not parse as a code list suppresses nothing, so a typo cannot
widen into a blanket ignore.

Everything is deterministic: files are walked in sorted order and
findings are sorted by ``(path, line, col, code)``.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass

from repro.analysis.lint.base import (
    FileContext,
    Finding,
    ProjectContext,
    Rule,
    module_name_for,
)
from repro.analysis.lint.det001 import Det001WallClockEntropy
from repro.analysis.lint.det002 import Det002UnorderedIteration
from repro.analysis.lint.det003 import Det003IdentityOrdering
from repro.analysis.lint.flt001 import Flt001FloatIdentity
from repro.analysis.lint.obs001 import Obs001TaxonomyDrift
from repro.analysis.lint.sim001 import Sim001KernelInvariants
from repro.analysis.lint.slot001 import Slot001UndeclaredSlot

#: JSON schema version of ``--json`` output.
LINT_SCHEMA_VERSION = 3

#: Every shipped rule, in code order.
ALL_RULES: tuple[type[Rule], ...] = (
    Det001WallClockEntropy,
    Det002UnorderedIteration,
    Det003IdentityOrdering,
    Flt001FloatIdentity,
    Sim001KernelInvariants,
    Slot001UndeclaredSlot,
    Obs001TaxonomyDrift,
)

RULE_CODES: tuple[str, ...] = tuple(rule.code for rule in ALL_RULES)

_INLINE_IGNORE = re.compile(
    r"#\s*lint:\s*ignore\s*(?P<bracket>\[(?:(?P<codes>[A-Za-z0-9,\s]+)\])?)?"
)


class LintUsageError(ValueError):
    """Bad selection or missing path."""


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding]
    files_scanned: int
    suppressed_inline: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for finding in self.findings:
            tally[finding.code] = tally.get(finding.code, 0) + 1
        return dict(sorted(tally.items()))

    def to_json(self) -> str:
        payload = {
            "version": LINT_SCHEMA_VERSION,
            "files_scanned": self.files_scanned,
            "counts": self.counts(),
            "suppressed_inline": self.suppressed_inline,
            "findings": [
                {
                    "code": f.code,
                    "message": f.message,
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                }
                for f in self.findings
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        counts = self.counts()
        summary = (
            ", ".join(f"{code}={n}" for code, n in counts.items())
            if counts
            else "clean"
        )
        tail = (
            f" ({self.suppressed_inline} suppressed)"
            if self.suppressed_inline
            else ""
        )
        lines.append(
            f"{len(self.findings)} finding(s) in {self.files_scanned} "
            f"file(s): {summary}{tail}"
        )
        return "\n".join(lines)

    def render_github(self) -> str:
        """GitHub Actions workflow-command annotations, one per finding."""
        lines = [
            f"::error file={f.path},line={f.line},col={max(f.col, 1)},"
            f"title={f.code}::{f.message}"
            for f in self.findings
        ]
        lines.append(
            f"::notice title=repro-lint::{len(self.findings)} finding(s) in "
            f"{self.files_scanned} file(s)"
        )
        return "\n".join(lines)


def select_rules(select: list[str] | None = None) -> list[type[Rule]]:
    """The rules a ``--select`` code list names (all of them without one),
    validated against the registry."""
    for code in select or []:
        if code not in RULE_CODES:
            known = ", ".join(RULE_CODES)
            raise LintUsageError(f"unknown rule code {code!r} (known: {known})")
    return [rule for rule in ALL_RULES if not select or rule.code in select]


def collect_files(paths: list[str]) -> list[str]:
    """Python files under ``paths``, sorted, ``__pycache__`` excluded."""
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__"
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        files.append(os.path.join(dirpath, filename))
        elif os.path.isfile(path):
            files.append(path)
        else:
            raise LintUsageError(f"no such file or directory: {path}")
    return sorted(dict.fromkeys(files))


def find_project_root(start: str) -> str | None:
    """Nearest ancestor of ``start`` containing ``pyproject.toml``."""
    current = os.path.abspath(start)
    if os.path.isfile(current):
        current = os.path.dirname(current)
    while True:
        if os.path.exists(os.path.join(current, "pyproject.toml")):
            return current
        parent = os.path.dirname(current)
        if parent == current:
            return None
        current = parent


def _inline_suppressed(line_text: str, code: str) -> bool:
    match = _INLINE_IGNORE.search(line_text)
    if match is None:
        return False
    if match.group("bracket") is None:
        return True
    codes = match.group("codes")
    if codes is None:
        return False  # unclosed or malformed list: suppress nothing
    return code in {c.strip().upper() for c in codes.split(",")}


def run_lint(
    paths: list[str],
    *,
    select: list[str] | None = None,
) -> LintResult:
    """Lint ``paths`` and return the (already suppressed) result."""
    files = collect_files(paths)
    rules: list[Rule] = [rule_cls() for rule_cls in select_rules(select)]
    project = ProjectContext(root=find_project_root(files[0]) if files else None)

    findings: list[Finding] = []
    sources: dict[str, list[str]] = {}
    for file_path in files:
        display = _display_path(file_path)
        with open(file_path, encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=file_path)
        except SyntaxError as error:
            findings.append(
                Finding(
                    code="PARSE",
                    message=f"cannot parse file: {error.msg}",
                    path=display,
                    line=error.lineno or 1,
                    col=(error.offset or 1) - 1,
                )
            )
            continue
        ctx = FileContext(
            path=display,
            module=module_name_for(file_path),
            tree=tree,
            source_lines=source.splitlines(),
        )
        sources[display] = ctx.source_lines
        project.scanned.append(display)
        for rule in rules:
            if rule.applies_to(ctx.module):
                findings.extend(rule.visit_file(ctx))

    for rule in rules:
        findings.extend(rule.finalize(project))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code, f.message))

    result = LintResult(findings=[], files_scanned=len(files))
    for finding in findings:
        lines = sources.get(finding.path)
        if (
            lines
            and 1 <= finding.line <= len(lines)
            and _inline_suppressed(lines[finding.line - 1], finding.code)
        ):
            result.suppressed_inline += 1
        else:
            result.findings.append(finding)
    return result


def _display_path(path: str) -> str:
    """Repo-relative posix-style path when possible, else as given."""
    absolute = os.path.abspath(path)
    cwd = os.getcwd()
    if absolute.startswith(cwd + os.sep):
        return os.path.relpath(absolute, cwd).replace(os.sep, "/")
    return path.replace(os.sep, "/")
