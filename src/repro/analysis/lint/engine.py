"""The ``repro lint`` engine: file walking, rule driving, baselines.

The engine parses each file once, hands the tree to every selected rule
(file rules report immediately; project rules accumulate and report in
``finalize``), then applies two suppression layers:

* **inline**: a ``# lint: ignore[CODE]`` comment on the flagged line
  (or a bare ``# lint: ignore`` for all codes) — for sites a human has
  verified are deterministic despite matching a conservative pattern;
* **baseline**: a JSON file of fingerprints with mandatory reasons —
  for debt that is tracked rather than fixed.  Baseline entries that no
  longer match anything are *stale* and fail the run, so the file can
  only shrink.

Everything is deterministic: files are walked in sorted order and
findings are sorted by ``(path, line, col, code)``.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass, field

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
from repro.analysis.lint.det004 import Det004InterproceduralTaint
from repro.analysis.lint.flt001 import Flt001FloatIdentity
from repro.analysis.lint.frk import (
    Frk001UnpicklableAcrossFork,
    Frk002MergeContract,
)
from repro.analysis.lint.index import ModuleIndex, ProjectIndex, index_module
from repro.analysis.lint.obs001 import Obs001TaxonomyDrift
from repro.analysis.lint.sim001 import Sim001KernelInvariants
from repro.analysis.lint.slot001 import Slot001UndeclaredSlot

#: JSON schema version of ``--json`` output and baseline files.
LINT_SCHEMA_VERSION = 2

#: Every shipped rule, in code order.
ALL_RULES: tuple[type[Rule], ...] = (
    Det001WallClockEntropy,
    Det002UnorderedIteration,
    Det003IdentityOrdering,
    Det004InterproceduralTaint,
    Frk001UnpicklableAcrossFork,
    Frk002MergeContract,
    Flt001FloatIdentity,
    Sim001KernelInvariants,
    Slot001UndeclaredSlot,
    Obs001TaxonomyDrift,
)

RULE_CODES: tuple[str, ...] = tuple(rule.code for rule in ALL_RULES)

_INLINE_IGNORE = re.compile(
    r"#\s*lint:\s*ignore(?:\[(?P<codes>[A-Z0-9,\s]+)\])?"
)


class LintUsageError(ValueError):
    """Bad selection, unreadable baseline, or missing path."""


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding]
    files_scanned: int
    suppressed_inline: int = 0
    suppressed_baseline: int = 0
    stale_baseline: list[dict[str, str]] = field(default_factory=list)
    #: Modules summarized for the whole-program index (pass 1 scope).
    indexed_modules: int = 0
    #: Baseline accounting (zeroes when no ``--baseline`` was given).
    baseline_used: bool = False
    baseline_entries: int = 0
    baseline_counts: dict[str, int] = field(default_factory=dict)
    baseline_near_stale: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings and not self.stale_baseline

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
            "index": {"modules": self.indexed_modules},
            "baseline": {
                "used": self.baseline_used,
                "entries": self.baseline_entries,
                "matched_by_code": dict(sorted(self.baseline_counts.items())),
                "near_stale": self.baseline_near_stale,
            },
            "suppressed": {
                "inline": self.suppressed_inline,
                "baseline": self.suppressed_baseline,
            },
            "stale_baseline": self.stale_baseline,
            "findings": [
                {
                    "code": f.code,
                    "message": f.message,
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "fingerprint": f.fingerprint,
                }
                for f in self.findings
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        for entry in self.stale_baseline:
            lines.append(
                "baseline: stale entry "
                f"{entry['fingerprint']} ({entry.get('reason', 'no reason')}) "
                "matches nothing; remove it"
            )
        counts = self.counts()
        summary = (
            ", ".join(f"{code}={n}" for code, n in counts.items())
            if counts
            else "clean"
        )
        suppressed = self.suppressed_inline + self.suppressed_baseline
        tail = f" ({suppressed} suppressed)" if suppressed else ""
        if self.baseline_used:
            lines.append(self.baseline_summary())
        lines.append(
            f"{len(self.findings)} finding(s) in {self.files_scanned} "
            f"file(s): {summary}{tail}"
        )
        return "\n".join(lines)

    def baseline_summary(self) -> str:
        """One line of baseline hygiene for CI logs.

        An entry is *nearing staleness* when it matched exactly one
        finding — the next fix to that site strands it, so the count is
        an early warning that the baseline is about to need pruning.
        """
        matched = (
            ", ".join(
                f"{code}={n}"
                for code, n in sorted(self.baseline_counts.items())
            )
            or "none"
        )
        return (
            f"baseline: {self.baseline_entries} entr"
            f"{'y' if self.baseline_entries == 1 else 'ies'}, "
            f"matched by code: {matched}, "
            f"{self.baseline_near_stale} nearing staleness, "
            f"{len(self.stale_baseline)} stale"
        )

    def render_github(self) -> str:
        """GitHub Actions workflow-command annotations, one per finding."""
        lines = [
            f"::error file={f.path},line={f.line},col={max(f.col, 1)},"
            f"title={f.code}::{f.message}"
            for f in self.findings
        ]
        for entry in self.stale_baseline:
            lines.append(
                "::error title=stale-baseline::baseline entry "
                f"{entry['fingerprint']} ({entry.get('reason', 'no reason')}) "
                "matches nothing; remove it"
            )
        if self.baseline_used:
            lines.append(f"::notice title=lint-baseline::{self.baseline_summary()}")
        lines.append(
            f"::notice title=repro-lint::{len(self.findings)} finding(s) in "
            f"{self.files_scanned} file(s); index {self.indexed_modules} "
            "module(s)"
        )
        return "\n".join(lines)


def select_rules(
    select: list[str] | None = None, ignore: list[str] | None = None
) -> list[type[Rule]]:
    """Validate ``--select``/``--ignore`` code lists against the registry."""
    for code in (select or []) + (ignore or []):
        if code not in RULE_CODES:
            known = ", ".join(RULE_CODES)
            raise LintUsageError(f"unknown rule code {code!r} (known: {known})")
    chosen = [
        rule
        for rule in ALL_RULES
        if (not select or rule.code in select)
        and (not ignore or rule.code not in ignore)
    ]
    if not chosen:
        raise LintUsageError("selection leaves no rules to run")
    return chosen


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


def load_baseline(path: str) -> dict[str, str]:
    """``fingerprint -> reason`` from a baseline JSON file."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise LintUsageError(f"cannot read baseline {path}: {error}") from error
    entries = payload.get("entries", [])
    baseline: dict[str, str] = {}
    for entry in entries:
        fingerprint = entry.get("fingerprint")
        reason = entry.get("reason")
        if not fingerprint or not reason:
            raise LintUsageError(
                f"baseline {path}: every entry needs a fingerprint and a reason"
            )
        baseline[fingerprint] = reason
    return baseline


def _inline_suppressed(line_text: str, code: str) -> bool:
    match = _INLINE_IGNORE.search(line_text)
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        return True
    return code in {c.strip() for c in codes.split(",")}


def _index_scope(files: list[str], root: str | None) -> list[str]:
    """Pass-1 file set: the whole ``src`` tree plus the linted files.

    Linting a single file must still see the whole program — DET004's
    call chains and FRK's crossing closure span modules the user did not
    name on the command line.
    """
    scope = list(files)
    if root is not None:
        src = os.path.join(root, "src")
        if os.path.isdir(src):
            scope = scope + collect_files([src])
    # The lint set may spell a path relative while the src sweep spells
    # it absolute; dedupe on the real path, keeping the lint set's
    # spelling (it came first) so display paths match the invocation.
    unique: dict[str, str] = {}
    for path in scope:
        unique.setdefault(os.path.abspath(path), path)
    return sorted(unique.values())


def _build_index(
    files: list[str], root: str | None
) -> tuple[ProjectIndex, dict[str, tuple[str, ast.Module]]]:
    """Pass 1: summarize every module in scope.

    Returns ``(index, parsed)`` where ``parsed`` maps the lint-phase
    files' paths to their already-parsed trees so pass 2 never parses a
    file twice.
    """
    lint_set = set(files)
    parsed: dict[str, tuple[str, ast.Module]] = {}
    modules: list[ModuleIndex] = []
    for file_path in _index_scope(files, root):
        try:
            with open(file_path, encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=file_path)
        except (OSError, SyntaxError):
            continue  # the lint phase reports the PARSE finding
        if file_path in lint_set:
            parsed[file_path] = (source, tree)
        modules.append(index_module(file_path, _display_path(file_path), tree))
    return ProjectIndex(modules), parsed


def run_lint(
    paths: list[str],
    *,
    select: list[str] | None = None,
    ignore: list[str] | None = None,
    baseline_path: str | None = None,
) -> LintResult:
    """Lint ``paths`` and return the (already suppressed) result."""
    files = collect_files(paths)
    rules: list[Rule] = [rule_cls() for rule_cls in select_rules(select, ignore)]
    root = find_project_root(files[0]) if files else None
    index, parsed = _build_index(files, root)
    project = ProjectContext(root=root, index=index)

    findings: list[Finding] = []
    sources: dict[str, list[str]] = {}
    for file_path in files:
        display = _display_path(file_path)
        if file_path in parsed:
            source, tree = parsed[file_path]
        else:
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
            index=index,
            module_index=index.module_for(display),
        )
        sources[display] = ctx.source_lines
        project.scanned.append(display)
        for rule in rules:
            if rule.applies_to(ctx.module):
                findings.extend(rule.visit_file(ctx))

    for rule in rules:
        findings.extend(rule.finalize(project))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code, f.message))

    result = LintResult(
        findings=[],
        files_scanned=len(files),
        indexed_modules=len(index.modules),
    )
    baseline = load_baseline(baseline_path) if baseline_path else {}
    result.baseline_used = baseline_path is not None
    result.baseline_entries = len(baseline)
    match_counts: dict[str, int] = {}
    for finding in findings:
        lines = sources.get(finding.path)
        if lines and 1 <= finding.line <= len(lines):
            if _inline_suppressed(lines[finding.line - 1], finding.code):
                result.suppressed_inline += 1
                continue
        if finding.fingerprint in baseline:
            match_counts[finding.fingerprint] = (
                match_counts.get(finding.fingerprint, 0) + 1
            )
            result.suppressed_baseline += 1
            result.baseline_counts[finding.code] = (
                result.baseline_counts.get(finding.code, 0) + 1
            )
            continue
        result.findings.append(finding)
    result.baseline_near_stale = sum(
        1 for count in match_counts.values() if count == 1
    )
    result.stale_baseline = [
        {"fingerprint": fingerprint, "reason": reason}
        for fingerprint, reason in sorted(baseline.items())
        if fingerprint not in match_counts
    ]
    return result


def _display_path(path: str) -> str:
    """Repo-relative posix-style path when possible, else as given."""
    absolute = os.path.abspath(path)
    cwd = os.getcwd()
    if absolute.startswith(cwd + os.sep):
        return os.path.relpath(absolute, cwd).replace(os.sep, "/")
    return path.replace(os.sep, "/")
