"""OBS001 — observability taxonomy drift between code and docs.

``docs/ARCHITECTURE.md`` carries three reference tables — the metric
reference, the trace event reference and the span source reference —
that PR 4's tail-latency attribution and every dashboard built on the
exporters depend on.  This rule keeps them honest in both directions:

* a metric name passed to ``counter()``/``gauge()``/``histogram()``, a
  member of the ``EventType`` enum, or a literal span source passed to
  ``*spans*.begin(...)`` that is **missing from its table** is flagged
  at the emission site;
* a documented name that **no scanned source emits** is flagged at its
  table row — but only when the scan demonstrably covered the whole
  tree (gated on ``repro/obs/metrics.py`` being among the scanned
  files), so linting a single file never claims the rest of the tree
  went silent.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field

from repro.analysis.lint.base import FileContext, Finding, ProjectContext, Rule

#: Doc (relative to the repo root) holding the reference tables.
TAXONOMY_DOC = os.path.join("docs", "ARCHITECTURE.md")

#: Marker text locating each reference table inside the doc.
METRIC_TABLE_MARKER = "Metric reference"
TRACE_TABLE_MARKER = "Trace event reference"
SPAN_TABLE_MARKER = "Span source reference"

#: The scan is considered whole-tree when this file was covered.
_FULL_TREE_SENTINEL = "repro/obs/metrics.py"

_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})
_NAME_TOKEN = re.compile(r"`([A-Za-z0-9_]+)`")


@dataclass(frozen=True)
class _Emission:
    name: str
    kind: str        # "metric" | "trace event" | "span source"
    path: str
    line: int
    col: int


@dataclass
class _DocTable:
    names: dict[str, int] = field(default_factory=dict)  # name -> doc line
    found: bool = False


class Obs001TaxonomyDrift(Rule):
    code = "OBS001"
    summary = "metric/trace/span name out of sync with docs/ARCHITECTURE.md"
    exempt_modules = (
        "repro.testing",
        "repro.analysis.lint",
    )

    def __init__(self) -> None:
        self.emissions: list[_Emission] = []

    def visit_file(self, ctx: FileContext) -> list[Finding]:
        visitor = _Collector(ctx)
        visitor.visit(ctx.tree)
        self.emissions.extend(visitor.emissions)
        return []

    def finalize(self, project: ProjectContext) -> list[Finding]:
        if project.root is None:
            return []
        doc_path = os.path.join(project.root, TAXONOMY_DOC)
        if not os.path.exists(doc_path):
            return []
        with open(doc_path, encoding="utf-8") as handle:
            doc_lines = handle.read().splitlines()
        tables = {
            "metric": _parse_table(doc_lines, METRIC_TABLE_MARKER),
            "trace event": _parse_table(doc_lines, TRACE_TABLE_MARKER),
            "span source": _parse_table(doc_lines, SPAN_TABLE_MARKER),
        }
        doc_rel = TAXONOMY_DOC.replace(os.sep, "/")
        findings: list[Finding] = []

        for emission in self.emissions:
            table = tables[emission.kind]
            if table.found and emission.name not in table.names:
                findings.append(
                    Finding(
                        code="OBS001",
                        message=(
                            f"{emission.kind} `{emission.name}` is emitted "
                            f"here but missing from the "
                            f"{emission.kind} reference table in {doc_rel}"
                        ),
                        path=emission.path,
                        line=emission.line,
                        col=emission.col,
                    )
                )

        if project.scanned_module(_FULL_TREE_SENTINEL):
            emitted: dict[str, set[str]] = {
                "metric": set(), "trace event": set(), "span source": set(),
            }
            for emission in self.emissions:
                emitted[emission.kind].add(emission.name)
            for kind, table in tables.items():
                for name, doc_line in sorted(table.names.items()):
                    if name not in emitted[kind]:
                        findings.append(
                            Finding(
                                code="OBS001",
                                message=(
                                    f"{kind} `{name}` is documented in the "
                                    f"{kind} reference table but never "
                                    "emitted by the scanned sources"
                                ),
                                path=doc_rel,
                                line=doc_line,
                            )
                        )
        return findings


def _parse_table(doc_lines: list[str], marker: str) -> _DocTable:
    """Names from the first markdown table following ``marker``."""
    table = _DocTable()
    in_table = False
    for index, line in enumerate(doc_lines, start=1):
        if not table.found:
            if marker in line:
                table.found = True
            continue
        stripped = line.strip()
        if stripped.startswith("|"):
            in_table = True
            first_cell = stripped.strip("|").split("|", 1)[0]
            for name in _NAME_TOKEN.findall(first_cell):
                table.names.setdefault(name, index)
        elif in_table:
            break   # table ended
    return table


class _Collector(ast.NodeVisitor):
    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.emissions: list[_Emission] = []

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if (
                func.attr in _METRIC_FACTORIES
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                self._emit(node.args[0], "metric", node.args[0].value)
            elif func.attr == "begin" and _receiver_mentions_span(func.value):
                if (
                    len(node.args) >= 3
                    and isinstance(node.args[2], ast.Constant)
                    and isinstance(node.args[2].value, str)
                ):
                    self._emit(node.args[2], "span source", node.args[2].value)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name == "EventType":
            for statement in node.body:
                if (
                    isinstance(statement, ast.Assign)
                    and isinstance(statement.value, ast.Constant)
                    and isinstance(statement.value.value, str)
                ):
                    self._emit(
                        statement.value, "trace event", statement.value.value
                    )
        self.generic_visit(node)

    def _emit(self, node: ast.AST, kind: str, name: str) -> None:
        self.emissions.append(
            _Emission(
                name=name,
                kind=kind,
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
            )
        )


def _receiver_mentions_span(node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute):
        return "span" in node.attr.lower()
    if isinstance(node, ast.Name):
        return "span" in node.id.lower()
    return False
