"""Shared vocabulary of the ``repro lint`` analyzer.

A :class:`Finding` is one diagnostic; a :class:`Rule` turns a parsed
file into findings.  Rules come in two shapes:

* **file rules** inspect one module at a time (``visit_file``);
* **project rules** additionally accumulate cross-file facts and emit
  findings after every file has been seen (``finalize``) — the
  taxonomy-drift rule OBS001 works this way, because "emitted but not
  documented" is only decidable once the whole tree has been scanned.

Scoping: the determinism rules only make sense inside simulation code —
``repro.cli`` timing a run for its progress line is not a bug.  Each
rule declares the module prefixes it exempts; files that do not resolve
to a ``repro.*`` module at all (rule fixtures in tests, scratch scripts)
are linted with every rule, which is what lets the fixture corpus prove
each rule fires.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import ClassVar


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule code anchored to a file position."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class FileContext:
    """One parsed source file as rules see it."""

    path: str
    module: str | None
    tree: ast.Module
    source_lines: list[str] = field(default_factory=list)

    def finding(
        self, code: str, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            code=code,
            message=message,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


@dataclass
class ProjectContext:
    """Cross-file facts available to ``Rule.finalize``."""

    #: Repository root (directory holding ``pyproject.toml``), when found.
    root: str | None
    #: Repo-relative paths of every file scanned in this run.
    scanned: list[str] = field(default_factory=list)

    def scanned_module(self, suffix: str) -> bool:
        """True when a scanned file path ends with ``suffix``.

        Used to gate whole-tree directions ("documented but never
        emitted") on the run actually having covered the emitting
        packages — linting a single file must not claim the rest of the
        tree went silent.
        """
        normalized = suffix.replace("\\", "/")
        return any(p.replace("\\", "/").endswith(normalized) for p in self.scanned)


class Rule:
    """Base class: one code, one summary, one visitor."""

    code: ClassVar[str]
    summary: ClassVar[str]
    #: Module prefixes this rule does not apply to (``repro.cli`` is
    #: allowed to read the wall clock; the linter does not lint itself).
    exempt_modules: ClassVar[tuple[str, ...]] = ()

    def applies_to(self, module: str | None) -> bool:
        if module is None:
            return True
        return not any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.exempt_modules
        )

    def visit_file(self, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError

    def finalize(self, project: ProjectContext) -> list[Finding]:
        return []


def module_name_for(path: str) -> str | None:
    """``repro.*`` dotted module for a path, or None outside the package.

    ``src/repro/sim/kernel.py`` -> ``repro.sim.kernel``;
    ``/tmp/fixture.py`` -> None (linted with every rule).
    """
    parts = path.replace("\\", "/").split("/")
    if "repro" not in parts:
        return None
    tail = parts[parts.index("repro"):]
    if not tail[-1].endswith(".py"):
        return None
    tail[-1] = tail[-1][:-3]
    if tail[-1] == "__init__":
        tail = tail[:-1]
    return ".".join(tail)
