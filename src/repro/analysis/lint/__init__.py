"""``repro.analysis.lint`` — determinism & sim-invariant static analysis.

An AST-based analyzer with codebase-specific rules, run as
``python -m repro lint [paths]``:

========  ==============================================================
DET001    wall-clock / global-RNG reads in simulation code
DET002    set/dict iteration feeding order-sensitive sinks
DET003    ordering by object identity (``id()`` keys, ``is`` tie-breaks)
DET004    interprocedural nondeterminism taint reaching a sink
FRK001    unpicklable attribute in a class crossing the fork boundary
FRK002    Instrumentation store without an order-stable ``merge_from``
FLT001    bare ``sum()``/``+=`` float accumulation (use ``math.fsum``)
SIM001    kernel-private field pokes and ``time.sleep`` in sim code
SLOT001   ``self`` attributes missing from a class's ``__slots__``
OBS001    metric/trace/span taxonomy drift against ARCHITECTURE.md
========  ==============================================================

The analyzer runs in two passes: pass 1 builds a whole-program
:class:`~repro.analysis.lint.index.ProjectIndex` (per-module symbol
tables, import/call graphs, per-function nondeterminism summaries),
pass 2 runs the rules against it.

See the "Static analysis" section of ``docs/ARCHITECTURE.md`` for a
motivating example per rule, and :mod:`repro.analysis.lint.engine` for
the suppression layers (inline ``# lint: ignore[CODE]`` comments and
the JSON baseline).
"""

from repro.analysis.lint.base import FileContext, Finding, ProjectContext, Rule
from repro.analysis.lint.engine import (
    ALL_RULES,
    LINT_SCHEMA_VERSION,
    RULE_CODES,
    LintResult,
    LintUsageError,
    collect_files,
    load_baseline,
    run_lint,
    select_rules,
)
from repro.analysis.lint.index import ModuleIndex, ProjectIndex, index_module

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "LINT_SCHEMA_VERSION",
    "LintResult",
    "LintUsageError",
    "ModuleIndex",
    "ProjectContext",
    "ProjectIndex",
    "RULE_CODES",
    "Rule",
    "collect_files",
    "index_module",
    "load_baseline",
    "run_lint",
    "select_rules",
]
