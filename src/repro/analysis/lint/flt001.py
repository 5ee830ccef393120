"""FLT001 — float accumulation that breaks last-ulp byte identity.

``sum()`` and ``+=`` over floats are order- and grouping-sensitive in
the last ulp: a merged store that adds per-worker subtotals produces a
different 64-bit pattern than the serial run that added every sample in
one pass, even though both are "correct".  The tsdb/export contract
(:mod:`repro.obs.tsdb`, :mod:`repro.analysis.export`) therefore requires
``math.fsum`` — the correctly-rounded true sum, which is independent of
both order and grouping — on every derivation path that feeds a
byte-compared artifact.

The rule names the packages it covers rather than exempting a
blocklist, and decides floatness from evidence in the file itself — each
class's attribute annotations and the values its own methods assign:

* ``sum(xs)`` fires when ``xs`` is float-evidenced — an attribute
  annotated ``list[float]``, an attribute assigned from float-producing
  expressions, or a comprehension whose element is a float expression.
  ``sum(1 for ...)`` and integer counters never fire.  This check also
  covers the behaviour packages ``repro.sim``, ``repro.cdn`` and
  ``repro.core``: since 3.12 the builtin ``sum`` of floats is
  compensated (Neumaier), so the same bare ``sum`` returns a different
  last ulp on 3.10 and on 3.12, and on a behaviour path that difference
  moves the simulation itself.
* ``acc += x`` fires for a running float accumulator: a local
  initialized to a float literal and incremented in a loop, or a
  float-annotated ``self`` attribute incremented in a method.  This check
  stays with the derivation packages.  A left-to-right ``+=`` loop is
  bit-stable on every interpreter, so in ``repro.sim`` and ``repro.core``
  (eleven such loops in ``sim/fluid.py``, ``core/guard.py`` and
  ``core/combiners.py``) it breaks nothing, and its ``math.fsum`` advice
  would change the simulated values both goldens pin.

Unknown types stay silent (optimistic) — mypy owns type errors; this
rule owns the determinism contract.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TypeGuard

from repro.analysis.lint.base import FileContext, Finding, Rule

#: Annotations that evidence a float sequence / float scalar.
_FLOAT_SEQ_MARKERS = ("list[float]", "tuple[float", "Sequence[float]", "set[float]")


class Flt001FloatIdentity(Rule):
    code = "FLT001"
    summary = (
        "bare float sum() (or += on a derivation path) is grouping- and "
        "interpreter-sensitive in the last ulp; use math.fsum"
    )
    #: Packages the ``sum()`` check covers; a file outside ``repro`` (a
    #: rule fixture) gets both checks.
    _included = ("repro.obs", "repro.analysis", "repro.sim", "repro.cdn", "repro.core")
    #: Inclusion scope of the ``+=`` check: the derivation packages.
    _accumulation_included = ("repro.obs", "repro.analysis")
    exempt_modules = ("repro.analysis.lint",)

    def applies_to(self, module: str | None) -> bool:
        if module is None:
            return True
        return super().applies_to(module) and _within(module, self._included)

    def visit_file(self, ctx: FileContext) -> list[Finding]:
        visitor = _Visitor(
            ctx,
            accumulation=ctx.module is None
            or _within(ctx.module, self._accumulation_included),
        )
        visitor.visit(ctx.tree)
        return visitor.findings


def _within(module: str, packages: tuple[str, ...]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in packages
    )


def _value_kind(node: ast.expr) -> str | None:
    """Shallow type evidence: float / int / float_seq."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool):
            return None
        if isinstance(node.value, float):
            return "float"
        if isinstance(node.value, int):
            return "int"
        return None
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "float":
                return "float"
            if func.id == "int":
                return "int"
            if func.id in ("sorted", "list") and node.args:
                inner = _value_kind(node.args[0])
                if inner in ("float", "float_seq"):
                    return "float_seq"
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        if _value_kind(node.elt) == "float":
            return "float_seq"
    if isinstance(node, (ast.List, ast.Tuple)) and node.elts:
        kinds = {_value_kind(elt) for elt in node.elts}
        if kinds == {"float"}:
            return "float_seq"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return "float"
    return None


def _statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements of a function body in source order, compound bodies
    included; nested function and class definitions are not entered."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While, ast.If)):
            yield from _statements(stmt.body + stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            yield from _statements(stmt.body)
        elif isinstance(stmt, ast.Try):
            yield from _statements(stmt.body + stmt.orelse + stmt.finalbody)
            for handler in stmt.handlers:
                yield from _statements(handler.body)


def _is_self_attr(node: ast.expr) -> TypeGuard[ast.Attribute]:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("self", "cls")
    )


class _ClassFacts:
    """Float evidence for one class's attributes, from its own body.

    An annotation (class-level or ``self.x: T = ...``) decides when
    there is one; otherwise the first value a method assigns does.
    """

    def __init__(self, body: list[ast.stmt]) -> None:
        self.attr_types: dict[str, str] = {}
        self.attr_kinds: dict[str, str] = {}
        for item in body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                self.attr_types[item.target.id] = ast.unparse(item.annotation)
                kind = _value_kind(item.value) if item.value is not None else None
                if kind is not None:
                    self.attr_kinds[item.target.id] = kind
        for item in body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_method(item)

    def _scan_method(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        local_kinds: dict[str, str] = {}
        for stmt in _statements(node.body):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    self._bind(target, stmt.value, local_kinds)
            elif isinstance(stmt, ast.AnnAssign):
                if stmt.value is not None:
                    self._bind(stmt.target, stmt.value, local_kinds)
                if _is_self_attr(stmt.target):
                    self.attr_types[stmt.target.attr] = ast.unparse(stmt.annotation)

    def _bind(
        self, target: ast.expr, value: ast.expr, local_kinds: dict[str, str]
    ) -> None:
        kind = _value_kind(value)
        if isinstance(target, ast.Name):
            if kind is not None:
                local_kinds[target.id] = kind
            else:
                local_kinds.pop(target.id, None)
        elif _is_self_attr(target):
            if kind is None and isinstance(value, ast.Name):
                kind = local_kinds.get(value.id)
            if kind is not None:
                self.attr_kinds.setdefault(target.attr, kind)

    def is_float_seq(self, attr: str) -> bool:
        annotation = self.attr_types.get(attr)
        if annotation is not None:
            return any(marker in annotation for marker in _FLOAT_SEQ_MARKERS)
        return self.attr_kinds.get(attr) == "float_seq"

    def is_float(self, attr: str) -> bool:
        annotation = self.attr_types.get(attr)
        if annotation is not None:
            return annotation == "float"
        return self.attr_kinds.get(attr) == "float"


class _Visitor(ast.NodeVisitor):
    def __init__(self, ctx: FileContext, accumulation: bool) -> None:
        self.ctx = ctx
        #: Whether the ``+=`` check runs on this file.
        self.accumulation = accumulation
        self.findings: list[Finding] = []
        #: Innermost class last; outside any class there is no evidence.
        self._class_stack: list[_ClassFacts] = [_ClassFacts([])]
        #: local name -> inferred kind, per function scope.
        self._scopes: list[dict[str, str]] = [{}]
        self._loop_depth = 0

    # -- scope / class tracking -------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(_ClassFacts(node.body))
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._scopes.append({})
        depth, self._loop_depth = self._loop_depth, 0
        self.generic_visit(node)
        self._loop_depth = depth
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_For(self, node: ast.For) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_While = visit_For  # type: ignore[assignment]

    # -- evidence tracking -------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        kind = _value_kind(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if kind is not None:
                    self._scopes[-1][target.id] = kind
                else:
                    self._scopes[-1].pop(target.id, None)
        self.generic_visit(node)

    # -- the rule ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and len(node.args) >= 1
            and not node.keywords
            and self._is_float_sequence(node.args[0])
        ):
            self.findings.append(
                self.ctx.finding(
                    "FLT001",
                    node,
                    "bare sum() over floats is order/grouping-sensitive in "
                    "the last ulp; use math.fsum for byte-identical "
                    "derivations",
                )
            )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if (
            self.accumulation
            and isinstance(node.op, ast.Add)
            and self._is_float_accumulator(node)
        ):
            self.findings.append(
                self.ctx.finding(
                    "FLT001",
                    node,
                    "running float += accumulation is grouping-sensitive in "
                    "the last ulp; collect samples and math.fsum on read",
                )
            )
        self.generic_visit(node)

    # -- float evidence ----------------------------------------------------

    def _is_float_sequence(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return self._scopes[-1].get(node.id) == "float_seq"
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "self":
                return self._class_stack[-1].is_float_seq(node.attr)
            return False
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._is_float_element(node.elt)
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in ("list", "sorted")
                and node.args
            ):
                return self._is_float_sequence(node.args[0])
            if isinstance(func, ast.Attribute) and func.attr == "values":
                # ``sum(histogram.values())`` — unresolvable receiver type;
                # stay optimistic.
                return False
        kind = _value_kind(node)
        return kind == "float_seq"

    def _is_float_element(self, node: ast.expr) -> bool:
        if _value_kind(node) == "float":
            return True
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "self":
                return self._class_stack[-1].is_float(node.attr)
        if isinstance(node, ast.Name):
            return self._scopes[-1].get(node.id) == "float"
        return False

    def _is_float_accumulator(self, node: ast.AugAssign) -> bool:
        target = node.target
        if isinstance(target, ast.Name):
            return (
                self._loop_depth > 0
                and self._scopes[-1].get(target.id) == "float"
            )
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            if _value_kind(node.value) == "int":
                return False
            return self._class_stack[-1].is_float(target.attr)
        return False
