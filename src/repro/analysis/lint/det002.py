"""DET002 — unordered-collection iteration feeding order-sensitive sinks.

Set iteration order depends on hash seeding and insertion history; dict
iteration order is reproducible only if every insertion site is.  When a
loop over such a collection *schedules events*, *appends to an obs
store* (trace records, spans, flows, histogram observations) or *feeds a
``merge_from``*, the iteration order becomes part of the simulation
state — the precise hazard class that breaks byte-identity between
serial and ``--workers N`` runs.  Wrapping the iterable in ``sorted()``
(or restructuring onto a list) removes the hazard.

The rule is deliberately conservative about *sinks*: loops that only
increment counters or write gauges are order-insensitive (those merges
are commutative) and are not flagged.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.base import FileContext, Finding, Rule

#: Method names whose call order is part of observable simulation state.
ORDER_SENSITIVE_SINKS = frozenset({
    "schedule", "schedule_at",   # event scheduling
    "record", "begin", "observe",  # trace / span / flow / histogram appends
    "merge_from",                # store merges
})

#: Wrappers that neutralize the hazard.
_ORDERING_WRAPPERS = frozenset({"sorted"})
#: Wrappers that preserve the underlying order (look through them).
_TRANSPARENT_WRAPPERS = frozenset({"list", "tuple", "reversed", "enumerate", "iter"})

_DICT_VIEW_METHODS = frozenset({"keys", "values", "items"})


class Det002UnorderedIteration(Rule):
    code = "DET002"
    summary = (
        "iteration over a set/dict feeding an order-sensitive sink "
        "(wrap the iterable in sorted(...))"
    )
    exempt_modules = ("repro.analysis.lint",)

    def visit_file(self, ctx: FileContext) -> list[Finding]:
        visitor = _Visitor(ctx)
        visitor.visit(ctx.tree)
        return visitor.findings


def _classify(node: ast.expr, bindings: dict[str, str]) -> str | None:
    """"set" / "dict" / "dict view" when ``node`` is hazard-ordered."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, ast.Name):
        return bindings.get(node.id)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ("set", "frozenset"):
                return "set"
            if func.id == "dict":
                return "dict"
            if func.id in _ORDERING_WRAPPERS:
                return None
            if func.id in _TRANSPARENT_WRAPPERS and node.args:
                return _classify(node.args[0], bindings)
            return None
        if isinstance(func, ast.Attribute) and func.attr in _DICT_VIEW_METHODS:
            if not node.args and not node.keywords:
                return "dict view"
    return None


class _SinkScan(ast.NodeVisitor):
    """Find the first order-sensitive sink call inside a subtree."""

    def __init__(self) -> None:
        self.sink: str | None = None

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self.sink is None
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ORDER_SENSITIVE_SINKS
        ):
            self.sink = node.func.attr
        self.generic_visit(node)


def _first_sink(nodes: list[ast.AST]) -> str | None:
    scan = _SinkScan()
    for node in nodes:
        scan.visit(node)
        if scan.sink is not None:
            return scan.sink
    return None


class _Visitor(ast.NodeVisitor):
    """Tracks per-scope set/dict bindings and inspects loops."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []
        self._scopes: list[dict[str, str]] = [{}]

    @property
    def _bindings(self) -> dict[str, str]:
        return self._scopes[-1]

    # -- scope handling ---------------------------------------------------

    def _visit_scope(self, node: ast.AST) -> None:
        self._scopes.append({})
        self.generic_visit(node)
        self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_scope(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scope(node)

    # -- binding inference ------------------------------------------------

    def _bind(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            kind = _classify(value, self._bindings)
            if kind in ("set", "dict"):
                self._bindings[target.id] = kind
            else:
                self._bindings.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            # ``a, b = compute()`` rebinds both names to unknown kinds.
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    self._bindings.pop(elt.id, None)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._bind(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind(node.target, node.value)
        self.generic_visit(node)

    # -- the rule ---------------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        kind = _classify(node.iter, self._bindings)
        if kind is not None:
            sink = _first_sink(list(node.body))
            if sink is not None:
                self._report(node.iter, kind, sink)
        self.generic_visit(node)

    def _visit_comprehension(
        self, node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp
    ) -> None:
        elements: list[ast.AST]
        if isinstance(node, ast.DictComp):
            elements = [node.key, node.value]
        else:
            elements = [node.elt]
        for generator in node.generators:
            kind = _classify(generator.iter, self._bindings)
            if kind is not None:
                sink = _first_sink(elements)
                if sink is not None:
                    self._report(generator.iter, kind, sink)
        self._visit_scope(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def _report(self, node: ast.AST, kind: str, sink: str) -> None:
        self.findings.append(
            self.ctx.finding(
                "DET002",
                node,
                f"iteration over a {kind} feeds order-sensitive sink "
                f"`.{sink}()`; wrap the iterable in sorted(...) or "
                "restructure onto an ordered collection",
            )
        )
