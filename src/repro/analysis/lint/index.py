"""The whole-program project index behind the two-pass analyzer.

Pass 1 (:func:`index_module`) is a pure function of one file's content:
it extracts a :class:`ModuleIndex` — imports, per-function
nondeterminism summaries (returns-tainted / sink-reaching / pure), and
per-class fork/merge facts.

Pass 2 (:class:`ProjectIndex`) stitches the per-module summaries into a
whole program: it resolves call references across imports, star imports,
re-exports and class hierarchies, and computes each function's *resolved*
return taint as a fixpoint over the call graph (cycles resolve
optimistically to untainted).

Taint is tracked on two channels:

* **value** — the value derives from the wall clock or an unseeded RNG
  (the DET001 hazard class, but propagated interprocedurally);
* **order** — the value is a collection whose iteration order depends on
  hash seeding / insertion history (the DET002 hazard class).

The evaluator is *optimistic on unresolved*: a call or attribute the
index cannot resolve contributes no taint.  That keeps DET004 free of
false positives — the conservative per-file rules still cover syntactic
hazards of unknown provenance.
"""

from __future__ import annotations

import ast
import builtins
import os
from dataclasses import dataclass, field

from repro.analysis.lint.base import module_name_for
from repro.analysis.lint.det001 import (
    _CLOCK_FUNCS,
    _DATETIME_FUNCS,
    _RANDOM_FUNCS,
)
from repro.analysis.lint.det002 import ORDER_SENSITIVE_SINKS, _first_sink

_BUILTIN_NAMES = frozenset(dir(builtins))
_TRANSPARENT = frozenset({"list", "tuple", "reversed", "enumerate", "iter"})
_DICT_VIEWS = frozenset({"keys", "values", "items"})
_MUTATORS = frozenset({"append", "add", "update", "setdefault", "insert", "extend"})

#: ``self.X = <one of these>`` makes a class unpicklable across the fork
#: boundary: constructor attribute chain -> human description.
_PICKLE_HAZARD_CALLS: dict[str, str] = {
    "threading.Lock": "a threading lock",
    "threading.RLock": "a threading lock",
    "threading.Condition": "a threading condition",
    "threading.Event": "a threading event",
    "threading.Semaphore": "a threading semaphore",
    "threading.BoundedSemaphore": "a threading semaphore",
    "multiprocessing.Lock": "a multiprocessing lock",
    "multiprocessing.RLock": "a multiprocessing lock",
    "multiprocessing.Queue": "a multiprocessing queue",
    "open": "an open file handle",
    "os.fdopen": "an open file handle",
    "weakref.ref": "a weak reference",
}


@dataclass(frozen=True)
class Taint:
    """Two-channel taint: direct reasons plus unresolved callee refs."""

    value: frozenset[str] = frozenset()
    order: frozenset[str] = frozenset()
    value_via: frozenset[str] = frozenset()
    order_via: frozenset[str] = frozenset()

    def __or__(self, other: "Taint") -> "Taint":
        return Taint(
            self.value | other.value,
            self.order | other.order,
            self.value_via | other.value_via,
            self.order_via | other.order_via,
        )

    def only_value(self) -> "Taint":
        """The value channel alone (order does not survive a call)."""
        return Taint(value=self.value, value_via=self.value_via)

    @property
    def any_order(self) -> bool:
        return bool(self.order or self.order_via)


EMPTY_TAINT = Taint()


@dataclass(frozen=True)
class SinkEvent:
    """A tainted argument reaching an order-sensitive sink call."""

    sink: str
    line: int
    col: int
    value: tuple[str, ...]
    value_via: tuple[str, ...]
    order: tuple[str, ...]
    order_via: tuple[str, ...]


@dataclass(frozen=True)
class LoopEvent:
    """A loop over an order-tainted iterable whose body hits a sink."""

    sink: str
    line: int
    col: int
    order: tuple[str, ...]
    order_via: tuple[str, ...]


@dataclass(frozen=True)
class FunctionSummary:
    """One function's nondeterminism summary (pass-1, per-module)."""

    name: str
    lineno: int
    kind: str
    calls: tuple[str, ...]
    return_value: tuple[str, ...]
    return_value_via: tuple[str, ...]
    return_order: tuple[str, ...]
    return_order_via: tuple[str, ...]
    sink_events: tuple[SinkEvent, ...]
    loop_events: tuple[LoopEvent, ...]

    @property
    def pure(self) -> bool:
        """No taint returned, no sink reached — trivially safe."""
        return not (
            self.return_value
            or self.return_value_via
            or self.return_order
            or self.return_order_via
            or self.sink_events
            or self.loop_events
        )


@dataclass(frozen=True)
class ClassSummary:
    """One class's fork/merge-safety and float-identity facts."""

    name: str
    lineno: int
    bases: tuple[str, ...]
    methods: tuple[tuple[str, str], ...]
    slots: tuple[str, ...]
    has_slots: bool
    hazards: tuple[tuple[str, str, int], ...]
    store_attrs: tuple[tuple[str, str, int], ...]
    constructed: tuple[str, ...]
    attr_types: tuple[tuple[str, str], ...]
    attr_kinds: tuple[tuple[str, str], ...]
    writes_next_id: bool
    has_merge_from: bool
    merge_from_line: int
    merge_reads_next_id: bool
    merge_writes_next_id: bool

    def method_kind(self, name: str) -> str | None:
        for method, kind in self.methods:
            if method == name:
                return kind
        return None

    def attr_type(self, name: str) -> str | None:
        for attr, annotation in self.attr_types:
            if attr == name:
                return annotation
        return None

    def attr_kind(self, name: str) -> str | None:
        for attr, kind in self.attr_kinds:
            if attr == name:
                return kind
        return None


@dataclass
class ModuleIndex:
    """Everything pass 2 needs to know about one module."""

    path: str
    module: str | None
    import_name: str
    imports: dict[str, str] = field(default_factory=dict)
    star_imports: tuple[str, ...] = ()
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)


def import_name_for(path: str) -> str:
    """Dotted import name by walking enclosing ``__init__.py`` packages.

    ``src/repro/sim/kernel.py`` -> ``repro.sim.kernel``;
    ``/tmp/fixtures/helper.py`` -> ``helper`` (no enclosing package).
    Distinct from :func:`~repro.analysis.lint.base.module_name_for`,
    which anchors on a ``repro`` path segment for *rule scoping* — this
    name exists so import resolution works in any fixture directory.
    """
    absolute = os.path.abspath(path)
    directory, filename = os.path.split(absolute)
    parts = [filename[:-3]] if filename.endswith(".py") else [filename]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.append(package)
    parts.reverse()
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


# -- pass 1: per-module extraction ----------------------------------------


class _SourceTables:
    """DET001-style alias tracking for direct entropy-source detection."""

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}
        self.bare: dict[str, str] = {}

    def scan(self, node: ast.Import | ast.ImportFrom) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name in (
                    "time", "random", "datetime", "numpy", "numpy.random",
                    "os", "uuid", "secrets",
                ):
                    target = alias.name
                    if alias.asname is None and "." in alias.name:
                        target = alias.name.split(".")[0]
                    self.aliases[bound] = target
            return
        if node.module == "time":
            for alias in node.names:
                if alias.name in _CLOCK_FUNCS:
                    self.bare[alias.asname or alias.name] = f"time.{alias.name}"
        elif node.module == "random":
            for alias in node.names:
                if alias.name in _RANDOM_FUNCS:
                    self.bare[alias.asname or alias.name] = f"random.{alias.name}"
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self.aliases[alias.asname or alias.name] = "datetime.datetime"
        elif node.module in ("numpy", "numpy.random"):
            for alias in node.names:
                if node.module == "numpy" and alias.name == "random":
                    self.aliases[alias.asname or alias.name] = "numpy.random"
        elif node.module == "os":
            for alias in node.names:
                if alias.name == "urandom":
                    self.bare[alias.asname or alias.name] = "os.urandom"
        elif node.module == "uuid":
            for alias in node.names:
                if alias.name in ("uuid1", "uuid4"):
                    self.bare[alias.asname or alias.name] = f"uuid.{alias.name}"
        elif node.module == "secrets":
            for alias in node.names:
                self.bare[alias.asname or alias.name] = f"secrets.{alias.name}"

    def source_reason(self, node: ast.Call) -> str | None:
        """Why this call reads the wall clock / ambient entropy, if it does."""
        func = node.func
        if isinstance(func, ast.Name):
            origin = self.bare.get(func.id)
            return f"{origin}()" if origin is not None else None
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        if isinstance(base, ast.Name):
            origin = self.aliases.get(base.id)
            if origin == "time" and func.attr in _CLOCK_FUNCS:
                return f"time.{func.attr}()"
            if origin == "random" and func.attr in _RANDOM_FUNCS:
                return f"random.{func.attr}()"
            if origin == "random" and func.attr == "Random" and not node.args:
                return "random.Random() (unseeded)"
            if origin in ("datetime", "datetime.datetime") and func.attr in _DATETIME_FUNCS:
                return f"datetime {func.attr}()"
            if origin == "numpy.random":
                return f"numpy.random.{func.attr}()"
            if origin == "os" and func.attr == "urandom":
                return "os.urandom()"
            if origin == "uuid" and func.attr in ("uuid1", "uuid4"):
                return f"uuid.{func.attr}()"
            if origin == "secrets":
                return f"secrets.{func.attr}()"
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            outer = self.aliases.get(base.value.id)
            if outer == "numpy" and base.attr == "random":
                return f"numpy.random.{func.attr}()"
            if outer == "datetime" and base.attr in ("datetime", "date"):
                if func.attr in _DATETIME_FUNCS:
                    return f"datetime.{base.attr}.{func.attr}()"
        return None


class _ClassFacts:
    """Mutable accumulator for one class's FRK/FLT facts."""

    def __init__(self) -> None:
        self.hazards: list[tuple[str, str, int]] = []
        self.store_attrs: list[tuple[str, str, int]] = []
        self.constructed: list[str] = []
        self.attr_types: dict[str, str] = {}
        self.attr_kinds: dict[str, str] = {}
        self.writes_next_id = False
        self.merge_reads_next_id = False
        self.merge_writes_next_id = False


def _callee_ref(func: ast.expr) -> str | None:
    """Textual reference of a call target: ``f``, ``mod.f``, ``self.m``."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return ".".join(parts)


def _hazard_reason(node: ast.expr) -> str | None:
    """Why this constructor value is unpicklable, if it is."""
    if isinstance(node, ast.Lambda):
        return "a lambda"
    if isinstance(node, ast.GeneratorExp):
        return "a generator"
    if isinstance(node, ast.Call):
        ref = _callee_ref(node.func)
        if ref is not None:
            return _PICKLE_HAZARD_CALLS.get(ref)
    return None


def _value_kind(node: ast.expr) -> str | None:
    """Shallow type evidence for FLT001: float / int / float_seq."""
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


class _FunctionTaint:
    """Single-pass taint walk over one function body.

    Resolution is deferred: calls the walk cannot classify locally are
    recorded as symbolic ``via`` references for pass 2 to resolve.
    """

    def __init__(
        self,
        tables: _SourceTables,
        class_name: str | None,
        property_names: frozenset[str],
        facts: _ClassFacts | None,
        method_name: str | None,
    ) -> None:
        self.tables = tables
        self.class_name = class_name
        self.property_names = property_names
        self.facts = facts
        self.in_init = method_name == "__init__"
        self.in_merge_from = method_name == "merge_from"
        self.env: dict[str, Taint] = {}
        self.var_kinds: dict[str, str] = {}
        self.calls: list[str] = []
        self.ret = EMPTY_TAINT
        self.sink_events: list[SinkEvent] = []
        self.loop_events: list[LoopEvent] = []
        self._order_ctx: list[Taint] = []

    def run(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for stmt in node.body:
            self._stmt(stmt)

    # -- statements --------------------------------------------------------

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            taint = self._expr(node.value)
            for target in node.targets:
                self._bind(target, taint, node.value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._bind(node.target, self._expr(node.value), node.value)
            self._record_annotation(node)
        elif isinstance(node, ast.AugAssign):
            taint = self._expr(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = self.env.get(
                    node.target.id, EMPTY_TAINT
                ) | taint
            elif self._is_self_attr(node.target, "_next_id"):
                self._note_next_id_write()
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.ret = self.ret | self._expr(node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._loop(node)
        elif isinstance(node, ast.While):
            self._expr(node.test)
            for stmt in node.body + node.orelse:
                self._stmt(stmt)
        elif isinstance(node, ast.If):
            self._expr(node.test)
            for stmt in node.body + node.orelse:
                self._stmt(stmt)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                taint = self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taint, item.context_expr)
            for stmt in node.body:
                self._stmt(stmt)
        elif isinstance(node, ast.Try):
            for stmt in node.body + node.orelse + node.finalbody:
                self._stmt(stmt)
            for handler in node.handlers:
                for stmt in handler.body:
                    self._stmt(stmt)
        elif isinstance(node, ast.Expr):
            self._expr(node.value)
        elif isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child)
        # Nested function/class definitions are deliberately skipped:
        # their bodies run in a different dynamic context and the
        # optimistic design prefers silence over mis-attributed taint.

    def _loop(self, node: ast.For | ast.AsyncFor) -> None:
        taint = self._expr(node.iter)
        # Elements carry the iterable's *value* taint; iteration order
        # carries its *order* taint.
        self._bind(node.target, taint.only_value(), None)
        if taint.any_order:
            sink = _first_sink(list(node.body))
            if sink is not None:
                self.loop_events.append(
                    LoopEvent(
                        sink=sink,
                        line=node.iter.lineno,
                        col=node.iter.col_offset,
                        order=tuple(sorted(taint.order)),
                        order_via=tuple(sorted(taint.order_via)),
                    )
                )
        self._order_ctx.append(Taint(order=taint.order, order_via=taint.order_via))
        for stmt in node.body + node.orelse:
            self._stmt(stmt)
        self._order_ctx.pop()

    # -- binding -----------------------------------------------------------

    def _bind(
        self, target: ast.expr, taint: Taint, value: ast.expr | None
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taint
            if value is not None:
                kind = _value_kind(value)
                if kind is not None:
                    self.var_kinds[target.id] = kind
                else:
                    self.var_kinds.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                inner = elt.value if isinstance(elt, ast.Starred) else elt
                self._bind(inner, taint, None)
        elif isinstance(target, ast.Attribute):
            self._bind_attribute(target, value)
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name) and self._loop_order().any_order:
                # Building a dict/list keyed in tainted iteration order.
                self.env[base.id] = self.env.get(base.id, EMPTY_TAINT) | (
                    self._loop_order() | taint.only_value()
                )

    def _bind_attribute(self, target: ast.Attribute, value: ast.expr | None) -> None:
        if self.facts is None or not self._is_self_attr(target, None):
            return
        attr = target.attr
        if attr == "_next_id":
            self._note_next_id_write()
        if value is None:
            return
        kind = _value_kind(value)
        if kind is None and isinstance(value, ast.Name):
            kind = self.var_kinds.get(value.id)
        if kind is not None and attr not in self.facts.attr_kinds:
            self.facts.attr_kinds[attr] = kind
        hazard = _hazard_reason(value)
        if hazard is not None:
            self.facts.hazards.append((attr, hazard, target.lineno))
        if self.in_init and isinstance(value, ast.Call):
            ref = _callee_ref(value.func)
            if ref is not None and not ref.startswith(("self.", "cls.")):
                head = ref.split(".", 1)[0]
                if head and (head[0].isupper() or "." in ref):
                    self.facts.store_attrs.append((attr, ref, target.lineno))

    def _record_annotation(self, node: ast.AnnAssign) -> None:
        if self.facts is None:
            return
        if isinstance(node.target, ast.Attribute) and self._is_self_attr(
            node.target, None
        ):
            self.facts.attr_types[node.target.attr] = ast.unparse(node.annotation)

    def _is_self_attr(self, node: ast.expr, attr: str | None) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
            and (attr is None or node.attr == attr)
        )

    def _note_next_id_write(self) -> None:
        if self.facts is None:
            return
        if self.in_merge_from:
            self.facts.merge_writes_next_id = True
        else:
            self.facts.writes_next_id = True

    def _loop_order(self) -> Taint:
        merged = EMPTY_TAINT
        for ctx in self._order_ctx:
            merged = merged | ctx
        return merged

    # -- expressions -------------------------------------------------------

    def _expr(self, node: ast.expr) -> Taint:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, EMPTY_TAINT)
        if isinstance(node, ast.Constant):
            return EMPTY_TAINT
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, (ast.Set, ast.SetComp)):
            inner = EMPTY_TAINT
            if isinstance(node, ast.Set):
                for elt in node.elts:
                    inner = inner | self._expr(elt)
            else:
                inner = self._comprehension(node, [node.elt])
            return inner.only_value() | Taint(order=frozenset({"a set literal"}))
        if isinstance(node, ast.Dict):
            merged = EMPTY_TAINT
            for key in node.keys:
                if key is not None:
                    merged = merged | self._expr(key)
            for dict_value in node.values:
                merged = merged | self._expr(dict_value)
            return merged
        if isinstance(node, ast.DictComp):
            return self._comprehension(node, [node.key, node.value])
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._comprehension(node, [node.elt])
        if isinstance(node, ast.Attribute):
            base = self._expr(node.value)
            if (
                self.class_name is not None
                and self._is_self_attr(node, None)
                and node.attr in self.property_names
            ):
                ref = f"self.{node.attr}"
                self.calls.append(ref)
                return Taint(
                    value_via=frozenset({ref}), order_via=frozenset({ref})
                )
            return base
        if isinstance(node, ast.Subscript):
            return self._expr(node.value) | self._expr(node.slice).only_value()
        if isinstance(node, ast.BoolOp):
            merged = EMPTY_TAINT
            for operand in node.values:
                merged = merged | self._expr(operand)
            return merged
        if isinstance(node, ast.BinOp):
            return self._expr(node.left) | self._expr(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._expr(node.operand)
        if isinstance(node, ast.Compare):
            merged = self._expr(node.left)
            for comparator in node.comparators:
                merged = merged | self._expr(comparator)
            return merged.only_value()
        if isinstance(node, ast.IfExp):
            self._expr(node.test)
            return self._expr(node.body) | self._expr(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List)):
            merged = EMPTY_TAINT
            for elt in node.elts:
                merged = merged | self._expr(elt)
            return merged
        if isinstance(node, ast.Starred):
            return self._expr(node.value)
        if isinstance(node, ast.JoinedStr):
            merged = EMPTY_TAINT
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    merged = merged | self._expr(part.value)
            return merged.only_value()
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._expr(node.value) if node.value is not None else EMPTY_TAINT
        if isinstance(node, ast.NamedExpr):
            taint = self._expr(node.value)
            self._bind(node.target, taint, node.value)
            return taint
        return EMPTY_TAINT

    def _comprehension(
        self,
        node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp,
        elements: list[ast.expr],
    ) -> Taint:
        merged = EMPTY_TAINT
        order = EMPTY_TAINT
        for generator in node.generators:
            taint = self._expr(generator.iter)
            self._bind(generator.target, taint.only_value(), None)
            merged = merged | taint
            order = order | Taint(order=taint.order, order_via=taint.order_via)
        element_taint = EMPTY_TAINT
        for element in elements:
            element_taint = element_taint | self._expr(element)
        if order.any_order:
            sink = _first_sink(list(elements))
            if sink is not None:
                self.loop_events.append(
                    LoopEvent(
                        sink=sink,
                        line=node.generators[0].iter.lineno,
                        col=node.generators[0].iter.col_offset,
                        order=tuple(sorted(order.order)),
                        order_via=tuple(sorted(order.order_via)),
                    )
                )
        # The produced collection inherits element value taint and the
        # generators' iteration-order taint.
        return element_taint.only_value() | order | merged.only_value()

    def _call(self, node: ast.Call) -> Taint:
        arg_taints = [self._expr(arg) for arg in node.args]
        arg_taints.extend(self._expr(kw.value) for kw in node.keywords)
        args_full = EMPTY_TAINT
        for taint in arg_taints:
            args_full = args_full | taint
        args_value = args_full.only_value()
        func = node.func

        if isinstance(func, ast.Attribute) and func.attr in ORDER_SENSITIVE_SINKS:
            self._expr(func.value)
            if args_full is not EMPTY_TAINT and (
                args_full.value or args_full.value_via
                or args_full.order or args_full.order_via
            ):
                self.sink_events.append(
                    SinkEvent(
                        sink=func.attr,
                        line=node.lineno,
                        col=node.col_offset,
                        value=tuple(sorted(args_full.value)),
                        value_via=tuple(sorted(args_full.value_via)),
                        order=tuple(sorted(args_full.order)),
                        order_via=tuple(sorted(args_full.order_via)),
                    )
                )
            return EMPTY_TAINT

        reason = self.tables.source_reason(node)
        if reason is not None:
            return Taint(value=frozenset({reason}))

        if isinstance(func, ast.Name):
            name = func.id
            first = arg_taints[0] if node.args else EMPTY_TAINT
            if name == "sorted":
                return first.only_value() | args_value
            if name in _TRANSPARENT:
                return first | args_value
            if name in ("set", "frozenset"):
                return args_value | Taint(
                    order=frozenset({f"a {name}() call"})
                )
            if name == "dict":
                return first | args_value
            ref = _callee_ref(func)
            if ref is not None and name not in _BUILTIN_NAMES:
                self.calls.append(ref)
                return args_value | Taint(
                    value_via=frozenset({ref}), order_via=frozenset({ref})
                )
            return args_value

        if isinstance(func, ast.Attribute):
            receiver = self._expr(func.value)
            if func.attr in _DICT_VIEWS and not node.args and not node.keywords:
                return receiver
            if func.attr in _MUTATORS:
                self._mutate_receiver(func.value, args_full)
                return EMPTY_TAINT
            if func.attr in ("pop", "popitem", "copy", "get"):
                return receiver.only_value() | args_value
            ref = _callee_ref(func)
            if ref is not None:
                self.calls.append(ref)
                return args_value | Taint(
                    value_via=frozenset({ref}), order_via=frozenset({ref})
                )
            return args_value | receiver.only_value()

        return args_value

    def _mutate_receiver(self, receiver: ast.expr, args: Taint) -> None:
        """``x.append(...)`` in a tainted-order loop taints ``x``'s order."""
        if not isinstance(receiver, ast.Name):
            return
        loop = self._loop_order()
        if loop.any_order or args.value or args.value_via:
            self.env[receiver.id] = self.env.get(receiver.id, EMPTY_TAINT) | (
                loop | args.only_value()
            )


def _method_kind(node: ast.FunctionDef | ast.AsyncFunctionDef) -> str:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name):
            if decorator.id == "property":
                return "property"
            if decorator.id == "classmethod":
                return "classmethod"
            if decorator.id == "staticmethod":
                return "staticmethod"
        elif isinstance(decorator, ast.Attribute) and decorator.attr == "setter":
            return "property"
    return "method"


def _literal_slots(node: ast.expr) -> tuple[str, ...] | None:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        names: list[str] = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                names.append(elt.value)
            else:
                return None
        return tuple(names)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value,)
    return None


class _NextIdReads(ast.NodeVisitor):
    """Detect ``self._next_id`` loads inside a ``merge_from`` body."""

    def __init__(self) -> None:
        self.found = False

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.ctx, ast.Load)
            and node.attr == "_next_id"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            self.found = True
        self.generic_visit(node)


def index_module(path: str, display_path: str, tree: ast.Module) -> ModuleIndex:
    """Pass 1: extract one module's summary (pure function of content)."""
    mod = ModuleIndex(
        path=display_path,
        module=module_name_for(path),
        import_name=import_name_for(path),
    )
    tables = _SourceTables()

    for node in tree.body:
        if isinstance(node, ast.Import):
            tables.scan(node)
            for alias in node.names:
                if alias.asname:
                    mod.imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    mod.imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            tables.scan(node)
            base = node.module or ""
            if node.level:
                # Relative import: anchor on the enclosing package.
                parts = mod.import_name.split(".")
                anchor = parts[: len(parts) - node.level]
                base = ".".join(anchor + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    mod.star_imports = mod.star_imports + (base,)
                else:
                    mod.imports[alias.asname or alias.name] = f"{base}.{alias.name}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            mod.functions[node.name] = _summarize_function(
                node, tables, None, frozenset(), None
            )
        elif isinstance(node, ast.ClassDef):
            _index_class(mod, node, tables)
    return mod


def _summarize_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    tables: _SourceTables,
    class_name: str | None,
    property_names: frozenset[str],
    facts: _ClassFacts | None,
    kind: str = "function",
) -> FunctionSummary:
    walker = _FunctionTaint(
        tables, class_name, property_names, facts,
        node.name if class_name else None,
    )
    walker.run(node)
    name = f"{class_name}.{node.name}" if class_name else node.name
    return FunctionSummary(
        name=name,
        lineno=node.lineno,
        kind=kind,
        calls=tuple(sorted(set(walker.calls))),
        return_value=tuple(sorted(walker.ret.value)),
        return_value_via=tuple(sorted(walker.ret.value_via)),
        return_order=tuple(sorted(walker.ret.order)),
        return_order_via=tuple(sorted(walker.ret.order_via)),
        sink_events=tuple(walker.sink_events),
        loop_events=tuple(walker.loop_events),
    )


def _index_class(mod: ModuleIndex, node: ast.ClassDef, tables: _SourceTables) -> None:
    methods: dict[str, str] = {}
    bodies: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
    slots: tuple[str, ...] = ()
    has_slots = False
    facts = _ClassFacts()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[item.name] = _method_kind(item)
            bodies.append(item)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    declared = _literal_slots(item.value)
                    if declared is not None:
                        slots = declared
                        has_slots = True
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            facts.attr_types[item.target.id] = ast.unparse(item.annotation)
            if item.value is not None:
                kind = _value_kind(item.value)
                if kind is not None:
                    facts.attr_kinds[item.target.id] = kind

    property_names = frozenset(
        name for name, kind in methods.items() if kind == "property"
    )
    merge_from_line = 0
    for body in bodies:
        kind = methods[body.name]
        mod.functions[f"{node.name}.{body.name}"] = _summarize_function(
            body, tables, node.name, property_names, facts, kind
        )
        if body.name == "merge_from":
            merge_from_line = body.lineno
            reads = _NextIdReads()
            reads.visit(body)
            facts.merge_reads_next_id = reads.found
        for call in mod.functions[f"{node.name}.{body.name}"].calls:
            if not call.startswith(("self.", "cls.")):
                head = call.split(".", 1)[0]
                if head and head[0].isupper():
                    facts.constructed.append(call)

    mod.classes[node.name] = ClassSummary(
        name=node.name,
        lineno=node.lineno,
        bases=tuple(
            ref
            for ref in (
                # ``Base[int]`` names the class ``Base``.
                _callee_ref(base.value if isinstance(base, ast.Subscript) else base)
                for base in node.bases
            )
            if ref is not None
        ),
        methods=tuple(sorted(methods.items())),
        slots=slots,
        has_slots=has_slots,
        hazards=tuple(facts.hazards),
        store_attrs=tuple(facts.store_attrs),
        constructed=tuple(sorted(set(facts.constructed))),
        attr_types=tuple(sorted(facts.attr_types.items())),
        attr_kinds=tuple(sorted(facts.attr_kinds.items())),
        writes_next_id=facts.writes_next_id,
        has_merge_from="merge_from" in methods,
        merge_from_line=merge_from_line,
        merge_reads_next_id=facts.merge_reads_next_id,
        merge_writes_next_id=facts.merge_writes_next_id,
    )


# -- pass 2: whole-program resolution -------------------------------------


@dataclass(frozen=True)
class ResolvedTaint:
    """Taint with every reachable ``via`` reference folded in."""

    value: frozenset[str] = frozenset()
    order: frozenset[str] = frozenset()


EMPTY_RESOLVED = ResolvedTaint()

_MAX_RESOLVE_DEPTH = 8


def _annotate(reason: str, label: str) -> str:
    """Attach the defining call site once; inner hops keep their label."""
    if " via " in reason:
        return reason
    return f"{reason} via {label}()"


class ProjectIndex:
    """The stitched whole-program view rules run against."""

    def __init__(self, modules: list[ModuleIndex]) -> None:
        self.modules: dict[str, ModuleIndex] = {m.path: m for m in modules}
        self.by_import_name: dict[str, ModuleIndex] = {}
        for mod in modules:
            self.by_import_name.setdefault(mod.import_name, mod)
        self._return_memo: dict[tuple[str, str], ResolvedTaint] = {}
        self._in_progress: set[tuple[str, str]] = set()

    def module_for(self, display_path: str) -> ModuleIndex | None:
        return self.modules.get(display_path)

    # -- symbol resolution -------------------------------------------------

    def resolve_callable(
        self,
        mod: ModuleIndex,
        scope_class: str | None,
        ref: str,
        depth: int = 0,
    ) -> tuple[ModuleIndex, str] | None:
        """``(defining module, qualified name)`` for a call ref, or None."""
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        parts = ref.split(".")
        if parts[0] in ("self", "cls"):
            if scope_class is None or len(parts) != 2:
                return None
            return self._resolve_method(mod, scope_class, parts[1])
        if len(parts) == 1:
            name = parts[0]
            if name in mod.functions:
                return (mod, name)
            if name in mod.classes:
                return None  # constructor: optimistically untainted
            target = mod.imports.get(name)
            if target is not None and target != name:
                return self._resolve_fq(target, depth + 1)
            for star in mod.star_imports:
                hit = self._resolve_fq(f"{star}.{name}", depth + 1)
                if hit is not None:
                    return hit
            return None
        head = parts[0]
        if head in mod.classes and len(parts) == 2:
            return self._resolve_method(mod, head, parts[1])
        target = mod.imports.get(head)
        if target is not None:
            return self._resolve_fq(
                ".".join([target] + parts[1:]), depth + 1
            )
        return None

    def _resolve_fq(
        self, fq: str, depth: int
    ) -> tuple[ModuleIndex, str] | None:
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        parts = fq.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            owner = self.by_import_name.get(".".join(parts[:cut]))
            if owner is None:
                continue
            symbol = ".".join(parts[cut:])
            if symbol in owner.functions:
                return (owner, symbol)
            first = parts[cut]
            rest = parts[cut + 1:]
            if first in owner.classes and len(rest) == 1:
                return self._resolve_method(owner, first, rest[0])
            reexport = owner.imports.get(first)
            if reexport is not None and reexport != first:
                return self._resolve_fq(
                    ".".join([reexport] + rest), depth + 1
                )
            for star in owner.star_imports:
                hit = self._resolve_fq(
                    ".".join([star, first] + rest), depth + 1
                )
                if hit is not None:
                    return hit
            return None
        return None

    def _resolve_method(
        self,
        mod: ModuleIndex,
        class_name: str,
        method: str,
        depth: int = 0,
    ) -> tuple[ModuleIndex, str] | None:
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        cls = mod.classes.get(class_name)
        if cls is None:
            return None
        qualified = f"{class_name}.{method}"
        if qualified in mod.functions:
            return (mod, qualified)
        for base_ref in cls.bases:
            base = self.resolve_class(mod, base_ref)
            if base is not None:
                hit = self._resolve_method(base[0], base[1].name, method, depth + 1)
                if hit is not None:
                    return hit
        return None

    def resolve_class(
        self, mod: ModuleIndex, ref: str, depth: int = 0
    ) -> tuple[ModuleIndex, ClassSummary] | None:
        """``(defining module, class summary)`` for a class ref, or None."""
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        parts = ref.split(".")
        if len(parts) == 1:
            summary = mod.classes.get(ref)
            if summary is not None:
                return (mod, summary)
            target = mod.imports.get(ref)
            if target is not None and target != ref:
                return self._resolve_class_fq(target, depth + 1)
            for star in mod.star_imports:
                hit = self._resolve_class_fq(f"{star}.{ref}", depth + 1)
                if hit is not None:
                    return hit
            return None
        target = mod.imports.get(parts[0])
        if target is not None:
            return self._resolve_class_fq(
                ".".join([target] + parts[1:]), depth + 1
            )
        return None

    def _resolve_class_fq(
        self, fq: str, depth: int
    ) -> tuple[ModuleIndex, ClassSummary] | None:
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        parts = fq.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            owner = self.by_import_name.get(".".join(parts[:cut]))
            if owner is None:
                continue
            symbol = ".".join(parts[cut:])
            summary = owner.classes.get(symbol)
            if summary is not None:
                return (owner, summary)
            first = parts[cut]
            rest = parts[cut + 1:]
            reexport = owner.imports.get(first)
            if reexport is not None and reexport != first:
                return self._resolve_class_fq(
                    ".".join([reexport] + rest), depth + 1
                )
            for star in owner.star_imports:
                hit = self._resolve_class_fq(
                    ".".join([star, first] + rest), depth + 1
                )
                if hit is not None:
                    return hit
            return None
        return None

    # -- taint fixpoint ----------------------------------------------------

    def return_taint(self, mod: ModuleIndex, qualname: str) -> ResolvedTaint:
        """A function's resolved return taint (cycles resolve untainted)."""
        key = (mod.path, qualname)
        cached = self._return_memo.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            return EMPTY_RESOLVED
        summary = mod.functions.get(qualname)
        if summary is None:
            return EMPTY_RESOLVED
        self._in_progress.add(key)
        try:
            scope_class = qualname.split(".")[0] if "." in qualname else None
            value = set(summary.return_value)
            order = set(summary.return_order)
            resolved_value, _ = self.resolve_via(
                mod, scope_class, summary.return_value_via
            )
            _, resolved_order = self.resolve_via(
                mod, scope_class, summary.return_order_via
            )
            value |= resolved_value
            order |= resolved_order
            result = ResolvedTaint(frozenset(value), frozenset(order))
        finally:
            self._in_progress.discard(key)
        self._return_memo[key] = result
        return result

    def resolve_via(
        self,
        mod: ModuleIndex,
        scope_class: str | None,
        refs: tuple[str, ...] | frozenset[str],
    ) -> tuple[frozenset[str], frozenset[str]]:
        """Resolved ``(value, order)`` taint contributed by callee refs."""
        value: set[str] = set()
        order: set[str] = set()
        for ref in sorted(refs):
            target = self.resolve_callable(mod, scope_class, ref)
            if target is None:
                continue  # optimistic: unresolved calls contribute nothing
            taint = self.return_taint(*target)
            label = f"{target[0].import_name}.{target[1]}"
            value |= {_annotate(reason, label) for reason in taint.value}
            order |= {_annotate(reason, label) for reason in taint.order}
        return frozenset(value), frozenset(order)

    def call_order_taint(
        self, mod: ModuleIndex, scope_class: str | None, ref: str
    ) -> frozenset[str] | None:
        """Resolved order taint of a call's return, or None if unresolvable.

        DET002 uses this to tell *proven-ordered* dict views (resolvable,
        untainted: skip the conservative finding) apart from unknown ones
        (unresolvable: keep it) — tainted resolvable ones are DET004's.
        """
        target = self.resolve_callable(mod, scope_class, ref)
        if target is None:
            return None
        return self.return_taint(*target).order
