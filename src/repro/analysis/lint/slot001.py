"""SLOT001 — attribute assigned on ``self`` but not declared in ``__slots__``.

The hot-path classes (``TcpSocket``, ``Link``, ``Segment``, ``Event``)
use ``__slots__`` for heap compactness.  Assigning an undeclared
attribute on an instance of such a class raises ``AttributeError`` *at
runtime*, on whichever code path first reaches the assignment — the
silent-until-triggered class of bug this rule moves to review time.

A class is checked only when its full inheritance chain is resolvable
within the file and every ancestor declares a literal ``__slots__``
(otherwise instances carry a ``__dict__`` and any attribute is legal).
:class:`repro.records.Frozen`, imported under its own name, ends a chain
the way ``object`` does (it declares no slots), and the
``object.__setattr__(self, "x", ...)`` stores of a frozen record's
``__init__`` are checked like ``self.x = ...``.  Property setters defined
on the class are recognized as legitimate assignment targets.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.lint.base import FileContext, Finding, Rule


@dataclass
class _ClassInfo:
    name: str
    node: ast.ClassDef
    slots: tuple[str, ...] | None = None   # None: no literal __slots__
    slots_unknown: bool = False            # __slots__ present but not literal
    bases: list[str] = field(default_factory=list)
    bases_unresolvable: bool = False
    setter_names: set[str] = field(default_factory=set)


class Slot001UndeclaredSlot(Rule):
    code = "SLOT001"
    summary = "attribute assigned on self but missing from __slots__"

    def visit_file(self, ctx: FileContext) -> list[Finding]:
        classes = _collect_classes(ctx.tree)
        roots = {"object"} | _frozen_names(ctx.tree)
        findings: list[Finding] = []
        for info in classes.values():
            allowed = _resolve_allowed(info, classes, roots)
            if allowed is None:
                continue
            findings.extend(_check_class(ctx, info, allowed))
        return findings


def _collect_classes(tree: ast.Module) -> dict[str, _ClassInfo]:
    classes: dict[str, _ClassInfo] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        info = _ClassInfo(name=node.name, node=node)
        if any(_is_dataclass_with_slots(d) for d in node.decorator_list):
            # @dataclass(slots=True) synthesizes __slots__ from the
            # fields; the AST does not see them, so skip the class.
            info.slots_unknown = True
        for base in node.bases:
            if isinstance(base, ast.Name):
                info.bases.append(base.id)
            else:
                info.bases_unresolvable = True
        for statement in node.body:
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        literal = _literal_slots(statement.value)
                        if literal is None:
                            info.slots_unknown = True
                        else:
                            info.slots = literal
            elif isinstance(statement, ast.FunctionDef):
                for decorator in statement.decorator_list:
                    if (
                        isinstance(decorator, ast.Attribute)
                        and decorator.attr == "setter"
                    ):
                        info.setter_names.add(statement.name)
        classes[node.name] = info
    return classes


def _frozen_names(tree: ast.Module) -> set[str]:
    """``Frozen`` when the module imports it from :mod:`repro.records`."""
    return {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "repro.records"
        for alias in node.names
        if alias.name == "Frozen" and alias.asname is None
    }


def _is_dataclass_with_slots(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    func = decorator.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    if name != "dataclass":
        return False
    return any(
        kw.arg == "slots"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in decorator.keywords
    )


def _literal_slots(value: ast.expr) -> tuple[str, ...] | None:
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        names: list[str] = []
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                names.append(element.value)
            else:
                return None
        return tuple(names)
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return (value.value,)
    return None


def _resolve_allowed(
    info: _ClassInfo, classes: dict[str, _ClassInfo], roots: set[str]
) -> set[str] | None:
    """All legal ``self.X`` targets, or None when the class is uncheckable."""
    allowed: set[str] = set()
    seen: set[str] = set()
    current: _ClassInfo | None = info
    while current is not None:
        if current.name in seen:   # inheritance cycle in source; bail out
            return None
        seen.add(current.name)
        if current.slots_unknown or current.bases_unresolvable:
            return None
        if current.slots is None:
            # An ancestor without __slots__ gives instances a __dict__.
            return None
        allowed.update(current.slots)
        allowed.update(current.setter_names)
        if not current.bases:
            break
        if len(current.bases) > 1:
            return None   # multiple inheritance: stay conservative
        base_name = current.bases[0]
        if base_name in roots and base_name not in classes:
            break
        current = classes.get(base_name)
        if current is None:
            return None   # base defined elsewhere; cannot know its slots
    return allowed


def _check_class(
    ctx: FileContext, info: _ClassInfo, allowed: set[str]
) -> list[Finding]:
    findings: list[Finding] = []
    for statement in info.node.body:
        if not isinstance(statement, ast.FunctionDef):
            continue
        if any(
            isinstance(d, ast.Name) and d.id in ("staticmethod", "classmethod")
            for d in statement.decorator_list
        ):
            continue
        if not statement.args.args:
            continue
        self_name = statement.args.args[0].arg
        for node in ast.walk(statement):
            for target_attr in _stored_self_attrs(node, self_name):
                if target_attr in allowed:
                    continue
                findings.append(
                    ctx.finding(
                        "SLOT001",
                        node,
                        f"attribute `{target_attr}` assigned on self but "
                        f"not declared in __slots__ of class "
                        f"`{info.name}` (would raise AttributeError at "
                        "runtime)",
                    )
                )
    return findings


def _stored_self_attrs(node: ast.AST, self_name: str) -> list[str]:
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Call):
        # setattr(self, "x", ...) or object.__setattr__(self, "x", ...)
        # with a literal name
        func = node.func
        if (
            (
                (isinstance(func, ast.Name) and func.id == "setattr")
                or (
                    isinstance(func, ast.Attribute)
                    and func.attr == "__setattr__"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "object"
                )
            )
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == self_name
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            return [node.args[1].value]
        return []
    flattened: list[ast.expr] = []
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            flattened.extend(target.elts)
        else:
            flattened.append(target)
    return [
        target.attr
        for target in flattened
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == self_name
    ]
