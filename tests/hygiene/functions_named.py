"""Every function and method is named by a shipped file."""

import ast
from collections import Counter

from tests.hygiene.resolver import _Resolver
from tests.hygiene.shipped import _assigns_all


#: The ``bench/`` tables that name methods as strings, to patch them.
_PATCH_TABLES = ("PATCH_TARGETS", "ROW_TARGETS")


def _names(node):
    """``(identifier, kind)`` for every place ``node`` names a function or
    method: ``"name"`` for a bare name, ``"attribute"`` for an attribute,
    an import, a string passed to ``getattr``, ``setattr`` or ``hasattr``,
    a string in one of ``_PATCH_TABLES``, and a name a class body assigns.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, "name"
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, "attribute"
        elif isinstance(sub, ast.alias):
            yield sub.name.split(".")[-1], "attribute"
            if sub.asname:
                yield sub.asname, "attribute"
        elif (
            isinstance(sub, ast.Call)
            and ast.unparse(sub.func) in ("getattr", "setattr", "hasattr")
            and len(sub.args) > 1
            and isinstance(sub.args[1], ast.Constant)
        ):
            yield str(sub.args[1].value), "attribute"
        elif isinstance(sub, ast.AnnAssign) and ast.unparse(sub.target) in _PATCH_TABLES:
            for item in ast.walk(sub.value):
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    yield item.value, "attribute"
        elif isinstance(sub, ast.ClassDef):
            # `visit_ListComp = _visit_comprehension` names a method.
            for stmt in sub.body:
                if isinstance(stmt, ast.Assign):
                    for item in ast.walk(stmt.value):
                        if isinstance(item, ast.Name):
                            yield item.id, "attribute"


#: Functions and methods that no shipped file names, each kept for the
#: reason given.  Any other such function is code only tests reach: delete
#: it, or ship an entry point that calls it.
_UNNAMED_FUNCTIONS = {
    "model.slowstart.rounds_schedule": "the per-round window list that "
    "tests/model/test_slowstart.py checks rtts_to_complete against",
    "linux.ip_tool.IpRouteTool.route_get": "kept by the reachability pass "
    "(EXPERIMENTS.md): 18 tests in 5 files assert routes through it",
    "tcp.socket.TcpSocket.abort": "tests/tcp/test_close_matrix.py drives `abort()` "
    "in ESTABLISHED, FIN_WAIT_2 and CLOSE_WAIT",
}


class FunctionsNamed:
    def test_every_function_and_method_is_named_by_a_shipped_file(self):
        """Every function and method in ``src/repro`` is named by a shipped
        file outside its own ``def``, every package ``__init__`` and every
        ``__all__``.

        A method is named where its identifier appears as an attribute, an
        import, a string passed to ``getattr``, ``setattr`` or ``hasattr``,
        or a string in one of ``bench/``'s ``_PATCH_TABLES``; a function
        also where its bare name appears.  A local variable, a keyword or
        a column header of the same name names neither.  Dunder methods
        and the ``visit_*`` methods of ``ast.NodeVisitor`` subclasses are
        exempt: Python and the visitor call them by name.
        """
        index = _Resolver()
        named = Counter()  # (identifier, "attribute" or "name") -> occurrences
        for path, tree in index.trees.items():
            if path.name != "__init__.py":
                body = [s for s in tree.body if not (isinstance(s, ast.Assign) and _assigns_all(s))]
                named.update(_names(ast.Module(body=body, type_ignores=[])))
        unnamed = set()
        for d in index.def_of.values():
            name = d.node.name
            dunder = name.startswith("__") and name.endswith("__")
            visitor = d.cls is not None and any(
                ast.unparse(base).endswith("NodeVisitor") for base in d.cls.bases
            )
            if not d.package or dunder or (visitor and name.startswith("visit_")):
                continue
            kinds = ["attribute"] if d.cls is not None else ["attribute", "name"]
            uses = named.copy()
            if index.path_of[d.module].name != "__init__.py":
                uses.subtract(_names(d.node))
            if sum(uses[(name, kind)] for kind in kinds) <= 0:
                unnamed.add(f"{d.module.removeprefix('repro.')}.{d.qualname}")
        assert unnamed == set(_UNNAMED_FUNCTIONS)
