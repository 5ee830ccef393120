"""Pass-1 indexer and cross-module resolution tests.

These drive the project index directly — the layer every whole-program
rule (DET004, FRK001/002, FLT001) stands on: cycle-bearing import
graphs, star imports, re-exported names, and a fixture package whose
call graph crosses property and classmethod edges.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.lint import ProjectIndex, index_module
from repro.analysis.lint.index import import_name_for


def build_index(tmp_path, files):
    """Write ``{relative path: source}`` and index the lot."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    modules = []
    for rel in files:
        path = tmp_path / rel
        modules.append(
            index_module(str(path), str(path), ast.parse(path.read_text()))
        )
    return ProjectIndex(modules), {rel: str(tmp_path / rel) for rel in files}


# -- import names ---------------------------------------------------------


def test_import_name_walks_packages(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "impl.py").write_text("")
    (tmp_path / "loose.py").write_text("")
    assert import_name_for(str(tmp_path / "pkg" / "__init__.py")) == "pkg"
    assert import_name_for(str(tmp_path / "pkg" / "impl.py")) == "pkg.impl"
    assert import_name_for(str(tmp_path / "loose.py")) == "loose"


# -- cycles ---------------------------------------------------------------


def test_import_cycle_terminates(tmp_path):
    """Mutually recursive modules must resolve, not recurse forever."""
    index, paths = build_index(
        tmp_path,
        {
            "a.py": """
                import b

                def f():
                    return b.g()
                """,
            "b.py": """
                import a

                def g():
                    return a.f()
                """,
        },
    )
    mod_a = index.module_for(paths["a.py"])
    taint = index.return_taint(mod_a, "f")
    assert taint.value == frozenset() and taint.order == frozenset()


def test_taint_flows_through_cyclic_modules(tmp_path):
    """A cycle in the import graph must not block one-way taint flow."""
    index, paths = build_index(
        tmp_path,
        {
            "a.py": """
                import time

                import b

                def f():
                    return time.time()

                def ping():
                    return b.g()
                """,
            "b.py": """
                import a

                def g():
                    return a.f()
                """,
        },
    )
    mod_b = index.module_for(paths["b.py"])
    taint = index.return_taint(mod_b, "g")
    assert any("time.time()" in reason for reason in taint.value)


# -- star imports and re-exports ------------------------------------------


def test_star_import_resolution(tmp_path):
    index, paths = build_index(
        tmp_path,
        {
            "pkg/__init__.py": "from pkg.impl import *\n",
            "pkg/impl.py": """
                import time

                def tick():
                    return time.time()
                """,
            "consumer.py": """
                from pkg import tick

                def wrapped():
                    return tick()
                """,
        },
    )
    consumer = index.module_for(paths["consumer.py"])
    resolved = index.resolve_callable(consumer, None, "tick")
    assert resolved is not None
    defining, qualname = resolved
    assert defining.import_name == "pkg.impl" and qualname == "tick"
    taint = index.return_taint(consumer, "wrapped")
    assert any("time.time()" in reason for reason in taint.value)


def test_reexport_resolution(tmp_path):
    index, paths = build_index(
        tmp_path,
        {
            "pkg/__init__.py": "from pkg.impl import tick\n",
            "pkg/impl.py": """
                import time

                def tick():
                    return time.time()
                """,
            "consumer.py": """
                import pkg

                def wrapped():
                    return pkg.tick()
                """,
        },
    )
    consumer = index.module_for(paths["consumer.py"])
    resolved = index.resolve_callable(consumer, None, "pkg.tick")
    assert resolved is not None
    assert resolved[0].import_name == "pkg.impl"


# -- method kinds and call edges ------------------------------------------


CLOCK = """
    import time

    class Clock:
        @property
        def now(self):
            return time.time()

        @classmethod
        def make(cls):
            return cls()

        @staticmethod
        def zero():
            return 0.0

        def deadline(self):
            return self.now + 5.0
    """


def test_property_and_classmethod_kinds(tmp_path):
    index, paths = build_index(tmp_path, {"clock.py": CLOCK})
    mod = index.module_for(paths["clock.py"])
    cls = mod.classes["Clock"]
    assert cls.method_kind("now") == "property"
    assert cls.method_kind("make") == "classmethod"
    assert cls.method_kind("zero") == "staticmethod"
    assert cls.method_kind("deadline") == "method"


def test_taint_crosses_property_edge(tmp_path):
    """``self.now`` is a call edge when ``now`` is a property."""
    index, paths = build_index(tmp_path, {"clock.py": CLOCK})
    mod = index.module_for(paths["clock.py"])
    taint = index.return_taint(mod, "Clock.deadline")
    assert any("time.time()" in reason for reason in taint.value)


def test_method_resolution_through_bases(tmp_path):
    index, paths = build_index(
        tmp_path,
        {
            "base.py": """
                import time

                class Base:
                    def stamp(self):
                        return time.time()
                """,
            "child.py": """
                from base import Base

                class Child(Base):
                    def when(self):
                        return self.stamp()

                class TypedChild(Base[int]):
                    def when(self):
                        return self.stamp()
                """,
        },
    )
    child_mod = index.module_for(paths["child.py"])
    # A subscripted base (``Base[int]``) names the same class ``Base``.
    assert child_mod.classes["TypedChild"].bases == ("Base",)
    for method in ("Child.when", "TypedChild.when"):
        taint = index.return_taint(child_mod, method)
        assert any("time.time()" in reason for reason in taint.value)
