"""FRK001/FRK002 — fork/merge safety of Instrumentation stores.

Fixtures model the real contract: ``repro.parallel`` pickles each
worker's Instrumentation back to the parent and folds stores in with
``merge_from``, renumbering dense ids so serial == parallel byte-wise.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis.lint import ProjectIndex, collect_files, index_module, run_lint
from repro.analysis.lint.frk import Frk002MergeContract, _crossing_classes

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint(tmp_path, source, select):
    (tmp_path / "obs.py").write_text(textwrap.dedent(source))
    return run_lint([str(tmp_path)], select=select)


GOOD = """
    class FlowLog:
        def __init__(self):
            self._records = []
            self._next_id = 0

        def record(self, flow):
            self._next_id += 1
            self._records.append((self._next_id, flow))

        def merge_from(self, other):
            offset = self._next_id
            self._records.extend(other._records)
            self._next_id = offset + other._next_id


    class Instrumentation:
        def __init__(self):
            self.flows = FlowLog()
    """


def test_well_formed_store_is_silent(tmp_path):
    result = lint(tmp_path, GOOD, ["FRK001", "FRK002"])
    assert result.findings == []


def test_frk001_lock_in_store(tmp_path):
    source = """
        import threading


        class TraceLog:
            def __init__(self):
                self._lock = threading.Lock()
                self._spans = []

            def merge_from(self, other):
                self._spans.extend(other._spans)


        class Instrumentation:
            def __init__(self):
                self.trace = TraceLog()
        """
    result = lint(tmp_path, source, ["FRK001"])
    (finding,) = result.findings
    assert finding.code == "FRK001"
    assert "TraceLog" in finding.message
    assert "_lock" in finding.message


def test_frk001_hazard_in_constructed_record(tmp_path):
    """The closure follows classes a store *constructs*, not just holds."""
    source = """
        class Sample:
            def __init__(self):
                self.thunk = lambda: 0


        class Store:
            def __init__(self):
                self._items = []

            def record(self):
                self._items.append(Sample())

            def merge_from(self, other):
                self._items.extend(other._items)


        class Instrumentation:
            def __init__(self):
                self.store = Store()
        """
    result = lint(tmp_path, source, ["FRK001"])
    (finding,) = result.findings
    assert "Sample" in finding.message
    assert "thunk" in finding.message


def test_frk001_ignores_classes_outside_the_closure(tmp_path):
    """A lock in a class that never crosses the fork is fine."""
    source = """
        import threading


        class Unrelated:
            def __init__(self):
                self._lock = threading.Lock()


        class FlowLog:
            def __init__(self):
                self._records = []

            def merge_from(self, other):
                self._records.extend(other._records)


        class Instrumentation:
            def __init__(self):
                self.flows = FlowLog()
        """
    result = lint(tmp_path, source, ["FRK001"])
    assert result.findings == []


def test_frk002_missing_merge_from(tmp_path):
    source = """
        class SpanLog:
            def __init__(self):
                self._spans = []


        class Instrumentation:
            def __init__(self):
                self.spans = SpanLog()
        """
    result = lint(tmp_path, source, ["FRK002"])
    (finding,) = result.findings
    assert finding.code == "FRK002"
    assert "no merge_from" in finding.message


def test_frk002_inherited_merge_from_counts(tmp_path):
    source = """
        class Mergeable:
            def merge_from(self, other):
                raise NotImplementedError


        class SpanLog(Mergeable):
            def __init__(self):
                self._spans = []


        class FlowLog(Mergeable[int]):
            def __init__(self):
                self._flows = []


        class Instrumentation:
            def __init__(self):
                self.spans = SpanLog()
                self.flows = FlowLog()
        """
    result = lint(tmp_path, source, ["FRK002"])
    assert result.findings == []


def test_frk002_dense_id_store_must_renumber(tmp_path):
    source = """
        class AlertLog:
            def __init__(self):
                self._alerts = []
                self._next_id = 0

            def fire(self, alert):
                self._next_id += 1
                self._alerts.append((self._next_id, alert))

            def merge_from(self, other):
                self._alerts.extend(other._alerts)


        class Instrumentation:
            def __init__(self):
                self.alerts = AlertLog()
        """
    result = lint(tmp_path, source, ["FRK002"])
    (finding,) = result.findings
    assert "renumber" in finding.message
    assert "AlertLog" in finding.message


def test_frk_rules_span_modules(tmp_path):
    """Store defined in one module, registered from another."""
    (tmp_path / "stores.py").write_text(
        textwrap.dedent(
            """
            import threading


            class TraceLog:
                def __init__(self):
                    self._lock = threading.Lock()

                def merge_from(self, other):
                    pass
            """
        )
    )
    (tmp_path / "instrument.py").write_text(
        textwrap.dedent(
            """
            from stores import TraceLog


            class Instrumentation:
                def __init__(self):
                    self.trace = TraceLog()
            """
        )
    )
    result = run_lint([str(tmp_path)], select=["FRK001"])
    (finding,) = result.findings
    assert "stores.py" in finding.path


def test_shipped_stores_are_all_in_the_crossing_set():
    """The rules are not vacuous on the real tree.

    Every store ``Instrumentation.__init__`` registers is found, its
    ``merge_from`` resolves (five of them through the generic
    ``BoundedLog[...]`` base), and the base itself crosses the boundary.
    """
    files = collect_files([str(REPO_ROOT / "src" / "repro" / "obs")])
    index = ProjectIndex(
        [index_module(f, f, ast.parse(Path(f).read_text())) for f in files]
    )
    crossing, stores = _crossing_classes(index)
    assert sorted(cls.name for _, cls, _, _ in stores) == [
        "AlertLog",
        "FlowLog",
        "MetricsRegistry",
        "SpanLog",
        "Timeline",
        "TraceLog",
        "WindowedStore",
    ]
    assert all(
        Frk002MergeContract._has_merge_from(index, mod, cls)
        for mod, cls, _, _ in stores
    )
    assert "BoundedLog" in {cls.name for _, cls in crossing}
