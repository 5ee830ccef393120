"""Package ``__init__``s re-export nothing, bench's names aside."""

import repro
from tests.hygiene.shipped import _assigns_all


#: Names a package ``__init__`` re-exports, by package, kept for the
#: reason given.  Import any other name from the module that defines it.
_REEXPORTED_NAMES = {
    # `bench/workloads.py` imports these eight from the package, and the
    # benchmark's files are not edited alongside the program.
    "repro.obs": [
        "Instrumentation", "alert_report_to_json", "build_alert_report", "build_report",
        "capture", "disabled", "render_report", "report_to_json",
    ],
}


class ReexportsNothing:
    def test_package_inits_reexport_nothing(self):
        """A name has one import path: the module that defines it.

        A package ``__init__`` re-exports a name when it imports it and
        either lists it in ``__all__`` or never uses it itself.
        """
        import ast
        from pathlib import Path

        package_dir = Path(repro.__file__).parent
        found = {}
        for path in sorted(package_dir.rglob("__init__.py")):
            tree = ast.parse(path.read_text())
            imported, listed = set(), set()
            for node in tree.body:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    imported.update(alias.asname or alias.name for alias in node.names)
                elif isinstance(node, ast.Assign) and _assigns_all(node):
                    listed.update(ast.literal_eval(node.value))
            used = {
                node.id
                for stmt in tree.body
                if not (isinstance(stmt, ast.Assign) and _assigns_all(stmt))
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
            }
            names = sorted(name for name in imported if name in listed or name not in used)
            if names:
                package = ".".join(path.parent.relative_to(package_dir.parent).parts)
                found[package] = names
        assert found == _REEXPORTED_NAMES
