"""Every module is reached from a shipped entry point."""

import repro
from tests.hygiene.shipped import _ENTRY_DIRECTORIES


class ModulesReached:
    def test_every_module_is_reached_from_a_shipped_entry_point(self):
        """``src/repro`` holds only what ``repro.cli``, an example, a figure
        benchmark or ``bench/`` imports, directly or transitively.

        The closure is computed with ``ast`` (imports inside functions
        count, nothing is executed) from ``repro/__main__.py``,
        ``examples/*.py``, ``benchmarks/*.py`` and ``bench/*.py``;
        ``bench/tests`` and ``tests/`` are not entry points.  A module
        only tests import belongs under ``tests/`` or nowhere.
        """
        import ast
        from pathlib import Path

        package_dir = Path(repro.__file__).parent
        repo = package_dir.parent.parent
        modules = {}
        for path in package_dir.rglob("*.py"):
            parts = path.relative_to(package_dir.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            modules[".".join(parts)] = path

        def imported_modules(path):
            found = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    found.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    assert node.level == 0, f"relative import in {path}"
                    found.add(node.module)
                    # `from repro.cdn import fluidtraffic` names a submodule.
                    found.update(f"{node.module}.{alias.name}" for alias in node.names)
            reached = set()
            for name in found & modules.keys():
                parts = name.split(".")
                reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
            return reached

        pending = {"repro.__main__"}
        for directory in _ENTRY_DIRECTORIES:
            for path in (repo / directory).glob("*.py"):
                pending |= imported_modules(path)
        reached = set()
        while pending:
            name = pending.pop()
            reached.add(name)
            pending |= imported_modules(modules[name]) - reached
        assert set(modules) - reached == set()
