"""What the hygiene checks count as shipped, and a fresh interpreter
to probe imports in."""

import ast
import os
import subprocess
import sys

import repro


def _fresh_interpreter(probe: str, *argv: str) -> str:
    """Run ``probe`` in a new interpreter with ``src/`` on the path; its stdout."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    return result.stdout


#: Directories whose top-level scripts are shipped entry points, beside
#: ``repro/__main__.py``; ``tests/`` and ``bench/tests`` are not.
_ENTRY_DIRECTORIES = ("examples", "benchmarks", "bench")


def _shipped_trees():
    """``src/repro``'s directory and the parsed tree of every shipped file:
    the package itself and the top-level scripts of ``_ENTRY_DIRECTORIES``.
    """
    import ast
    from pathlib import Path

    package_dir = Path(repro.__file__).parent
    repo = package_dir.parent.parent
    shipped = list(package_dir.rglob("*.py"))
    for directory in _ENTRY_DIRECTORIES:
        shipped += (repo / directory).glob("*.py")
    return package_dir, {path: ast.parse(path.read_text()) for path in shipped}


def _assigns_all(node) -> bool:
    """Whether an ``ast.Assign`` binds ``__all__``."""
    return any(getattr(target, "id", None) == "__all__" for target in node.targets)
