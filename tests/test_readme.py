"""The README's Python quick start runs as written."""

import re
from pathlib import Path

import repro


def test_the_readme_python_quick_start_runs(capsys):
    readme = Path(repro.__file__).parents[2] / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    exec(compile(block, str(readme), "exec"), {})
    windows, routes = capsys.readouterr().out.splitlines()
    assert windows.startswith("{Prefix.parse(")
    assert "initcwnd" in routes
