"""What the two golden fixtures share: their bytes, their check, their refresh.

``tests/data/packet_path_golden.json`` and ``tests/data/study_golden.json``
are each written by one test module that names its sections (section name
-> builder).  This module holds everything else: the canonical bytes, the
check that a built section matches the committed one, and the refresh.

Both the check and the refresh print the same leaf diff, one line per
changed value::

    testbed/cells/3/server/0/segments_sent: 12 → 11

so a failing check says exactly what moved, and a refresh prints the lines
its commit has to explain.  Refresh a fixture by running its module from
the repository root, e.g.
``PYTHONPATH=src python -m tests.tcp.test_packet_path_golden``.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

Sections = dict[str, Callable[[], Any]]

_MISSING = object()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def render(document: Any) -> str:
    """The canonical bytes of a fixture."""
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def load(path: Path) -> dict[str, Any]:
    return json.loads(path.read_text())


def _leaves(value: Any, path: str) -> Iterator[tuple[str, Any]]:
    if isinstance(value, dict) and value:
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}/{key}")
    elif isinstance(value, list) and value:
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}/{index}")
    else:
        yield path.lstrip("/"), value


def _show(value: Any) -> str:
    return "(absent)" if value is _MISSING else json.dumps(value)


def diff(old: Any, new: Any) -> list[str]:
    """``path: old → new`` for every leaf that differs, old's order first."""
    before = dict(_leaves(old, ""))
    after = dict(_leaves(new, ""))
    lines = []
    for path in {**before, **after}:
        was, now = before.get(path, _MISSING), after.get(path, _MISSING)
        if was != now:
            lines.append(f"{path}: {_show(was)} → {_show(now)}")
    return lines


def assert_matches(path: Path, name: str, built: Any) -> None:
    """Fail with the leaf diff unless ``built`` is the committed section."""
    __tracebackhide__ = True
    committed = load(path)[name]
    if built != committed:
        lines = diff({name: committed}, {name: built})
        raise AssertionError(f"{path.name} moved:\n" + "\n".join(lines))


def assert_canonical(path: Path, sections: Sections) -> None:
    """The committed bytes are exactly what the generator would write."""
    committed = load(path)
    assert set(committed) == set(sections)
    assert path.read_text() == render(committed)


def refresh(path: Path, sections: Sections) -> None:
    """Build every section, print the diff against the file, then write it."""
    built = {name: build() for name, build in sections.items()}
    lines = diff(load(path) if path.exists() else {}, built)
    print("\n".join(lines) if lines else "no change")
    path.parent.mkdir(exist_ok=True)
    path.write_text(render(built))
    print(f"wrote {path}")
