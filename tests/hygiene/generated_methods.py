"""A ceiling on the methods ``dataclasses`` generates for the bench
import set.  ``python -m tests.hygiene.generated_methods`` prints the
count."""

import os

import repro
from tests.hygiene.shipped import _fresh_interpreter


#: How many methods ``dataclasses`` may generate on ``repro`` classes while
#: a process imports what ``bench/workloads.py`` imports.  Each one is an
#: ``exec`` and a compile paid on every start; a class gets the generated
#: machinery its callers use and no more (ARCHITECTURE, "When a class is a
#: dataclass").
_GENERATED_METHOD_CEILING = 107


#: Prints ``<methods> <classes>``: the methods ``dataclasses`` generated on
#: ``repro`` classes after importing ``bench/workloads.py``'s ``repro``
#: imports (read from its source) in this interpreter.  A method counts
#: when its code was compiled from ``<string>``, or its ``__wrapped__``
#: code was (how ``__repr__`` is generated).
_GENERATED_METHODS_PROBE = """
import ast, importlib, pathlib, sys
tree = ast.parse(pathlib.Path(sys.argv[1]).read_text())
for node in ast.walk(tree):
    if isinstance(node, ast.ImportFrom) and node.module.startswith("repro"):
        for alias in node.names:
            try:
                importlib.import_module(f"{node.module}.{alias.name}")
            except ModuleNotFoundError:
                importlib.import_module(node.module)

def generated(value):
    code = getattr(value, "__code__", None)
    wrapped = getattr(getattr(value, "__wrapped__", None), "__code__", None)
    return any(c is not None and c.co_filename == "<string>" for c in (code, wrapped))

methods = classes = 0
for name, module in list(sys.modules.items()):
    if name != "repro" and not name.startswith("repro."):
        continue
    pending = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == name]
    while pending:
        cls = pending.pop()
        pending += [v for v in vars(cls).values() if isinstance(v, type) and v.__module__ == name]
        count = sum(generated(v) for v in vars(cls).values())
        methods += count
        classes += count > 0
print(methods, classes)
"""


def _generated_dataclass_methods() -> tuple[int, int]:
    """``(methods, classes)`` of ``_GENERATED_METHODS_PROBE``, run fresh."""
    workloads = os.path.join(os.path.dirname(repro.__file__), "..", "..", "bench", "workloads.py")
    methods, classes = _fresh_interpreter(_GENERATED_METHODS_PROBE, workloads).split()
    return int(methods), int(classes)


class GeneratedMethods:
    def test_the_bench_import_set_generates_at_most_N_dataclass_methods(self):
        """N is ``_GENERATED_METHOD_CEILING``: the ``dataclasses`` code
        generation a benchmark child pays before it simulates anything.
        ``make cold-start`` prints both counts.
        """
        methods, classes = _generated_dataclass_methods()
        assert methods <= _GENERATED_METHOD_CEILING, (methods, classes)


if __name__ == "__main__":
    methods, classes = _generated_dataclass_methods()
    print(f"{methods} generated dataclass methods on {classes} classes "
          f"(ceiling {_GENERATED_METHOD_CEILING})")
