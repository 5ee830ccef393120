"""DET001 — wall-clock or ambient-entropy reads in simulation code.

A run must be a pure function of ``(topology, config, seed)``.  Reading
the host clock (``time.time``, ``datetime.now``) or the process-global
RNG (``random.random``, ``numpy.random.*``, unseeded ``random.Random()``)
injects machine state into that function, which is exactly the class of
bug the serial-vs-parallel bit-identity guarantee cannot survive.  Sim
code draws time from ``Simulator.now`` and randomness from a named
:class:`repro.sim.rand.RandomStreams` stream instead.

``repro.cli`` and ``repro.parallel`` are exempt: wall time there
*measures the machine* (progress lines, worker poll timeouts) and never
feeds simulation state.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.base import FileContext, Finding, Rule

#: ``time`` module functions that read the host clock.
_CLOCK_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})

#: ``datetime``/``date`` constructors that read the host clock.
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: ``random`` module-level functions backed by the shared global RNG.
_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "gauss", "normalvariate",
    "lognormvariate", "expovariate", "betavariate", "gammavariate",
    "vonmisesvariate", "paretovariate", "weibullvariate",
    "getrandbits", "randbytes", "seed",
})


class Det001WallClockEntropy(Rule):
    code = "DET001"
    summary = (
        "wall-clock or global-RNG read in simulation code "
        "(use Simulator.now / an injected seeded stream)"
    )
    exempt_modules = (
        "repro.cli",
        "repro.parallel",
        "repro.analysis",
        "repro.testing",
    )

    def visit_file(self, ctx: FileContext) -> list[Finding]:
        visitor = _Visitor(ctx)
        visitor.visit(ctx.tree)
        return visitor.findings


class _Visitor(ast.NodeVisitor):
    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []
        #: local alias -> canonical module ("time", "random", "numpy",
        #: "numpy.random", "datetime") or class ("datetime.datetime").
        self.aliases: dict[str, str] = {}
        #: bare names imported from ``time``/``random`` that are hazards.
        self.bare_hazards: dict[str, str] = {}

    # -- import tracking --------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name in ("time", "random", "datetime", "numpy", "numpy.random"):
                target = alias.name
                if alias.asname is None and "." in alias.name:
                    # ``import numpy.random`` binds ``numpy``.
                    target = alias.name.split(".")[0]
                self.aliases[bound] = target
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _CLOCK_FUNCS or alias.name == "sleep":
                    self.bare_hazards[alias.asname or alias.name] = f"time.{alias.name}"
        elif node.module == "random":
            for alias in node.names:
                if alias.name in _RANDOM_FUNCS:
                    self.bare_hazards[alias.asname or alias.name] = f"random.{alias.name}"
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self.aliases[alias.asname or alias.name] = "datetime.datetime"
        elif node.module in ("numpy", "numpy.random"):
            for alias in node.names:
                if node.module == "numpy" and alias.name == "random":
                    self.aliases[alias.asname or alias.name] = "numpy.random"
        self.generic_visit(node)

    # -- hazard detection -------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            origin = self.bare_hazards.get(func.id)
            if origin is not None and origin != "time.sleep":
                self._report(node, f"call to {origin}()")
        elif isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)
        self.generic_visit(node)

    def _check_attribute_call(self, node: ast.Call, func: ast.Attribute) -> None:
        base = func.value
        if isinstance(base, ast.Name):
            origin = self.aliases.get(base.id)
            if origin == "time" and func.attr in _CLOCK_FUNCS:
                self._report(node, f"call to time.{func.attr}()")
            elif origin == "random" and func.attr in _RANDOM_FUNCS:
                self._report(node, f"call to global-RNG random.{func.attr}()")
            elif origin == "random" and func.attr == "Random" and not node.args:
                self._report(node, "random.Random() seeded from OS entropy (pass a seed)")
            elif origin in ("datetime", "datetime.datetime") and func.attr in _DATETIME_FUNCS:
                self._report(node, f"call to datetime {func.attr}()")
            elif origin == "numpy.random":
                self._report(node, f"call to numpy.random.{func.attr}()")
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            # ``np.random.X(...)`` / ``datetime.datetime.now(...)``
            outer = self.aliases.get(base.value.id)
            if outer == "numpy" and base.attr == "random":
                self._report(node, f"call to numpy.random.{func.attr}()")
            elif outer == "datetime" and base.attr in ("datetime", "date"):
                if func.attr in _DATETIME_FUNCS:
                    self._report(node, f"call to datetime.{base.attr}.{func.attr}()")

    def _report(self, node: ast.AST, what: str) -> None:
        self.findings.append(
            self.ctx.finding(
                "DET001",
                node,
                f"{what} in simulation code; inject sim time / a seeded "
                "RandomStreams stream instead",
            )
        )
