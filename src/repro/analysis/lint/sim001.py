"""SIM001 — kernel invariants: no clock/queue poking, no real sleeps.

The :class:`~repro.sim.kernel.Simulator` owns the clock and the event
queue; every other component interacts with time exclusively through
``schedule``/``schedule_at``/``cancel``.  Two violations break that
contract:

* assigning a kernel-private field (``sim._now = ...``, ``sim._queue =
  ...``, ``queue._heap = ...``) from outside the kernel modules — the
  clock silently diverges from the queue and events fire "in the past".
  Since the event-core rewrite the run loop and :class:`EventQueue`
  share the entry heap and tombstone counter, so those fields are
  covered too.  Assignments through ``self`` are exempt: a class
  managing its *own* ``_running`` flag is not touching the kernel's;
* calling ``time.sleep`` anywhere in simulation code — an event
  callback that blocks the process stalls every simulated component at
  once and couples results to host scheduling.

The mean-field engine (:mod:`repro.sim.fluid`) has the same shape of
invariant: :class:`CwndDistribution` keeps its histogram (``_bin_mass``)
and active range (``_lo_bin``/``_hi_bin``) consistent with the cached
``flows`` total, so an outside writer desynchronizes mass accounting
just like poking the kernel heap desynchronizes the clock.  Those
fields get the same protection, scoped to their own owning module.

``repro.parallel`` may block on real time (it coordinates worker
processes, not simulated ones) and is exempt from the sleep check via
the shared exemption list.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.base import FileContext, Finding, Rule

#: Fields of ``Simulator`` and ``EventQueue`` that only the kernel
#: modules themselves may assign.  ``_heap`` and ``_tombstones`` are the
#: event queue's entry heap and tombstone count — the run loop pops and
#: compacts them under invariants an outside writer cannot see.
KERNEL_PRIVATE_FIELDS = frozenset({
    "_now", "_queue", "_seq", "_running", "_events_processed",
    "_heap", "_tombstones",
})

#: The modules allowed to assign those fields: the kernel itself and the
#: event-queue module whose structures it shares.
_KERNEL_MODULES = frozenset({"repro.sim.kernel", "repro.sim.events"})

#: Fields of the fluid engine's ``CwndDistribution`` that only
#: ``repro.sim.fluid`` may assign: the histogram and its active range
#: are kept consistent with the cached ``flows`` total by the stepping
#: code; writers go through ``add_mass``/``step``.
FLUID_PRIVATE_FIELDS = frozenset({"_bin_mass", "_lo_bin", "_hi_bin"})

_FLUID_MODULES = frozenset({"repro.sim.fluid"})

#: protected field -> (modules allowed to assign it, owning module shown
#: in the finding message).
_PROTECTED_FIELDS: dict[str, tuple[frozenset[str], str]] = {
    **{
        field: (_KERNEL_MODULES, "repro/sim/kernel.py")
        for field in KERNEL_PRIVATE_FIELDS
    },
    **{
        field: (_FLUID_MODULES, "repro/sim/fluid.py")
        for field in FLUID_PRIVATE_FIELDS
    },
}


class Sim001KernelInvariants(Rule):
    code = "SIM001"
    summary = (
        "kernel- or fluid-private field assigned outside its owning "
        "module, or time.sleep in simulation code"
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
        self.module = ctx.module
        self.findings: list[Finding] = []
        self._time_aliases: set[str] = set()
        self._bare_sleeps: set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "time":
                self._time_aliases.add(alias.asname or "time")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name == "sleep":
                    self._bare_sleeps.add(alias.asname or "sleep")
        self.generic_visit(node)

    # -- kernel-private assignment ---------------------------------------

    def _check_store_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store_target(element)
            return
        if not isinstance(target, ast.Attribute):
            return
        protected = _PROTECTED_FIELDS.get(target.attr)
        if protected is None:
            return
        allowed_modules, owner = protected
        if self.module in allowed_modules:
            return
        if (
            # ``self._running = ...`` is a class managing its *own*
            # field of the same name (workload generators have one);
            # the hazard is poking a field on a *held* simulator.
            isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
        ):
            return
        self.findings.append(
            self.ctx.finding(
                "SIM001",
                target,
                f"assignment to private field `{target.attr}` outside "
                f"{owner}; go through the owning class's methods instead",
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_store_target(node.target)
        self.generic_visit(node)

    # -- real sleeps ------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        sleeping = (
            isinstance(func, ast.Attribute)
            and func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id in self._time_aliases
        ) or (
            isinstance(func, ast.Name) and func.id in self._bare_sleeps
        )
        if sleeping:
            self.findings.append(
                self.ctx.finding(
                    "SIM001",
                    node,
                    "time.sleep() in simulation code blocks the whole "
                    "process; schedule a sim event instead",
                )
            )
        self.generic_visit(node)
