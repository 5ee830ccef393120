"""SIM001 — kernel invariants: no clock/queue poking, no real sleeps.

The :class:`~repro.sim.kernel.Simulator` owns the clock and the event
heap; every other component interacts with time exclusively through
``schedule``/``schedule_at``/``cancel``.  Two violations break that
contract:

* assigning a kernel-owned field (``sim.now = ...``, ``sim._heap =
  ...``, ``sim._tombstones -= 1``) from outside the kernel — the clock
  silently diverges from the heap, events fire "in the past", or the
  live-event count drifts.  ``now`` is a plain slot every component
  reads, so only the write is the hazard.  Assignments through ``self``
  are exempt: a class managing its *own* ``_running`` flag or ``now``
  clock is not touching the kernel's;
* calling ``time.sleep`` anywhere in simulation code — an event
  callback that blocks the process stalls every simulated component at
  once and couples results to host scheduling.

The mean-field engine (:mod:`repro.sim.fluid`) has the same shape of
invariant, twice over.  :class:`CwndDistribution` keeps its histogram
(``_bin_mass``) and active range (``_lo_bin``/``_hi_bin``) consistent
with the cached ``flows`` total, so an outside writer desynchronizes
mass accounting just like poking the kernel heap desynchronizes the
clock.  And a :class:`FluidPopulation`'s ``state_id`` names the values
of every field its step reads: the engine steps one cohort per id and
copies the result to the others, so a write that changes one of those
fields without minting a new id hands a twin a step it did not take.
Those fields get the same protection, scoped to their own owning module;
an item write into a protected container (``dist._bin_mass[b] += m``)
counts as a write to the field.

``repro.parallel`` may block on real time (it coordinates worker
processes, not simulated ones) and is exempt from the sleep check via
the shared exemption list.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.base import FileContext, Finding, Rule

#: Fields of ``Simulator`` that only the kernel module may assign.
#: ``now`` is the clock (a public slot, read everywhere), and ``_heap``
#: and ``_tombstones`` are the entry heap and its tombstone count — the
#: run loop pops and compacts them under invariants an outside writer
#: cannot see.
KERNEL_PRIVATE_FIELDS = frozenset({
    "now", "_seq", "_running", "_events_processed", "_heap", "_tombstones",
})

_KERNEL_MODULES = frozenset({"repro.sim.kernel"})

#: Fields of the fluid engine that only ``repro.sim.fluid`` may assign:
#: every field ``FluidPopulation.step`` reads, and the state id that
#: names their values.  ``CwndDistribution``'s histogram, active range
#: and ``flows`` total are kept consistent by the stepping code (writers
#: go through ``add_mass``/``step``), its geometry is fixed at
#: construction; a population's parameters, counters and ``steps`` move
#: only in a step, which mints a new ``state_id``.
FLUID_PRIVATE_FIELDS = frozenset({
    # CwndDistribution: histogram, range, total, geometry
    "_bin_mass", "_lo_bin", "_hi_bin", "flows",
    "bin_width", "nbins", "_windows", "_half_bins",
    # FluidPopulation: parameters (the distribution carries the geometry)
    "rtt", "mss", "target_flows", "growth_segments_per_sec",
    "send_segments_per_flow_per_sec", "churn_per_flow_per_sec", "distribution",
    # FluidPopulation: state, the step's churn cache, and the id naming them
    "segments_sent_total", "segments_retx_total", "bytes_acked_total", "steps",
    "_departing", "_departing_dt", "_departing_churn", "state_id",
})

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
        "kernel- or fluid-owned field assigned outside its owning "
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
        if isinstance(target, ast.Subscript):
            # ``holder.field[i] = ...`` writes into the field's value.
            target = target.value
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
                f"assignment to field `{target.attr}` outside its owner "
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
