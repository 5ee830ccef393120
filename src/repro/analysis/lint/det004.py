"""DET004 — interprocedural nondeterminism taint reaching a sink.

The per-file rules catch a wall-clock read (DET001) or a set iteration
(DET002) *at the hazard site*.  They are blind to laundering: a helper
that returns ``list(set(hosts))`` looks harmless in its own file, and the
caller's loop over its result looks like iteration over a plain list.
DET004 closes that gap using the project index — it resolves call chains
across functions, methods, properties and module boundaries, and reports
when a wall-clock/RNG-derived *value* or a hash-order-dependent
*iteration order* flows into an order-sensitive sink
(:data:`~repro.analysis.lint.det002.ORDER_SENSITIVE_SINKS`).

Division of labour with the per-file rules is strict, so one hazard is
never reported twice:

* a sink-reaching value tainted by a source *in the same function* is
  DET001's finding — DET004 only reports taint that arrived **via a
  resolved call**;
* a loop over a *syntactically visible* set/dict is DET002's finding —
  DET004 only reports loops whose order taint is invisible per-file.

Unresolvable calls contribute no taint (optimistic), so DET004 never
fires on speculation; the conservative per-file rules still cover
unknown-provenance hazards.
"""

from __future__ import annotations

from repro.analysis.lint.base import FileContext, Finding, Rule


class Det004InterproceduralTaint(Rule):
    code = "DET004"
    summary = (
        "wall-clock/RNG value or set-iteration order reaches an "
        "order-sensitive sink through a call chain"
    )
    exempt_modules = (
        "repro.cli",
        "repro.parallel",
        "repro.analysis",
        "repro.testing",
    )

    def visit_file(self, ctx: FileContext) -> list[Finding]:
        index = ctx.index
        mod = ctx.module_index
        if index is None or mod is None:
            return []
        findings: list[Finding] = []
        for qualname in sorted(mod.functions):
            summary = mod.functions[qualname]
            scope_class = qualname.split(".")[0] if "." in qualname else None
            for event in summary.sink_events:
                resolved_value, _ = index.resolve_via(
                    mod, scope_class, event.value_via
                )
                # Direct in-function sources are DET001's findings; only
                # report taint that arrived through a resolved call.
                if not event.value and resolved_value:
                    reason = sorted(resolved_value)[0]
                    findings.append(
                        Finding(
                            code=self.code,
                            message=(
                                f"value passed to order-sensitive sink "
                                f"`.{event.sink}()` derives from {reason}; "
                                "thread sim time / a seeded stream through "
                                "the call chain instead"
                            ),
                            path=ctx.path,
                            line=event.line,
                            col=event.col,
                        )
                    )
                _, resolved_order = index.resolve_via(
                    mod, scope_class, event.order_via
                )
                if not event.order and resolved_order:
                    reason = sorted(resolved_order)[0]
                    findings.append(
                        Finding(
                            code=self.code,
                            message=(
                                f"argument of order-sensitive sink "
                                f"`.{event.sink}()` carries hash-order from "
                                f"{reason}; sort it before it crosses the "
                                "call boundary"
                            ),
                            path=ctx.path,
                            line=event.line,
                            col=event.col,
                        )
                    )
            for event in summary.loop_events:
                # Syntactically visible sets/dicts are DET002's findings.
                if event.order:
                    continue
                _, resolved_order = index.resolve_via(
                    mod, scope_class, event.order_via
                )
                if resolved_order:
                    reason = sorted(resolved_order)[0]
                    findings.append(
                        Finding(
                            code=self.code,
                            message=(
                                f"loop feeding order-sensitive sink "
                                f"`.{event.sink}()` iterates in hash order "
                                f"from {reason}; wrap the call result in "
                                "sorted(...)"
                            ),
                            path=ctx.path,
                            line=event.line,
                            col=event.col,
                        )
                    )
        return findings
