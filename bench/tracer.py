"""Outside-in layer tracer for the benchmark's traced repeat.

The tracer lives wholly in ``bench/``: it opens a span (layer, function,
start, end, parent) at every boundary it can reach without editing the
program.  It does so by replacing, on the *classes*, the simulator's
schedule methods (so every fired callback becomes a span attributed to
the package that owns the callback) and the public entry points of each
layer (``PATCH_TARGETS``).  Every replacement is undone by
:meth:`Tracer.uninstall`.

Accounting rules:

* A span's *self* time is its duration minus the time its child spans
  cover; self times therefore partition the time under any root span.
* A layer is a package of the program (``repro.<layer>``); a span
  belongs to the layer whose module defines the function it wraps.
* ``Simulator.run`` is the root of the simulate phase.  Its own self
  time is the kernel loop's dispatch cost; self time accrued by spans
  closed *inside* a run is kept separately per function
  (``self_in_run``), so the per-layer self times plus the dispatch self
  time add up to the simulate-phase wall exactly.
* The cost of a schedule call (the wrapper plus the heap push) is billed
  to the span that made the call: scheduling is counted, not timed.

A ``Tracer`` that was not installed ``full`` wraps ``Simulator.run``
only — a handful of calls per repeat — and is what the timed repeats
use to split set-up (everything before the first simulated event is
eligible) from the rest of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections.abc import Callable
from typing import Any

#: Raw spans kept per traced repeat for the Chrome trace export.
RAW_SPAN_LIMIT = 20_000

#: The event queue depth is read on every Nth schedule call.
QUEUE_DEPTH_STRIDE = 64

#: (module, class, methods) of the public entry points wrapped as spans.
PATCH_TARGETS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("repro.net.network", "Network", ("send",)),
    ("repro.net.link", "Link", ("transmit",)),
    (
        "repro.linux.host",
        "Host",
        ("send_packet", "receive_packet", "connect", "initcwnd_with_source"),
    ),
    ("repro.linux.route", "RouteTable", ("lookup",)),
    ("repro.linux.ip_tool", "IpRouteTool", ("route_add", "route_replace", "route_del")),
    (
        "repro.tcp.socket",
        "TcpSocket",
        ("connect", "accept_syn", "send_message", "handle_segment", "close"),
    ),
    ("repro.core.guard", "SafetyGuard", ("observe",)),
    ("repro.sim.fluid", "FluidPopulation", ("step",)),
    ("repro.cdn.transfer", "TransferClient", ("fetch",)),
    ("repro.cdn.cluster", "CdnCluster", ("__init__",)),
    ("repro.obs.trace", "TraceLog", ("record",)),
    ("repro.obs.flow", "FlowLog", ("begin",)),
    ("repro.obs.span", "SpanLog", ("begin", "end")),
    ("repro.obs.timeline", "Timeline", ("record",)),
    ("repro.obs.tsdb", "WindowedStore", ("record",)),
    ("repro.obs.slo", "AlertLog", ("begin",)),
    ("repro.obs.slo", "SloEngine", ("evaluate",)),
)

#: Entry points that return rows; the tracer also counts the rows.
ROW_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.linux.ss_tool", "SsTool", "tcp_info"),
    ("repro.cdn.fluidtraffic", "FluidTraffic", "socket_stats_for"),
)


def layer_of(module: str | None) -> str:
    """The layer (``repro`` sub-package) a module belongs to."""
    parts = (module or "").split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return "other"


def callback_owner(callback: Callable[..., Any]) -> tuple[str, str]:
    """``(layer, qualified name)`` of the code a callback will run.

    Bound methods and partials are unwrapped to the function underneath;
    the layer is where that function is *defined*, not where the object
    it is bound to was created.
    """
    func: Any = callback
    while isinstance(func, functools.partial):
        func = func.func
    func = getattr(func, "__func__", func)
    name = getattr(func, "__qualname__", type(func).__qualname__)
    return layer_of(getattr(func, "__module__", None)), name


class Tracer:
    """Spans, call counts and self-time aggregates of one repeat."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        keep: int = RAW_SPAN_LIMIT,
    ) -> None:
        self.clock = clock
        self.keep = keep
        #: (layer, name) -> [calls, inclusive_s, self_s, self_in_run_s]
        self.stats: dict[tuple[str, str], list[float]] = {}
        #: The first ``keep`` spans: (layer, name, start, duration, parent index).
        self.raw: list[tuple[str, str, float, float, int] | None] = []
        #: name -> rows returned, for the ``ROW_TARGETS``.
        self.rows: dict[str, int] = {}
        self.scheduled = 0
        self.cancelled = 0
        self.queue_depth_max = 0
        #: Clock reading at the first ``Simulator.run`` entry.
        self.first_run_at: float | None = None
        #: Per open span, the time its closed children cover so far.
        self._stack: list[float] = []
        #: Raw-span indices of the open spans that are being kept.
        self._open_ids: list[int] = []
        #: One-element cell so the span closures can read it without a lookup.
        self._run_depth = [0]
        #: Underlying function (or code object) of a callback -> its span wrapper.
        self._runners: dict[object, Callable[..., Any]] = {}
        self._patches: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def entry(self, layer: str, name: str) -> list[float]:
        """The aggregate record of one (layer, function) pair."""
        key = (layer, name)
        record = self.stats.get(key)
        if record is None:
            record = self.stats[key] = [0, 0.0, 0.0, 0.0]
        return record

    def wrap(self, layer: str, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so that every call is one span.

        The only place time is accounted.  Everything the hot path needs
        is bound in the closure: a traced packet crosses about a dozen of
        these, so an attribute load saved here is visible in
        ``trace.overhead_ratio``.
        """
        record = self.entry(layer, name)
        stack = self._stack
        open_ids = self._open_ids
        raw = self.raw
        keep = self.keep
        clock = self.clock
        run_depth = self._run_depth

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = -1
            if len(raw) < keep:
                # Still keeping raw spans: reserve this one's slot and note
                # its parent.  Once the quota is full no span takes this branch.
                index = len(raw)
                raw.append(None)
                parent = open_ids[-1] if open_ids else -1
                open_ids.append(index)
            stack.append(0.0)  # time covered by this span's children
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - started
                own = duration - stack.pop()
                record[0] += 1
                record[1] += duration
                record[2] += own
                if run_depth[0]:
                    record[3] += own
                if stack:
                    stack[-1] += duration
                if index >= 0:
                    open_ids.pop()
                    raw[index] = (layer, name, started, duration, parent)

        return traced

    def call(
        self, layer: str, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Any:
        """Run one call as a span: the harness's own phase boundaries."""
        return self.wrap(layer, name, fn)(*args, **kwargs)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self, full: bool) -> "Tracer":
        """Patch the program's classes; ``full`` adds every layer boundary."""
        kernel = importlib.import_module("repro.sim.kernel")
        self._patch_run(kernel.Simulator)
        if full:
            self._patch_schedulers(kernel.Simulator)
            self._patch_periodic()
            for module, cls_name, methods in PATCH_TARGETS:
                cls = getattr(importlib.import_module(module), cls_name)
                for method in methods:
                    self._patch_method(cls, method)
            for module, cls_name, method in ROW_TARGETS:
                cls = getattr(importlib.import_module(module), cls_name)
                self._patch_method(cls, method, count_rows=True)
            for cls in _policy_classes():
                if "decide" in cls.__dict__:
                    self._patch_method(cls, "decide")
        return self

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def _replace(self, owner: type, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_method(self, cls: type, method: str, count_rows: bool = False) -> None:
        original = cls.__dict__[method]
        name = f"{cls.__name__}.{method}"
        traced = self.wrap(layer_of(cls.__module__), name, original)
        if count_rows:
            rows = self.rows
            rows[name] = 0

            @functools.wraps(original)
            def counting(*args: Any, **kwargs: Any) -> Any:
                result = traced(*args, **kwargs)
                rows[name] += len(result)
                return result

            self._replace(cls, method, counting)
        else:
            self._replace(cls, method, traced)

    def _patch_run(self, simulator: type) -> None:
        original = simulator.__dict__["run"]
        traced = self.wrap("sim", "Simulator.run", original)
        run_depth = self._run_depth
        tracer = self

        @functools.wraps(original)
        def run(*args: Any, **kwargs: Any) -> Any:
            if tracer.first_run_at is None:
                tracer.first_run_at = tracer.clock()
            # Raised before the span opens, so the loop's own (dispatch)
            # self time counts as inside the run like its children's.
            run_depth[0] += 1
            try:
                return traced(*args, **kwargs)
            finally:
                run_depth[0] -= 1

        self._replace(simulator, "run", run)

    def _patch_schedulers(self, simulator: type) -> None:
        """Schedule each callback's span wrapper in place of the callback.

        One schedule call still consumes exactly one sequence number and
        pushes exactly one heap entry, so firing order and event counts
        are those of the untraced run.
        """
        tracer = self
        runners = self._runners

        def patched(original: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(original)
            def schedule(sim: Any, when: float, callback: Callable[..., Any], *args: Any) -> Any:
                tracer.scheduled += 1
                if not tracer.scheduled % QUEUE_DEPTH_STRIDE:
                    depth = sim.pending_events
                    if depth > tracer.queue_depth_max:
                        tracer.queue_depth_max = depth
                try:
                    # A bound method, nearly always: run the function
                    # underneath as the span, with the instance as an argument.
                    func = callback.__func__  # type: ignore[attr-defined]
                except AttributeError:
                    return original(sim, when, tracer._runner_for(callback), callback, args)
                runner = runners.get(func)
                if runner is None:
                    runner = runners[func] = tracer.wrap(*callback_owner(func), func)
                return original(sim, when, runner, callback.__self__, *args)  # type: ignore[attr-defined]

            return schedule

        for method in ("schedule", "schedule_at", "schedule_fire"):
            self._replace(simulator, method, patched(simulator.__dict__[method]))

        cancel_original = simulator.__dict__["cancel"]

        @functools.wraps(cancel_original)
        def cancel(sim: Any, event: Any) -> None:
            if not (event.cancelled or event.fired):
                tracer.cancelled += 1
            cancel_original(sim, event)

        self._replace(simulator, "cancel", cancel)

    def _runner_for(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        """Span wrapper for a callback that is not a bound method.

        Closures of one ``def`` share a code object, so they share one
        wrapper; the wrapper takes the callback and its arguments.
        """
        identity = getattr(callback, "__code__", None) or type(callback)
        runner = self._runners.get(identity)
        if runner is None:
            runner = self._runners[identity] = self.wrap(
                *callback_owner(callback), _invoke
            )
        return runner

    def _patch_periodic(self) -> None:
        """Make each periodic tick's callback a span of its own layer.

        ``PeriodicProcess`` fires its own ``_tick`` (layer ``sim``) and
        calls the owner's callback from there; wrapping the callback at
        construction gives the agent poll, the workload generators and
        the fluid engine their own spans.
        """
        process = importlib.import_module("repro.sim.process").PeriodicProcess
        original = process.__dict__["__init__"]
        tracer = self

        @functools.wraps(original)
        def init(
            proc: Any, sim: Any, interval: float, callback: Callable[[], None],
            name: str = "periodic",
        ) -> None:
            layer, qualname = callback_owner(callback)
            original(proc, sim, interval, tracer.wrap(layer, qualname, callback), name)

        self._replace(process, "__init__", init)

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------

    def calls(self, layer: str, name: str) -> int:
        record = self.stats.get((layer, name))
        return int(record[0]) if record is not None else 0

    def inclusive(self, layer: str, name: str) -> float:
        record = self.stats.get((layer, name))
        return record[1] if record is not None else 0.0

    def self_time(self, layer: str, name: str) -> float:
        record = self.stats.get((layer, name))
        return record[2] if record is not None else 0.0

    def layer_self_in_run(self) -> dict[str, float]:
        """Self time per layer of the spans closed inside ``Simulator.run``."""
        totals: dict[str, float] = {}
        for (layer, _), record in self.stats.items():
            totals[layer] = totals.get(layer, 0.0) + record[3]
        return totals

    def span_count(self) -> int:
        return int(sum(record[0] for record in self.stats.values()))

    def summary(self) -> dict[str, Any]:
        """Everything the parent process needs, JSON-serialisable."""
        return {
            "spans": self.span_count(),
            "scheduled": self.scheduled,
            "cancelled": self.cancelled,
            "queue_depth_max": self.queue_depth_max,
            "rows": dict(self.rows),
            "layer_self_in_run": self.layer_self_in_run(),
            "functions": {
                f"{layer}|{name}": list(record)
                for (layer, name), record in sorted(self.stats.items())
            },
        }

    def chrome_trace(self) -> str:
        """The retained raw spans as a Chrome trace-event JSON document."""
        # A slot is None only for a span still open at export time.
        closed = [(i, span) for i, span in enumerate(self.raw) if span is not None]
        origin = min((span[2] for _, span in closed), default=0.0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (started - origin) * 1e6,
                "dur": duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent},
            }
            for index, (layer, name, started, duration, parent) in closed
        ]
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def _invoke(callback: Callable[..., Any], args: tuple[Any, ...]) -> None:
    callback(*args)


def _policy_classes() -> list[type]:
    """Every concrete window policy: ``decide`` is defined per subclass."""
    importlib.import_module("repro.policy")
    base = importlib.import_module("repro.policy.base").WindowPolicy
    found: list[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))
