"""Per-rule fixture corpus for ``repro.analysis.lint``.

Each rule gets positive snippets (must fire, with the right code and
line) and negative snippets (the compliant idiom must stay silent).
Fixture files live in tmp directories outside the ``repro`` package, so
every rule applies regardless of its module exemptions.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.lint.engine import run_lint


def lint_snippet(tmp_path, source: str, **kwargs):
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent(source))
    return run_lint([str(path)], **kwargs)


def codes(result) -> list[str]:
    return [finding.code for finding in result.findings]


# -- DET001: wall clock / entropy ----------------------------------------


DET001_POSITIVE = [
    "import time\n\ndef tick():\n    return time.time()\n",
    "import time\n\ndef tick():\n    return time.perf_counter()\n",
    "from time import monotonic\n\ndef tick():\n    return monotonic()\n",
    "import random\n\ndef draw():\n    return random.random()\n",
    "import random\n\ndef draw():\n    return random.choice([1, 2])\n",
    "from random import randint\n\ndef draw():\n    return randint(0, 7)\n",
    "import random\n\ndef make_rng():\n    return random.Random()\n",
    "import datetime\n\ndef stamp():\n    return datetime.datetime.now()\n",
    "from datetime import datetime\n\ndef stamp():\n    return datetime.now()\n",
    "import numpy as np\n\ndef draw():\n    return np.random.uniform()\n",
]


@pytest.mark.parametrize("source", DET001_POSITIVE)
def test_det001_fires(tmp_path, source):
    result = lint_snippet(tmp_path, source)
    assert codes(result) == ["DET001"]


DET001_NEGATIVE = [
    # Seeded constructions and injected streams are the house idiom.
    "import random\n\ndef make_rng(seed):\n    return random.Random(seed)\n",
    "def draw(rng):\n    return rng.random()\n",
    "def tick(sim):\n    return sim.now\n",
    # Attribute access without a call (type annotations etc.).
    "import random\n\ndef ann(r: random.Random) -> None:\n    pass\n",
]


@pytest.mark.parametrize("source", DET001_NEGATIVE)
def test_det001_silent(tmp_path, source):
    assert codes(lint_snippet(tmp_path, source)) == []


def test_det001_exempts_host_timing_modules(tmp_path):
    cli = tmp_path / "repro" / "cli.py"
    cli.parent.mkdir()
    cli.write_text("import time\n\ndef elapsed():\n    return time.time()\n")
    assert codes(run_lint([str(cli)])) == []


def test_det001_reports_position(tmp_path):
    result = lint_snippet(
        tmp_path, "import time\n\ndef tick():\n    return time.time()\n"
    )
    (finding,) = result.findings
    assert finding.line == 4
    assert "time.time" in finding.message


# -- DET002: unordered iteration into order-sensitive sinks ---------------


DET002_POSITIVE = [
    # set literal scheduling events
    """
    def arm(sim, hosts):
        for host in {hosts[0], hosts[1]}:
            sim.schedule(1.0, host.poll)
    """,
    # set() call feeding a trace record
    """
    def note(trace, names):
        for name in set(names):
            trace.record(0.0, None, name)
    """,
    # locally-bound set variable
    """
    def arm(sim, a, b):
        pending = {a, b}
        for host in pending:
            sim.schedule_at(2.0, host.poll)
    """,
    # dict view without sorted()
    """
    def flush(sim, timers):
        for name in timers.keys():
            sim.schedule(0.5, name)
    """,
    # .values() feeding merge_from
    """
    def fold(target, shards):
        for shard in shards.values():
            target.merge_from(shard)
    """,
    # comprehension over a set with a sink in the element
    """
    def arm(sim, hosts):
        return [sim.schedule(1.0, h.poll) for h in set(hosts)]
    """,
    # list() wrapper preserves the underlying (unordered) order
    """
    def flush(sim, timers):
        for name in list(timers.items()):
            sim.schedule(0.5, name)
    """,
]


@pytest.mark.parametrize("source", DET002_POSITIVE)
def test_det002_fires(tmp_path, source):
    assert codes(lint_snippet(tmp_path, source)) == ["DET002"]


DET002_NEGATIVE = [
    # sorted() removes the hazard
    """
    def arm(sim, hosts):
        for host in sorted({hosts[0], hosts[1]}):
            sim.schedule(1.0, host.poll)
    """,
    """
    def flush(sim, timers):
        for name, timer in sorted(timers.items()):
            sim.schedule(0.5, timer)
    """,
    # order-insensitive sinks (counter increments) are fine
    """
    def tally(counter, names):
        for name in set(names):
            counter.inc()
    """,
    # iteration over a list is ordered
    """
    def arm(sim, hosts):
        for host in hosts:
            sim.schedule(1.0, host.poll)
    """,
    # set iteration without any sink
    """
    def total(sizes):
        acc = 0
        for size in set(sizes):
            acc += size
        return acc
    """,
]


@pytest.mark.parametrize("source", DET002_NEGATIVE)
def test_det002_silent(tmp_path, source):
    assert codes(lint_snippet(tmp_path, source)) == []


def test_det002_inline_ignore(tmp_path):
    source = """
    def fold(target, shards):
        for shard in shards.values():  # lint: ignore[DET002]
            target.merge_from(shard)
    """
    result = lint_snippet(tmp_path, source)
    assert codes(result) == []
    assert result.suppressed_inline == 1


@pytest.mark.parametrize(
    ("comment", "suppressed"),
    [
        ("# lint: ignore", True),
        ("# lint: ignore - host clock, never feeds sim state", True),
        ("# lint: ignore[DET001]", True),
        ("# lint: ignore[det001]", True),  # case-insensitive, as --select is
        ("# lint: ignore[DET002, DET001]", True),
        ("# lint: ignore[DET001,]", True),
        ("# lint: ignore [DET001]", True),
        ("# lint: ignore[DET002]", False),
        # A bracket that is not a code list suppresses nothing — it must
        # never widen into a bare ``# lint: ignore``.
        ("# lint: ignore[DET002", False),
        ("# lint: ignore[DET001", False),
        ("# lint: ignore[DET002;DET003]", False),
        ("# lint: ignore[]", False),
    ],
)
def test_inline_ignore_bracket_is_a_code_list_or_nothing(tmp_path, comment, suppressed):
    source = f"import time\n\ndef tick():\n    return time.time()  {comment}\n"
    result = lint_snippet(tmp_path, source)
    assert codes(result) == ([] if suppressed else ["DET001"])
    assert result.suppressed_inline == int(suppressed)


# -- DET003: identity ordering --------------------------------------------


DET003_POSITIVE = [
    "def order(xs):\n    return sorted(xs, key=id)\n",
    "def order(xs):\n    return sorted(xs, key=lambda x: id(x))\n",
    "def order(xs):\n    xs.sort(key=lambda x: (x.time, id(x)))\n",
    "def pick(xs):\n    return min(xs, key=lambda x: id(x))\n",
    "def tie(a, b):\n    return id(a) < id(b)\n",
    "def order(xs, pivot):\n"
    "    return sorted(xs, key=lambda x: (0 if x is pivot else 1))\n",
]


@pytest.mark.parametrize("source", DET003_POSITIVE)
def test_det003_fires(tmp_path, source):
    assert codes(lint_snippet(tmp_path, source)) == ["DET003"]


DET003_NEGATIVE = [
    # stable-field ordering: the house (time, seq) pattern
    "def order(xs):\n    return sorted(xs, key=lambda x: (x.time, x.seq))\n",
    # identity as a *predicate* is legitimate
    "def same(a, b):\n    return a is b\n",
    # equality on id() (cheap identity test) is not an ordering
    "def same(a, b):\n    return id(a) == id(b)\n",
]


@pytest.mark.parametrize("source", DET003_NEGATIVE)
def test_det003_silent(tmp_path, source):
    assert codes(lint_snippet(tmp_path, source)) == []


# -- SIM001: kernel invariants --------------------------------------------


SIM001_POSITIVE = [
    "def warp(sim):\n    sim.now = 99.0\n",
    "def warp(sim):\n    sim._heap = []\n",
    "def warp(sim):\n    sim._tombstones -= 1\n",
    "def warp(sim):\n    sim._events_processed += 7\n",
    "def warp(cluster):\n    cluster.sim.now = 0.0\n",
    "import time\n\ndef handler():\n    time.sleep(0.1)\n",
    "from time import sleep\n\ndef handler():\n    sleep(1)\n",
]


@pytest.mark.parametrize("source", SIM001_POSITIVE)
def test_sim001_fires(tmp_path, source):
    assert codes(lint_snippet(tmp_path, source)) == ["SIM001"]


SIM001_NEGATIVE = [
    # a class managing its own flag of the same name
    "class Gen:\n    def start(self):\n        self._running = True\n",
    # ... or its own clock
    "class FakeClock:\n    def advance(self, seconds):\n        self.now += seconds\n",
    # reading kernel fields is fine
    "def probe(sim):\n    return sim.now\n",
    # scheduling through the API is the sanctioned path
    "def arm(sim, cb):\n    sim.schedule(1.0, cb)\n",
]


@pytest.mark.parametrize("source", SIM001_NEGATIVE)
def test_sim001_silent(tmp_path, source):
    assert codes(lint_snippet(tmp_path, source)) == []


def test_sim001_allows_the_kernel_itself(tmp_path):
    kernel = tmp_path / "repro" / "sim" / "kernel.py"
    kernel.parent.mkdir(parents=True)
    kernel.write_text(
        "class Simulator:\n"
        "    def run(self, event):\n"
        "        self.now = event.time\n"
    )
    assert codes(run_lint([str(kernel)])) == []


SIM001_FLUID_POSITIVE = [
    # poking the histogram desynchronizes the cached flows total
    "def cheat(dist):\n    dist._bin_mass = [1.0]\n",
    "def cheat(dist):\n    dist._lo_bin = 0\n",
    "def cheat(pop):\n    pop.distribution._hi_bin = 5\n",
    # an item write into the histogram is a write to it
    "def cheat(dist):\n    dist._bin_mass[3] += 1.0\n",
    "def cheat(pop):\n    pop.distribution.flows += 1e-6\n",
    # every field a population's step reads is named by its state id: a
    # write that mints no new id hands a twin a step it did not take
    "def cheat(pop):\n    pop.rtt = 0.2\n",
    "def cheat(pop):\n    pop.mss -= 100\n",
    "def cheat(pop):\n    pop.churn_per_flow_per_sec = 0.5\n",
    "def cheat(pop, other):\n    pop.distribution = other.distribution\n",
    "def cheat(pop):\n    pop.bytes_acked_total += 1.0\n",
    "def cheat(pop):\n    pop.steps += 1\n",
    "def cheat(pop, twin):\n    pop.state_id = twin.state_id\n",
]


@pytest.mark.parametrize("source", SIM001_FLUID_POSITIVE)
def test_sim001_protects_fluid_state(tmp_path, source):
    assert codes(lint_snippet(tmp_path, source)) == ["SIM001"]


def test_sim001_fluid_fields_allowed_in_owning_module(tmp_path):
    fluid = tmp_path / "repro" / "sim" / "fluid.py"
    fluid.parent.mkdir(parents=True)
    fluid.write_text(
        "class CwndDistribution:\n"
        "    def rebuild(self, dist, new):\n"
        "        dist._bin_mass = new\n"
        "        dist._lo_bin, dist._hi_bin = 0, -1\n"
    )
    assert codes(run_lint([str(fluid)])) == []


def test_sim001_fluid_reads_are_fine(tmp_path):
    source = "def spread(dist):\n    return dist._hi_bin - dist._lo_bin\n"
    assert codes(lint_snippet(tmp_path, source)) == []


SIM001_FLUID_NEGATIVE = [
    # reading a population's step inputs is fine
    "def exposure(pop):\n    return pop.rtt * pop.steps + pop.state_id\n",
    # an engine counting its own ticks under the same name
    "class Engine:\n    def tick(self):\n        self.steps += 1\n",
    # locals named like protected fields are not fields
    "def rows(pop):\n    rtt, flows = pop.rtt, pop.flows\n    return rtt * flows\n",
    # an item write into an unprotected container holding a field's value
    "def copy(pop, out):\n    out[0] = pop.distribution._bin_mass[0]\n",
]


@pytest.mark.parametrize("source", SIM001_FLUID_NEGATIVE)
def test_sim001_fluid_population_reads_silent(tmp_path, source):
    assert codes(lint_snippet(tmp_path, source)) == []


def test_sim001_population_fields_allowed_in_owning_module(tmp_path):
    fluid = tmp_path / "repro" / "sim" / "fluid.py"
    fluid.parent.mkdir(parents=True)
    fluid.write_text(
        "class FluidPopulation:\n"
        "    def adopt_step(self, pop, twin):\n"
        "        pop.distribution._bin_mass[0] += 1.0\n"
        "        pop.steps = twin.steps\n"
        "        pop.state_id = twin.state_id\n"
    )
    assert codes(run_lint([str(fluid)])) == []
    elsewhere = tmp_path / "repro" / "cdn" / "fluidtraffic.py"
    elsewhere.parent.mkdir(parents=True)
    elsewhere.write_text(fluid.read_text())
    assert codes(run_lint([str(elsewhere)])) == ["SIM001"] * 3


# -- SLOT001: undeclared slot attributes ----------------------------------


SLOT001_POSITIVE = [
    """
    class Packet:
        __slots__ = ("src", "dst")

        def __init__(self, src, dst):
            self.src = src
            self.dst = dst
            self.size = 0
    """,
    # inherited slots resolved through an in-file chain
    """
    class Base:
        __slots__ = ("a",)

    class Child(Base):
        __slots__ = ("b",)

        def touch(self):
            self.c = 1
    """,
    # setattr with a literal name
    """
    class Packet:
        __slots__ = ("src",)

        def patch(self):
            setattr(self, "oops", 1)
    """,
    # a frozen record: Frozen ends the chain, object.__setattr__ stores
    """
    from repro.records import Frozen

    class Mark(Frozen):
        __slots__ = ("end_seq",)

        def __init__(self, end_seq):
            object.__setattr__(self, "end_seq", end_seq)
            object.__setattr__(self, "size", 0)
    """,
]


@pytest.mark.parametrize("source", SLOT001_POSITIVE)
def test_slot001_fires(tmp_path, source):
    result = lint_snippet(tmp_path, source)
    assert codes(result) == ["SLOT001"]


SLOT001_NEGATIVE = [
    # every assignment declared
    """
    class Packet:
        __slots__ = ("src", "dst")

        def __init__(self, src, dst):
            self.src = src
            self.dst = dst
    """,
    # property setter is a legitimate target
    """
    class Sock:
        __slots__ = ("_cwnd",)

        @property
        def cwnd(self):
            return self._cwnd

        @cwnd.setter
        def cwnd(self, value):
            self._cwnd = value

        def reset(self):
            self.cwnd = 10
    """,
    # a frozen record storing only its slots
    """
    from repro.records import Frozen

    class Mark(Frozen):
        __slots__ = ("end_seq",)

        def __init__(self, end_seq):
            object.__setattr__(self, "end_seq", end_seq)
    """,
    # a Frozen that is not repro.records' stays unresolvable
    """
    from elsewhere import Frozen

    class Mark(Frozen):
        __slots__ = ("end_seq",)

        def __init__(self, end_seq):
            object.__setattr__(self, "size", 0)
    """,
    # unresolvable base: stay conservative, no finding
    """
    from elsewhere import Base

    class Child(Base):
        __slots__ = ("b",)

        def touch(self):
            self.mystery = 1
    """,
    # no __slots__ anywhere: instances have __dict__
    """
    class Plain:
        def touch(self):
            self.anything = 1
    """,
    # dataclass(slots=True) synthesizes slots the AST cannot see
    """
    from dataclasses import dataclass

    @dataclass(slots=True)
    class Row:
        a: int

        def touch(self):
            self.b = 1
    """,
]


@pytest.mark.parametrize("source", SLOT001_NEGATIVE)
def test_slot001_silent(tmp_path, source):
    assert codes(lint_snippet(tmp_path, source)) == []


# -- OBS001: taxonomy drift -----------------------------------------------


DOC_TEMPLATE = """\
# Architecture

Metric reference:

| Metric | Kind | Meaning |
| --- | --- | --- |
| `good_metric` | counter | documented |
{extra_metric}
Trace event reference:

| Event | Meaning |
| --- | --- |
| `good_event` | documented |

Span source reference:

| Source | Span |
| --- | --- |
| `agent` | poll tick |
"""


def make_project(tmp_path, source: str, extra_metric: str = ""):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "ARCHITECTURE.md").write_text(
        DOC_TEMPLATE.format(extra_metric=extra_metric)
    )
    module = tmp_path / "emitters.py"
    module.write_text(textwrap.dedent(source))
    return module


def test_obs001_flags_undocumented_metric(tmp_path):
    module = make_project(
        tmp_path,
        """
        def wire(metrics):
            metrics.counter("good_metric")
            metrics.gauge("rogue_metric")
        """,
    )
    result = run_lint([str(module)], select=["OBS001"])
    assert codes(result) == ["OBS001"]
    (finding,) = result.findings
    assert "rogue_metric" in finding.message
    assert finding.path.endswith("emitters.py")


def test_obs001_flags_undocumented_trace_event_and_span_source(tmp_path):
    module = make_project(
        tmp_path,
        """
        import enum

        class EventType(enum.Enum):
            GOOD = "good_event"
            ROGUE = "rogue_event"

        def emit(spans, now):
            spans.begin(now, "tick", "agent", "host")
            spans.begin(now, "tick", "rogue_source", "host")
        """,
    )
    result = run_lint([str(module)], select=["OBS001"])
    messages = " ".join(f.message for f in result.findings)
    assert codes(result) == ["OBS001", "OBS001"]
    assert "rogue_event" in messages
    assert "rogue_source" in messages


def test_obs001_documented_names_are_silent(tmp_path):
    module = make_project(
        tmp_path,
        """
        def wire(metrics):
            metrics.counter("good_metric")
        """,
    )
    assert codes(run_lint([str(module)], select=["OBS001"])) == []


def test_obs001_doc_side_requires_full_tree_scan(tmp_path):
    # A partial scan must not claim documented names went silent.
    module = make_project(
        tmp_path,
        "def wire(metrics):\n    metrics.counter('good_metric')\n",
        extra_metric="| `never_emitted` | counter | stale row |\n",
    )
    assert codes(run_lint([str(module)], select=["OBS001"])) == []


def test_obs001_doc_side_fires_on_full_tree_scan(tmp_path):
    make_project(
        tmp_path,
        """
        import enum

        class EventType(enum.Enum):
            GOOD = "good_event"

        def wire(metrics, spans, now):
            metrics.counter("good_metric")
            spans.begin(now, "tick", "agent", "host")
        """,
        extra_metric="| `never_emitted` | counter | stale row |\n",
    )
    # The sentinel file marks the scan as whole-tree.
    sentinel = tmp_path / "repro" / "obs" / "metrics.py"
    sentinel.parent.mkdir(parents=True)
    sentinel.write_text("def noop():\n    pass\n")
    result = run_lint([str(tmp_path)], select=["OBS001"])
    assert codes(result) == ["OBS001"]
    (finding,) = result.findings
    assert "never_emitted" in finding.message
    assert finding.path.endswith("ARCHITECTURE.md")


def test_obs001_without_project_root_is_silent(tmp_path):
    module = tmp_path / "emitters.py"
    module.write_text("def wire(m):\n    m.counter('whatever')\n")
    assert codes(run_lint([str(module)], select=["OBS001"])) == []


# -- coverage pins: repro.policy is linted like the core ------------------


def test_no_rule_exempts_repro_policy():
    """``repro.policy`` must stay inside every rule's coverage.

    The zoo makes window decisions and emits metrics, so it is held to
    the same determinism/observability bar as ``repro.core``.  FLT001
    is the one deliberate exception: it is *inclusion*-scoped to the
    derivation packages (``repro.obs``/``repro.analysis``) whose sums
    feed byte-compared artifacts, so it is pinned separately.
    """
    from repro.analysis.lint.engine import ALL_RULES

    for rule_cls in ALL_RULES:
        rule = rule_cls()
        if rule.code == "FLT001":
            assert rule.applies_to("repro.obs.metrics")
            assert rule.applies_to("repro.analysis.cdf")
            assert not rule.applies_to("repro.policy")
        else:
            assert rule.applies_to("repro.policy")
            assert rule.applies_to("repro.policy.zoo")


def test_obs001_and_det002_fire_inside_repro_policy(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "ARCHITECTURE.md").write_text(DOC_TEMPLATE.format(extra_metric=""))
    module = tmp_path / "repro" / "policy" / "custom.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        textwrap.dedent(
            """
            def wire(metrics, sim, hosts):
                metrics.counter("rogue_policy_metric")
                for host in set(hosts):
                    sim.schedule(1.0, host.poll)
            """
        )
    )
    result = run_lint([str(module)], select=["OBS001", "DET002"])
    assert sorted(codes(result)) == ["DET002", "OBS001"]
