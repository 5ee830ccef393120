"""The tracer: self-time arithmetic, owner attribution, clean removal."""

import functools
import importlib

import pytest

from repro.core.agent import RiptideAgent
from repro.core.config import RiptideConfig
from repro.net.link import Link
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicProcess
from repro.testing import TwoHostTestbed, request_response

from tracer import PATCH_TARGETS, ROW_TARGETS, Tracer, callback_owner, layer_of


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------


def test_self_time_is_duration_minus_what_children_cover():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf() -> None:
        clock.advance(2.0)

    def middle() -> None:
        clock.advance(1.0)
        tracer.call("tcp", "leaf", leaf)
        clock.advance(0.5)
        tracer.call("tcp", "leaf", leaf)

    def outer() -> None:
        clock.advance(3.0)
        tracer.call("net", "middle", middle)
        clock.advance(0.25)

    tracer.call("sim", "outer", outer)

    assert tracer.calls("tcp", "leaf") == 2
    assert tracer.inclusive("tcp", "leaf") == pytest.approx(4.0)
    assert tracer.self_time("tcp", "leaf") == pytest.approx(4.0)
    assert tracer.inclusive("net", "middle") == pytest.approx(5.5)
    assert tracer.self_time("net", "middle") == pytest.approx(1.5)
    assert tracer.inclusive("sim", "outer") == pytest.approx(8.75)
    assert tracer.self_time("sim", "outer") == pytest.approx(3.25)
    # Self times partition the root's duration.
    total_self = sum(record[2] for record in tracer.stats.values())
    assert total_self == pytest.approx(tracer.inclusive("sim", "outer"))
    assert tracer.span_count() == 4


def test_raw_spans_carry_their_parent_and_stop_at_the_quota():
    clock = FakeClock()
    tracer = Tracer(clock=clock, keep=3)

    def leaf() -> None:
        clock.advance(1.0)

    def outer() -> None:
        for _ in range(4):
            tracer.call("tcp", "leaf", leaf)

    tracer.call("sim", "outer", outer)
    assert len(tracer.raw) == 3
    assert tracer.raw[0][:2] == ("sim", "outer") and tracer.raw[0][4] == -1
    assert [span[4] for span in tracer.raw[1:]] == [0, 0]
    assert tracer.raw[1][2:4] == (100.0, 1.0)
    # Aggregates keep counting after the raw quota is full.
    assert tracer.calls("tcp", "leaf") == 4
    assert '"name": "leaf"' in tracer.chrome_trace()


def test_a_raising_span_is_still_closed():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom() -> None:
        clock.advance(1.0)
        raise KeyError("x")

    def outer() -> None:
        with pytest.raises(KeyError):
            tracer.call("linux", "boom", boom)
        clock.advance(1.0)

    tracer.call("core", "outer", outer)
    assert tracer.self_time("linux", "boom") == pytest.approx(1.0)
    assert tracer.self_time("core", "outer") == pytest.approx(1.0)


def test_only_spans_inside_simulator_run_count_towards_layer_self_time():
    with Tracer().install(full=True) as tracer:
        bed = TwoHostTestbed(rtt=0.05)
        bed.serve_echo()
        exchange = request_response(bed, 50_000)
    assert exchange.completed
    simulate = tracer.inclusive("sim", "Simulator.run")
    by_layer = tracer.layer_self_in_run()
    # Layer self times (sim's includes the dispatch loop) partition the run.
    assert sum(by_layer.values()) == pytest.approx(simulate, rel=1e-9)
    assert by_layer["net"] > 0 and by_layer["tcp"] > 0
    # Host.connect ran before the first Simulator.run: it has self time,
    # but none of it is inside a run.
    connect = tracer.stats[("linux", "Host.connect")]
    assert connect[0] == 1 and connect[2] > 0 and connect[3] == 0.0
    assert tracer.first_run_at is not None


# ----------------------------------------------------------------------
# callback-owner attribution
# ----------------------------------------------------------------------


def test_callback_owner_unwraps_methods_and_partials():
    assert layer_of("repro.net.link") == "net"
    assert layer_of("repro") == "other" and layer_of(None) == "other"
    assert callback_owner(Link._deliver) == ("net", "Link._deliver")
    bed = TwoHostTestbed()
    assert callback_owner(bed.trunk.forward._deliver) == ("net", "Link._deliver")
    assert callback_owner(functools.partial(bed.trunk.forward._deliver, None)) == (
        "net", "Link._deliver",
    )

    def local() -> None:
        pass

    layer, name = callback_owner(local)
    assert layer == "other" and name.endswith("local")


def test_fired_callbacks_become_spans_of_the_package_that_owns_them():
    fired = []

    def closure(tag: str) -> None:
        fired.append(tag)

    with Tracer().install(full=True) as tracer:
        bed = TwoHostTestbed(rtt=0.05)
        bed.serve_echo()
        agent = RiptideAgent(bed.server, RiptideConfig(update_interval=0.5))
        agent.start()
        bed.sim.schedule(0.01, closure, "a")
        bed.sim.schedule_at(0.02, closure, "b")
        bed.sim.schedule_fire(0.03, closure, "c")
        request_response(bed, 100_000)
        bed.sim.run(until=bed.sim.now + 2.0)
    assert fired == ["a", "b", "c"]
    assert tracer.calls("other", closure.__qualname__) == 3
    # Every delivered packet is one Link._deliver callback, owned by net.
    delivered = (
        bed.trunk.forward.stats.packets_delivered
        + bed.trunk.reverse.stats.packets_delivered
    )
    assert delivered > 0
    assert tracer.calls("net", "Link._deliver") == delivered
    assert tracer.calls("net", "Link.transmit") == (
        bed.trunk.forward.stats.packets_offered + bed.trunk.reverse.stats.packets_offered
    )
    # The periodic process fires its own tick (sim); the agent's poll,
    # called from there, is a span of core.
    assert agent.stats.polls > 0
    assert tracer.calls("core", "RiptideAgent._tick") == agent.stats.polls
    assert tracer.calls("sim", "PeriodicProcess._tick") == agent.stats.polls
    assert tracer.rows["SsTool.tcp_info"] >= 0
    assert tracer.calls("linux", "SsTool.tcp_info") == agent.stats.polls
    # Scheduling is counted, not timed; cancels are counted when effective.
    assert tracer.scheduled >= bed.sim.events_processed
    assert tracer.cancelled > 0


def test_traced_run_fires_the_same_events_and_gives_the_same_result():
    def exchange_once() -> tuple[int, float]:
        bed = TwoHostTestbed(rtt=0.08, seed=7)
        bed.serve_echo()
        result = request_response(bed, 250_000)
        return bed.sim.events_processed, result.total_time

    plain = exchange_once()
    with Tracer().install(full=True):
        traced = exchange_once()
    assert traced == plain


# ----------------------------------------------------------------------
# removal
# ----------------------------------------------------------------------


def _patched_attributes() -> list[tuple[type, str]]:
    found = [(Simulator, m) for m in ("run", "schedule", "schedule_at", "schedule_fire", "cancel")]
    found.append((PeriodicProcess, "__init__"))
    for module, cls_name, methods in PATCH_TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        found.extend((cls, method) for method in methods)
    for module, cls_name, method in ROW_TARGETS:
        found.append((getattr(importlib.import_module(module), cls_name), method))
    from repro.policy.learners import EwmaPolicy

    found.append((EwmaPolicy, "decide"))
    return found


def test_wrappers_are_fully_removed_on_exit():
    attributes = _patched_attributes()
    before = [owner.__dict__[attr] for owner, attr in attributes]
    with Tracer().install(full=True):
        during = [owner.__dict__[attr] for owner, attr in attributes]
        assert all(now is not then for now, then in zip(during, before, strict=True))
    after = [owner.__dict__[attr] for owner, attr in attributes]
    assert all(now is then for now, then in zip(after, before, strict=True))


def test_light_install_touches_simulator_run_only():
    attributes = _patched_attributes()
    before = [owner.__dict__[attr] for owner, attr in attributes]
    with Tracer().install(full=False) as tracer:
        changed = [
            (owner.__name__, attr)
            for (owner, attr), then in zip(attributes, before, strict=True)
            if owner.__dict__[attr] is not then
        ]
        assert changed == [("Simulator", "run")]
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
    assert tracer.first_run_at is not None
    assert tracer.calls("sim", "Simulator.run") == 1
    assert Simulator.__dict__["run"] is before[0]
