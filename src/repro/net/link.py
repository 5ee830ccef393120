"""Links: serialization, propagation, queueing and loss.

A :class:`Link` is one direction of a wide-area path.  It models

* a finite drop-tail queue (packets wait while the transmitter is busy),
* store-and-forward serialization at ``bandwidth_bps``,
* fixed propagation delay, and
* stochastic in-flight loss via a :class:`~repro.net.loss.LossModel`.

Together these produce exactly the dynamics TCP start-up cares about: an
over-large initial burst either queues (adding delay) or overflows the
queue (causing loss), which is why Riptide clamps its learned windows.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Callable
from math import inf

from repro.net.loss import BernoulliLoss, LossModel, NoLoss
from repro.net.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.rand import RandomStreams

DeliverCallback = Callable[[Packet], None]

#: What every direction's queue slot holds until ``transmit`` accepts a
#: packet there and puts a deque of the direction's own in its place:
#: empty to every reader, and nothing is ever appended to it.
_NO_QUEUE: deque[tuple[float, Packet | None]] = deque(maxlen=0)

#: A direction's ``set_down`` catch while none of it is left to arrive.
_NO_DOWNED: frozenset[Packet] = frozenset()

#: What ``effective_loss_model`` reports for a lossless direction, which
#: holds no model of its own.
_NO_LOSS = NoLoss()


class LinkStats:
    """Counters accumulated over the lifetime of a link direction."""

    __slots__ = (
        "packets_offered", "packets_delivered", "packets_dropped_queue", "packets_dropped_loss",
        "packets_dropped_down", "bytes_offered", "bytes_delivered", "max_queue_depth",
    )

    def __init__(self) -> None:
        self.packets_offered = 0
        self.packets_delivered = 0
        self.packets_dropped_queue = 0
        self.packets_dropped_loss = 0
        self.packets_dropped_down = 0
        self.bytes_offered = 0
        self.bytes_delivered = 0
        self.max_queue_depth = 0


class Link:
    """One unidirectional link.

    A packet's passage is fixed when the link accepts it: it starts now or
    when the last accepted packet finishes, and the state in force then
    sets its finish, its loss draw and its one arrival event.  Same-instant
    rule: a serialization completion at *t* frees its queue slot before any
    offer at *t* is judged against ``queue_limit_packets``, which bounds
    the packets waiting (not the one on the wire).

    What ``transmit`` reads per packet is stored, not derived there: the
    rate packets serialize against is the slot :attr:`capacity_bps`,
    refreshed by every method that changes one of its inputs, and a
    lossless direction holds no loss model at all, so its packets make
    no loss call and resolve no loss stream.
    """

    # One Link object per path direction, one timer per packet: keep
    # instances dict-free and the counter handles one load away.  A full
    # mesh builds a thousand directions and a scale run sends packets over
    # a tenth of them, so what only a packet needs — the loss generator
    # (2.5 KB of Mersenne state) and the queue — is built by the first one
    # that needs it.
    __slots__ = (
        "_sim", "bandwidth_bps", "propagation_delay", "queue_limit_packets",
        "_loss", "_rng", "_streams", "name", "stats", "_queue", "_downed",
        "_obs_on", "_m_delivered", "_m_dropped_queue", "_m_dropped_loss",
        "_g_queue_depth", "up", "bandwidth_scale", "extra_delay",
        "_loss_override", "_m_dropped_down", "fluid_bps", "capacity_bps",
    )

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        propagation_delay: float,
        queue_limit_packets: int = 256,
        loss_model: LossModel | None = None,
        name: str = "link",
        streams: RandomStreams | None = None,
    ) -> None:
        # Each check is also false for NaN.  An infinite delay would carry
        # the clock to +inf, and an infinite bandwidth is no link.
        if not 0 < bandwidth_bps < inf:
            raise ValueError(f"bandwidth must be positive and finite, got {bandwidth_bps}")
        if not 0 <= propagation_delay < inf:
            raise ValueError(
                f"propagation delay must be finite and >= 0, got {propagation_delay}"
            )
        if queue_limit_packets < 1:
            raise ValueError(f"queue limit must be >= 1, got {queue_limit_packets}")
        self._sim = sim
        self.bandwidth_bps = float(bandwidth_bps)
        self.propagation_delay = float(propagation_delay)
        self.queue_limit_packets = int(queue_limit_packets)
        #: The configured loss model; None for a perfect wire (no model, or
        #: a ``NoLoss``), on which ``transmit`` makes no loss call.
        self._loss = None if loss_model is None or type(loss_model) is NoLoss else loss_model
        #: The generator loss draws consume: the stream ``loss:<name>`` of
        #: ``streams``, resolved by the first packet a loss model is in
        #: force for.  A stream is a function of ``(master_seed, name)``
        #: alone, so when it is resolved moves no draw.
        self._rng: random.Random | None = None
        self._streams = streams
        self.name = name
        self.stats = LinkStats()
        #: ``(finish, packet)`` per accepted packet not yet serialized (None
        #: for one the loss draw took); the head is on the wire.
        self._queue = _NO_QUEUE
        #: Packets ``set_down`` caught, whose arrival events deliver nothing.
        self._downed = _NO_DOWNED
        #: Fault-injection state (see repro.faults): an administratively
        #: "down" link drops every packet; degradation scales the usable
        #: bandwidth and adds propagation delay; a loss override replaces
        #: the configured loss model for the duration of a storm.
        self.up = True
        self.bandwidth_scale = 1.0
        self.extra_delay = 0.0
        self._loss_override: LossModel | None = None
        #: Aggregate bandwidth (bits/s) consumed by fluid background
        #: cohorts (see repro.cdn.fluidtraffic).  Subtracted from the
        #: capacity available to packet-granular traffic.
        self.fluid_bps = 0.0
        #: ``capacity_bps``, the rate (bits/s) packet traffic serializes
        #: against: the degraded bandwidth less the fluid load, floored at
        #: 5% of it.  Read on every packet, so stored; read-only.
        self._refresh_capacity()
        # Aggregate (label-free) fabric counters; per-link detail stays in
        # ``self.stats``.  Handles are cached — these sit on the per-packet
        # hot path.
        self._obs_on = sim.obs.enabled
        metrics = sim.obs.metrics
        self._m_delivered = metrics.counter("link_packets_delivered")
        self._m_dropped_queue = metrics.counter("link_packets_dropped_queue")
        self._m_dropped_loss = metrics.counter("link_packets_dropped_loss")
        self._m_dropped_down = metrics.counter("link_packets_dropped_down")
        self._g_queue_depth = metrics.gauge("link_queue_depth")

    @property
    def queue_depth(self) -> int:
        """Packets waiting (not counting the one on the wire)."""
        now = self._sim.now
        return max(sum(1 for finish, _ in self._queue if finish > now) - 1, 0)

    def _refresh_capacity(self) -> None:
        """Recompute :attr:`capacity_bps` after one of its inputs changed.

        Fluid background load (``fluid_bps``) occupies a share of the
        link, so packet-granular traffic serializes against the residual
        capacity, floored at 5% so a saturated cohort slows packets
        down rather than stalling them outright.
        """
        capacity = self.bandwidth_bps * self.bandwidth_scale
        if self.fluid_bps:
            residual = capacity - self.fluid_bps
            floor = capacity * 0.05
            capacity = residual if residual > floor else floor
        self.capacity_bps = capacity

    def transmit(self, packet: Packet, deliver: DeliverCallback) -> bool:
        """Offer a packet to the link.

        Returns False when the link is down or the queue is full and the
        packet was dropped; True when it was accepted (acceptance does not
        guarantee delivery — in-flight loss may still eat it).
        """
        stats = self.stats
        stats.packets_offered += 1
        stats.bytes_offered += packet.size_bytes
        if not self.up:
            stats.packets_dropped_down += 1
            self._m_dropped_down.inc()
            return False
        now = self._sim.now
        queue = self._queue
        while queue and queue[0][0] <= now:
            queue.popleft()
        # Waiting packets number len(queue) - 1: the head is on the wire.
        if len(queue) > self.queue_limit_packets:
            stats.packets_dropped_queue += 1
            self._m_dropped_queue.inc()
            return False
        if queue is _NO_QUEUE:
            queue = self._queue = deque()
        finish = (queue[-1][0] if queue else now) + packet.size_bytes * 8.0 / self.capacity_bps
        loss = self._loss_override or self._loss
        if loss is None:
            dropped = False
        elif type(loss) is BernoulliLoss:
            # ``BernoulliLoss.should_drop`` in line, ``probability`` read
            # live; a subclass keeps its own method.
            p = loss.probability
            rng = self._rng or self._loss_stream()
            dropped = p != 0.0 and rng.random() < p
        else:
            dropped = loss.should_drop(self._rng or self._loss_stream())
        if dropped:
            stats.packets_dropped_loss += 1
            self._m_dropped_loss.inc()
            queue.append((finish, None))
        else:
            queue.append((finish, packet))
            arrival = finish + (self.propagation_delay + self.extra_delay)
            self._sim.schedule_fire(arrival, self._deliver, packet, deliver)
        depth = len(queue) - 1
        if depth > stats.max_queue_depth:
            stats.max_queue_depth = depth
        if self._obs_on:
            # ``Gauge.set(depth)`` in line, the first write included: an
            # int depth replaces the ``0.0`` initial high-water mark.
            gauge = self._g_queue_depth
            gauge.value = depth
            if depth > gauge.max_value or not gauge.written:
                gauge.max_value = depth
                gauge.written = True
        return True

    def _loss_stream(self) -> random.Random:
        """Resolve the generator of this direction's first loss draw."""
        streams = self._streams or RandomStreams(0)
        rng = self._rng = streams.stream("loss:" + self.name)
        return rng

    def _deliver(self, packet: Packet, deliver: DeliverCallback) -> None:
        downed = self._downed
        if downed and packet in downed:
            self._downed = downed - {packet} or _NO_DOWNED
            return
        # Popped here, not left to the next ``transmit``: a finished entry
        # holds its delivered packet, and a link with a wide flight and
        # no packet to send for a while would hold them all.
        queue = self._queue
        now = self._sim.now
        while queue and queue[0][0] <= now:
            queue.popleft()
        if self._obs_on:
            # The value only: this packet's ``transmit`` wrote the gauge
            # with a depth no smaller than what is left after the pops.
            self._g_queue_depth.value = len(queue) - 1 if queue else 0
        stats = self.stats
        stats.packets_delivered += 1
        stats.bytes_delivered += packet.size_bytes
        # In place, not ``inc()``: the amount is the literal 1, which the
        # negative-increment check could never refuse.
        self._m_delivered.value += 1
        deliver(packet)

    # ------------------------------------------------------------------
    # fault injection (see repro.faults)
    # ------------------------------------------------------------------

    def set_down(self) -> None:
        """Fail the link until :meth:`set_up`: every offer is dropped, and so
        is every accepted packet not yet serialized (the one on the wire
        included; one the loss draw took stays lost), counted now.  Packets
        in propagation flight still arrive: they left before the failure.
        """
        self.up = False
        queue = self._queue
        now = self._sim.now
        if not queue or queue[-1][0] <= now:
            return  # nothing left unfinished
        caught = [packet for finish, packet in queue if finish > now and packet is not None]
        queue.clear()
        if self._obs_on:
            self._g_queue_depth.set(0)
        if caught:
            self._downed = self._downed.union(caught)
            self.stats.packets_dropped_down += len(caught)
            self._m_dropped_down.inc(len(caught))

    def set_up(self) -> None:
        """Restore a failed link."""
        self.up = True

    def degrade(self, bandwidth_scale: float = 1.0, extra_delay: float = 0.0) -> None:
        """Degrade the link: scale usable bandwidth, add one-way delay.

        Applies to packets accepted from now on; :meth:`restore` undoes
        both knobs.
        """
        if not 0.0 < bandwidth_scale <= 1.0:
            raise ValueError(
                f"bandwidth_scale must be in (0, 1], got {bandwidth_scale}"
            )
        if not 0 <= extra_delay < inf:
            raise ValueError(f"extra_delay must be finite and >= 0, got {extra_delay}")
        self.bandwidth_scale = float(bandwidth_scale)
        self.extra_delay = float(extra_delay)
        self._refresh_capacity()

    def restore(self) -> None:
        """Undo :meth:`degrade`."""
        self.bandwidth_scale = 1.0
        self.extra_delay = 0.0
        self._refresh_capacity()

    def set_loss_override(self, model: LossModel | None) -> None:
        """Replace the configured loss model until cleared with ``None``."""
        self._loss_override = model

    def set_fluid_load(self, bps: float) -> None:
        """Record the aggregate fluid-cohort send rate crossing this link."""
        if not bps >= 0:
            raise ValueError(f"fluid load must be >= 0, got {bps}")
        self.fluid_bps = float(bps)
        self._refresh_capacity()

    @property
    def effective_loss_model(self) -> LossModel:
        """The loss model currently in force (override wins)."""
        return self._loss_override or self._loss or _NO_LOSS

    def __repr__(self) -> str:
        return (
            f"<Link {self.name!r} {self.bandwidth_bps / 1e6:.1f}Mbps "
            f"{self.propagation_delay * 1e3:.1f}ms q={self.queue_depth}>"
        )


class DuplexLink:
    """A symmetric pair of :class:`Link` directions between two ends.

    The loss model is cloned so each direction has independent channel
    state; each direction also gets its own RNG stream (``loss:<name>:fwd``
    and ``loss:<name>:rev`` of ``streams``).
    """

    __slots__ = ("name", "forward", "reverse")

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        propagation_delay: float,
        queue_limit_packets: int = 256,
        loss_model: LossModel | None = None,
        name: str = "duplex",
        streams: RandomStreams | None = None,
    ) -> None:
        self.name = name
        self.forward, self.reverse = (
            Link(
                sim, bandwidth_bps, propagation_delay, queue_limit_packets,
                loss_model.clone() if loss_model is not None else None,
                name=f"{name}:{end}", streams=streams,
            )
            for end in ("fwd", "rev")
        )

    @property
    def rtt(self) -> float:
        """Round-trip propagation delay (excluding serialization/queueing)."""
        return self.forward.propagation_delay + self.reverse.propagation_delay

    @property
    def up(self) -> bool:
        """True when both directions are up."""
        return self.forward.up and self.reverse.up

    def set_down(self) -> None:
        """Fail both directions (a trunk flap / partition)."""
        self.forward.set_down()
        self.reverse.set_down()

    def set_up(self) -> None:
        self.forward.set_up()
        self.reverse.set_up()

    def degrade(self, bandwidth_scale: float = 1.0, extra_delay: float = 0.0) -> None:
        """Degrade both directions symmetrically."""
        self.forward.degrade(bandwidth_scale, extra_delay)
        self.reverse.degrade(bandwidth_scale, extra_delay)

    def restore(self) -> None:
        self.forward.restore()
        self.reverse.restore()

    def set_loss_override(self, model: LossModel | None) -> None:
        """Install a replacement loss model (cloned per direction)."""
        self.forward.set_loss_override(model.clone() if model is not None else None)
        self.reverse.set_loss_override(model.clone() if model is not None else None)

    def __repr__(self) -> str:
        return f"<DuplexLink {self.name!r} rtt={self.rtt * 1e3:.1f}ms>"
