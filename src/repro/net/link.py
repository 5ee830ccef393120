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

from repro.net.loss import LossModel, NoLoss
from repro.net.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.rand import RandomStreams

DeliverCallback = Callable[[Packet], None]

#: What every direction's queue slot holds until ``transmit`` accepts a
#: packet there and puts a deque of the direction's own in its place:
#: empty to every reader, and nothing is ever appended to it.
_NO_QUEUE: deque[tuple[Packet, DeliverCallback]] = deque(maxlen=0)


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

    @property
    def packets_dropped(self) -> int:
        return (
            self.packets_dropped_queue
            + self.packets_dropped_loss
            + self.packets_dropped_down
        )


class Link:
    """One unidirectional link."""

    # One Link object per path direction, two timers per packet
    # (serialization, then propagation): keep instances dict-free and the
    # counter handles one load away.  A full mesh builds a thousand
    # directions and a scale run sends packets over a tenth of them, so
    # what only a packet needs — the loss generator (2.5 KB of Mersenne
    # state) and the queue — is built by the first packet that needs it.
    __slots__ = (
        "_sim", "bandwidth_bps", "propagation_delay", "queue_limit_packets",
        "_loss", "_rng", "_streams", "name", "stats", "_queue", "_transmitting",
        "_obs_on", "_m_delivered", "_m_dropped_queue", "_m_dropped_loss",
        "_g_queue_depth", "up", "bandwidth_scale", "extra_delay",
        "_loss_override", "_m_dropped_down", "fluid_bps",
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
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if propagation_delay < 0:
            raise ValueError(f"propagation delay must be >= 0, got {propagation_delay}")
        if queue_limit_packets < 1:
            raise ValueError(f"queue limit must be >= 1, got {queue_limit_packets}")
        self._sim = sim
        self.bandwidth_bps = float(bandwidth_bps)
        self.propagation_delay = float(propagation_delay)
        self.queue_limit_packets = int(queue_limit_packets)
        self._loss = loss_model if loss_model is not None else NoLoss()
        #: The generator loss draws consume: the stream ``loss:<name>`` of
        #: ``streams``, resolved by the first draw.  A stream is a function
        #: of ``(master_seed, name)`` alone, so when it is resolved moves
        #: no draw.
        self._rng: random.Random | None = None
        self._streams = streams
        self.name = name
        self.stats = LinkStats()
        #: Waiting ``(packet, deliver)`` pairs, later the timers' arguments.
        self._queue = _NO_QUEUE
        self._transmitting = False
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
        return len(self._queue)

    def serialization_time(self, size_bytes: int) -> float:
        """Seconds to clock ``size_bytes`` onto the wire.

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
        return size_bytes * 8.0 / capacity

    def transmit(self, packet: Packet, deliver: DeliverCallback) -> bool:
        """Offer a packet to the link.

        Returns False when the queue is full and the packet was dropped at
        the tail; True when it was accepted (acceptance does not guarantee
        delivery — in-flight loss may still eat it).
        """
        stats = self.stats
        queue = self._queue
        stats.packets_offered += 1
        stats.bytes_offered += packet.size_bytes
        if not self.up:
            stats.packets_dropped_down += 1
            self._m_dropped_down.inc()
            return False
        if len(queue) >= self.queue_limit_packets:
            stats.packets_dropped_queue += 1
            self._m_dropped_queue.inc()
            return False
        if queue is _NO_QUEUE:
            queue = self._queue = deque()
        queue.append((packet, deliver))
        depth = len(queue)
        if depth > stats.max_queue_depth:
            stats.max_queue_depth = depth
        if self._obs_on:
            self._g_queue_depth.set(depth)
        if not self._transmitting:
            self._transmitting = True
            self._start_next_transmission()
        return True

    def _start_next_transmission(self) -> None:
        """Put the head of the (non-empty) queue on the wire."""
        queue = self._queue
        packet, deliver = queue.popleft()
        if self._obs_on:
            self._g_queue_depth.set(len(queue))
        tx_time = self.serialization_time(packet.size_bytes)
        self._sim.schedule_fire(tx_time, self._finish_transmission, packet, deliver)

    def _finish_transmission(self, packet: Packet, deliver: DeliverCallback) -> None:
        if not self.up:
            # The link failed while this packet was on the wire.
            self.stats.packets_dropped_down += 1
            self._m_dropped_down.inc()
        elif (self._loss_override or self._loss).should_drop(
            self._rng or self._loss_stream()
        ):
            self.stats.packets_dropped_loss += 1
            self._m_dropped_loss.inc()
        else:
            delay = self.propagation_delay + self.extra_delay
            self._sim.schedule_fire(delay, self._deliver, packet, deliver)
        if self._queue:
            self._start_next_transmission()
        else:
            self._transmitting = False
            if self._obs_on:
                self._g_queue_depth.set(0)

    def _loss_stream(self) -> random.Random:
        """Resolve the generator of this direction's first loss draw."""
        streams = self._streams or RandomStreams(0)
        rng = self._rng = streams.stream("loss:" + self.name)
        return rng

    def _deliver(self, packet: Packet, deliver: DeliverCallback) -> None:
        stats = self.stats
        stats.packets_delivered += 1
        stats.bytes_delivered += packet.size_bytes
        self._m_delivered.inc()
        deliver(packet)

    # ------------------------------------------------------------------
    # fault injection (see repro.faults)
    # ------------------------------------------------------------------

    def set_down(self) -> None:
        """Fail the link: the queue is purged and every subsequent offer
        (and any packet still on the wire) is dropped until :meth:`set_up`.

        Packets already past serialization (in propagation flight) still
        arrive — they left the link before the failure.
        """
        self.up = False
        purged = len(self._queue)
        if purged:
            self.stats.packets_dropped_down += purged
            self._m_dropped_down.inc(purged)
            self._queue.clear()
            if self._obs_on:
                self._g_queue_depth.set(0)

    def set_up(self) -> None:
        """Restore a failed link."""
        self.up = True

    def degrade(self, bandwidth_scale: float = 1.0, extra_delay: float = 0.0) -> None:
        """Degrade the link: scale usable bandwidth, add one-way delay.

        Applies to packets serialized from now on; :meth:`restore` undoes
        both knobs.
        """
        if not 0.0 < bandwidth_scale <= 1.0:
            raise ValueError(
                f"bandwidth_scale must be in (0, 1], got {bandwidth_scale}"
            )
        if extra_delay < 0:
            raise ValueError(f"extra_delay must be >= 0, got {extra_delay}")
        self.bandwidth_scale = float(bandwidth_scale)
        self.extra_delay = float(extra_delay)

    def restore(self) -> None:
        """Undo :meth:`degrade`."""
        self.bandwidth_scale = 1.0
        self.extra_delay = 0.0

    def set_loss_override(self, model: LossModel | None) -> None:
        """Replace the configured loss model until cleared with ``None``."""
        self._loss_override = model

    def set_fluid_load(self, bps: float) -> None:
        """Record the aggregate fluid-cohort send rate crossing this link."""
        if bps < 0:
            raise ValueError(f"fluid load must be >= 0, got {bps}")
        self.fluid_bps = float(bps)

    @property
    def effective_loss_model(self) -> LossModel:
        """The loss model currently in force (override wins)."""
        return self._loss_override or self._loss

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
        template = loss_model if loss_model is not None else NoLoss()
        self.name = name
        self.forward = Link(
            sim,
            bandwidth_bps,
            propagation_delay,
            queue_limit_packets,
            template.clone(),
            name=f"{name}:fwd",
            streams=streams,
        )
        self.reverse = Link(
            sim,
            bandwidth_bps,
            propagation_delay,
            queue_limit_packets,
            template.clone(),
            name=f"{name}:rev",
            streams=streams,
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
