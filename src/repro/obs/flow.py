"""Per-connection flow records (the NetFlow-style accounting layer).

Where the trace log records discrete events and the metrics registry
aggregates, a :class:`FlowRecord` is the forensic unit the paper's
argument turns on: one structured record per TCP connection, joining the
initial congestion window a connection *started* with (and whether that
window came from a Riptide-learned route), the handshake RTT it paid,
when and at what window it left slow start, how many recovery episodes
it suffered, and how it ended.  ``repro.obs.report`` joins these records
against probe spans and route/guard/fault traces to answer "why was
*this* probe slow?".

Records are emitted by :class:`~repro.tcp.socket.TcpSocket` (creation,
establishment, slow-start exit, teardown) and collected on the run's
:class:`~repro.obs.instrument.Instrumentation`.  The log is a
:class:`~repro.obs.bounded.BoundedLog`: bounded drop-newest with dense
ids, merged byte-identically to a serial run.
"""

from __future__ import annotations


from repro.obs.bounded import BoundedLog


class FlowRecord:
    """One TCP connection's life, as a structured record.

    Mutable by design: the owning socket fills fields in as the
    connection progresses; ``final_state``/``closed_at`` and the counter
    snapshot land at teardown.  Flows still open when a run ends keep
    ``final_state="open"`` with counters as of the last sync (see
    :meth:`~repro.tcp.socket.TcpSocket.sync_flow`).
    """

    __slots__ = (
        "flow_id", "host", "local", "local_port", "remote", "remote_port", "opened_at",
        "is_client", "initial_cwnd", "cwnd_source", "established_at", "syn_rtt", "ss_exit_at",
        "ss_exit_cwnd", "closed_at", "final_state", "error", "rtos", "fast_retransmits",
        "bytes_acked", "bytes_received", "segments_sent", "segments_retransmitted",
    )

    def __init__(
        self,
        flow_id: int,
        host: str,
        local: str,
        local_port: int,
        remote: str,
        remote_port: int,
        opened_at: float,
        is_client: bool,
        initial_cwnd: int = 0,
        cwnd_source: str = "default",
    ) -> None:
        self.flow_id = flow_id
        #: Host name of the endpoint that owns this record (one record per
        #: socket, so every connection appears twice — once per side).
        self.host = host
        self.local = local
        self.local_port = local_port
        self.remote = remote
        self.remote_port = remote_port
        self.opened_at = opened_at
        self.is_client = is_client
        #: The initial congestion window this side sends with, and where it
        #: came from: ``"route"`` (a learned/installed route), ``"hook"``
        #: (an in-kernel resolver) or ``"default"`` (the sysctl default).
        self.initial_cwnd = initial_cwnd
        self.cwnd_source = cwnd_source
        self.established_at: float | None = None
        #: Handshake time: first SYN (socket creation) to ESTABLISHED.
        self.syn_rtt: float | None = None
        #: First exit from slow start (loss or cwnd >= ssthresh), and the
        #: window in segments at that moment — the paper's "transfers die
        #: inside slow start" observation made measurable per flow.
        self.ss_exit_at: float | None = None
        self.ss_exit_cwnd: int | None = None
        self.closed_at: float | None = None
        #: TCP state when the socket tore down; ``"open"`` while alive.
        self.final_state = "open"
        self.error: str | None = None
        self.rtos = 0
        self.fast_retransmits = 0
        self.bytes_acked = 0
        self.bytes_received = 0
        self.segments_sent = 0
        self.segments_retransmitted = 0

    def to_dict(self) -> dict[str, object]:
        """Stable-ordered plain dict (the JSONL/JSON export shape)."""
        return {
            "flow_id": self.flow_id,
            "host": self.host,
            "local": self.local,
            "local_port": self.local_port,
            "remote": self.remote,
            "remote_port": self.remote_port,
            "opened_at": self.opened_at,
            "is_client": self.is_client,
            "initial_cwnd": self.initial_cwnd,
            "cwnd_source": self.cwnd_source,
            "established_at": self.established_at,
            "syn_rtt": self.syn_rtt,
            "ss_exit_at": self.ss_exit_at,
            "ss_exit_cwnd": self.ss_exit_cwnd,
            "closed_at": self.closed_at,
            "final_state": self.final_state,
            "error": self.error,
            "rtos": self.rtos,
            "fast_retransmits": self.fast_retransmits,
            "bytes_acked": self.bytes_acked,
            "bytes_received": self.bytes_received,
            "segments_sent": self.segments_sent,
            "segments_retransmitted": self.segments_retransmitted,
        }


class FlowLog(BoundedLog[FlowRecord]):
    """All flow records of one run, bounded drop-newest.

    Flow ids are dense (0, 1, 2, ...) in begin order and keep counting
    past capacity, so ``next_id`` is the total number of flows ever
    begun.
    """

    def begin(
        self,
        host: str,
        local: str,
        local_port: int,
        remote: str,
        remote_port: int,
        opened_at: float,
        is_client: bool,
        initial_cwnd: int,
        cwnd_source: str,
    ) -> FlowRecord | None:
        """Open a record for a new connection.

        Returns None past capacity (the flow is counted, not stored);
        callers must tolerate a None handle.
        """
        flow_id = self._claim()
        if flow_id is None:
            return None
        record = FlowRecord(
            flow_id=flow_id,
            host=host,
            local=local,
            local_port=local_port,
            remote=remote,
            remote_port=remote_port,
            opened_at=opened_at,
            is_client=is_client,
            initial_cwnd=initial_cwnd,
            cwnd_source=cwnd_source,
        )
        self._keep(record)
        return record

    def _renumber(self, item: FlowRecord, offset: int) -> None:
        item.flow_id += offset

    @property
    def next_id(self) -> int:
        """Total flows ever begun (dense ids make this the next id)."""
        return self._recorded

    def records(
        self,
        is_client: bool | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> list[FlowRecord]:
        """Retained records, optionally filtered.

        ``since``/``until`` select flows whose lifetime overlaps the
        closed sim-time window ``[since, until]``; a still-open flow
        extends to the end of the run.
        """
        selected = []
        for record in self._items:
            if is_client is not None and record.is_client != is_client:
                continue
            if until is not None and record.opened_at > until:
                continue
            if (
                since is not None
                and record.closed_at is not None
                and record.closed_at < since
            ):
                continue
            selected.append(record)
        return selected

    def __repr__(self) -> str:
        return (
            f"<FlowLog retained={len(self)}/{self.capacity} "
            f"begun={self._recorded} dropped={self.dropped}>"
        )
