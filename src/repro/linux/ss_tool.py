"""An ``ss``-shaped socket statistics interface.

Riptide "polls the congestion window of all open connections via the ss
utility".  :meth:`SsTool.tcp_info` returns snapshots of the host's
established sockets (``ss -t state established``), optionally only those
created after a given time.

The tool carries an injectable fault surface (see :mod:`repro.faults`)
modelling how ``ss`` actually misbehaves on a loaded box:

* ``"error"`` — the invocation fails outright (:class:`ToolError`);
* ``"empty"`` — the poll returns no sockets at all;
* ``"stale"`` — the poll returns the *previous* successful snapshot
  taken under the same ``created_after`` (a wedged collector re-serving
  cached data; it never serves one caller another caller's filter);
* ``"partial"`` — only every other socket makes it into the output
  (truncated output, the paper agent's skip-and-continue case).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.linux.errors import ToolError
from repro.tcp.socket import SocketStats, TcpState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.linux.host import Host

#: Fault modes an ``ss`` poll can be armed with.
SS_FAULT_MODES = ("error", "empty", "stale", "partial")


class SyntheticSocketSource(Protocol):
    """Something that fabricates socket snapshots for ``ss`` polls.

    The fluid traffic engine registers one of these per host
    (``host.fluid_sources``) so mean-field cohorts show up in ``ss``
    output exactly like packet-granular sockets — the Riptide agent,
    the EWMA learner and the safety guard stay byte-for-byte unchanged.
    Every returned snapshot is of an established socket and carries a
    real ``created_at``, which the tool's ``created_after`` filter reads.
    """

    def socket_stats(self) -> list[SocketStats]: ...


class SsTool:
    """``ss -ti``-style observation of a host's sockets."""

    def __init__(self, host: "Host") -> None:
        self._host = host
        self.polls = 0
        self.faulted_polls = 0
        self._fault_mode: str | None = None
        #: Last successful snapshot per ``created_after``: what a ``stale``
        #: poll with that filter re-serves.
        self._last_good: dict[float | None, list[SocketStats]] = {}

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    @property
    def fault_mode(self) -> str | None:
        return self._fault_mode

    def set_fault(self, mode: str) -> None:
        """Arm a failure mode for subsequent polls."""
        if mode not in SS_FAULT_MODES:
            raise ValueError(
                f"unknown ss fault mode {mode!r}; expected one of "
                f"{', '.join(SS_FAULT_MODES)}"
            )
        self._fault_mode = mode

    def clear_fault(self) -> None:
        self._fault_mode = None

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def tcp_info(self, created_after: float | None = None) -> list[SocketStats]:
        """Snapshots of the established sockets created at or after
        ``created_after`` (all of them when it is ``None``)."""
        self.polls += 1
        mode = self._fault_mode
        if mode is not None:
            self.faulted_polls += 1
            if mode == "error":
                raise ToolError(f"ss: poll failed on {self._host.address}")
            if mode == "empty":
                return []
            if mode == "stale":
                return list(self._last_good.get(created_after, ()))
        established = TcpState.ESTABLISHED
        snapshots = []
        for sock in self._host.sockets():
            if sock.state is not established:
                continue
            if created_after is not None and sock.created_at < created_after:
                continue
            snapshots.append(sock.stats_snapshot())
        for source in self._host.fluid_sources:
            rows = source.socket_stats()
            if created_after is not None:
                rows = [stats for stats in rows if stats.created_at >= created_after]
            snapshots.extend(rows)
        if mode == "partial":
            return snapshots[::2]
        self._last_good[created_after] = snapshots
        return snapshots

    def __repr__(self) -> str:
        fault = f" fault={self._fault_mode}" if self._fault_mode else ""
        return f"<SsTool host={self._host.address} polls={self.polls}{fault}>"


__all__ = ["SS_FAULT_MODES", "SocketStats", "SsTool", "SyntheticSocketSource"]
