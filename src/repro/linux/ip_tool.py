"""An ``ip route``-shaped interface over a host's route table.

Riptide "sets a route (using the Linux ip tool)" — Figure 8 of the paper
shows ``ip route add 10.0.0.127 dev eth0 proto static initcwnd 80``.  This
class is the in-simulation equivalent: the same verbs (``add``,
``replace``, ``del``), the same semantics (a route that only exists to
carry an ``initcwnd``), plus a ``show`` that renders Linux-style lines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.linux.errors import ToolError
from repro.linux.route import RouteEntry
from repro.net.addresses import IPv4Address, Prefix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.linux.host import Host


class IpRouteTool:
    """``ip route`` verbs bound to one host.

    Mutating verbs (``add``/``replace``/``del``) carry an injectable
    failure mode (see :mod:`repro.faults`): while armed, every command
    raises :class:`ToolError` — netlink said no — and the route table is
    untouched.  Read verbs (``show``/``get``) keep working, as they do on
    a real box when the FIB is fine but modifications are rejected.
    """

    def __init__(self, host: "Host") -> None:
        self._host = host
        self.commands_issued = 0
        self.commands_failed = 0
        self._failing = False

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def set_fault(self) -> None:
        """Arm the failure mode: mutating verbs raise until cleared."""
        self._failing = True

    def clear_fault(self) -> None:
        self._failing = False

    def _check_fault(self, verb: str, destination: object) -> None:
        if self._failing:
            self.commands_failed += 1
            raise ToolError(
                f"ip route {verb} {destination}: RTNETLINK answers: "
                "Operation not permitted"
            )

    def route_add(
        self,
        destination: "Prefix | IPv4Address | str",
        initcwnd: int | None = None,
        initrwnd: int | None = None,
    ) -> RouteEntry:
        """``ip route add <dst> ... initcwnd N`` — fails if present."""
        self._check_fault("add", destination)
        entry = self._entry(destination, initcwnd, initrwnd)
        self._host.route_table.add(entry)
        self.commands_issued += 1
        return entry

    def route_replace(
        self,
        destination: "Prefix | IPv4Address | str",
        initcwnd: int | None = None,
        initrwnd: int | None = None,
    ) -> RouteEntry:
        """``ip route replace`` — add-or-overwrite, Riptide's usual verb."""
        self._check_fault("replace", destination)
        entry = self._entry(destination, initcwnd, initrwnd)
        self._host.route_table.replace(entry)
        self.commands_issued += 1
        return entry

    def route_del(self, destination: "Prefix | IPv4Address | str") -> RouteEntry:
        """``ip route del <dst>`` — raises KeyError when absent."""
        self._check_fault("del", destination)
        prefix = self._as_prefix(destination)
        entry = self._host.route_table.delete(prefix)
        self.commands_issued += 1
        return entry

    def route_show(self) -> list[str]:
        """Linux-style ``ip route show`` output lines."""
        return [entry.format_linux() for entry in self._host.route_table.entries()]

    def route_get(self, destination: "IPv4Address | str") -> RouteEntry | None:
        """``ip route get`` — the route a connection to ``destination``
        would resolve to (longest-prefix match)."""
        return self._host.route_table.lookup(IPv4Address(destination))

    def _entry(
        self,
        destination: "Prefix | IPv4Address | str",
        initcwnd: int | None,
        initrwnd: int | None,
    ) -> RouteEntry:
        return RouteEntry(
            prefix=self._as_prefix(destination),
            initcwnd=initcwnd,
            initrwnd=initrwnd,
            created_at=self._host.sim.now,
        )

    @staticmethod
    def _as_prefix(destination: "Prefix | IPv4Address | str") -> Prefix:
        if isinstance(destination, Prefix):
            return destination
        if isinstance(destination, IPv4Address):
            return Prefix.host(destination)
        return Prefix.parse(destination)

    def __repr__(self) -> str:
        fault = " failing" if self._failing else ""
        return (
            f"<IpRouteTool host={self._host.address} "
            f"issued={self.commands_issued}{fault}>"
        )
