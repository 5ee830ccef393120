"""Simulated Linux host environment.

Provides the kernel-adjacent surfaces Riptide actually touches on a real
server: a route table with per-route ``initcwnd``/``initrwnd`` and
longest-prefix matching (:mod:`repro.linux.route`), an ``ip route``-style
manipulation tool (:mod:`repro.linux.ip_tool`), an ``ss``-style socket
statistics tool (:mod:`repro.linux.ss_tool`), and the host object that owns
sockets, listeners and the TCP configuration (:mod:`repro.linux.host`).
"""

from repro.linux.errors import ToolError
from repro.linux.host import Host
from repro.linux.ip_tool import IpRouteTool
from repro.linux.route import RouteEntry, RouteTable
from repro.linux.ss_tool import SS_FAULT_MODES, SsTool

__all__ = [
    "Host",
    "IpRouteTool",
    "RouteEntry",
    "RouteTable",
    "SS_FAULT_MODES",
    "SsTool",
    "ToolError",
]
