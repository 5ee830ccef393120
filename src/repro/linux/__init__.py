"""Simulated Linux host environment.

Provides the kernel-adjacent surfaces Riptide actually touches on a real
server: a route table with per-route ``initcwnd``/``initrwnd`` and
longest-prefix matching (:mod:`repro.linux.route`), an ``ip route``-style
manipulation tool (:mod:`repro.linux.ip_tool`), an ``ss``-style socket
statistics tool (:mod:`repro.linux.ss_tool`), and the host object that owns
sockets, listeners and the TCP configuration (:mod:`repro.linux.host`).
"""
