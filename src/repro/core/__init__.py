"""Riptide: the paper's contribution.

A user-space agent that periodically polls the congestion windows of a
host's open connections (via the ``ss`` surface), groups them by
destination, combines each group into a candidate window, folds it into
per-destination history, clamps it to ``[c_min, c_max]`` and installs it
as the initial congestion window of a route (via the ``ip`` surface).
Entries expire after a TTL, restoring the kernel default.

The pluggable pieces mirror Section III-B's design discussion:

* **combiners** — average (paper default), max (aggressive),
  traffic-weighted (conservative);
* **history policies** — EWMA (paper default), windowed mean, none;
* **granularity** — per-host ``/32`` routes or broader prefix routes.
"""
