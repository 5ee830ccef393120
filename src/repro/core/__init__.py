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

from repro.core.advisory import Advisory, AdvisoryController
from repro.core.agent import AgentStats, RiptideAgent
from repro.core.combiners import (
    AverageCombiner,
    Combiner,
    MaxCombiner,
    Observation,
    TrafficWeightedCombiner,
    make_combiner,
)
from repro.core.config import RiptideConfig
from repro.core.granularity import DestinationGrouper
from repro.core.guard import GuardStats, PathHealth, SafetyGuard
from repro.core.history import (
    EwmaHistory,
    HistoryPolicy,
    NoHistory,
    WindowedHistory,
    make_history_policy,
)
from repro.core.kernel_mode import KernelModeAgent
from repro.core.observed import LearnedEntry, LearnedTable

__all__ = [
    "Advisory",
    "AdvisoryController",
    "AgentStats",
    "AverageCombiner",
    "Combiner",
    "DestinationGrouper",
    "EwmaHistory",
    "GuardStats",
    "HistoryPolicy",
    "KernelModeAgent",
    "PathHealth",
    "LearnedEntry",
    "LearnedTable",
    "MaxCombiner",
    "NoHistory",
    "Observation",
    "RiptideAgent",
    "RiptideConfig",
    "SafetyGuard",
    "TrafficWeightedCombiner",
    "WindowedHistory",
    "make_combiner",
    "make_history_policy",
]
