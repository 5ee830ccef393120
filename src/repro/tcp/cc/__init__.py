"""Pluggable congestion control.

Riptide deliberately leaves steady-state window dynamics to the kernel's
congestion control ("the behavior of the congestion window is handled by
the congestion control algorithm, for example via TCP Cubic").  The socket
therefore delegates all cwnd/ssthresh arithmetic to one of these classes,
seeded with whatever *initial* window the route table (i.e. Riptide)
prescribes.
"""

from repro.tcp.cc.base import CongestionControl
from repro.tcp.cc.cubic import Cubic
from repro.tcp.cc.reno import Reno

_REGISTRY = {
    "reno": Reno,
    "cubic": Cubic,
}


def make_congestion_control(
    name: str,
    initial_cwnd: int,
    mss: int,
) -> CongestionControl:
    """Instantiate a registered congestion control by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown congestion control {name!r} (known: {known})") from None
    return cls(initial_cwnd=initial_cwnd, mss=mss)

