"""Segment-granularity TCP for the simulation.

Implements the pieces of Linux TCP that Riptide's behaviour depends on:

* three-way handshake (new connections cost one RTT before data),
* slow start from a configurable *initial congestion window* — the knob
  Riptide turns,
* congestion avoidance via pluggable congestion control (Reno, CUBIC),
* duplicate-ACK fast retransmit with NewReno fast recovery,
* RFC 6298 retransmission timeouts with exponential backoff, and
* receive-window flow control with a configurable *initial receive
  window* (the Section III-C coupling: the receiver must be able to
  absorb the sender's first burst).
"""
