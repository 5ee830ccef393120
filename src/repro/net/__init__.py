"""Network substrate: addresses, links, loss models and the fabric.

Models the wide-area paths between CDN PoPs as duplex links with
configurable bandwidth, propagation delay, finite drop-tail queues and
stochastic loss.  TCP (in :mod:`repro.tcp`) runs on top of this fabric.
"""
