"""Deterministic discrete-event simulation kernel.

This package provides the execution substrate for every other subsystem in
the reproduction: a simulation clock, an event heap with stable ordering,
periodic-process helpers, and named seeded random streams so that every
experiment is reproducible from a single integer seed.
"""
