"""Deterministic fault injection for the reproduction.

The paper evaluates Riptide on a production CDN, where links flap, paths
degrade, tools fail and processes die as a matter of course.  This
package brings those hazards into the simulation *deterministically*: a
declarative :class:`~repro.faults.spec.FaultSchedule` of typed
:class:`~repro.faults.spec.FaultSpec` entries, dispatched on the
simulator clock by :class:`~repro.faults.engine.FaultInjector`, with any
randomness drawn from the cluster's named seeded streams.  The same seed
yields the same faults, the same packet drops and the same agent
behaviour — serial or parallel.

Three fault surfaces:

* **network** — link flaps, bandwidth/latency degradation windows,
  bursty loss storms and full PoP partitions on the trunk fabric;
* **tools** — ``ss`` polls erroring or returning empty/stale/partial
  snapshots, ``ip route`` commands failing;
* **process** — agent crash/restart and poll-loop jitter.

Chaos scenarios (ready-made schedules over the evaluation topology) live
in :mod:`repro.faults.scenarios`; the paired control-vs-Riptide chaos
experiments in :mod:`repro.experiments.chaos`.
"""
