"""The consistency auditor: learned table vs installed windows.

The Riptide agent keeps two copies of the truth — its
:class:`~repro.core.observed.LearnedTable` (what it believes it has
installed) and the host's actual installation state (the route table in
user-space mode, the kernel hook's window map in kernel mode).  Any
divergence between the two means new connections are *not* getting the
windows the agent thinks they are: exactly the failure mode of a stopped
agent stranding learned entries, or an operator deleting routes out from
under a running one.

:class:`Auditor.check` walks the learned table and compares each entry's
window against :meth:`RiptideAgent.installed_window`.  Divergences are
counted in the metrics registry (``auditor_divergences``), traced as
:attr:`~repro.obs.trace.EventType.AUDIT_DIVERGENCE` events, and returned
to the caller.  When attached to an agent (see
:meth:`~repro.core.agent.RiptideAgent.attach_auditor`) the check runs at
the *start* of every poll tick — before the install pass — so a
divergence is observed once and then self-healed by the same tick's
reinstall.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.trace import EventType
from repro.records import Frozen

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.agent import RiptideAgent
    from repro.net.addresses import Prefix


class Divergence(Frozen):
    """One learned entry whose installed window does not match."""

    __slots__ = ("destination", "learned_window", "installed_window")

    destination: Prefix
    learned_window: int
    installed_window: int | None

    def __init__(
        self,
        destination: Prefix,
        learned_window: int,
        installed_window: int | None,
    ) -> None:
        object.__setattr__(self, "destination", destination)
        object.__setattr__(self, "learned_window", learned_window)
        object.__setattr__(self, "installed_window", installed_window)


class Auditor:
    """Cross-checks one agent's learned table against installed state."""

    def __init__(self, agent: "RiptideAgent") -> None:
        self.agent = agent
        obs = agent.host.sim.obs
        self._trace = obs.trace
        self._source = f"auditor:{agent.host.name}"
        self._m_checks = obs.metrics.counter("auditor_checks")
        self._m_entries = obs.metrics.counter("auditor_entries_checked")
        self._m_divergences = obs.metrics.counter("auditor_divergences")
        self.checks_run = 0
        self.divergences_found = 0
        self.last_divergences: list[Divergence] = []

    def check(self, now: float | None = None) -> list[Divergence]:
        """Audit once; count, trace and return any divergences."""
        if now is None:
            now = self.agent.host.sim.now
        divergences = []
        entries = self.agent.learned_table().entries()
        for entry in entries:
            installed = self.agent.installed_window(entry.destination)
            if installed != entry.window:
                divergences.append(
                    Divergence(
                        destination=entry.destination,
                        learned_window=entry.window,
                        installed_window=installed,
                    )
                )
        self.checks_run += 1
        self._m_checks.inc()
        self._m_entries.inc(len(entries))
        if divergences:
            self.divergences_found += len(divergences)
            self._m_divergences.inc(len(divergences))
            for divergence in divergences:
                self._trace.record(
                    now,
                    EventType.AUDIT_DIVERGENCE,
                    self._source,
                    destination=str(divergence.destination),
                    learned=divergence.learned_window,
                    installed=divergence.installed_window,
                )
        self.last_divergences = divergences
        return divergences

    def __repr__(self) -> str:
        return (
            f"<Auditor agent={self.agent.host.name} checks={self.checks_run} "
            f"divergences={self.divergences_found}>"
        )
