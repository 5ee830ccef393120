"""The kernel-mode Riptide variant (Section V, "Kernel Implementation").

"Riptide could further be implemented directly in the Linux kernel.
Such an implementation would likely reduce load, as an external program
no longer has to monitor all open connections, and potentially enable
higher granularity computations.  It could further allow setting of
initial congestion windows on a per connection basis, rather than per
route."

:class:`KernelModeAgent` runs the exact same Algorithm 1 control loop as
the user-space agent, but instead of programming routes through ``ip``,
it registers an in-kernel resolver hook that new connections consult at
establishment time.  Consequences the paper predicts, reproduced here:

* zero route-table churn (``host.ip`` is never touched), and
* per-connection resolution: the hook sees the exact destination of each
  connect/accept, so no route aggregation artefacts arise.
"""

from __future__ import annotations

from repro.core.agent import RiptideAgent
from repro.core.config import RiptideConfig
from repro.linux.host import Host
from repro.net.addresses import IPv4Address, Prefix


class KernelModeAgent(RiptideAgent):
    """Algorithm 1 driving a kernel hook instead of the route table."""

    def __init__(self, host: Host, config: RiptideConfig | None = None) -> None:
        super().__init__(host, config)
        self._windows: dict[Prefix, int] = {}
        # Bind once: Python creates a fresh bound-method object on every
        # attribute access, so identity checks need a stable reference.
        self._hook = self._resolve

    # ------------------------------------------------------------------
    # lifecycle: claim and release the kernel hook
    # ------------------------------------------------------------------

    def start(self, initial_delay: float | None = None) -> None:
        if self.host.initcwnd_hook is not None and (
            self.host.initcwnd_hook is not self._hook
        ):
            raise RuntimeError(
                f"host {self.host.address} already has an initcwnd hook"
            )
        self.host.initcwnd_hook = self._hook
        super().start(initial_delay=initial_delay)

    def stop(self, remove_routes: bool = True) -> None:
        super().stop(remove_routes=remove_routes)
        if self.host.initcwnd_hook is self._hook:
            self.host.initcwnd_hook = None

    # ------------------------------------------------------------------
    # the in-kernel resolver
    # ------------------------------------------------------------------

    def _resolve(self, destination: IPv4Address) -> int | None:
        """Per-connection initial-window resolution (the kernel path)."""
        key = self._grouper.key_for(destination)
        return self._windows.get(key)

    def _apply_window(self, destination: Prefix, window: int | None) -> None:
        if window is None:
            self._windows.pop(destination, None)
        else:
            self._windows[destination] = window

    def installed_window(self, destination: Prefix) -> int | None:
        """Kernel mode installs into the hook map, not the route table;
        none of it is in effect while the hook is not this agent's."""
        if self.host.initcwnd_hook is not self._hook:
            return None
        return self._windows.get(destination)

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"<KernelModeAgent host={self.host.address} {state} "
            f"windows={len(self._windows)}>"
        )
