"""A small sysctl façade over :class:`~repro.tcp.constants.TcpConfig`.

Riptide's deployment story (Section III-C) involves two host-wide knobs:
the congestion-control algorithm and the memory ceiling that bounds
receive-window growth.  This façade exposes them under their Linux names
so examples and experiments read like operations runbooks.
"""

from __future__ import annotations

from dataclasses import replace

from repro.tcp.constants import TcpConfig

_NAME_TO_FIELD = {
    "net.ipv4.tcp_congestion_control": "congestion_control",
    "net.ipv4.tcp_rmem_max": "rmem_max_bytes",
    "net.ipv4.tcp_mss": "mss",
    "net.ipv4.tcp_initcwnd_default": "default_initcwnd",
    "net.ipv4.tcp_initrwnd_default": "default_initrwnd",
    "net.ipv4.tcp_delayed_ack": "delayed_ack",
}


class Sysctl:
    """Get/set TCP tunables by their Linux-style names."""

    def __init__(self, config: TcpConfig | None = None) -> None:
        self._config = config if config is not None else TcpConfig()

    @property
    def config(self) -> TcpConfig:
        """The current immutable configuration snapshot."""
        return self._config

    def get(self, name: str):
        field = self._lookup(name)
        return getattr(self._config, field)

    def set(self, name: str, value) -> None:
        field = self._lookup(name)
        self._config = replace(self._config, **{field: value})

    @staticmethod
    def _lookup(name: str) -> str:
        try:
            return _NAME_TO_FIELD[name]
        except KeyError:
            known = ", ".join(sorted(_NAME_TO_FIELD))
            raise KeyError(f"unknown sysctl {name!r} (known: {known})") from None

    def __repr__(self) -> str:
        return f"<Sysctl {self._config}>"
