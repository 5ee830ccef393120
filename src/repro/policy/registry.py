"""The policy registry: name -> factory over a :class:`RiptideConfig`.

Every zoo member registers here; ``RiptideConfig.policy`` selects by
name and :func:`make_policy` instantiates at agent construction;
the config validates names against :func:`policy_names`.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.policy.base import WindowPolicy
from repro.policy.learners import EwmaPolicy, PercentilePolicy, RttClassPolicy
from repro.policy.tunable import TunablePolicy
from repro.policy.zoo import HostClassStaticPolicy, StaticPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.config import RiptideConfig

_FACTORIES: dict[str, Callable[["RiptideConfig"], WindowPolicy]] = {
    "ewma": EwmaPolicy,
    "iw10": lambda config: StaticPolicy(10),
    "iw16": lambda config: StaticPolicy(16),
    "iw32": lambda config: StaticPolicy(32),
    "iw46": lambda config: StaticPolicy(46),
    "hostclass": lambda config: HostClassStaticPolicy(),
    "p75": lambda config: PercentilePolicy(75.0),
    "p90": lambda config: PercentilePolicy(90.0),
    "rtt_cmax": RttClassPolicy,
    "tunable": TunablePolicy,
}


def policy_names() -> tuple[str, ...]:
    """All registered policy names, sorted."""
    return tuple(sorted(_FACTORIES))


def make_policy(name: str, config: "RiptideConfig") -> WindowPolicy:
    """Instantiate a window policy by its registered name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        # A config typo is a plain ValueError; the internal KeyError is
        # an implementation detail and would only muddy the traceback.
        known = ", ".join(sorted(_FACTORIES))
        raise ValueError(f"unknown policy {name!r} (known: {known})") from None
    return factory(config)
