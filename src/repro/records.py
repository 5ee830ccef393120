"""The shared base of the hand-written immutable records.

A frozen ``@dataclass`` generates six methods per class at import time,
each an ``exec`` and a compile every process pays.  A record that nothing
compares, hashes or passes to ``replace()`` or ``fields()`` needs none of
them: it is a slotted class with a hand-written ``__init__`` that stores
its fields through ``object.__setattr__``, and derives from
:class:`Frozen` for the two methods that keep it immutable.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

__all__ = ["Frozen"]


class Frozen:
    """Refuses attribute writes after ``__init__``, as a frozen dataclass does."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        # Unpickling and ``copy`` restore a slotted instance's
        # ``(None, {slot: value})`` state through ``setattr``; go round it.
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
