"""Named, seeded random streams.

Every stochastic component (loss model, workload generator, file-size
sampler, ...) draws from its own named stream derived from a single master
seed.  Adding a new component therefore never perturbs the draws of existing
ones, and any experiment is reproducible from one integer.
"""

from __future__ import annotations

import random
import zlib


class RandomStreams:
    """A factory of independent ``random.Random`` instances.

    Child streams are derived from ``(master_seed, name)`` through a stable
    hash (CRC32 — Python's ``hash()`` is salted per process and must not be
    used for reproducibility).
    """

    def __init__(self, master_seed: int) -> None:
        self._master_seed = int(master_seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object, so consumption of randomness is shared within a name.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        derived = self._derive_seed(name)
        stream = random.Random(derived)
        self._streams[name] = stream
        return stream

    def _derive_seed(self, name: str) -> int:
        tag = zlib.crc32(name.encode("utf-8"))
        # Mix with splitmix64-style constants so nearby seeds diverge.
        mixed = (self._master_seed * 0x9E3779B97F4A7C15 + tag) & 0xFFFFFFFFFFFFFFFF
        mixed ^= mixed >> 31
        mixed = (mixed * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        mixed ^= mixed >> 27
        return mixed

    def __repr__(self) -> str:
        return (
            f"<RandomStreams master_seed={self._master_seed} "
            f"streams={sorted(self._streams)}>"
        )
