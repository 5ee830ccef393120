"""IPv4 addresses and prefixes.

Implemented over plain integers (rather than :mod:`ipaddress`) so the route
table in :mod:`repro.linux.route` can do longest-prefix matching with simple
mask arithmetic, mirroring how the kernel FIB behaves when Riptide installs
``/32`` host routes or broader prefix routes.
"""

from __future__ import annotations

from functools import total_ordering

from repro.net.errors import AddressError

_MAX_IPV4 = 0xFFFFFFFF

#: The text of every address and prefix formatted so far, one string per
#: value: flow records, trace and span details and route names all hold
#: ``str()`` of an address, and a run formats the same few hundred host
#: addresses and PoP prefixes over and over.  The text is a function of
#: the value alone, so sharing the tables across runs changes no result;
#: they grow with the distinct values formatted.  Keyed by integers, like
#: the per-packet tables: a ``Prefix`` key would cost a Python-level
#: ``__hash__`` frame per lookup.
_ADDRESS_TEXT: dict[int, str] = {}
_PREFIX_TEXT: dict[tuple[int, int], str] = {}


def _parse_dotted_quad(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"malformed IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"malformed IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


@total_ordering
class IPv4Address:
    """An IPv4 address, immutable by convention.

    ``value`` (the address as an integer) is a plain slot, not a property:
    the fabric and the socket demux key their per-packet tables by it.
    Never assign it after construction — addresses are dict keys.
    """

    __slots__ = ("value",)

    def __init__(self, value: "int | str | IPv4Address") -> None:
        if isinstance(value, IPv4Address):
            self.value: int = value.value
        elif isinstance(value, str):
            self.value = _parse_dotted_quad(value)
        elif isinstance(value, int):
            if not 0 <= value <= _MAX_IPV4:
                raise AddressError(f"address integer out of range: {value}")
            self.value = value
        else:
            raise AddressError(f"cannot build address from {type(value).__name__}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self.value == other.value
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        return self.value < other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        v = self.value
        text = _ADDRESS_TEXT.get(v)
        if text is None:
            text = _ADDRESS_TEXT[v] = (
                f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"
            )
        return text

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"


class Prefix:
    """An immutable IPv4 prefix (network address + mask length).

    Prefixes key every per-poll grouping dict, so the hash is computed
    once, at construction.
    """

    __slots__ = ("_network", "_length", "_mask", "_hash")

    def __init__(self, network: "int | str | IPv4Address", length: int) -> None:
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length}")
        addr = IPv4Address(network)
        mask = _mask_for(length)
        if addr.value & ~mask & _MAX_IPV4:
            raise AddressError(
                f"{addr}/{length} has host bits set; not a valid network address"
            )
        self._network = addr
        self._length = length
        self._mask = mask
        self._hash = hash((addr, length))

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"``; a bare address parses as a /32."""
        if "/" in text:
            addr_text, _, len_text = text.partition("/")
            if not len_text.isdigit():
                raise AddressError(f"malformed prefix {text!r}")
            return cls(addr_text, int(len_text))
        return cls(text, 32)

    @classmethod
    def host(cls, address: "int | str | IPv4Address") -> "Prefix":
        """The /32 prefix covering exactly one host."""
        return cls(IPv4Address(address), 32)

    @classmethod
    def containing(cls, address: "int | str | IPv4Address", length: int) -> "Prefix":
        """The prefix of the given length that contains ``address``."""
        addr = IPv4Address(address)
        return cls(addr.value & _mask_for(length), length)

    @property
    def network(self) -> IPv4Address:
        return self._network

    @property
    def length(self) -> int:
        return self._length

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self._length)

    def contains(self, address: "int | str | IPv4Address") -> bool:
        if not isinstance(address, IPv4Address):
            address = IPv4Address(address)
        return address.value & self._mask == self._network.value

    def contains_prefix(self, other: "Prefix") -> bool:
        """True when ``other`` is fully inside this prefix."""
        return other._length >= self._length and self.contains(other._network)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Prefix):
            return self._network == other._network and self._length == other._length
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        key = (self._network.value, self._length)
        text = _PREFIX_TEXT.get(key)
        if text is None:
            text = _PREFIX_TEXT[key] = f"{self._network}/{self._length}"
        return text

    def __repr__(self) -> str:
        return f"Prefix.parse('{self}')"


def _mask_for(length: int) -> int:
    if length == 0:
        return 0
    return (_MAX_IPV4 << (32 - length)) & _MAX_IPV4
