"""Network addresses: MAC, IPv4, and UDP endpoints.

Thin value types (not :mod:`ipaddress`: the Distiller builds two of each
per frame).  Which constructor validates what:

* the plain constructors and the string parsers — ``MacAddress(str)``,
  ``IPv4Address(int)``, ``IPv4Address.parse``, ``Endpoint(ip, port)``,
  ``Endpoint.parse`` — take values a caller or a config file made up, and
  validate them (MAC syntax, 32-bit range, dotted-quad octets, 16-bit
  port);
* the ``from_bytes`` constructors take wire bytes, check only the length
  and construct directly: any six bytes are a valid MAC whose
  ``hex(":")`` is already canonical lower case, and any four bytes are an
  in-range address, so validating the result would test a tautology —
  once per address, four times per frame.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}$")


@dataclass(frozen=True, slots=True, order=True)
class MacAddress:
    """A 48-bit Ethernet address."""

    value: str

    def __post_init__(self) -> None:
        if not _MAC_RE.match(self.value):
            raise ValueError(f"invalid MAC address: {self.value!r}")
        object.__setattr__(self, "value", self.value.lower())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MacAddress":
        """The address in six wire bytes.

        Only the length is checked: ``raw.hex(":")`` is by construction
        the canonical form ``__post_init__`` would validate and
        lower-case, so that step is skipped.
        """
        if len(raw) != 6:
            raise ValueError(f"MAC address needs 6 bytes, got {len(raw)}")
        self = object.__new__(cls)
        object.__setattr__(self, "value", raw.hex(":"))
        return self

    def to_bytes(self) -> bytes:
        return bytes(int(part, 16) for part in self.value.split(":"))

    def __str__(self) -> str:
        return self.value


BROADCAST_MAC = MacAddress("ff:ff:ff:ff:ff:ff")


@dataclass(frozen=True, slots=True, order=True)
class IPv4Address:
    """A 32-bit IPv4 address stored as an int for cheap comparisons."""

    packed: int

    def __post_init__(self) -> None:
        if not 0 <= self.packed <= 0xFFFFFFFF:
            raise ValueError(f"IPv4 address out of range: {self.packed}")

    @classmethod
    def parse(cls, dotted: str) -> "IPv4Address":
        parts = dotted.split(".")
        if len(parts) != 4:
            raise ValueError(f"invalid IPv4 address: {dotted!r}")
        value = 0
        for part in parts:
            if not part.isdigit():
                raise ValueError(f"invalid IPv4 address: {dotted!r}")
            octet = int(part)
            if octet > 255:
                raise ValueError(f"invalid IPv4 address: {dotted!r}")
            value = (value << 8) | octet
        return cls(value)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "IPv4Address":
        """The address in four wire bytes.

        Only the length is checked: four bytes cannot be out of the
        32-bit range ``__post_init__`` tests.
        """
        if len(raw) != 4:
            raise ValueError(f"IPv4 address needs 4 bytes, got {len(raw)}")
        self = object.__new__(cls)
        object.__setattr__(self, "packed", int.from_bytes(raw, "big"))
        return self

    def to_bytes(self) -> bytes:
        return self.packed.to_bytes(4, "big")

    def __str__(self) -> str:
        p = self.packed
        return f"{(p >> 24) & 0xFF}.{(p >> 16) & 0xFF}.{(p >> 8) & 0xFF}.{p & 0xFF}"


@dataclass(frozen=True, slots=True, order=True)
class Endpoint:
    """An (IPv4, UDP port) pair — the unit of session addressing.

    The port range is validated on every construction, wire-derived or
    not; ``ip`` is taken as given (an :class:`IPv4Address` has already
    validated itself).
    """

    ip: IPv4Address
    port: int

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 0xFFFF:
            raise ValueError(f"UDP port out of range: {self.port}")

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        """Parse ``"10.0.0.1:5060"``."""
        host, sep, port = text.rpartition(":")
        if not sep:
            raise ValueError(f"endpoint needs host:port, got {text!r}")
        return cls(IPv4Address.parse(host), int(port))

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


from repro.fastpickle import install_fast_pickle

# Endpoints/addresses ride inside every pickled footprint; see
# repro.fastpickle for why the default slots-dataclass hook is slow.
install_fast_pickle(MacAddress, IPv4Address, Endpoint)
