"""SIP URI parsing and serialisation (the subset of RFC 3261 we need).

Grammar handled::

    sip:user@host[:port][;param[=value]]*[?header=value[&...]]

``sips:`` is accepted and preserved, URI parameters and headers are
kept in insertion order.  Comparison follows the loose matching the IDS
needs: :attr:`SipUri.address_of_record` strips everything except
``user@host`` so forged requests with cosmetic parameter differences
still correlate with the right session.

:meth:`SipUri.parse` returns one shared object per distinct input text,
from :data:`URI_TABLE`: a flood repeats a handful of request, From and
To URIs, and every message, call and trail that keeps one then keeps
the same object and the same address-of-record string.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addr import ValueTable


class UriError(ValueError):
    """Raised when a SIP URI cannot be parsed."""


@dataclass(frozen=True, slots=True)
class SipUri:
    """An immutable SIP/SIPS URI."""

    user: str
    host: str
    port: int | None = None
    scheme: str = "sip"
    params: tuple[tuple[str, str | None], ...] = field(default=())
    headers: tuple[tuple[str, str], ...] = field(default=())
    # ``user@host`` with ports/params stripped — the stable identity.
    # Derived once per object, so every holder of a shared URI shares
    # this string too.
    address_of_record: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "address_of_record",
            f"{self.user}@{self.host}" if self.user else self.host,
        )

    @staticmethod
    def parse(text: str) -> "SipUri":
        """The URI ``text`` spells (``<...>`` and outer whitespace
        allowed): the shared object for that exact text, parsed and
        validated on its first sight (raises :class:`UriError`)."""
        return URI_TABLE[text]

    @classmethod
    def parse_uncached(cls, text: str) -> "SipUri":
        """Parse and validate ``text`` into a new :class:`SipUri` — the
        URI table's constructor; callers want :meth:`parse`."""
        text = text.strip()
        if text.startswith("<") and text.endswith(">"):
            text = text[1:-1]
        scheme, sep, rest = text.partition(":")
        scheme = scheme.lower()
        if not sep or scheme not in ("sip", "sips"):
            raise UriError(f"not a SIP URI: {text!r}")
        # Split off ?headers then ;params then user@host:port.
        rest, _, header_part = rest.partition("?")
        rest, _, param_part = rest.partition(";")
        user = ""
        hostport = rest
        if "@" in rest:
            user, _, hostport = rest.rpartition("@")
        if not hostport:
            raise UriError(f"SIP URI missing host: {text!r}")
        host = hostport
        port: int | None = None
        if ":" in hostport:
            host, _, port_text = hostport.rpartition(":")
            if not port_text.isdigit():
                raise UriError(f"bad port in SIP URI: {text!r}")
            port = int(port_text)
            if not 0 < port <= 0xFFFF:
                raise UriError(f"port out of range in SIP URI: {text!r}")
        params: list[tuple[str, str | None]] = []
        if param_part:
            for chunk in param_part.split(";"):
                if not chunk:
                    continue
                name, eq, value = chunk.partition("=")
                params.append((name.lower(), value if eq else None))
        headers: list[tuple[str, str]] = []
        if header_part:
            for chunk in header_part.split("&"):
                if not chunk:
                    continue
                name, _, value = chunk.partition("=")
                headers.append((name, value))
        return cls(
            user=user,
            host=host.lower(),
            port=port,
            scheme=scheme,
            params=tuple(params),
            headers=tuple(headers),
        )

    def __str__(self) -> str:
        out = f"{self.scheme}:"
        if self.user:
            out += f"{self.user}@"
        out += self.host
        if self.port is not None:
            out += f":{self.port}"
        for name, value in self.params:
            out += f";{name}" if value is None else f";{name}={value}"
        if self.headers:
            out += "?" + "&".join(f"{n}={v}" for n, v in self.headers)
        return out

    # -- matching helpers used by the IDS --------------------------------

    def param(self, name: str) -> str | None:
        for key, value in self.params:
            if key == name.lower():
                return value
        return None

    def with_param(self, name: str, value: str | None) -> "SipUri":
        params = tuple(p for p in self.params if p[0] != name.lower()) + ((name.lower(), value),)
        return SipUri(
            user=self.user,
            host=self.host,
            port=self.port,
            scheme=self.scheme,
            params=params,
            headers=self.headers,
        )


# Input text → its one parsed SipUri, shared by every parser in the
# process (exported as the Distiller's uri_table gauges).
URI_TABLE = ValueTable(SipUri.parse_uncached)
