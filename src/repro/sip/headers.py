"""SIP headers: an order-preserving multi-map plus typed header values.

SIP allows repeated headers (Via, Route, ...) whose relative order is
semantically significant, and compact forms (``v:`` for ``Via:``).
:class:`HeaderTable` models that.  The typed values — :class:`Via`,
:class:`NameAddr`, :class:`CSeq` — parse the fields the stack and the
IDS rules actually reason about (branch, tags, sequence numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sip.constants import COMPACT_HEADERS
from repro.sip.uri import SipUri


class HeaderError(ValueError):
    """Raised when a header value cannot be parsed."""


# Canonical spellings that are not plain per-token capitalisation.
_SPECIAL_CASE = {
    "call-id": "Call-ID",
    "cseq": "CSeq",
    "www-authenticate": "WWW-Authenticate",
    "mime-version": "MIME-Version",
    "sip-etag": "SIP-ETag",
}

# The header field names of RFC 3261 section 20.
_RFC3261_HEADERS = (
    "Accept", "Accept-Encoding", "Accept-Language", "Alert-Info", "Allow",
    "Authentication-Info", "Authorization", "Call-ID", "Call-Info", "Contact",
    "Content-Disposition", "Content-Encoding", "Content-Language",
    "Content-Length", "Content-Type", "CSeq", "Date", "Error-Info", "Expires",
    "From", "In-Reply-To", "Max-Forwards", "Min-Expires", "MIME-Version",
    "Organization", "Priority", "Proxy-Authenticate", "Proxy-Authorization",
    "Proxy-Require", "Record-Route", "Reply-To", "Require", "Retry-After",
    "Route", "Server", "Subject", "Supported", "Timestamp", "To",
    "Unsupported", "User-Agent", "Via", "Warning", "WWW-Authenticate",
)  # fmt: skip


def _compute_canonical(name: str) -> str:
    """:func:`canonical_name` for any spelling, from the rules alone."""
    lowered = name.strip().lower()
    known = COMPACT_HEADERS.get(lowered) or _SPECIAL_CASE.get(lowered)
    if known is not None:
        return known
    return "-".join(part.capitalize() for part in lowered.split("-"))


def _known_names() -> dict[str, str]:
    """Spelling -> canonical name for what well-behaved peers send: the
    RFC 3261 names as written and in lower case, and the compact forms in
    either case.  Filled by :func:`_compute_canonical`, so the table
    cannot disagree with the fall-through."""
    table: dict[str, str] = {}
    for spelling in (*_RFC3261_HEADERS, *_SPECIAL_CASE, *COMPACT_HEADERS):
        canon = _compute_canonical(spelling)
        for variant in (spelling, spelling.lower(), spelling.upper(), canon):
            table[variant] = canon
    return table


_KNOWN_NAMES = _known_names()


def canonical_name(name: str) -> str:
    """Expand compact forms and normalise capitalisation.

    ``v`` → ``Via``; ``content-length`` → ``Content-Length``; unknown
    names are title-cased per token (``x-foo`` → ``X-Foo``).

    The usual spellings of the standard names are answered from a table
    built at import — one dict probe, and every message shares the one
    canonical string.  Any other name (the sender chooses it) is computed
    and deliberately not remembered: a memo keyed by attacker input would
    grow without bound.
    """
    known = _KNOWN_NAMES.get(name)
    return known if known is not None else _compute_canonical(name)


def _index_of(items: list[tuple[str, str]]) -> dict[str, str | tuple[str, ...]]:
    """The lookup index of an item list (see :class:`HeaderTable`)."""
    index: dict[str, str | tuple[str, ...]] = {}
    for canon, value in items:
        seen = index.get(canon)
        if seen is None:
            index[canon] = value
        elif type(seen) is tuple:
            index[canon] = seen + (value,)
        else:
            index[canon] = (seen, value)
    return index


def parse_header_block(block: str, strict: bool) -> list[tuple[str, str]]:
    """The header lines of a message (start line removed, LF line ends)
    as ``(canonical name, stripped value)`` items, in order.

    Continuation lines (leading whitespace) fold into the line above.
    Raises :class:`HeaderError` on a line with no name or colon, on a
    continuation before any header, and — ``strict`` — on whitespace
    before the colon (RFC 3261 7.3.1).  The parser and a compacted
    :class:`HeaderTable` both read a block through this one loop, so a
    table re-read from its block holds exactly what the parse produced.
    """
    unfolded: list[str] = []
    for line in block.split("\n"):
        if line[:1] in (" ", "\t"):
            if not unfolded:
                raise HeaderError("continuation line before any header")
            unfolded[-1] += " " + line.strip()
        else:
            unfolded.append(line)
    items: list[tuple[str, str]] = []
    for line in unfolded:
        if not line.strip():
            continue
        name, colon, value = line.partition(":")
        if not colon or not name.strip():
            raise HeaderError(f"malformed header line: {line!r}")
        if strict and name != name.rstrip():
            raise HeaderError(f"whitespace before colon: {line!r}")
        items.append((canonical_name(name.strip()), value.strip()))
    return items


class HeaderTable:
    """Order-preserving, case-insensitive multi-map of SIP headers.

    ``_items`` is the ordered truth.  ``_index`` maps each canonical name
    present to its value — the bare string when the header occurs once
    (no allocation beyond the dict slot), a tuple of the values in order
    when it repeats — so lookups are dictionary probes, not scans.  Every
    mutator touches one name and updates that name's entry.

    A table the strict parser built also keeps ``_block``, the header
    block it was read from.  :meth:`compact` drops the items and the
    index of such a table — one string instead of a list, a dict and a
    tuple and a value per header — and the next read re-reads them from
    the block through :func:`parse_header_block`.  A mutator first
    re-reads them, then drops the block for good: the block no longer
    describes the table.
    """

    __slots__ = ("_items", "_index", "_block")

    def __init__(self, items: list[tuple[str, str]] | None = None) -> None:
        self._block: str | None = None
        self._items: list[tuple[str, str]] | None = [
            (canonical_name(name), value.strip()) for name, value in items or ()
        ]
        self._index: dict[str, str | tuple[str, ...]] | None = _index_of(self._items)

    @classmethod
    def from_block(cls, block: str, strict: bool) -> "HeaderTable":
        """The table of a header block; it keeps the block when
        ``strict``, the only parse whose block it can re-read."""
        table = cls.__new__(cls)
        table._block = block
        table._materialise(strict)
        if not strict:
            table._block = None
        return table

    def _materialise(self, strict: bool = True) -> dict[str, str | tuple[str, ...]]:
        items = parse_header_block(self._block, strict)
        index = _index_of(items)
        # Published index last: a reader that finds an index finds items.
        self._items = items
        self._index = index
        return index

    def _lookup(self) -> dict[str, str | tuple[str, ...]]:
        index = self._index
        return index if index is not None else self._materialise()

    def _ordered(self) -> list[tuple[str, str]]:
        if self._index is None:
            self._materialise()
        return self._items

    def _thaw(self) -> None:
        """Before a mutation: re-read a compacted table, forget its block."""
        if self._block is not None:
            if self._index is None:
                self._materialise()
            self._block = None

    def compact(self) -> None:
        """Drop the items and index of a table that still has its block."""
        if self._block is not None:
            self._index = None
            self._items = None

    def add(self, name: str, value: str) -> None:
        self._thaw()
        canon = canonical_name(name)
        value = value.strip()
        self._items.append((canon, value))
        index = self._index
        seen = index.get(canon)
        if seen is None:
            index[canon] = value
        elif type(seen) is tuple:
            index[canon] = seen + (value,)
        else:
            index[canon] = (seen, value)

    def _reindex(self, canon: str) -> None:
        """Re-derive one name's index entry from the ordered list."""
        values = tuple(v for n, v in self._items if n == canon)
        if len(values) > 1:
            self._index[canon] = values
        elif values:
            self._index[canon] = values[0]
        else:
            self._index.pop(canon, None)

    def set(self, name: str, value: str) -> None:
        """Replace all instances of ``name`` with a single value."""
        self._thaw()
        canon = canonical_name(name)
        value = value.strip()
        if canon in self._index:
            self._items = [(n, v) for n, v in self._items if n != canon]
        self._items.append((canon, value))
        self._index[canon] = value

    def get(self, name: str, default: str | None = None) -> str | None:
        seen = self._lookup().get(canonical_name(name))
        if seen is None:
            return default
        return seen[0] if type(seen) is tuple else seen

    def get_all(self, name: str) -> list[str]:
        seen = self._lookup().get(canonical_name(name))
        if seen is None:
            return []
        return list(seen) if type(seen) is tuple else [seen]

    def repeated(self) -> list[str]:
        """Canonical names that occur more than once."""
        return [name for name, seen in self._lookup().items() if type(seen) is tuple]

    def remove(self, name: str) -> None:
        self._thaw()
        canon = canonical_name(name)
        if self._index.pop(canon, None) is not None:
            self._items = [(n, v) for n, v in self._items if n != canon]

    def remove_first(self, name: str) -> None:
        self._thaw()
        canon = canonical_name(name)
        for i, (n, _) in enumerate(self._items):
            if n == canon:
                del self._items[i]
                self._reindex(canon)
                return

    def insert_first(self, name: str, value: str) -> None:
        """Prepend — used for Via stacking at proxies."""
        self._thaw()
        canon = canonical_name(name)
        self._items.insert(0, (canon, value.strip()))
        self._reindex(canon)

    def __contains__(self, name: str) -> bool:
        return canonical_name(name) in self._lookup()

    def __len__(self) -> int:
        return len(self._ordered())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeaderTable):
            return NotImplemented
        return self._ordered() == other._ordered()

    def __repr__(self) -> str:
        return f"HeaderTable({self._ordered()!r})"

    def items(self) -> list[tuple[str, str]]:
        return list(self._ordered())

    def copy(self) -> "HeaderTable":
        table = HeaderTable()
        table._items = list(self._ordered())
        table._index = dict(self._index)  # values are immutable: str or tuple
        return table

    # Pickled in the shape a slots class gets by default, with only the
    # state that is not derived: the block when the table has one (the
    # unpickled table is compacted), else the item list, whose index is
    # rebuilt on load.
    def __getstate__(self):
        if self._block is not None:
            return None, {"_block": self._block}
        return None, {"_items": self._items}

    def __setstate__(self, state) -> None:
        slots = state[1]
        if "_block" in slots:
            self._block = slots["_block"]
            self._items = self._index = None
        else:
            self.__init__(slots["_items"])


def _parse_params(text: str) -> tuple[tuple[str, str | None], ...]:
    """Parse ``;name=value;flag`` parameter tails."""
    params: list[tuple[str, str | None]] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, eq, value = chunk.partition("=")
        params.append((name.strip().lower(), value.strip().strip('"') if eq else None))
    return tuple(params)


def _format_params(params: tuple[tuple[str, str | None], ...]) -> str:
    out = ""
    for name, value in params:
        out += f";{name}" if value is None else f";{name}={value}"
    return out


@dataclass(frozen=True, slots=True)
class Via:
    """A Via header value: ``SIP/2.0/UDP host:port;branch=...``."""

    transport: str
    host: str
    port: int | None = None
    params: tuple[tuple[str, str | None], ...] = field(default=())

    @classmethod
    def parse(cls, text: str) -> "Via":
        head, _, param_text = text.partition(";")
        parts = head.split()
        if len(parts) != 2:
            raise HeaderError(f"malformed Via: {text!r}")
        protocol, sent_by = parts
        proto_parts = protocol.split("/")
        if len(proto_parts) != 3 or proto_parts[0].upper() != "SIP":
            raise HeaderError(f"malformed Via protocol: {text!r}")
        transport = proto_parts[2].upper()
        host = sent_by
        port: int | None = None
        if ":" in sent_by:
            host, _, port_text = sent_by.rpartition(":")
            if not port_text.isdigit():
                raise HeaderError(f"bad Via port: {text!r}")
            port = int(port_text)
        return cls(
            transport=transport,
            host=host,
            port=port,
            params=_parse_params(param_text),
        )

    def __str__(self) -> str:
        sent_by = self.host if self.port is None else f"{self.host}:{self.port}"
        return f"SIP/2.0/{self.transport} {sent_by}{_format_params(self.params)}"

    def param(self, name: str) -> str | None:
        for key, value in self.params:
            if key == name.lower():
                return value
        return None

    @property
    def branch(self) -> str | None:
        return self.param("branch")

    def with_param(self, name: str, value: str | None) -> "Via":
        params = tuple(p for p in self.params if p[0] != name.lower()) + ((name.lower(), value),)
        return Via(self.transport, self.host, self.port, params)


@dataclass(frozen=True, slots=True)
class NameAddr:
    """From/To/Contact value: ``"Display" <sip:user@host>;tag=...``."""

    uri: SipUri
    display_name: str = ""
    params: tuple[tuple[str, str | None], ...] = field(default=())

    @classmethod
    def parse(cls, text: str) -> "NameAddr":
        text = text.strip()
        display = ""
        if text.startswith('"'):
            end = text.find('"', 1)
            if end < 0:
                raise HeaderError(f"unterminated display name: {text!r}")
            display = text[1:end]
            text = text[end + 1 :].strip()
        if "<" in text:
            pre, _, rest = text.partition("<")
            if pre.strip() and not display:
                display = pre.strip()
            uri_text, sep, param_text = rest.partition(">")
            if not sep:
                raise HeaderError(f"unterminated angle bracket: {text!r}")
            uri = SipUri.parse(uri_text)
            params = _parse_params(param_text.lstrip(";"))
        else:
            # addr-spec form: params after the first ';' belong to the header.
            uri_text, _, param_text = text.partition(";")
            uri = SipUri.parse(uri_text)
            params = _parse_params(param_text)
        return cls(uri=uri, display_name=display, params=params)

    def __str__(self) -> str:
        out = f'"{self.display_name}" ' if self.display_name else ""
        out += f"<{self.uri}>"
        out += _format_params(self.params)
        return out

    def param(self, name: str) -> str | None:
        for key, value in self.params:
            if key == name.lower():
                return value
        return None

    @property
    def tag(self) -> str | None:
        return self.param("tag")

    def with_tag(self, tag: str) -> "NameAddr":
        params = tuple(p for p in self.params if p[0] != "tag") + (("tag", tag),)
        return NameAddr(self.uri, self.display_name, params)


@dataclass(frozen=True, slots=True)
class CSeq:
    """CSeq value: sequence number + method."""

    number: int
    method: str

    @classmethod
    def parse(cls, text: str) -> "CSeq":
        parts = text.split()
        if len(parts) != 2 or not parts[0].isdigit():
            raise HeaderError(f"malformed CSeq: {text!r}")
        return cls(number=int(parts[0]), method=parts[1].upper())

    def __str__(self) -> str:
        return f"{self.number} {self.method}"

    def next_for(self, method: str) -> "CSeq":
        return CSeq(self.number + 1, method.upper())
