"""SIP message model: requests, responses, parsing and serialisation.

The parser follows RFC 3261 framing: a start line, CRLF-separated header
lines with continuation-line folding, a blank line, then exactly
``Content-Length`` bytes of body.  It is intentionally strict — the
Distiller counts parse failures, and the paper's billing-fraud rule keys
off "an incorrectly formatted SIP message", so malformedness must be
*detected*, not silently repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addr import Endpoint
from repro.sip.constants import ALL_METHODS, SIP_VERSION, reason_phrase
from repro.sip.headers import CSeq, HeaderError, HeaderTable, NameAddr, Via
from repro.sip.sdp import SdpError, SessionDescription
from repro.sip.uri import SipUri, UriError

CRLF = "\r\n"


class SipParseError(ValueError):
    """Raised when bytes cannot be parsed as a SIP message."""


# Positions in SipMessage._typed.
_TYPED_SLOTS = 6
_FROM, _TO, _CSEQ, _CONTACT, _TOP_VIA, _SDP = range(_TYPED_SLOTS)


@dataclass(slots=True)
class SipMessage:
    """Common state of requests and responses."""

    headers: HeaderTable = field(default_factory=HeaderTable)
    body: bytes = b""
    # Typed header values parsed so far: per accessor, ``(raw, value)``
    # where ``raw`` is the very string object in ``headers`` that was
    # parsed.  An entry is used only while the table still returns that
    # object, so no header mutation can leave a stale value behind.  The
    # SDP slot holds ``(Content-Type string, body, audio endpoint)`` and
    # is used only while both are still those objects.
    # Derived state: not compared, not shown, not pickled, and dropped by
    # :meth:`compact` once the owner is done reading.
    _typed: list | None = field(default=None, init=False, repr=False, compare=False)

    def _typed_header(self, slot: int, name: str, parse):
        """``parse(value of header name)``, or None when it is absent —
        parsed at most once per raw string however often it is read."""
        raw = self.headers.get(name)
        if raw is None:
            return None
        typed = self._typed
        if typed is None:
            typed = self._typed = [None] * _TYPED_SLOTS
        entry = typed[slot]
        if entry is None or entry[0] is not raw:
            entry = typed[slot] = (raw, parse(raw))
        return entry[1]

    def sdp_audio_endpoint(self) -> Endpoint | None:
        """Where this message's SDP body asks for audio RTP — None when it
        carries no ``application/sdp`` body or the body does not parse.
        The body is parsed once however many layers ask."""
        content_type = self.headers.get("Content-Type")
        body = self.body
        if not content_type or not body:
            return None
        typed = self._typed
        if typed is None:
            typed = self._typed = [None] * _TYPED_SLOTS
        entry = typed[_SDP]
        if entry is None or entry[0] is not content_type or entry[1] is not body:
            endpoint = None
            if "application/sdp" in content_type.lower():
                try:
                    endpoint = SessionDescription.parse(body).audio_endpoint()
                except SdpError:
                    pass
            entry = typed[_SDP] = (content_type, body, endpoint)
        return entry[2]

    def compact(self) -> None:
        """Drop what re-derives from the wire: the parsed header values
        and, for a strictly parsed message, its header table's items and
        index (both come back on the next read).

        A typed From/To/Contact/Via/CSeq set is several times the size of
        the strings it came from, and the table several times its header
        block; the engine keeps every message in a trail long after the
        last reader ran, and calls this when a footprint's processing
        ends.
        """
        self._typed = None
        self.headers.compact()

    def __getstate__(self):
        # Pickled as any slots class is, after dropping the derived state:
        # a checkpoint or a queue never carries parsed header values.
        self._typed = None
        return object.__getstate__(self)

    # -- typed header accessors -----------------------------------------

    @property
    def call_id(self) -> str:
        value = self.headers.get("Call-ID")
        if value is None:
            raise HeaderError("message has no Call-ID")
        return value

    @property
    def from_addr(self) -> NameAddr:
        value = self._typed_header(_FROM, "From", NameAddr.parse)
        if value is None:
            raise HeaderError("message has no From header")
        return value

    @property
    def to_addr(self) -> NameAddr:
        value = self._typed_header(_TO, "To", NameAddr.parse)
        if value is None:
            raise HeaderError("message has no To header")
        return value

    @property
    def cseq(self) -> CSeq:
        value = self._typed_header(_CSEQ, "CSeq", CSeq.parse)
        if value is None:
            raise HeaderError("message has no CSeq header")
        return value

    @property
    def vias(self) -> list[Via]:
        return [Via.parse(v) for v in self.headers.get_all("Via")]

    @property
    def top_via(self) -> Via:
        value = self._typed_header(_TOP_VIA, "Via", Via.parse)
        if value is None:
            raise HeaderError("message has no Via header")
        return value

    @property
    def contact(self) -> NameAddr | None:
        return self._typed_header(_CONTACT, "Contact", NameAddr.parse)

    def dialog_id(self) -> tuple[str, str | None, str | None]:
        """(Call-ID, from-tag, to-tag) — the RFC 3261 dialog key.

        Note this is *directional*: the UAS sees from/to swapped relative
        to the UAC.  :mod:`repro.core.trail` normalises direction when
        correlating both halves of a dialog.
        """
        return (self.call_id, self.from_addr.tag, self.to_addr.tag)

    def _set_body(self, body: bytes, content_type: str | None) -> None:
        self.body = body
        self.headers.set("Content-Length", str(len(body)))
        if content_type:
            self.headers.set("Content-Type", content_type)


@dataclass(slots=True)
class SipRequest(SipMessage):
    """A SIP request."""

    method: str = "OPTIONS"
    uri: SipUri = field(default_factory=lambda: SipUri.parse("sip:invalid@invalid"))

    def start_line(self) -> str:
        return f"{self.method} {self.uri} {SIP_VERSION}"

    def encode(self) -> bytes:
        if "Content-Length" not in self.headers:
            self.headers.set("Content-Length", str(len(self.body)))
        lines = [self.start_line()]
        lines.extend(f"{name}: {value}" for name, value in self.headers.items())
        return (CRLF.join(lines) + CRLF + CRLF).encode("utf-8") + self.body

    @property
    def is_request(self) -> bool:
        return True


@dataclass(slots=True)
class SipResponse(SipMessage):
    """A SIP response."""

    status: int = 200
    reason: str = ""

    def __post_init__(self) -> None:
        if not self.reason:
            self.reason = reason_phrase(self.status)

    def start_line(self) -> str:
        return f"{SIP_VERSION} {self.status} {self.reason}"

    def encode(self) -> bytes:
        if "Content-Length" not in self.headers:
            self.headers.set("Content-Length", str(len(self.body)))
        lines = [self.start_line()]
        lines.extend(f"{name}: {value}" for name, value in self.headers.items())
        return (CRLF.join(lines) + CRLF + CRLF).encode("utf-8") + self.body

    @property
    def is_request(self) -> bool:
        return False

    @property
    def status_class(self) -> int:
        """1 for 1xx, 2 for 2xx, ... — rules match on classes like '4XX'."""
        return self.status // 100


# Headers that must appear at most once (RFC 3261 §20); duplicating them
# is the classic parser-differential exploit the billing-fraud scenario
# uses, so the strict parser rejects them outright.
_SINGLETON_HEADERS = frozenset({"From", "To", "Call-ID", "CSeq", "Max-Forwards", "Content-Length"})


def parse_message(raw: bytes, strict: bool = True) -> SipRequest | SipResponse:
    """Parse wire bytes into a request or response.

    Raises :class:`SipParseError` on any framing or start-line problem.
    Header *values* are kept as raw strings; typed accessors parse them
    lazily so one bad header does not poison the whole message (the IDS
    wants to look at the rest).

    ``strict=True`` (the IDS posture) additionally rejects duplicated
    singleton headers and space-before-colon header names.  Vulnerable
    software — the testbed's billing-enabled proxy — parses with
    ``strict=False`` and silently accepts such messages, creating the
    parser differential the billing-fraud attack exploits.
    """
    try:
        head, sep, body = raw.partition(b"\r\n\r\n")
        if not sep:
            # Tolerate bare-LF framing (some ancient clients) but only
            # when the whole head uses it consistently.
            head, sep, body = raw.partition(b"\n\n")
            if not sep:
                raise SipParseError("no end-of-headers marker")
        text = head.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SipParseError(f"non-UTF8 header block: {exc}") from exc

    start_line, _, block = text.replace("\r\n", "\n").partition("\n")
    if not start_line.strip():
        raise SipParseError("empty start line")
    if block[:1] in (" ", "\t"):
        # Framing is reported before the start line's content.
        raise SipParseError("continuation line before any header")
    message = _parse_start_line(start_line, block, strict)

    if strict:
        for name in message.headers.repeated():
            if name in _SINGLETON_HEADERS:
                raise SipParseError(f"duplicated singleton header: {name}")

    declared = message.headers.get("Content-Length")
    if declared is not None:
        if not declared.strip().isdigit():
            raise SipParseError(f"bad Content-Length: {declared!r}")
        length = int(declared)
        if length > len(body):
            raise SipParseError(
                f"Content-Length {length} exceeds available body {len(body)}"
            )
        message.body = body[:length]
    else:
        message.body = body
    return message


def _read_headers(block: str, strict: bool) -> HeaderTable:
    try:
        return HeaderTable.from_block(block, strict)
    except HeaderError as exc:
        raise SipParseError(str(exc)) from exc


def _parse_start_line(line: str, block: str, strict: bool) -> SipRequest | SipResponse:
    """The message the start line names, with the headers of ``block``
    (read only once the start line is known to be good)."""
    parts = line.split(" ", 2)
    if len(parts) != 3:
        raise SipParseError(f"malformed start line: {line!r}")
    if parts[0] == SIP_VERSION:
        status_text, reason = parts[1], parts[2]
        if not status_text.isdigit() or len(status_text) != 3:
            raise SipParseError(f"bad status code: {line!r}")
        return SipResponse(
            headers=_read_headers(block, strict), status=int(status_text), reason=reason
        )
    method, uri_text, version = parts
    if version != SIP_VERSION:
        raise SipParseError(f"unsupported SIP version: {version!r}")
    if not method.isupper() or not method.isalpha():
        raise SipParseError(f"malformed method: {method!r}")
    try:
        uri = SipUri.parse(uri_text)
    except UriError as exc:
        raise SipParseError(f"bad request URI: {uri_text!r}") from exc
    request = SipRequest(headers=_read_headers(block, strict), method=method, uri=uri)
    if method not in ALL_METHODS:
        # Unknown-but-well-formed methods parse fine; the stack replies 501.
        pass
    return request


def looks_like_sip(payload: bytes) -> bool:
    """Cheap sniff used by the Distiller's protocol classifier: a status
    line's start, or a first line (up to CRLF or a bare LF) that ends like
    a request line.  One scan for the line end — no copy of the payload,
    which for most frames is RTP."""
    if payload.startswith(b"SIP/2.0 "):
        return True
    end = payload.find(b"\n")
    if end < 0:
        end = len(payload)
    elif end and payload[end - 1] == 0x0D:
        end -= 1
    return payload.endswith(b" SIP/2.0", 0, end)
