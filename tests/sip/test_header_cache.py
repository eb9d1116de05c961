"""Coherence of the header index and the once-per-message typed values.

``HeaderTable`` answers lookups from an index kept beside its ordered
list, and ``SipMessage`` remembers each typed header it has parsed.  Both
are derived state: whatever the UA stack does to a message's headers,
reads must equal what a fresh parse of the encoded message returns, and
none of it may be pickled, checkpointed or left behind process-wide.
A parsed table compacts back to its header block once its message is
processed; every read of a compacted table must equal a fresh parse too.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ScidiveEngine
from repro.core.footprint import Protocol
from repro.net.addr import Endpoint
from repro.sip import headers as headers_mod
from repro.sip import message as message_mod
from repro.sip.headers import HeaderError, HeaderTable, canonical_name
from repro.sip.message import SipRequest, SipResponse, parse_message
from repro.voip.testbed import CLIENT_A_IP
from tests.core.test_distiller_trail import sip_frame
from tests.core.test_state import _sdp
from tests.resilience.test_checkpoint import _attack_frames, _replay

_WIRE = (
    b"INVITE sip:bob@example.com SIP/2.0\r\n"
    b"Via: SIP/2.0/UDP proxy.example.com;branch=z9hG4bKtop\r\n"
    b"v: SIP/2.0/UDP 10.0.0.10:5060;branch=z9hG4bKbottom\r\n"
    b"f: Alice <sip:alice@example.com>;tag=a1\r\n"
    b"To: <sip:bob@example.com>\r\n"
    b"Call-ID: cache@example\r\n"
    b"CSeq: 7 INVITE\r\n"
    b"m: <sip:alice@10.0.0.10:5060>\r\n"
    b"Content-Length: 0\r\n\r\n"
)


def _parsed() -> SipRequest:
    return parse_message(_WIRE)


def _built() -> SipResponse:
    """A message made the way the UA stack makes one: by mutators."""
    response = SipResponse(status=180)
    response.headers.set("From", "<sip:alice@example.com>;tag=a1")
    response.headers.set("To", "<sip:bob@example.com>;tag=b2")
    response.headers.set("Call-ID", "cache@example")
    response.headers.set("CSeq", "7 INVITE")
    response.headers.insert_first("Via", "SIP/2.0/UDP 10.0.0.10:5060;branch=z9hG4bKbottom")
    return response


def typed_view(message) -> dict:
    """Every typed accessor's value, or the error it raises."""
    view = {}
    for name in ("call_id", "from_addr", "to_addr", "cseq", "contact", "top_via", "vias"):
        try:
            view[name] = getattr(message, name)
        except HeaderError as exc:
            view[name] = ("error", str(exc))
    try:
        view["dialog_id"] = message.dialog_id()
    except HeaderError as exc:
        view["dialog_id"] = ("error", str(exc))
    return view


TYPED_NAMES = ["From", "f", "To", "t", "CSeq", "cseq", "Contact", "m", "Via", "v", "Call-ID", "i"]
VALUES = {
    "From": ["<sip:carol@example.com>;tag=c3", "Dave <sip:dave@example.org>", "<sip:broken"],
    "To": ["<sip:erin@example.com>;tag=e5", "sip:frank@example.net", '"unterminated <sip:x@y>'],
    "CSeq": ["8 BYE", "9 ack", "not-a-cseq"],
    "Contact": ["<sip:carol@10.0.0.77:5070>", "sip:dave@10.0.0.78"],
    "Via": ["SIP/2.0/UDP 10.0.0.99;branch=z9hG4bKnew", "garbage"],
    "Call-ID": ["other@example"],
}

mutation = st.tuples(
    st.sampled_from(["set", "add", "remove", "remove_first", "insert_first"]),
    st.sampled_from(TYPED_NAMES),
    st.integers(min_value=0, max_value=2),
)


def _apply(table: HeaderTable, op: str, name: str, pick: int) -> None:
    if op in ("remove", "remove_first"):
        getattr(table, op)(name)
    else:
        values = VALUES[canonical_name(name)]
        getattr(table, op)(name, values[pick % len(values)])


class TestTypedAccessorCoherence:
    @pytest.mark.parametrize("make", [_parsed, _built])
    @given(ops=st.lists(mutation, min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_reads_after_mutation_equal_a_fresh_parse(self, make, ops):
        message = make()
        for op, name, pick in ops:
            typed_view(message)  # fill the cache with what is about to change
            _apply(message.headers, op, name, pick)
            fresh = parse_message(message.encode(), strict=False)
            assert typed_view(message) == typed_view(fresh)
            assert typed_view(message) == typed_view(fresh)  # and again, now cached

    def test_a_value_is_parsed_once_per_message(self, monkeypatch):
        calls = []
        real = headers_mod.NameAddr.parse
        monkeypatch.setattr(
            headers_mod.NameAddr, "parse", lambda text: calls.append(text) or real(text)
        )
        message = _parsed()
        for _ in range(5):
            message.from_addr, message.to_addr, message.contact, message.dialog_id()
        assert sorted(calls) == sorted(
            message.headers.get(name) for name in ("From", "To", "Contact")
        )

    def test_replacing_the_table_is_seen(self):
        message = _parsed()
        assert message.from_addr.uri.user == "alice"
        message.headers = _built().headers.copy()
        message.headers.set("From", "<sip:zed@example.com>")
        assert message.from_addr.uri.user == "zed"

    def test_cache_is_not_compared_shown_or_pickled(self):
        message, untouched = _parsed(), _parsed()
        typed_view(message)
        assert message == untouched
        assert repr(message) == repr(untouched)
        blob = pickle.dumps(message)
        assert blob == pickle.dumps(untouched)
        assert b"NameAddr" not in blob
        clone = pickle.loads(blob)
        assert clone == message and clone._typed is None
        assert typed_view(clone) == typed_view(untouched)


class TestSdpParsedOncePerMessage:
    """The SDP answer rides in the typed-value memo: one parse however
    many layers ask, same validity rule, same lifetime."""

    @pytest.fixture
    def parses(self, monkeypatch) -> list:
        calls = []
        real = message_mod.SessionDescription.parse
        monkeypatch.setattr(
            message_mod.SessionDescription, "parse",
            classmethod(lambda cls, body: calls.append(body) or real(body)),
        )
        return calls

    @staticmethod
    def _offer(port: int = 40000) -> SipRequest:
        message = _parsed()
        message._set_body(_sdp("10.0.0.10", port), "application/sdp")
        return message

    def test_state_and_trail_share_one_parse(self, parses):
        engine = ScidiveEngine()
        frames = _attack_frames("call-hijack")
        parses.clear()  # the simulated phones parse SDP too
        _replay(engine, frames)
        bodies = [
            fp.message.body
            for trail in engine.trails.trails.values() if trail.protocol is Protocol.SIP
            for fp in trail.footprints
            if fp.message.body and "sdp" in (fp.message.headers.get("Content-Type") or "")
        ]
        assert bodies and len(parses) == len(bodies)

    def test_repeated_reads_parse_once_and_share_the_endpoint(self, parses):
        message = self._offer()
        first = message.sdp_audio_endpoint()
        assert first == Endpoint.parse("10.0.0.10:40000")
        assert message.sdp_audio_endpoint() is first and len(parses) == 1

    def test_new_body_or_content_type_is_seen(self, parses):
        message = self._offer()
        assert message.sdp_audio_endpoint().port == 40000
        message._set_body(_sdp("10.0.0.10", 40002), "application/sdp")
        assert message.sdp_audio_endpoint().port == 40002
        message.headers.set("Content-Type", "text/plain")
        assert message.sdp_audio_endpoint() is None
        message.headers.remove("Content-Type")
        assert message.sdp_audio_endpoint() is None
        assert len(parses) == 2

    def test_unparseable_and_absent_bodies_answer_none(self, parses):
        message = self._offer()
        message._set_body(b"v=0\r\nnot sdp\r\n", "application/sdp")
        assert message.sdp_audio_endpoint() is None
        assert message.sdp_audio_endpoint() is None and len(parses) == 1
        assert _parsed().sdp_audio_endpoint() is None and len(parses) == 1

    def test_memo_is_forgotten_and_never_pickled(self):
        message, untouched = self._offer(), self._offer()
        message.sdp_audio_endpoint()
        assert message == untouched
        blob = pickle.dumps(message)
        assert blob == pickle.dumps(untouched) and b"Endpoint" not in blob
        message.sdp_audio_endpoint()
        message.compact()
        assert message._typed is None


class TestHeaderIndex:
    NAMES = TYPED_NAMES + ["X-Junk", "x-junk", "Route", "ROUTE", "content-length", "l"]

    @staticmethod
    def _scan(table: HeaderTable, name: str) -> list[str]:
        canon = canonical_name(name)
        return [value for header, value in table.items() if header == canon]

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["set", "add", "remove", "remove_first", "insert_first", "copy"]),
                st.sampled_from(NAMES),
                st.text(alphabet="ab ;=<>", max_size=6),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=300)
    def test_lookups_equal_a_scan_of_items_after_any_mutators(self, ops):
        table = HeaderTable([("Via", "one"), ("v", "two"), ("From", "x")])
        for op, name, value in ops:
            if op == "copy":
                table = table.copy()
            elif op in ("remove", "remove_first"):
                getattr(table, op)(name)
            else:
                getattr(table, op)(name, value)
            for probe in self.NAMES:
                found = self._scan(table, probe)
                assert table.get_all(probe) == found
                assert table.get(probe) == (found[0] if found else None)
                assert (probe in table) == bool(found)
            assert table._index == HeaderTable(table.items())._index
            assert sorted(table.repeated()) == sorted(
                {n for n, _ in table.items() if len(self._scan(table, n)) > 1}
            )
            assert pickle.loads(pickle.dumps(table)) == table

    def test_copy_is_independent_both_ways(self):
        table = HeaderTable([("Via", "one")])
        clone = table.copy()
        clone.add("Via", "two")
        table.set("From", "x")
        assert table.get_all("Via") == ["one"] and "From" not in clone
        assert clone.get_all("Via") == ["one", "two"]

    def test_junk_names_leave_no_process_wide_entry(self):
        """Header names are the sender's choice: 10k distinct ones must
        not grow anything that outlives their message."""
        known = dict(headers_mod._KNOWN_NAMES)
        lines = b"".join(b"X-Junk-%d-a: %d\r\n" % (n, n) for n in range(10_000))
        message = parse_message(_WIRE.replace(b"Content-Length: 0\r\n", lines))
        assert len(message.headers) == 10_007
        assert message.headers.get("x-junk-9999-A") == "9999"
        assert headers_mod._KNOWN_NAMES == known
        assert not hasattr(canonical_name, "cache_info")


# -- compacted tables: reads equal a fresh parse --------------------------------

HEADER_SPELLINGS = {
    "Via": ["Via", "v", "VIA", "via"],
    "From": ["From", "f", "FROM"],
    "To": ["To", "t", "to"],
    "Call-ID": ["Call-ID", "i", "call-id", "CALL-ID"],
    "CSeq": ["CSeq", "cseq"],
    "Contact": ["Contact", "m", "contact"],
    "Subject": ["Subject", "s"],
    "X-Trace": ["X-Trace", "x-trace"],
}
HEADER_VALUES = {
    "Via": ["SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bKa", "SIP/2.0/TCP host.example;branch=b;rport"],
    "From": ["Alice <sip:alice@example.com>;tag=a1", "<sip:broken"],
    "To": ["<sip:bob@example.com>", "sip:bob@example.net;tag=b2"],
    "Call-ID": ["c1@example", "other-id"],
    "CSeq": ["7 INVITE", "not-a-cseq"],
    "Contact": ["<sip:alice@10.0.0.1:5070>", "sip:carol@10.0.0.2"],
    "Subject": ["hello   there", ""],
    "X-Trace": ["a;b=c", "  padded  "],
}
_REPEATABLE = ("Via", "Contact", "Subject", "X-Trace")


@st.composite
def wire_messages(draw) -> bytes:
    """A strictly parseable message: compact and mixed-case names,
    repeated Via (and other repeatable headers), folded lines, CRLF or
    LF-only framing, and a body with or without Content-Length."""
    names = draw(st.lists(st.sampled_from(sorted(HEADER_SPELLINGS)), max_size=10))
    names = [n for i, n in enumerate(names) if n in _REPEATABLE or n not in names[:i]]
    lines = []
    for name in names:
        value = draw(st.sampled_from(HEADER_VALUES[name]))
        cuts = [i for i, char in enumerate(value) if char in " ;"]
        if cuts and draw(st.booleans()):
            # Fold the value onto a continuation line where whitespace may go.
            cut = draw(st.sampled_from(cuts))
            value = value[:cut] + draw(st.sampled_from(["\n ", "\n\t", "\n   "])) + value[cut:]
        spelling = draw(st.sampled_from(HEADER_SPELLINGS[name]))
        lines.append(f"{spelling}:{draw(st.sampled_from(['', ' ', '  ']))}{value}")
    body = draw(st.sampled_from([b"", b"v=0\r\n", b"hello body"]))
    if draw(st.booleans()):
        lines.append(f"{draw(st.sampled_from(['Content-Length', 'l', 'content-length']))}: {len(body)}")
    start = draw(st.sampled_from(["INVITE sip:bob@example.com SIP/2.0", "SIP/2.0 180 Ringing"]))
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    text = eol.join([start, *(line.replace("\n", eol) for line in lines)]) + eol + eol
    return text.encode() + body


def _compacted(wire: bytes):
    message = parse_message(wire)
    typed_view(message)
    message.compact()
    assert message.headers._index is None and message._typed is None
    return message


READS = {
    "get": lambda m: [m.headers.get(n) for n in (*TYPED_NAMES, "X-Trace", "s", "l", "X-None")],
    "get_all": lambda m: [m.headers.get_all(n) for n in (*TYPED_NAMES, "x-trace", "Subject")],
    "in": lambda m: [n in m.headers for n in (*TYPED_NAMES, "X-Trace", "X-None")],
    "len": lambda m: len(m.headers),
    "items": lambda m: m.headers.items(),
    "repeated": lambda m: m.headers.repeated(),
    "eq": lambda m: m.headers,
    "repr": lambda m: repr(m.headers),
    "copy": lambda m: m.headers.copy().items(),
    "encode": lambda m: m.encode(),
    "typed": typed_view,
    "pickle": lambda m: pickle.loads(pickle.dumps(m)).headers.items(),
}


class TestCompactedTableReadsEqualAFreshParse:
    @given(wire=wire_messages())
    @settings(max_examples=200, deadline=None)
    def test_every_read_after_compact_equals_a_fresh_parse(self, wire):
        for name, read in READS.items():
            fresh = parse_message(wire)
            assert read(_compacted(wire)) == read(fresh), name
        fresh = parse_message(wire)
        assert _compacted(wire) == fresh and repr(_compacted(wire)) == repr(fresh)

    @given(wire=wire_messages(), ops=st.lists(mutation, min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_a_mutated_table_never_compacts_again(self, wire, ops):
        message, fresh = _compacted(wire), parse_message(wire)
        for op, name, pick in ops:
            _apply(message.headers, op, name, pick)
            _apply(fresh.headers, op, name, pick)
            message.compact()
            assert message.headers._block is None
            assert message.headers._index is not None
            assert message.headers.items() == fresh.headers.items()
            assert typed_view(message) == typed_view(fresh)
            assert pickle.loads(pickle.dumps(message.headers)) == fresh.headers

    @given(wire=wire_messages())
    @settings(max_examples=100, deadline=None)
    def test_only_a_strict_parse_keeps_its_block(self, wire):
        assert parse_message(wire).headers._block is not None
        for make in (lambda: parse_message(wire, strict=False), _built):
            message, untouched = make(), make()
            assert message.headers._block is None
            message.compact()
            assert message.headers._index is not None
            assert message.headers == untouched.headers

    def test_a_compacted_table_pickles_as_its_block(self):
        message = _compacted(_WIRE)
        table = message.headers
        blob = pickle.dumps(table)
        assert table._index is None, "pickling must not re-read the table"
        clone = pickle.loads(blob)
        assert clone._index is None and clone._block == table._block
        assert clone == parse_message(_WIRE).headers
        materialised = parse_message(_WIRE).headers
        clone = pickle.loads(pickle.dumps(materialised))
        assert clone._index is None and clone == materialised
        assert pickle.loads(pickle.dumps(_built().headers)) == _built().headers


class TestEngineKeepsNoTypedValues:
    @pytest.fixture(scope="class")
    def engine(self) -> ScidiveEngine:
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        _replay(engine, _attack_frames("call-hijack"))
        return engine

    @staticmethod
    def _messages(engine: ScidiveEngine) -> list:
        return [
            footprint.message
            for trail in engine.trails.trails.values()
            if trail.protocol is Protocol.SIP
            for footprint in trail.footprints
        ]

    def test_trail_messages_are_left_without_a_cache(self, engine):
        messages = self._messages(engine)
        assert messages
        assert all(message._typed is None for message in messages)

    def test_checkpoint_does_not_grow_with_reads(self, engine):
        before = len(engine.checkpoint())
        for message in self._messages(engine):
            typed_view(message)
        assert len(engine.checkpoint()) == before


def _flood_invite(n: int) -> bytes:
    """One INVITE of a one-source flood: a fresh call per message."""
    callee = f"sub{n % 500:06d}@carrier.example"
    return sip_frame(
        (
            f"INVITE sip:{callee} SIP/2.0\r\n"
            f"Via: SIP/2.0/UDP 10.66.0.5:5060;branch=z9hG4bK{n:08x}\r\n"
            "Max-Forwards: 70\r\n"
            f"From: <sip:mal0005@intruder.invalid>;tag=t{n:07x}\r\n"
            f"To: <sip:{callee}>\r\n"
            f"Call-ID: wl-{n:08x}@carrier.example\r\n"
            "CSeq: 1 INVITE\r\n"
            "Contact: <sip:mal0005@10.66.0.5:5060>\r\n"
            "Content-Length: 0\r\n\r\n"
        ).encode()
    )


class TestFloodInviteHeap:
    """The deterministic guard behind the peak-RSS claim: a flood
    INVITE's message is kept as its header block once processed."""

    INVITES = 2_000
    # Bytes of engine heap per INVITE (3.4 KB while every retained
    # message kept its materialised header table).
    HEAP_PER_INVITE = 2_600

    @pytest.fixture(scope="class")
    def flood(self):
        frames = [_flood_invite(n) for n in range(self.INVITES)]
        engine = ScidiveEngine()
        engine.process_frame(_flood_invite(self.INVITES), 0.0)
        gc.collect()
        tracemalloc.start()
        try:
            for n, frame in enumerate(frames):
                engine.process_frame(frame, 1.0 + n * 1e-4)
            gc.collect()
            heap = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return engine, heap

    def test_no_retained_table_is_materialised(self, flood):
        engine, _ = flood
        in_trails = [
            fp.message.headers
            for trail in engine.trails.trails.values() if trail.protocol is Protocol.SIP
            for fp in trail.footprints
        ]
        in_rings = [
            record.footprint.message.headers
            for ring in engine.forensics._sessions.values()
            for record in ring.records if hasattr(record.footprint, "message")
        ]
        assert len(in_trails) > self.INVITES and len(in_rings) > self.INVITES
        assert all(table._index is None for table in in_trails + in_rings)

    def test_heap_per_invite(self, flood):
        _, heap = flood
        assert heap / self.INVITES <= self.HEAP_PER_INVITE
