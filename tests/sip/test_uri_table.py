"""The SIP URI table: ``SipUri.parse`` shares one object per distinct
text, and that object is exactly what the uncached parser builds."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addr import VALUE_TABLE_CAP, IPv4Address
from repro.sip.uri import URI_TABLE, SipUri, UriError
from repro.workload.forge import Subscriber


def _expected_aor(uri: SipUri) -> str:
    return f"{uri.user}@{uri.host}" if uri.user else uri.host


_word = st.text(alphabet="abcXYZ019-._!%", max_size=6)
_pair = st.tuples(_word, st.one_of(st.none(), _word))


@st.composite
def uri_texts(draw) -> str:
    """``sip:`` / ``sips:`` texts with and without ``<>``, params,
    ``?headers``, outer whitespace and junk in any component."""
    scheme = draw(st.sampled_from(["sip", "sips", "SIP", "Sips", "tel", "", "sip "]))
    user = draw(st.one_of(st.just(""), _word.map(lambda w: w + "@")))
    host = draw(st.one_of(_word, st.just("Example.COM"), st.just("10.0.0.1")))
    port = draw(st.sampled_from(["", ":5060", ":0", ":65536", ":x1", ":", ":070"]))
    params = "".join(
        f";{name}" if value is None else f";{name}={value}"
        for name, value in draw(st.lists(_pair, max_size=3))
    )
    headers = "&".join(f"{n}={v}" for n, v in draw(st.lists(st.tuples(_word, _word), max_size=2)))
    text = f"{scheme}:{user}{host}{port}{params}" + (f"?{headers}" if headers else "")
    if draw(st.booleans()):
        text = f"<{text}>"
    pad = draw(st.sampled_from(["", " ", "\t", " \r\n"]))
    junk = draw(st.one_of(st.just(""), st.text(max_size=3)))
    return pad + text + junk + pad


def _outcome(parse, text: str):
    try:
        uri = parse(text)
    except UriError as exc:
        return ("error", str(exc))
    return ("ok", uri, uri.address_of_record)


class TestTableEqualsUncachedParse:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(uri_texts(), st.text(max_size=40)))
    def test_parse_equals_the_uncached_parse(self, text):
        assert _outcome(SipUri.parse, text) == _outcome(SipUri.parse_uncached, text)
        # A second lookup answers the same, from the table when valid.
        assert _outcome(SipUri.parse, text) == _outcome(SipUri.parse_uncached, text)

    @pytest.mark.parametrize("text", ["", "sip:", "http://x", "sip:a@b:99999", "sip:a@b:p"])
    def test_invalid_texts_raise_and_are_not_stored(self, text):
        with pytest.raises(UriError):
            SipUri.parse(text)
        assert text not in URI_TABLE

    def test_one_object_per_text(self):
        text = "<sip:sub000047@carrier.example;transport=udp>"
        assert SipUri.parse(text) is SipUri.parse(text)
        # Equal but distinct texts are distinct entries of equal value.
        assert SipUri.parse(text.strip("<>")) == SipUri.parse(text)

    def test_the_address_of_record_string_is_shared_too(self):
        first = SipUri.parse("sip:alice@example.com")
        again = SipUri.parse("sip:alice@example.com")
        assert first.address_of_record is again.address_of_record


class TestAddressOfRecord:
    @settings(max_examples=100, deadline=None)
    @given(uri_texts())
    def test_parsed(self, text):
        try:
            uri = SipUri.parse(text)
        except UriError:
            return
        assert uri.address_of_record == _expected_aor(uri)
        derived = uri.with_param("lr", None)
        assert derived.address_of_record == _expected_aor(derived)

    @pytest.mark.parametrize(
        "uri",
        [
            SipUri(user="alice", host="example.com"),
            SipUri(user="", host="example.com"),  # forge/ua registrar URIs
            SipUri(user="bob", host="10.0.0.20", port=5060),  # ua contact URIs
            Subscriber(index=1, user="sub000001", domain="carrier.example", ip=IPv4Address(1)).uri,
            SipUri(user="carol", host="example.com").with_param("transport", "udp"),
        ],
    )
    def test_constructed(self, uri):
        assert uri.address_of_record == _expected_aor(uri)

    def test_not_part_of_equality_or_repr(self):
        uri = SipUri(user="alice", host="example.com")
        assert "address_of_record" not in repr(uri)
        assert hash(uri) == hash(SipUri.parse_uncached("sip:alice@example.com"))


class TestCap:
    def test_filling_past_the_cap_clears_and_counts_one_drop(self):
        drops = URI_TABLE.drops
        texts = [f"sip:spoof{n:06d}@flood.invalid" for n in range(VALUE_TABLE_CAP + 1)]
        for text in texts:
            assert SipUri.parse(text) == SipUri.parse_uncached(text)
            assert len(URI_TABLE) <= VALUE_TABLE_CAP
        assert URI_TABLE.drops == drops + 1
        assert texts[-1] in URI_TABLE and len(URI_TABLE) <= VALUE_TABLE_CAP
